#include "core/packing.hpp"

#include <stdexcept>
#include <utility>

#include "distmat/dist_filter.hpp"
#include "util/error.hpp"
#include "util/radix_sort.hpp"

namespace sas::core {

namespace {

/// A rank's distinct rows of one batch, as ascending offsets from the
/// batch start, and for each value read, in sample-major order, its row's
/// index among them.
struct RowNumbering {
  std::vector<std::int64_t> seen;
  std::vector<std::int64_t> index_of;
};

/// Dense batches: mark each value's row in an index over the batch's
/// `height` rows, number the marked rows in one ascending walk, and look
/// each value's number up.
RowNumbering number_rows_directly(const BatchReads& reads, std::int64_t begin,
                                  std::int64_t height, std::size_t total) {
  std::vector<std::int64_t> index(static_cast<std::size_t>(height), -1);
  for (const auto& values : reads.values) {
    for (std::int64_t v : values) index[static_cast<std::size_t>(v - begin)] = 0;
  }
  RowNumbering out;
  for (std::size_t row = 0; row < index.size(); ++row) {
    if (index[row] < 0) continue;
    index[row] = static_cast<std::int64_t>(out.seen.size());
    out.seen.push_back(static_cast<std::int64_t>(row));
  }
  out.index_of.reserve(total);
  for (const auto& values : reads.values) {
    for (std::int64_t v : values) {
      out.index_of.push_back(index[static_cast<std::size_t>(v - begin)]);
    }
  }
  return out;
}

/// Sparse batches: radix-sort (row, value) pairs by row, then number the
/// distinct rows in one walk and scatter each number to its value.
RowNumbering number_rows_by_sort(const BatchReads& reads, std::int64_t begin,
                                 std::size_t total) {
  struct Entry {
    std::int64_t row;
    std::size_t value;
  };
  std::vector<Entry> entries;
  entries.reserve(total);
  std::uint64_t row_bits = 0;
  for (const auto& values : reads.values) {
    for (std::int64_t v : values) {
      row_bits |= static_cast<std::uint64_t>(v - begin);
      entries.push_back({v - begin, entries.size()});
    }
  }
  {
    std::vector<Entry> scratch;
    radix_sort(entries, scratch, significant_bits(row_bits),
               [](const Entry& e) { return static_cast<std::uint64_t>(e.row); });
  }
  RowNumbering out;
  out.index_of.resize(total);
  for (const Entry& e : entries) {
    if (out.seen.empty() || out.seen.back() != e.row) out.seen.push_back(e.row);
    out.index_of[e.value] = static_cast<std::int64_t>(out.seen.size()) - 1;
  }
  return out;
}

}  // namespace

BatchReads read_batch(int rank, int nranks, const SampleSource& source,
                      distmat::BlockRange rows, std::span<const std::uint8_t> active) {
  const distmat::BlockRange mine =
      distmat::block_range(source.sample_count(), nranks, rank);
  BatchReads reads;
  reads.samples.reserve(static_cast<std::size_t>(mine.size()));
  reads.values.reserve(static_cast<std::size_t>(mine.size()));
  for (std::int64_t i = mine.begin; i < mine.end; ++i) {
    if (!active.empty() && active[static_cast<std::size_t>(i)] == 0) continue;
    reads.samples.push_back(i);
    reads.values.push_back(source.values_in_range(i, rows));
  }
  return reads;
}

PackedBatch pack_batch(bsp::Comm& comm, const BatchReads& reads,
                       distmat::BlockRange rows, int bit_width, bool use_filter,
                       bool compress_filter) {
  if (bit_width < 1 || bit_width > 64) {
    throw std::invalid_argument("pack_batch: bit_width must be in [1, 64]");
  }
  const std::int64_t batch_height = rows.size();

  // (1) Distributed zero-row filter f⁽ˡ⁾ (Eq. 5–6). Numbering this rank's
  // rows, offsets from the batch start (reads carry global ids),
  // deduplicates them and records each value's row among the distinct
  // rows. The rows' block owners answer each distinct row's compacted id,
  // so no value is looked up in a filter.
  PackedBatch out;
  out.filtered_rows = batch_height;
  std::vector<std::int64_t> compacted_of;  // per value, sample-major
  if (use_filter) {
    std::size_t total = 0;
    for (const auto& values : reads.values) total += values.size();
    RowNumbering numbering =
        batch_height <= kDirectIndexRowsPerValue * static_cast<std::int64_t>(total)
            ? number_rows_directly(reads, rows.begin, batch_height, total)
            : number_rows_by_sort(reads, rows.begin, total);
    const distmat::CompactedRows compacted =
        distmat::compact_filter_rows(comm, numbering.seen, batch_height, compress_filter);
    out.filtered_rows = compacted.filtered_rows;
    compacted_of = std::move(numbering.index_of);
    for (std::int64_t& id : compacted_of) id = compacted.ids[static_cast<std::size_t>(id)];
  }
  out.word_rows = (out.filtered_rows + bit_width - 1) / bit_width;

  // (2) Compact and pack: consecutive compacted rows of one sample that
  // share a word are OR-merged as they stream by (offsets are sorted, and
  // the compaction map is monotone, so same-word runs are contiguous).
  // One packed triplet is emitted per (sample, word) run — up to b× fewer
  // than the raw offsets, so amortized growth beats reserving the loose
  // offset-count bound (which would pin up to 64× the needed capacity for
  // the batch's lifetime).
  std::size_t next = 0;
  for (std::size_t s = 0; s < reads.samples.size(); ++s) {
    const std::int64_t col = reads.samples[s];
    std::int64_t current_word = -1;
    std::uint64_t mask = 0;
    for (std::int64_t value : reads.values[s]) {
      const std::int64_t row = use_filter ? compacted_of[next++] : value - rows.begin;
      const std::int64_t word = row / bit_width;
      const int bit = static_cast<int>(row % bit_width);
      if (word != current_word) {
        if (current_word >= 0) out.triplets.push_back({current_word, col, mask});
        current_word = word;
        mask = 0;
      }
      mask |= (1ULL << bit);
    }
    if (current_word >= 0) out.triplets.push_back({current_word, col, mask});
  }
  return out;
}

PackedBatch pack_batch(bsp::Comm& comm, const SampleSource& source,
                       distmat::BlockRange rows, int bit_width, bool use_filter,
                       bool compress_filter) {
  return pack_batch(comm, read_batch(comm.rank(), comm.size(), source, rows), rows,
                    bit_width, use_filter, compress_filter);
}

std::vector<std::uint64_t> pack_word_panel(
    const std::vector<std::vector<std::uint64_t>>& blobs) {
  std::size_t payload = 0;
  for (const auto& blob : blobs) payload += blob.size();
  std::vector<std::uint64_t> panel;
  panel.reserve(1 + blobs.size() + payload);
  panel.push_back(blobs.size());
  for (const auto& blob : blobs) panel.push_back(blob.size());
  for (const auto& blob : blobs) panel.insert(panel.end(), blob.begin(), blob.end());
  return panel;
}

std::vector<std::span<const std::uint64_t>> unpack_word_panel(
    std::span<const std::uint64_t> panel) {
  if (panel.empty()) throw error::CorruptInput("unpack_word_panel: empty panel");
  // Sizes are compared by subtraction, so a damaged count or length near
  // 2^64 cannot wrap a sum past the checks.
  const std::uint64_t count = panel[0];
  if (count > panel.size() - 1) {
    throw error::CorruptInput("unpack_word_panel: truncated length table");
  }
  std::vector<std::span<const std::uint64_t>> views;
  views.reserve(static_cast<std::size_t>(count));
  std::size_t offset = 1 + static_cast<std::size_t>(count);
  for (std::size_t i = 0; i < count; ++i) {
    const std::uint64_t len = panel[1 + i];
    if (len > panel.size() - offset) {
      throw error::CorruptInput("unpack_word_panel: truncated payload");
    }
    views.push_back(panel.subspan(offset, static_cast<std::size_t>(len)));
    offset += static_cast<std::size_t>(len);
  }
  if (offset != panel.size()) {
    throw error::CorruptInput("unpack_word_panel: trailing bytes");
  }
  return views;
}

}  // namespace sas::core
