#include "core/packing.hpp"

#include <algorithm>
#include <stdexcept>

#include "distmat/dist_filter.hpp"
#include "util/error.hpp"

namespace sas::core {

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

  // (1) Distributed zero-row filter f⁽ˡ⁾, replicated on all ranks.
  // Offsets are relative to the batch start (reads carry global ids).
  std::vector<std::int64_t> filter;
  if (use_filter) {
    std::vector<std::int64_t> observed;
    for (const auto& values : reads.values) {
      for (std::int64_t v : values) observed.push_back(v - rows.begin);
    }
    filter = distmat::distributed_index_union(
        comm, std::span<const std::int64_t>(observed), batch_height, compress_filter);
  }

  PackedBatch out;
  out.filtered_rows = use_filter ? static_cast<std::int64_t>(filter.size()) : batch_height;
  out.word_rows = (out.filtered_rows + bit_width - 1) / bit_width;

  // (2) Compact and pack: consecutive compacted rows of one sample that
  // share a word are OR-merged as they stream by (offsets are sorted, and
  // the compaction map is monotone, so same-word runs are contiguous).
  // One packed triplet is emitted per (sample, word) run — up to b× fewer
  // than the raw offsets, so amortized growth beats reserving the loose
  // offset-count bound (which would pin up to 64× the needed capacity for
  // the batch's lifetime).
  const std::span<const std::int64_t> filter_span(filter);
  for (std::size_t s = 0; s < reads.samples.size(); ++s) {
    const std::int64_t col = reads.samples[s];
    std::int64_t current_word = -1;
    std::uint64_t mask = 0;
    for (std::int64_t value : reads.values[s]) {
      const std::int64_t offset = value - rows.begin;
      const std::int64_t compacted =
          use_filter ? distmat::compact_row_id(filter_span, offset) : offset;
      const std::int64_t word = compacted / bit_width;
      const int bit = static_cast<int>(compacted % bit_width);
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
