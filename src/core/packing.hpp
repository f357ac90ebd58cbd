// packing.hpp — per-batch preprocessing (paper §III-B, Listing 2's
// preprocessInput), split into the driver's first two pipeline stages:
//
//   ingest (read_batch)  — read the attribute values of this rank's
//      block of samples, distmat::block_range(n, p, rank), restricted to
//      the batch. Purely local; the returned values are GLOBAL attribute
//      ids.
//   pack (pack_batch)    — send the rank's distinct row offsets to their
//      row-block owners, which form the filter f⁽ˡ⁾ (Eq. 5) and answer
//      each with its compacted id, the prefix sum p⁽ˡ⁾ of the filter
//      (Eq. 6; distmat::compact_filter_rows); remap each value to its
//      row's id through the index the rank's own dedup recorded; and pack
//      segments of `bit_width` compacted rows into word masks (Eq. 7). No
//      rank holds the whole filter.
//
// The dedup numbers the rank's distinct rows in ascending order and
// records each value's number, in one of two linear passes. A dense batch,
// at most kDirectIndexRowsPerValue rows per value read, marks its rows in
// a direct index over the batch and walks it; a sparser one, such as an
// unfiltered batch of about 10¹² rows, radix-sorts (row, value) pairs by
// the rows' significant bits (util/radix_sort.hpp). Both give the same
// numbers, so the filter's messages and the packed triplets do not depend
// on which ran.
//
// The hybrid reads only the samples its candidate mask keeps, so pruned
// samples cost no reads and no filter bytes. The output triplets
// are globally indexed (word_row, sample) pairs in sample-major order.
// The ring multiplies the block it read, so its panel is these triplets
// with local columns; serial and SUMMA route them to their owners with
// distmat::redistribute_panel, which codes them on the wire in this order.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "bsp/comm.hpp"
#include "core/sample_source.hpp"
#include "distmat/block.hpp"
#include "distmat/triplet.hpp"

namespace sas::core {

/// One rank's raw reads of one row batch (the ingest stage): the global
/// attribute ids of each sample read from this rank's block, restricted
/// to the batch's row range.
struct BatchReads {
  std::vector<std::int64_t> samples;  ///< global sample ids, ascending
  std::vector<std::vector<std::int64_t>> values;  ///< sorted global attribute ids
};

/// Ingest stage: read batch `rows` of the samples in
/// distmat::block_range(n, nranks, rank), in order, skipping each sample i
/// with active[i] == 0 when `active` is non-empty. Local — no communication.
[[nodiscard]] BatchReads read_batch(int rank, int nranks, const SampleSource& source,
                                    distmat::BlockRange rows,
                                    std::span<const std::uint8_t> active = {});

/// Widest batch, in rows per value read, that pack_batch numbers through
/// a direct index rather than the radix sort. The index costs 8 B a batch
/// row and the sort 32 B a value (its (row, value) pairs and their
/// scratch), so up to 4 rows a value the index costs no more memory, and
/// its two sweeps touch each row once where the sort scatters each value
/// once per digit.
inline constexpr std::int64_t kDirectIndexRowsPerValue = 4;

struct PackedBatch {
  /// h: word-rows of the packed batch matrix Â⁽ˡ⁾ (absent words are zero).
  std::int64_t word_rows = 0;
  /// Rows surviving the zero-row filter (batch height m̃ when filtering is
  /// disabled). Equals the length of the filter vector's support.
  std::int64_t filtered_rows = 0;
  /// This rank's packed entries: (word_row, sample, mask), global indices,
  /// sorted by (sample, word_row) with at most one entry per pair.
  std::vector<distmat::Triplet<std::uint64_t>> triplets;
};

/// Pack stage, collective over `comm`: filter + compact + bitmask-pack
/// one batch of reads. `bit_width` ∈ [1, 64] is the paper's b;
/// `use_filter` toggles the zero-row compaction (Eq. 5–6);
/// `compress_filter` ships the filter's contributions and replies in the
/// set-bit wire code (distmat/panel_wire.hpp, as the panels travel)
/// instead of raw 8-byte words — same ids, fewer bytes. A reply that
/// distmat::decode_filter_reply rejects fails with error::CorruptInput.
[[nodiscard]] PackedBatch pack_batch(bsp::Comm& comm, const BatchReads& reads,
                                     distmat::BlockRange rows, int bit_width,
                                     bool use_filter, bool compress_filter = true);

/// Convenience fusion of the two stages (tests, callers that do not need
/// the reads for anything else).
[[nodiscard]] PackedBatch pack_batch(bsp::Comm& comm, const SampleSource& source,
                                     distmat::BlockRange rows, int bit_width,
                                     bool use_filter, bool compress_filter = true);

// ---- sketch-panel wire packing -------------------------------------------
//
// The sketch-exchange pipeline (sketch/exchange.hpp) rotates one message
// per ring step: a rank's per-sample sketch blobs flattened into a single
// contiguous word vector. The layout is self-describing so a received
// panel can be sliced back into per-sample views without copies:
//
//   [count, len_0, ..., len_{count-1}, payload_0, ..., payload_{count-1}]

/// Flatten per-sample word blobs into one wire panel.
[[nodiscard]] std::vector<std::uint64_t> pack_word_panel(
    const std::vector<std::vector<std::uint64_t>>& blobs);

/// Slice a packed panel back into per-blob views. The returned spans
/// alias `panel`; throws error::CorruptInput unless the length table and
/// the payloads fill `panel` exactly.
[[nodiscard]] std::vector<std::span<const std::uint64_t>> unpack_word_panel(
    std::span<const std::uint64_t> panel);

}  // namespace sas::core
