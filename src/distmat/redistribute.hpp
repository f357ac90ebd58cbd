// redistribute.hpp — Cyclops-style accumulating write() of packed panels.
//
// Each rank contributes the bit-packed entries it packed; one all-to-all
// exchange routes them to their owning ranks, which OR-merge them. This
// is the paper's `write()` (§IV-A): bulk, collective, and accumulating,
// so repeated coordinates are legal. Serial and SUMMA use it; the ring
// multiplies the samples each rank read and routes none. Each bucket
// travels in the compact panel wire (panel_wire.hpp), coded column-major
// as pack_batch emits it and bounds-checked against the receiver's block.
// The receiver decodes the buckets in rank order, and each rank's samples
// are one contiguous block (distmat::block_range), so the merged entries
// already ascend by column: normalize_triplets skips its column pass and
// sorts by word-row alone, before the OR-merge.
//
// Tag audit (bsp/tags.hpp): this header is collective-only — alltoall_v
// runs on comm.hpp's reserved internal tags, so no user tag is minted
// here. New point-to-point traffic must take its tag from bsp::tags.
#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "bsp/comm.hpp"
#include "distmat/panel_wire.hpp"
#include "distmat/sparse_block.hpp"

namespace sas::distmat {

/// Route `mine` to owners and return this rank's merged block.
///
/// `mine` holds global (word_row, sample, mask) entries sorted by
/// (sample, word_row) with unique coordinates — pack_batch's order — and
/// is released before the exchange. `owner_of(row, col)` maps a
/// coordinate to a rank of `comm`, and `extents` is this rank's block in
/// global ids: an entry routed here outside it fails the decode with
/// error::CorruptInput. Entries landing on the same coordinate are
/// OR-merged. The result is canonical (sorted by (row, col), unique
/// coordinates), `extents.rows.size()` × `extents.cols.size()`, with
/// coordinates relative to the extents.
template <typename OwnerFn>
[[nodiscard]] SparseBlock redistribute_panel(bsp::Comm& comm,
                                             std::vector<Triplet<std::uint64_t>> mine,
                                             OwnerFn owner_of, PanelExtents extents) {
  const int p = comm.size();
  std::vector<PanelEncoder> encoders(static_cast<std::size_t>(p),
                                     PanelEncoder(PanelOrder::kColMajor));
  for (const Triplet<std::uint64_t>& t : mine) {
    encoders[static_cast<std::size_t>(owner_of(t.row, t.col))].add(t);
  }
  mine.clear();
  mine.shrink_to_fit();
  std::vector<std::vector<std::uint8_t>> outgoing(static_cast<std::size_t>(p));
  for (std::size_t q = 0; q < outgoing.size(); ++q) {
    outgoing[q] = std::move(encoders[q]).finish();
  }
  encoders.clear();

  // Both rounds of messages are released before the sort allocates its
  // scratch, which is as large as the merged entries.
  std::vector<std::vector<std::uint8_t>> incoming = comm.alltoall_v(outgoing);
  outgoing.clear();
  std::vector<Triplet<std::uint64_t>> merged;
  for (const std::vector<std::uint8_t>& message : incoming) {
    decode_panel_append(message, PanelOrder::kColMajor, extents, merged);
  }
  incoming.clear();
  normalize_triplets(merged, extents.rows.size(), extents.cols.size(),
                     [](std::uint64_t a, std::uint64_t b) { return a | b; });
  return SparseBlock{extents.rows.size(), extents.cols.size(), std::move(merged)};
}

}  // namespace sas::distmat
