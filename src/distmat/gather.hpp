// gather.hpp — assemble the distributed output on the root, dense or
// survivor-sparse.
//
// Used at the very end of the pipeline to hand the similarity matrix to
// downstream consumers (tree building, clustering, file output). Two
// forms:
//
//   gather_blocks_to_root   — each contributing rank ships (ranges,
//     values) of its dense blocks; rank 0 stitches the full rows×cols
//     matrix, mirroring each block for a symmetric product that shipped
//     one triangle (the ring shares of the exact ring and of the sketch
//     ring, distmat/ring.hpp); the serial and SUMMA output panels ship
//     one block per rank, unmirrored. Rank 0 holds rows·cols values —
//     8·n² bytes for the n×n similarity output (~20 GB at n = 50k),
//     which is why the mask-gated pipelines avoid this path by default.
//   gather_triplets_to_root — each rank ships only its (i, j, value)
//     triplets (for the hybrid: its block's cells that survive the
//     candidate mask, walked by CandidateMask::for_each_pair_in with the
//     i < j convention so disjoint blocks emit disjoint triplets); rank 0
//     merges the sorted pair lists. Bytes and rank-0 memory are
//     O(survivors), not O(n²).
//
// Tag audit (bsp/tags.hpp): both forms are built on gather_v, which runs
// on comm.hpp's reserved internal tags — no user tag is minted here. New
// point-to-point traffic must take its tag from bsp::tags.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <vector>

#include "bsp/comm.hpp"
#include "distmat/dense_block.hpp"
#include "distmat/triplet.hpp"

namespace sas::distmat {

/// Collective over `comm`: each rank ships any number of dense blocks
/// (ranges, then values) and rank 0 writes them into the rows×cols
/// row-major matrix — with `mirror`, each block's transpose too, so a
/// symmetric product ships only the blocks one triangle needs (the ring
/// shares). Blocks must not overlap unless they agree. Returns the
/// assembled matrix on rank 0 and an empty vector elsewhere.
template <typename T>
[[nodiscard]] std::vector<T> gather_blocks_to_root(bsp::Comm& comm,
                                                   std::span<const DenseBlock<T>> blocks,
                                                   std::int64_t rows, std::int64_t cols,
                                                   bool mirror) {
  static_assert(std::is_trivially_copyable_v<T>);
  if (mirror && rows != cols) {
    throw std::invalid_argument("gather_blocks_to_root: mirror needs a square matrix");
  }
  std::vector<std::int64_t> header;
  std::vector<T> payload;
  for (const DenseBlock<T>& block : blocks) {
    header.insert(header.end(), {block.row_range.begin, block.row_range.end,
                                 block.col_range.begin, block.col_range.end});
    payload.insert(payload.end(), block.values.begin(), block.values.end());
  }
  auto headers = comm.gather_v<std::int64_t>(std::span<const std::int64_t>(header), 0);
  auto payloads = comm.gather_v<T>(std::span<const T>(payload), 0);
  if (comm.rank() != 0) return {};

  std::vector<T> full(static_cast<std::size_t>(rows * cols), T{});
  for (std::size_t r = 0; r < headers.size(); ++r) {
    const std::vector<std::int64_t>& ranges = headers[r];
    const T* vals = payloads[r].data();
    for (std::size_t b = 0; b + 4 <= ranges.size(); b += 4) {
      const std::int64_t rb = ranges[b];
      const std::int64_t re = ranges[b + 1];
      const std::int64_t cb = ranges[b + 2];
      const std::int64_t ce = ranges[b + 3];
      const auto row = [&](std::int64_t i) { return vals + (i - rb) * (ce - cb); };
      for (std::int64_t i = rb; i < re; ++i) {
        std::copy(row(i), row(i) + (ce - cb),
                  full.begin() + static_cast<std::ptrdiff_t>(i * cols + cb));
      }
      if (mirror) {
        // The transpose goes in square tiles, so its strided side stays
        // cache-resident.
        constexpr std::int64_t kTile = 64;
        for (std::int64_t ib = rb; ib < re; ib += kTile) {
          for (std::int64_t jb = cb; jb < ce; jb += kTile) {
            for (std::int64_t j = jb; j < std::min(jb + kTile, ce); ++j) {
              for (std::int64_t i = ib; i < std::min(ib + kTile, re); ++i) {
                full[static_cast<std::size_t>(j * cols + i)] = row(i)[j - cb];
              }
            }
          }
        }
      }
      vals += (re - rb) * (ce - cb);
    }
  }
  return full;
}

/// Collective over `comm`: gather each rank's coordinate triplets on
/// rank 0, merged into (row, col) order. Contributions must cover
/// disjoint coordinates (the for_each_pair_in block walk guarantees
/// this); duplicates are rejected to catch mis-partitioned callers.
/// Returns the merged triplets on rank 0 and an empty vector elsewhere.
template <typename T>
[[nodiscard]] std::vector<Triplet<T>> gather_triplets_to_root(
    bsp::Comm& comm, std::vector<Triplet<T>> mine) {
  static_assert(std::is_trivially_copyable_v<Triplet<T>>);
  auto blocks = comm.gather_v<Triplet<T>>(std::span<const Triplet<T>>(mine), 0);
  if (comm.rank() != 0) return {};
  std::size_t total = 0;
  for (const auto& block : blocks) total += block.size();
  std::vector<Triplet<T>> merged;
  merged.reserve(total);
  for (auto& block : blocks) {
    merged.insert(merged.end(), block.begin(), block.end());
  }
  std::sort(merged.begin(), merged.end(),
            [](const Triplet<T>& a, const Triplet<T>& b) { return triplet_order(a, b); });
  for (std::size_t s = 1; s < merged.size(); ++s) {
    if (merged[s].row == merged[s - 1].row && merged[s].col == merged[s - 1].col) {
      throw std::logic_error("gather_triplets_to_root: overlapping contributions");
    }
  }
  return merged;
}

}  // namespace sas::distmat
