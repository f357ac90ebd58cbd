// sparse_block.hpp — a local sparse matrix block with bit-packed values.
//
// A SparseBlock holds one block of the compressed indicator matrix
// Â⁽ˡ⁾ ∈ S^{h×n} (paper Eq. 7): entries are 64-bit masks covering b rows
// of the original boolean matrix. Entries are kept sorted by (row, col)
// with no duplicate coordinates — the canonical form every kernel relies
// on. Indices are block-local; the owning structure records offsets.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "distmat/triplet.hpp"

namespace sas::distmat {

struct SparseBlock {
  std::int64_t rows = 0;  ///< word-rows in this block
  std::int64_t cols = 0;  ///< sample columns in this block
  std::vector<Triplet<std::uint64_t>> entries;  ///< sorted, deduplicated

  [[nodiscard]] std::int64_t nnz() const noexcept {
    return static_cast<std::int64_t>(entries.size());
  }

  /// Build the canonical form from unsorted, possibly duplicated entries;
  /// duplicates are OR-combined (each duplicate carries a partial mask).
  /// Every entry must lie in [0, rows) × [0, cols), or
  /// std::invalid_argument is thrown: the sort counts over those extents
  /// (normalize_triplets), and skips its column pass when the entries
  /// ascend by column, as a pack's do.
  static SparseBlock from_triplets(std::int64_t rows, std::int64_t cols,
                                   std::vector<Triplet<std::uint64_t>> raw) {
    normalize_triplets(raw, rows, cols,
                       [](std::uint64_t a, std::uint64_t b) { return a | b; });
    return SparseBlock{rows, cols, std::move(raw)};
  }
};

}  // namespace sas::distmat
