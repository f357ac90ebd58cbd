// csr.hpp — the SpGEMM hot path's Compressed Sparse Row panel.
//
// The paper's bitmask argument (§III-B) is a *storage* argument: "In the
// CSR layout, the same amount of meta-data is necessary to store each
// 'row start' count. We reduce the latter overhead ... reducing the
// number of rows (and consequently row-start counts in the CSR
// representation) by b." A CSR of the packed batch spends 8 bytes per
// word-row on row starts and an index plus a mask per entry;
// bench_paper_figures' "CSR storage" column reports that split for whole
// runs from their word-row and packed-entry counters.
//
// CsrPanel is a panel of the bit-packed indicator matrix built ONCE per
// received panel, with row starts indexed over its occupied word-rows and
// the column indices / word masks split into two contiguous (SoA)
// arrays. The tiled popcount kernel in spgemm.cpp streams those flat
// arrays instead of re-scanning 24-byte triplet runs on every multiply.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "distmat/sparse_block.hpp"
#include "distmat/triplet.hpp"

namespace sas::distmat {

/// Column-major densified form of a CsrPanel over its first `words`
/// word-rows: column c occupies data[c·words, (c+1)·words) with absent
/// rows zero. Operand of the SpGEMM dense-block path, where every output
/// cell is one store-free streaming popcount dot product.
struct DenseColumnPanel {
  std::int64_t words = 0;
  std::vector<std::uint64_t> data;

  [[nodiscard]] const std::uint64_t* column(std::int64_t c) const noexcept {
    return data.data() + static_cast<std::size_t>(c * words);
  }
};

/// Read-optimized CSR panel of the bit-packed indicator matrix — the
/// operand format of the tiled SpGEMM kernel. Only OCCUPIED word-rows
/// are indexed (sorted row_ids + compact row_ptr): the unfiltered
/// hypersparse regime has nominal row spaces of 10¹²⁺ word-rows with a
/// few thousand occupied, so a dense rows+1 pointer array is neither
/// affordable nor useful. Invariants (inherited from the SparseBlock
/// canonical form): row_ids strictly increasing, column indices strictly
/// increasing within each row, values parallel to col_idx. Built once
/// per panel; the kernels only ever read it.
struct CsrPanel {
  std::int64_t rows = 0;  ///< nominal word-rows spanned by the panel
  std::int64_t cols = 0;  ///< sample columns spanned by the panel
  std::vector<std::int64_t> row_ids;    ///< occupied word-rows, ascending
  std::vector<std::int64_t> row_ptr;    ///< size row_ids.size()+1
  std::vector<std::int64_t> col_idx;    ///< size nnz, sorted within rows
  std::vector<std::uint64_t> values;    ///< size nnz, parallel to col_idx

  [[nodiscard]] std::int64_t nnz() const noexcept {
    return static_cast<std::int64_t>(values.size());
  }
  [[nodiscard]] bool empty() const noexcept { return values.empty(); }

  /// Number of occupied word-rows.
  [[nodiscard]] std::int64_t occupied() const noexcept {
    return static_cast<std::int64_t>(row_ids.size());
  }
  /// The last occupied word-row + 1, 0 for an empty panel: the height
  /// SUMMA gives its stage panels (decode_tight_panel).
  [[nodiscard]] std::int64_t occupied_height() const noexcept {
    return row_ids.empty() ? 0 : row_ids.back() + 1;
  }
  /// Word-row id of the k-th occupied row.
  [[nodiscard]] std::int64_t row_id(std::int64_t k) const noexcept {
    return row_ids[static_cast<std::size_t>(k)];
  }
  /// Entry range of the k-th occupied row into col_idx/values.
  [[nodiscard]] std::int64_t row_begin(std::int64_t k) const noexcept {
    return row_ptr[static_cast<std::size_t>(k)];
  }
  [[nodiscard]] std::int64_t row_end(std::int64_t k) const noexcept {
    return row_ptr[static_cast<std::size_t>(k) + 1];
  }
  [[nodiscard]] std::int64_t row_nnz(std::int64_t k) const noexcept {
    return row_end(k) - row_begin(k);
  }

  /// Build from canonical triplets (sorted by (row, col), unique coords,
  /// rows in [0, rows)). One pass; cost is O(nnz), independent of `rows`.
  [[nodiscard]] static CsrPanel from_triplets(std::int64_t rows, std::int64_t cols,
                                              std::span<const Triplet<std::uint64_t>> entries) {
    CsrPanel p;
    p.rows = rows;
    p.cols = cols;
    p.col_idx.reserve(entries.size());
    p.values.reserve(entries.size());
    for (const Triplet<std::uint64_t>& t : entries) {
      if (p.row_ids.empty() || p.row_ids.back() != t.row) {
        p.row_ids.push_back(t.row);
        p.row_ptr.push_back(static_cast<std::int64_t>(p.col_idx.size()));
      }
      p.col_idx.push_back(t.col);
      p.values.push_back(t.value);
    }
    p.row_ptr.push_back(static_cast<std::int64_t>(p.col_idx.size()));
    return p;
  }

  /// Build from a canonical SparseBlock (the post-redistribution form).
  [[nodiscard]] static CsrPanel from_block(const SparseBlock& block) {
    return from_triplets(block.rows, block.cols,
                         std::span<const Triplet<std::uint64_t>>(block.entries));
  }

  /// Lazily densified column-major form over the first `words` word-rows,
  /// memoized so the loop-invariant L panel of the ring is densified once
  /// per batch rather than once per step (all ring panels share the same
  /// word-row space, so `words` is stable across steps). Not thread-safe:
  /// the SpGEMM kernel densifies before spawning its tile workers.
  [[nodiscard]] const DenseColumnPanel& dense_columns(std::int64_t words) const {
    if (dense_cache_.words != words || dense_cache_.data.empty()) {
      dense_cache_.words = words;
      dense_cache_.data.assign(static_cast<std::size_t>(words * cols), 0);
      for (std::int64_t k = 0; k < occupied(); ++k) {
        const std::int64_t r = row_id(k);
        if (r >= words) break;  // taller panel than the shared row space
        for (std::int64_t e = row_begin(k); e < row_end(k); ++e) {
          dense_cache_.data[static_cast<std::size_t>(
              col_idx[static_cast<std::size_t>(e)] * words + r)] =
              values[static_cast<std::size_t>(e)];
        }
      }
    }
    return dense_cache_;
  }

 private:
  mutable DenseColumnPanel dense_cache_;
};

}  // namespace sas::distmat
