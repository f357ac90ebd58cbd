// triplet.hpp — coordinate-format sparse entries and normalization.
//
// Triplets are the in-memory form of sparse data: packed batches,
// SparseBlock panels and the survivor gather. The exact pipeline's panels
// travel between ranks in the compact panel wire (panel_wire.hpp), not as
// Triplet arrays. normalize_triplets sorts and merges duplicates under a
// caller-supplied combine operation, which is how the Cyclops-style
// accumulating write() is realized (paper §IV-A). The block's extents
// bound every coordinate, so the sort counts instead of comparing: stable
// radix passes by column, then by row (util/radix_sort.hpp).
#pragma once

#include <cstdint>
#include <span>
#include <stdexcept>
#include <type_traits>
#include <vector>

#include "util/radix_sort.hpp"

namespace sas::distmat {

/// One sparse entry. Trivially copyable, so it can be shipped through
/// bsp::Comm (the survivor gather does).
template <typename T>
struct Triplet {
  std::int64_t row = 0;
  std::int64_t col = 0;
  T value{};

  friend bool operator==(const Triplet&, const Triplet&) = default;
};

static_assert(std::is_trivially_copyable_v<Triplet<std::uint64_t>>);

/// Row-major (row, col) ordering.
template <typename T>
[[nodiscard]] inline bool triplet_order(const Triplet<T>& a, const Triplet<T>& b) noexcept {
  return a.row != b.row ? a.row < b.row : a.col < b.col;
}

/// Sort by (row, col) and merge duplicate coordinates with `combine`.
/// For the bit-packed indicator matrix, combine is bitwise OR; for count
/// accumulation it is +.
///
/// Every coordinate must lie in [0, rows) × [0, cols), the block's
/// extents; one outside throws std::invalid_argument. The sort is stable:
/// a radix pass by column, skipped when the entries already ascend by
/// column (pack_batch's order, which the ring's panel and
/// redistribute_panel's rank-ordered decode keep), then one by row. Each
/// sorts only the significant bits of its keys and allocates O(nnz + 2¹¹),
/// never O(rows): unfiltered batches span about 10¹² word-rows.
template <typename T, typename Combine>
void normalize_triplets(std::vector<Triplet<T>>& entries, std::int64_t rows,
                        std::int64_t cols, Combine combine) {
  std::uint64_t row_bits = 0;
  std::uint64_t col_bits = 0;
  bool cols_ascend = true;
  std::int64_t last_col = 0;
  for (const Triplet<T>& t : entries) {
    if (t.row < 0 || t.row >= rows || t.col < 0 || t.col >= cols) {
      throw std::invalid_argument("normalize_triplets: coordinate outside the block");
    }
    row_bits |= static_cast<std::uint64_t>(t.row);
    col_bits |= static_cast<std::uint64_t>(t.col);
    cols_ascend = cols_ascend && t.col >= last_col;
    last_col = t.col;
  }
  std::vector<Triplet<T>> scratch;
  if (!cols_ascend) {
    radix_sort(entries, scratch, significant_bits(col_bits),
               [](const Triplet<T>& t) { return static_cast<std::uint64_t>(t.col); });
  }
  radix_sort(entries, scratch, significant_bits(row_bits),
             [](const Triplet<T>& t) { return static_cast<std::uint64_t>(t.row); });
  std::size_t out = 0;
  for (std::size_t i = 0; i < entries.size(); ++i) {
    if (out > 0 && entries[out - 1].row == entries[i].row &&
        entries[out - 1].col == entries[i].col) {
      entries[out - 1].value = combine(entries[out - 1].value, entries[i].value);
    } else {
      entries[out++] = entries[i];
    }
  }
  entries.resize(out);
}

}  // namespace sas::distmat
