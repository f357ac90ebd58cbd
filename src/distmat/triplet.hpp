// triplet.hpp — coordinate-format sparse entries and normalization.
//
// Triplets are the in-memory form of sparse data: packed batches,
// SparseBlock panels and the survivor gather. The exact pipeline's panels
// travel between ranks in the compact panel wire (panel_wire.hpp), not as
// Triplet arrays. normalize_triplets sorts and merges duplicates under a
// caller-supplied combine operation, which is how the Cyclops-style
// accumulating write() is realized (paper §IV-A).
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <type_traits>
#include <vector>

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
template <typename T, typename Combine>
void normalize_triplets(std::vector<Triplet<T>>& entries, Combine combine) {
  std::sort(entries.begin(), entries.end(), triplet_order<T>);
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
