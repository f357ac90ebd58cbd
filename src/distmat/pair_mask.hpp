// pair_mask.hpp — the hybrid's candidate-pair mask, stored as a CSR of
// pairs.
//
// The sketch-prune pass of the hybrid estimator (core/driver.hpp stage
// diagram) keeps every pair whose estimated Jaccard clears the prune
// threshold; the exact rescore pass then consults the mask at three
// granularities:
//
//   * column level  — a sample with no surviving off-diagonal pair is
//                     never read (core::read_batch), so its panel
//                     entries never enter the network;
//   * panel level   — the targeted 1D exchange ships a panel column to a
//                     peer only when the mask pairs it with one of the
//                     rows of that peer's ring share, so each crossing
//                     pair's column travels one way (spgemm.hpp);
//   * tile level    — the CSR kernel skips output-column tiles whose
//                     pair set is fully pruned (CsrAtaOptions::prune).
//
// CandidateMask keeps one sorted partner list per row, with the diagonal
// and both directions of every pair stored so the probes need no
// mirroring. Every rank holds the same mask: both candidate passes
// (sketch/exchange.hpp) replicate the union of the ranks' kept pairs
// with allreduce_pair_union (dist_filter.hpp), which ships one packed
// 8-byte word per pair.
//
// At 8 bytes per stored entry the mask costs 16 bytes per surviving pair
// plus 8 per sample and the row pointers, where an n×n bitset would cost
// n²/8 bytes whatever survives. The bitset is smaller only when more than
// one pair in 64 survives (about n/64 partners per sample). A hybrid run
// in that regime rescores so many pairs that it already costs more than
// the exact run it replaces, so the mask is never stored as a bitset.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <utility>
#include <vector>

#include "distmat/block.hpp"

namespace sas::distmat {

class CandidateMask {
 public:
  CandidateMask() = default;

  /// Mask over n < 2³¹ samples from packed OFF-DIAGONAL upper pairs
  /// (i < j, pack_pair format; any order, duplicates tolerated). The
  /// diagonal and the mirrored (j, i) entries are added automatically.
  CandidateMask(std::int64_t n, std::span<const std::uint64_t> packed_upper_pairs)
      : n_(n) {
    if (n < 0 || n >= kMaxIndex) {
      throw std::invalid_argument("CandidateMask: sample ids must fit 31 bits");
    }
    std::vector<std::uint64_t> entries;
    entries.reserve(static_cast<std::size_t>(n) + 2 * packed_upper_pairs.size());
    for (std::int64_t i = 0; i < n; ++i) {
      entries.push_back(pack_pair_unchecked(i, i));
    }
    for (std::uint64_t packed : packed_upper_pairs) {
      const auto [i, j] = unpack_pair(packed);
      if (j <= i || j >= n) {
        throw std::invalid_argument("CandidateMask: pair out of range");
      }
      entries.push_back(pack_pair_unchecked(i, j));
      entries.push_back(pack_pair_unchecked(j, i));
    }
    std::sort(entries.begin(), entries.end());
    entries.erase(std::unique(entries.begin(), entries.end()), entries.end());

    row_ptr_.assign(static_cast<std::size_t>(n) + 1, 0);
    cols_.reserve(entries.size());
    for (std::uint64_t packed : entries) {
      const auto [i, j] = unpack_pair(packed);
      ++row_ptr_[static_cast<std::size_t>(i) + 1];
      cols_.push_back(j);
    }
    for (std::size_t r = 0; r < static_cast<std::size_t>(n); ++r) {
      row_ptr_[r + 1] += row_ptr_[r];
    }
  }

  /// (i, j) packed into one word, i in the high half — sorting packed
  /// pairs sorts by (i, j). Indices must fit 31 bits.
  [[nodiscard]] static std::uint64_t pack_pair(std::int64_t i, std::int64_t j) {
    if (i < 0 || j < 0 || i >= kMaxIndex || j >= kMaxIndex) {
      throw std::invalid_argument("CandidateMask::pack_pair: index exceeds 31 bits");
    }
    return pack_pair_unchecked(i, j);
  }

  [[nodiscard]] static std::pair<std::int64_t, std::int64_t> unpack_pair(
      std::uint64_t packed) noexcept {
    return {static_cast<std::int64_t>(packed >> 32),
            static_cast<std::int64_t>(packed & 0xffffffffULL)};
  }

  [[nodiscard]] bool test(std::int64_t i, std::int64_t j) const noexcept {
    const auto [begin, end] = row_span(i);
    return std::binary_search(begin, end, j);
  }

  /// Stored entries: the diagonal plus both directions of every pair.
  [[nodiscard]] std::int64_t count() const noexcept {
    return static_cast<std::int64_t>(cols_.size());
  }

  /// Any candidate in the [rows × cols] tile? The kernel's skip probe.
  [[nodiscard]] bool any_pair(BlockRange rows, BlockRange cols) const noexcept {
    if (rows.size() <= 0 || cols.size() <= 0) return false;
    for (std::int64_t i = rows.begin; i < rows.end; ++i) {
      const auto [begin, end] = row_span(i);
      const auto it = std::lower_bound(begin, end, cols.begin);
      if (it != end && *it < cols.end) return true;
    }
    return false;
  }

  /// Does sample i have any surviving partner other than itself?
  [[nodiscard]] bool row_active(std::int64_t i) const noexcept {
    const auto [begin, end] = row_span(i);
    const std::int64_t deg = end - begin;
    return deg > 1 || (deg == 1 && *begin != i);
  }

  /// Per-sample activity flags (row_active for every sample) — the
  /// column-dropping predicate of the rescore pass.
  [[nodiscard]] std::vector<std::uint8_t> active_columns() const {
    std::vector<std::uint8_t> active(static_cast<std::size_t>(n_), 0);
    for (std::int64_t i = 0; i < n_; ++i) {
      active[static_cast<std::size_t>(i)] = row_active(i) ? 1 : 0;
    }
    return active;
  }

  /// Visit every masked off-diagonal pair (i, j) with i ∈ rows, j ∈ cols
  /// and i < j, in (i, j) order. Restricting to i < j means a pair is
  /// visited by exactly ONE block of any disjoint block cover of the
  /// matrix (the mirrored cell (j, i) fails the test in its block) —
  /// this is the survivor-gather walk: each owning rank emits its
  /// block's surviving (i, j, value) triplets and the concatenation
  /// covers every survivor exactly once. The ring's shares cover one
  /// triangle of blocks, so a share below the diagonal is walked as its
  /// transpose. O(Σᵢ log deg + hits).
  template <typename Visitor>
  void for_each_pair_in(BlockRange rows, BlockRange cols, Visitor&& visit) const {
    const BlockRange r{std::max<std::int64_t>(rows.begin, 0), std::min(rows.end, n_)};
    const BlockRange c{std::max<std::int64_t>(cols.begin, 0), std::min(cols.end, n_)};
    if (r.size() <= 0 || c.size() <= 0) return;
    for (std::int64_t i = r.begin; i < r.end; ++i) {
      const auto [begin, end] = row_span(i);
      for (auto it = std::lower_bound(begin, end, std::max(c.begin, i + 1));
           it != end && *it < c.end; ++it) {
        visit(i, *it);
      }
    }
  }

 private:
  static constexpr std::int64_t kMaxIndex = std::int64_t{1} << 31;

  [[nodiscard]] static std::uint64_t pack_pair_unchecked(std::int64_t i,
                                                         std::int64_t j) noexcept {
    return (static_cast<std::uint64_t>(i) << 32) | static_cast<std::uint64_t>(j);
  }

  [[nodiscard]] std::pair<const std::int64_t*, const std::int64_t*> row_span(
      std::int64_t i) const noexcept {
    return {cols_.data() + row_ptr_[static_cast<std::size_t>(i)],
            cols_.data() + row_ptr_[static_cast<std::size_t>(i) + 1]};
  }

  std::int64_t n_ = 0;
  std::vector<std::int64_t> row_ptr_;  ///< n + 1 prefix offsets into cols_
  std::vector<std::int64_t> cols_;     ///< sorted partners per row (diag incl.)
};

}  // namespace sas::distmat
