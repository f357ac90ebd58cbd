// similarity_matrix.hpp — the Jaccard similarity matrix S, in a dense
// and a sparse (survivor-proportional) representation.
//
// Produced by the driver on the root rank; offers both views the paper
// defines (§II-A): similarity J and distance d_J = 1 − J, plus the
// convention J(∅, ∅) = 1.
//
// SimilarityMatrix is the dense n×n form: the natural output of the
// exact all-pairs pipeline and the sketch estimators (every pair is
// computed), and the right call at small n. SparseSimilarity is the
// thresholded-output form the hybrid estimator always assembles: only
// the pairs that survived the sketch prune carry exactly rescored values
// (bitwise equal to the exact pipeline's), pruned-but-scored pairs
// carry their sketch estimates, everything else reads as 0.0, and the
// diagonal is 1.0 by the J(X, X) = 1 / J(∅, ∅) = 1 conventions. Resident
// bytes are O(survivors + scored estimates + n), never O(n²) — at
// n = 50k the dense doubles alone are ~20 GB while a pair-sparse corpus
// assembles in a few MB.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace sas::core {

class SimilarityMatrix {
 public:
  SimilarityMatrix() = default;
  SimilarityMatrix(std::int64_t n, std::vector<double> values);

  [[nodiscard]] std::int64_t size() const noexcept { return n_; }
  [[nodiscard]] bool empty() const noexcept { return n_ == 0; }

  /// J(Xᵢ, Xⱼ) ∈ [0, 1].
  [[nodiscard]] double similarity(std::int64_t i, std::int64_t j) const {
    return values_[static_cast<std::size_t>(i * n_ + j)];
  }

  /// d_J(Xᵢ, Xⱼ) = 1 − J(Xᵢ, Xⱼ); a metric on finite sets.
  [[nodiscard]] double distance(std::int64_t i, std::int64_t j) const {
    return 1.0 - similarity(i, j);
  }

  [[nodiscard]] const std::vector<double>& values() const noexcept { return values_; }

  /// Full distance matrix (for clustering / tree-building consumers).
  [[nodiscard]] std::vector<double> distance_matrix() const;

  /// Maximum |S − other| entry — used by the equivalence tests.
  [[nodiscard]] double max_abs_diff(const SimilarityMatrix& other) const;

 private:
  std::int64_t n_ = 0;
  std::vector<double> values_;  // row-major n×n
};

/// Survivor-proportional similarity view (the hybrid's sparse output).
///
/// Holds two sorted (packed upper pair → value) maps — the exactly
/// rescored survivors and the sketch estimates of scored-but-pruned
/// pairs — plus the union cardinalities â (O(n), kept for diagnostics
/// and on-demand reconstruction). The survivor key set IS the candidate
/// mask restricted to off-diagonal pairs; Result::candidates retains the
/// full mask alongside.
class SparseSimilarity {
 public:
  SparseSimilarity() = default;

  /// `survivor_keys`/`estimate_keys` are pack_pair()-packed upper pairs
  /// (i < j), sorted ascending, unique, parallel to their value vectors;
  /// `ahat` is empty or length n. Throws std::invalid_argument on
  /// malformed input.
  SparseSimilarity(std::int64_t n, std::vector<std::uint64_t> survivor_keys,
                   std::vector<double> survivor_values,
                   std::vector<std::uint64_t> estimate_keys,
                   std::vector<double> estimate_values, std::vector<std::int64_t> ahat);

  /// (i, j) with i < j packed into one word (i in the high half) — the
  /// same 31-bit packing as distmat::SparsePairMask, so sorting keys
  /// sorts by (i, j). Throws when an index exceeds 31 bits or i ≥ j.
  [[nodiscard]] static std::uint64_t pack_pair(std::int64_t i, std::int64_t j);
  [[nodiscard]] static std::pair<std::int64_t, std::int64_t> unpack_pair(
      std::uint64_t packed) noexcept {
    return {static_cast<std::int64_t>(packed >> 32),
            static_cast<std::int64_t>(packed & 0xffffffffULL)};
  }

  [[nodiscard]] std::int64_t size() const noexcept { return n_; }
  [[nodiscard]] bool empty() const noexcept { return n_ == 0; }
  [[nodiscard]] std::int64_t survivor_count() const noexcept {
    return static_cast<std::int64_t>(survivor_keys_.size());
  }
  [[nodiscard]] std::int64_t estimate_count() const noexcept {
    return static_cast<std::int64_t>(estimate_keys_.size());
  }

  /// Did (i, j) survive the prune (exact value available)? Diagonal and
  /// out-of-order arguments are normalized; (i, i) reports false.
  [[nodiscard]] bool is_survivor(std::int64_t i, std::int64_t j) const noexcept;

  /// J(Xᵢ, Xⱼ): 1.0 on the diagonal, the exact rescored value for
  /// survivors, the sketch estimate for scored-but-pruned pairs, 0.0
  /// otherwise (never-scored pairs sit below every threshold).
  [[nodiscard]] double similarity(std::int64_t i, std::int64_t j) const noexcept;

  [[nodiscard]] double distance(std::int64_t i, std::int64_t j) const noexcept {
    return 1.0 - similarity(i, j);
  }

  /// Visit every survivor (i, j, value) with i < j, in (i, j) order.
  template <typename Visitor>
  void for_each_survivor(Visitor&& visit) const {
    for (std::size_t s = 0; s < survivor_keys_.size(); ++s) {
      const auto [i, j] = unpack_pair(survivor_keys_[s]);
      visit(i, j, survivor_values_[s]);
    }
  }
  /// Visit every scored-but-pruned (i, j, estimate) with i < j, in order.
  template <typename Visitor>
  void for_each_estimate(Visitor&& visit) const {
    for (std::size_t s = 0; s < estimate_keys_.size(); ++s) {
      const auto [i, j] = unpack_pair(estimate_keys_[s]);
      visit(i, j, estimate_values_[s]);
    }
  }

  /// Reconstruct the dense matrix this view represents: every entry is
  /// bitwise what similarity(i, j) reports (the hybrid's PHYLIP / TSV /
  /// SASM artifacts are written from it). O(n²) memory by definition;
  /// throws std::length_error when n×n doubles overflow.
  [[nodiscard]] SimilarityMatrix to_dense() const;

  /// Bytes resident in this view's heap vectors — the benches' "peak
  /// rank-0 output" metric.
  [[nodiscard]] std::uint64_t resident_bytes() const noexcept;

  [[nodiscard]] const std::vector<std::uint64_t>& survivor_keys() const noexcept {
    return survivor_keys_;
  }
  [[nodiscard]] const std::vector<double>& survivor_values() const noexcept {
    return survivor_values_;
  }
  [[nodiscard]] const std::vector<std::uint64_t>& estimate_keys() const noexcept {
    return estimate_keys_;
  }
  [[nodiscard]] const std::vector<double>& estimate_values() const noexcept {
    return estimate_values_;
  }
  /// Union cardinalities â (empty when not captured; else length n).
  [[nodiscard]] const std::vector<std::int64_t>& union_cardinalities() const noexcept {
    return ahat_;
  }

 private:
  std::int64_t n_ = 0;
  std::vector<std::uint64_t> survivor_keys_;   ///< sorted packed upper pairs
  std::vector<double> survivor_values_;        ///< exact rescored J, parallel
  std::vector<std::uint64_t> estimate_keys_;   ///< sorted packed upper pairs
  std::vector<double> estimate_values_;        ///< sketch estimates, parallel
  std::vector<std::int64_t> ahat_;             ///< â (column popcounts), length n or 0
};

}  // namespace sas::core
