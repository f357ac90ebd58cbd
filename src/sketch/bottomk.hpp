// bottomk.hpp — Mash-style bottom-k MinHash (paper refs [63], [57]).
//
// The paper's principal comparison point: a single 64-bit hash family
// member emulates a random permutation, and the sketch keeps the k
// smallest distinct hash values. The Jaccard estimator walks the merged
// order of two sketches and reports the fraction of shared elements
// among the k smallest of the union — exactly Mash's estimator,
// including its §I failure mode on highly dissimilar pairs, which
// bench/minhash_accuracy quantifies.
//
// == Accuracy / bytes =====================================================
//
// The shared-fraction estimate over the k union minima has variance
// ≈ J(1−J)/k, giving the documented mean-absolute-error bound
//
//   mean |Ĵ − J| ≤ bottomk_jaccard_error_bound(k) = 1.5/√k
//
// (k = 1024 → 8192 wire bytes per sample, bound ≈ 0.047). The sketch
// becomes EXACT when it holds the whole union (|A ∪ B| ≤ k). Wire size
// is 8 bytes per slot — 64/b× larger than one-permutation MinHash at
// equal k — because the estimator needs full hash values to identify
// shared elements in the merged order.
#pragma once

#include <cmath>
#include <cstdint>
#include <span>
#include <vector>

#include "sketch/sketch.hpp"

namespace sas::sketch {

/// Documented mean-absolute-error bound of the bottom-k Jaccard estimate
/// (see the accuracy note above).
[[nodiscard]] inline double bottomk_jaccard_error_bound(std::int64_t sketch_size) noexcept {
  return 1.5 / std::sqrt(static_cast<double>(sketch_size));
}

class BottomKSketch {
 public:
  /// Empty sketch retaining the `sketch_size` smallest distinct hashes.
  /// Both sides of a comparison must share (sketch_size, seed).
  BottomKSketch(std::size_t sketch_size, std::uint64_t seed);

  /// Sketch the element ids (e.g. canonical k-mer codes) in bulk.
  BottomKSketch(std::span<const std::uint64_t> elements, std::size_t sketch_size,
                std::uint64_t seed);

  /// Observe one element. Order-independent and idempotent.
  void add(std::uint64_t element);

  [[nodiscard]] std::size_t sketch_size() const noexcept { return capacity_; }
  [[nodiscard]] std::uint64_t seed() const noexcept { return seed_; }
  [[nodiscard]] const std::vector<std::uint64_t>& hashes() const noexcept {
    return hashes_;  // sorted ascending, size <= sketch_size
  }

  /// Wire blob: header + the hash values, strictly ascending.
  [[nodiscard]] std::vector<std::uint64_t> wire() const;

 private:
  std::size_t capacity_ = 0;
  std::uint64_t seed_ = 0;
  std::vector<std::uint64_t> hashes_;
};

/// All-pairs Jaccard estimates from per-sample element sets, the way the
/// Mash tool computes a distance table. Returns row-major n×n estimates.
[[nodiscard]] std::vector<double> minhash_all_pairs(
    const std::vector<std::vector<std::uint64_t>>& samples, std::size_t sketch_size,
    std::uint64_t seed);

/// Wire-level Jaccard estimate (used by estimate_jaccard_wire): the
/// merged-order walk over two sorted hash payloads; J(∅, ∅) = 1. Throws
/// std::invalid_argument on incompatible or malformed blobs, including a
/// payload that is not strictly ascending.
[[nodiscard]] double bottomk_wire_jaccard(std::span<const std::uint64_t> a,
                                          std::span<const std::uint64_t> b);

}  // namespace sas::sketch
