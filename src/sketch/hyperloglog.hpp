// hyperloglog.hpp — HyperLogLog sketch with Jaccard via inclusion–
// exclusion (Flajolet et al. 2007; the scheme behind bonsai's HLL-based
// distcmp).
//
// A dense array of m = 2^p registers, each holding the maximum leading-
// zero rank observed among hashed elements routed to it. The register-
// wise max of two arrays is the array of A ∪ B, so all three
// cardinalities of
//
//   Ĵ = (|A|̂ + |B|̂ − |A ∪ B|̂) / |A ∪ B|̂        (inclusion–exclusion)
//
// come from the two register arrays alone, each through the classic
// bias-corrected harmonic mean plus the linear-counting small-range
// correction.
//
// == Accuracy / bytes =====================================================
//
// Cardinality relative standard error is ≈ 1.04/√m. The Jaccard estimate
// combines three correlated cardinality estimates; a conservative 3σ
// propagation through the inclusion–exclusion quotient gives the
// documented mean-absolute-error bound
//
//   mean |Ĵ − J| ≤ hll_jaccard_error_bound(p) = 6·1.04/√(2^p)
//
// (p = 12 → m = 4096 registers = 4096 wire bytes, bound ≈ 0.0975; the
// observed mean error on the bench workloads is ~3× smaller). Note the
// bound is ABSOLUTE: for highly dissimilar pairs (J ≈ 0.002, the paper's
// §I regime) the relative error is still large — that regime wants the
// exact estimator or a large minhash sketch.
#pragma once

#include <cmath>
#include <cstdint>
#include <span>
#include <vector>

#include "sketch/sketch.hpp"
#include "util/hashing.hpp"

namespace sas::sketch {

/// Documented mean-absolute-error bound of the HLL Jaccard estimate at
/// precision p (see the accuracy note above).
[[nodiscard]] inline double hll_jaccard_error_bound(int precision) noexcept {
  return 6.0 * 1.04 / std::sqrt(static_cast<double>(std::int64_t{1} << precision));
}

class HyperLogLog {
 public:
  static constexpr int kMinPrecision = 4;
  static constexpr int kMaxPrecision = 18;

  /// Empty sketch with m = 2^precision registers. Both sides of a
  /// comparison must share (precision, seed).
  HyperLogLog(int precision, std::uint64_t seed);

  /// Convenience: sketch of a whole element set.
  HyperLogLog(std::span<const std::uint64_t> elements, int precision,
              std::uint64_t seed);

  /// Observe one element. Order-independent and idempotent.
  void add(std::uint64_t element) noexcept;

  [[nodiscard]] int precision() const noexcept { return precision_; }
  [[nodiscard]] std::uint64_t seed() const noexcept { return seed_; }
  [[nodiscard]] std::int64_t register_count() const noexcept {
    return static_cast<std::int64_t>(registers_.size());
  }

  /// Wire blob: header + the registers packed 8 per word (little-endian
  /// byte lanes). The registers are the whole state.
  [[nodiscard]] std::vector<std::uint64_t> wire() const;

 private:
  int precision_;
  std::uint64_t seed_;
  HashFamily hash_;
  std::vector<std::uint8_t> registers_;
};

/// Wire-level Jaccard estimate (used by estimate_jaccard_wire):
/// inclusion–exclusion over the packed register payloads, clamped to
/// [0, 1]; J(∅, ∅) = 1. Throws std::invalid_argument on incompatible or
/// malformed blobs, including a register above the maximum rank 64 − p + 1.
[[nodiscard]] double hll_wire_jaccard(std::span<const std::uint64_t> a,
                                      std::span<const std::uint64_t> b);

}  // namespace sas::sketch
