// one_perm_minhash.hpp — b-bit one-permutation MinHash with optimal
// densification (Li et al. 2012 "One Permutation Hashing"; Li & König
// 2010 "b-bit Minwise Hashing"; Shrivastava 2017 "Optimal Densification").
//
// One 64-bit hash evaluation per element: the hash space is split into k
// equal bins (fixed-point multiply-high range partition) and each bin
// retains the minimum hash routed to it. Bins that saw no element are
// filled when the wire blob is built by borrowing, via a seeded
// universal probe sequence, the value of a deterministic non-empty donor
// bin ("optimal densification") — both sides of a comparison run the
// identical probe sequence, so borrowed bins stay unbiased match
// indicators. For the wire form each (densified) register is truncated
// to its low b bits; the induced 2^−b collision bias is removed
// analytically in the estimator:
//
//   Ĵ = (match_fraction − 2^−b) / (1 − 2^−b)
//
// == Accuracy / bytes =====================================================
//
// The match fraction of k register pairs has variance ≤ J(1−J)/k; with
// the b-bit correction the documented mean-absolute-error bound is
//
//   mean |Ĵ − J| ≤ oph_jaccard_error_bound(k, b) = 1.5/√k + 2^(1−b)
//
// (defaults k = 1024, b = 16 → 2048 wire bytes per sample, bound ≈ 0.047;
// observed mean error ≈ 0.01). This is the best accuracy per wire byte of
// the subsystem's estimators — b-bit truncation shrinks the sketch 64/b×
// at a bias cost that is negligible for b ≥ 8.
#pragma once

#include <cmath>
#include <cstdint>
#include <span>
#include <vector>

#include "sketch/sketch.hpp"
#include "util/hashing.hpp"

namespace sas::sketch {

/// Documented mean-absolute-error bound of the b-bit one-permutation
/// MinHash Jaccard estimate with k bins (see the accuracy note above).
[[nodiscard]] inline double oph_jaccard_error_bound(std::int64_t bins, int bits) noexcept {
  return 1.5 / std::sqrt(static_cast<double>(bins)) + std::ldexp(2.0, -bits);
}

class OnePermMinHash {
 public:
  /// Empty sketch with `bins` bins keeping `bits`-bit registers on the
  /// wire. `bits` must divide 64 (register lanes never straddle words).
  /// Both sides of a comparison must share (bins, bits, seed).
  OnePermMinHash(std::int64_t bins, int bits, std::uint64_t seed);

  /// Convenience: sketch of a whole element set.
  OnePermMinHash(std::span<const std::uint64_t> elements, std::int64_t bins, int bits,
                 std::uint64_t seed);

  /// Observe one element. Order-independent and idempotent.
  void add(std::uint64_t element) noexcept;

  [[nodiscard]] std::int64_t bins() const noexcept {
    return static_cast<std::int64_t>(mins_.size());
  }
  [[nodiscard]] int bits() const noexcept { return bits_; }
  [[nodiscard]] std::uint64_t seed() const noexcept { return seed_; }

  /// Densified b-bit registers (the comparison form): every empty bin
  /// borrows its donor's value via the seeded probe sequence, then all
  /// registers are truncated to the low b bits. All-empty sketches
  /// return all-zero registers (flagged separately on the wire).
  [[nodiscard]] std::vector<std::uint64_t> densified_registers() const;

  /// Wire blob: header, the occupied-bin count (0 flags an empty
  /// sketch), then the densified registers packed b bits per lane —
  /// k·b/8 payload bytes.
  [[nodiscard]] std::vector<std::uint64_t> wire() const;

 private:
  int bits_;
  std::uint64_t seed_;
  HashFamily hash_;
  std::int64_t occupied_ = 0;
  std::vector<std::uint64_t> mins_;  ///< raw bin minima (valid where occupied)
  std::vector<std::uint64_t> occupied_mask_;  ///< bit i: bin i saw an element

  [[nodiscard]] bool bin_occupied(std::int64_t i) const noexcept {
    return (occupied_mask_[static_cast<std::size_t>(i >> 6)] >> (i & 63)) & 1u;
  }
};

/// Wire-level Jaccard estimate (used by estimate_jaccard_wire): the
/// b-bit-corrected match fraction of two packed densified-register
/// payloads, clamped to [0, 1]; J(∅, ∅) = 1, J(∅, X) = 0. Both blobs must
/// carry the kOnePermMinHash type tag (std::invalid_argument otherwise —
/// a bottom-k blob with coincidentally matching params must not be
/// scored as OPH registers). Every call re-validates both headers. The
/// matching registers are counted word-parallel — an equality count
/// over native uint{b}_t lanes for b ≥ 8, a SWAR zero-lane count of the
/// XORed words for b ∈ {1, 2, 4} — and equal the per-lane count exactly
/// (bits past the last lane never count), so the estimate is the same
/// double. Symmetric bitwise: Ĵ(a, b) == Ĵ(b, a).
[[nodiscard]] double oph_wire_jaccard(std::span<const std::uint64_t> a,
                                      std::span<const std::uint64_t> b);

/// LSH band buckets of a packed OPH comparison blob: band t covers the
/// densified registers [t·rows_per_band, (t+1)·rows_per_band) and hashes
/// them (band index folded in) to one 64-bit bucket id. Two samples
/// collide in band t iff their band registers are equal (up to 64-bit
/// hash collisions), so P(collide in ≥1 band) = 1 − (1 − m^R)^B for
/// register match fraction m — the banding S-curve the LSH candidate
/// pass (exchange.hpp) is built on. Requires bands·rows_per_band ≤ bins;
/// throws std::invalid_argument on non-OPH or malformed blobs.
[[nodiscard]] std::vector<std::uint64_t> oph_wire_band_hashes(
    std::span<const std::uint64_t> wire, std::int64_t bands,
    std::int64_t rows_per_band);

}  // namespace sas::sketch
