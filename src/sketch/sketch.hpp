// sketch.hpp — the probabilistic sketch subsystem: guide and wire format.
//
// == Why sketches =========================================================
//
// The paper's headline result is cutting the *communicated bytes* per
// genome comparison (§III-B: bitmask compression, zero-row filtering).
// Sketches are the next rung on that ladder: instead of exchanging the
// full bit-packed k-mer panels — O(nnz) bytes per rotation step — each
// sample is compressed once into a FIXED-SIZE summary, and the ring
// rotates those summaries instead (exchange.hpp). Per rotation step a
// rank then ships O(samples_per_rank · sketch_bytes) no matter how large
// the genomes are, at the price of a bounded, documented estimation
// error. The `Config::estimator` knob selects the operating point.
//
// == Choosing an estimator (error / bytes tradeoff) =======================
//
// All bounds below are mean-absolute-error bounds on the estimated
// Jaccard similarity, documented next to each implementation and
// enforced by tests/test_sketch.cpp and bench/minhash_accuracy.
//
//  estimator  class            bytes/sample          mean |Ĵ − J| bound
//  ---------  ---------------  -------------------   -------------------------
//  exact      (no sketch)      O(set size)           0
//  minhash    b-bit one-perm   k·b/8 bytes           oph_jaccard_error_bound(k, b)
//             MinHash            (k bins, b bits)      ≈ 1.5/√k + 2^(1−b)
//             (one_perm_minhash.hpp)
//  bottomk    bottom-k MinHash k·8 bytes             bottomk_jaccard_error_bound(k)
//             (bottomk.hpp)      (full 64-bit mins)    ≈ 1.5/√k
//
// Rules of thumb:
//  * `minhash` (the default approximate estimator, and the hybrid's prune
//    sketch) gives the best accuracy per byte: one hash evaluation per
//    element, k·b/8 bytes on the wire, and the b-bit collision bias is
//    corrected analytically.
//  * `bottomk` reproduces Mash (the paper's comparison point, §I): exact
//    once the sketch holds the whole union, but 8 bytes per slot and the
//    well-known failure on highly dissimilar pairs at small k.
//  * `exact` remains the only option when downstream analyses (UPGMA/NJ
//    on near-identical genomes) need error ≪ 1/√k — the paper's §I
//    motivation for computing Jaccard exactly in the first place.
//
// HyperLogLog (Jaccard by inclusion–exclusion over 2^p registers) is
// gone. At its p = 12 size, 4,096 B, 2,048-bin minhash erred less
// (bench_minhash_accuracy --trials 4) on dissimilar pairs — 0.0014
// against 0.0068 at J = 0.0104 and 0.0007 against 0.0093 at J = 0.0021 —
// and at J = 0.09 and 0.91; HLL tied at J = 0.51 and won only at
// J = 0.99, 0.0007 against 0.0013. No workload needs that edge.
//
// == Sketch concept =======================================================
//
// Every sketch type S implements:
//   S(params..., seed)                — empty sketch
//   S(elements, params..., seed)      — sketch of a whole element set
//   void add(std::uint64_t element)   — incremental, order-independent
//   std::vector<std::uint64_t> wire() — the one serialized form: what the
//                                       ring ships, what `gas sketch`
//                                       persists, and what the estimators
//                                       read
// Sketches are never compared as objects: every estimate goes through
// estimate_jaccard_wire(). Both blobs of a comparison must share type,
// parameters and seed; mismatches throw std::invalid_argument.
//
// == Wire format ==========================================================
//
// A wire blob is a self-describing vector of 64-bit words:
//   word 0: (kWireMagic << 32) | type tag        (WireType)
//   word 1: type-specific parameters
//   word 2: hash-family seed
//   word 3+: type-specific payload
// estimate_jaccard_wire() compares two blobs without materializing
// sketch objects — the distributed pipeline's inner loop — and throws
// std::invalid_argument on malformed or incompatible blobs.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace sas::sketch {

/// Type tag of a wire blob (word 0, low byte). Tag 1, HyperLogLog's,
/// stays unused: wire_type rejects it like any unknown tag, so an old
/// persisted HLL blob is never scored.
enum class WireType : std::uint8_t {
  kOnePermMinHash = 2,  ///< densified b-bit registers
  kBottomK = 3,         ///< sorted bottom-k hash values
};

inline constexpr std::uint64_t kWireMagic = 0x534b4348;  // "SKCH"
inline constexpr std::size_t kWireHeaderWords = 3;       // tag, params, seed

/// Word 0 of a wire blob of the given type.
[[nodiscard]] constexpr std::uint64_t wire_header_word(WireType type) noexcept {
  return (kWireMagic << 32) | static_cast<std::uint64_t>(type);
}

/// Type tag of `wire`; throws std::invalid_argument if the blob is too
/// short, the magic does not match, or the tag names no WireType.
[[nodiscard]] WireType wire_type(std::span<const std::uint64_t> wire);

/// Estimated Jaccard similarity of the two sets behind two wire blobs.
/// Dispatches on the type tag; both blobs must share type, parameters,
/// and seed (std::invalid_argument otherwise). This is the inner loop of
/// the sketch-exchange pipeline; it allocates nothing.
[[nodiscard]] double estimate_jaccard_wire(std::span<const std::uint64_t> a,
                                           std::span<const std::uint64_t> b);

// ---- sketch persistence --------------------------------------------------
//
// Wire blobs are persisted as raw little-endian 64-bit words — the blob's
// own (kWireMagic, type, params, seed) header is the file header, so a
// file is self-describing and directly comparable after a read.
// `gas sketch --estimator` writes one file per sample next to the .kmers
// inputs; the sketch pipelines load them instead of re-sketching when the
// header matches the run's configuration.

/// Write `wire` to `path` (truncating). Throws error::ConfigError on I/O
/// failure.
void write_wire_file(const std::string& path, std::span<const std::uint64_t> wire);

/// Read a persisted wire blob. Returns an empty vector when the file is
/// missing or unreadable — callers treat that as "no persisted sketch".
/// A file that EXISTS but is not a whole number of words, is short, or
/// fails the wire magic check throws sas::error::CorruptInput: silent
/// fallback to recomputation would mask on-disk corruption.
[[nodiscard]] std::vector<std::uint64_t> read_wire_file(const std::string& path);

}  // namespace sas::sketch
