// kmer.hpp — 2-bit packed k-mers with canonicalization.
//
// A k-mer is a length-k subsequence (paper §II-B); with k ≤ 31 it packs
// into one 64-bit word, and the attribute universe of the indicator
// matrix is m = 4ᵏ. Sequencing reads come from either DNA strand, so a
// k-mer and its reverse complement are identified: the canonical form is
// the numerically smaller of the two. The paper picks odd k (19, 31) so
// no k-mer equals its own reverse complement — an invariant the tests
// check.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "genome/alphabet.hpp"

namespace sas::genome {

/// Codec for fixed k. Valid k: 1..31 (2 bits per base in a u64, and
/// m = 4ᵏ must fit in a signed 64-bit attribute id); any other k throws
/// error::ConfigError.
class KmerCodec {
 public:
  explicit KmerCodec(int k);

  [[nodiscard]] int k() const noexcept { return k_; }

  /// Attribute universe size m = 4ᵏ.
  [[nodiscard]] std::int64_t universe() const noexcept {
    return std::int64_t{1} << (2 * k_);
  }

  /// Pack a length-k string; throws on invalid length or bases.
  [[nodiscard]] std::uint64_t encode(std::string_view kmer) const;

  /// Unpack to the length-k string.
  [[nodiscard]] std::string decode(std::uint64_t code) const;

  /// Reverse complement of a packed k-mer.
  [[nodiscard]] std::uint64_t reverse_complement(std::uint64_t code) const noexcept;

  /// min(code, reverse_complement(code)) — the strand-neutral form.
  [[nodiscard]] std::uint64_t canonical(std::uint64_t code) const noexcept {
    const std::uint64_t rc = reverse_complement(code);
    return rc < code ? rc : code;
  }

  /// All canonical k-mers of `sequence` in order of occurrence, one per
  /// window; windows containing non-ACGT characters are skipped (the
  /// rolling state resets past them). Duplicates are preserved — counting
  /// happens downstream.
  [[nodiscard]] std::vector<std::uint64_t> canonical_kmers(
      std::string_view sequence) const;

 private:
  int k_;
  std::uint64_t mask_;  // low 2k bits
};

}  // namespace sas::genome
