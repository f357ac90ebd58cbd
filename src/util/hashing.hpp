// hashing.hpp — deterministic 64-bit hash primitives.
//
// Provides the mixing functions used throughout the library:
//  * splitmix64      — fast invertible mixer, used to derive seeds and to
//                      hash integer keys (k-mer codes, vertex ids, ...).
//  * HashFamily      — a family of pairwise-independent-ish hash functions
//                      parameterized by seed, used by the MinHash baseline.
//  * hash_bytes      — FNV-1a style byte-string hash for tokens/words.
//  * hash_combine    — boost-style combiner for composite keys.
//
// All functions are pure and reproducible across platforms: the library's
// experiments must be bit-deterministic.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace sas {

/// splitmix64 finalizer (Vigna). Invertible: distinct inputs map to
/// distinct outputs, which MinHash relies on to emulate a random
/// permutation of the key universe.
[[nodiscard]] constexpr std::uint64_t splitmix64(std::uint64_t x) noexcept {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Murmur3-style finalizer; used where a second independent mix is needed.
[[nodiscard]] constexpr std::uint64_t murmur_mix64(std::uint64_t x) noexcept {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdULL;
  x ^= x >> 33;
  x *= 0xc4ceb9fe1a85ec53ULL;
  x ^= x >> 33;
  return x;
}

/// FNV-1a over a byte string. Stable across platforms; used to map
/// document tokens and FASTA headers to integer attribute ids.
[[nodiscard]] constexpr std::uint64_t hash_bytes(std::string_view bytes) noexcept {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (char c : bytes) {
    h ^= static_cast<std::uint64_t>(static_cast<unsigned char>(c));
    h *= 0x100000001b3ULL;
  }
  return h;
}

/// Combine a hash into a running seed (order-dependent).
[[nodiscard]] constexpr std::uint64_t hash_combine(std::uint64_t seed,
                                                   std::uint64_t value) noexcept {
  return seed ^ (splitmix64(value) + 0x9e3779b97f4a7c15ULL + (seed << 6) + (seed >> 2));
}

/// A seeded family of 64-bit hash functions h_s(x). Members of the family
/// are decorrelated by mixing the seed through two different finalizers.
/// MinHash uses one member per permutation (or one member with bottom-k).
class HashFamily {
 public:
  constexpr explicit HashFamily(std::uint64_t seed) noexcept
      : a_(splitmix64(seed) | 1ULL), b_(murmur_mix64(seed + 0x632be59bd9b4e019ULL)) {}

  /// Hash of an integer key under this family member.
  [[nodiscard]] constexpr std::uint64_t operator()(std::uint64_t key) const noexcept {
    return murmur_mix64(key * a_ + b_);
  }

  [[nodiscard]] constexpr std::uint64_t seed_a() const noexcept { return a_; }
  [[nodiscard]] constexpr std::uint64_t seed_b() const noexcept { return b_; }

 private:
  std::uint64_t a_;  // odd multiplier
  std::uint64_t b_;  // additive offset
};

}  // namespace sas
