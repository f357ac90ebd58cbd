// rng.hpp — deterministic pseudo-random generation (xoshiro256**).
//
// All synthetic datasets in the benchmark harness are generated through
// this engine so that every figure is reproducible bit-for-bit from the
// seed its bench fixes. std::mt19937_64 is avoided because its
// distributions are not guaranteed identical across standard libraries.
#pragma once

#include <cstdint>
#include <limits>

#include "util/hashing.hpp"

namespace sas {

/// xoshiro256** 1.0 (Blackman & Vigna, public domain algorithm),
/// seeded via splitmix64 per the authors' recommendation.
class Rng {
 public:
  using result_type = std::uint64_t;

  constexpr explicit Rng(std::uint64_t seed = 0x5eedU) noexcept {
    std::uint64_t s = seed;
    for (auto& word : state_) {
      s = splitmix64(s + 0x9e3779b97f4a7c15ULL);
      word = s;
    }
  }

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept {
    return std::numeric_limits<result_type>::max();
  }

  constexpr result_type operator()() noexcept {
    const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  /// Uniform integer in [0, bound) without modulo bias (Lemire's method
  /// degenerates to 128-bit multiply-high).
  [[nodiscard]] constexpr std::uint64_t uniform(std::uint64_t bound) noexcept {
    const unsigned __int128 product =
        static_cast<unsigned __int128>(operator()()) * bound;
    return static_cast<std::uint64_t>(product >> 64);
  }

  /// Uniform double in [0, 1) with 53 bits of precision.
  [[nodiscard]] constexpr double uniform_real() noexcept {
    return static_cast<double>(operator()() >> 11) * 0x1.0p-53;
  }

  /// Bernoulli trial with success probability prob.
  [[nodiscard]] constexpr bool bernoulli(double prob) noexcept {
    return uniform_real() < prob;
  }

  /// Derive an independent child stream (for per-rank / per-sample use).
  [[nodiscard]] constexpr Rng fork(std::uint64_t stream_id) noexcept {
    return Rng(splitmix64(operator()() ^ murmur_mix64(stream_id)));
  }

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
    return (x << k) | (x >> (64 - k));
  }

  std::uint64_t state_[4] = {};
};

}  // namespace sas
