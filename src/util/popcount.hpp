// popcount.hpp — hardware-assisted population counts.
//
// The SimilarityAtScale kernel computes sᵢⱼ = Σₖ popcount(aₖᵢ ∧ aₖⱼ)
// (paper Eq. 7); these helpers are that kernel's innermost operations.
// The block kernels are written as 4-way unrolled word loops with
// independent partial accumulators so the popcount chain exposes ILP and
// the compiler can keep the whole body in registers (-O3 -march=native
// turns each lane into a single POPCNT + ADD).
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>

namespace sas {

/// Number of set bits in a single machine word.
[[nodiscard]] constexpr int popcount64(std::uint64_t x) noexcept {
  return std::popcount(x);
}

/// Σ popcount(x[i] ∧ y[i]) over `len` words of two raw arrays, 4-way
/// unrolled with independent accumulators (breaks the add dependence
/// chain; ~4x ILP on POPCNT-bearing cores). The building block of the
/// dense stripes of the SpGEMM tile kernel.
[[nodiscard]] inline std::uint64_t popcount_and_sum_block(
    const std::uint64_t* __restrict x, const std::uint64_t* __restrict y,
    std::size_t len) noexcept {
  std::uint64_t a0 = 0;
  std::uint64_t a1 = 0;
  std::uint64_t a2 = 0;
  std::uint64_t a3 = 0;
  std::size_t i = 0;
  for (; i + 4 <= len; i += 4) {
    a0 += static_cast<std::uint64_t>(std::popcount(x[i] & y[i]));
    a1 += static_cast<std::uint64_t>(std::popcount(x[i + 1] & y[i + 1]));
    a2 += static_cast<std::uint64_t>(std::popcount(x[i + 2] & y[i + 2]));
    a3 += static_cast<std::uint64_t>(std::popcount(x[i + 3] & y[i + 3]));
  }
  for (; i < len; ++i) {
    a0 += static_cast<std::uint64_t>(std::popcount(x[i] & y[i]));
  }
  return (a0 + a1) + (a2 + a3);
}

/// Scatter-accumulate one word against a CSR row segment:
///   acc[cols[k]] += popcount(word ∧ vals[k])   for k in [0, count).
/// `cols` entries must be unique (CSR canonical form), so the four lanes
/// of the unrolled body write disjoint slots and the compiler may reorder
/// them freely (__restrict rules out aliasing with the inputs). This is
/// the innermost operation of the CSR SpGEMM tile kernel.
inline void popcount_and_scatter(std::uint64_t word,
                                 const std::int64_t* __restrict cols,
                                 const std::uint64_t* __restrict vals,
                                 std::size_t count,
                                 std::int64_t* __restrict acc) noexcept {
  std::size_t k = 0;
  for (; k + 4 <= count; k += 4) {
    const int p0 = std::popcount(word & vals[k]);
    const int p1 = std::popcount(word & vals[k + 1]);
    const int p2 = std::popcount(word & vals[k + 2]);
    const int p3 = std::popcount(word & vals[k + 3]);
    acc[cols[k]] += p0;
    acc[cols[k + 1]] += p1;
    acc[cols[k + 2]] += p2;
    acc[cols[k + 3]] += p3;
  }
  for (; k < count; ++k) {
    acc[cols[k]] += std::popcount(word & vals[k]);
  }
}

/// Out-of-line Σ popcount(x[i] ∧ y[i]) over `len` words — identical
/// contract to popcount_and_sum_block, but defined in its own TU
/// (util/popcount_stream.cpp) so the build can compile just that file
/// with -mavx512vpopcntdq where the extension is usable for runtime data
/// (GCC 12 mis-folds the *constant* VPOPCNTQ pattern, so the flag is
/// unsafe project-wide; see the CMakeLists probe). The dense stripes of
/// the SpGEMM kernel stream through this entry point.
[[nodiscard]] std::uint64_t popcount_and_sum_stream(const std::uint64_t* x,
                                                    const std::uint64_t* y,
                                                    std::size_t len) noexcept;

/// True when popcount_and_sum_stream was compiled with a wide vector
/// popcount (callers use it to pick the sparse/dense crossover point).
[[nodiscard]] bool popcount_stream_vectorized() noexcept;

/// 2×2 register-tiled streaming popcount dot products over `len` words:
///   out = { Σ pc(x0∧y0), Σ pc(x0∧y1), Σ pc(x1∧y0), Σ pc(x1∧y1) }.
/// One pass loads each of the four columns once for FOUR output cells —
/// half the word loads of four scalar popcount_and_sum_stream calls —
/// with four independent popcount chains. Bit-identical to the scalar
/// sums (integer adds commute); the dense SpGEMM path tiles its
/// unpruned output cells through this. Lives in the same
/// runtime-data-only TU as popcount_and_sum_stream so the AVX512
/// VPOPCNTQ per-TU flag applies (see that function's note).
void popcount_and_sum_stream_2x2(const std::uint64_t* x0, const std::uint64_t* x1,
                                 const std::uint64_t* y0, const std::uint64_t* y1,
                                 std::size_t len, std::uint64_t out[4]) noexcept;

/// Out-of-line scatter-accumulate with the same contract as
/// popcount_and_scatter, defined in util/popcount_scatter.cpp — the
/// second runtime-data-only TU compiled with -mavx512vpopcntdq where the
/// probe allows it (see popcount_and_sum_stream). There the loop runs as
/// 8-lane AVX512 gather / VPOPCNTQ / scatter passes: CSR column indices
/// are unique within a row segment, so the eight scattered slots of one
/// pass never conflict. Elsewhere it falls back to the inline scalar
/// loop above. The SpGEMM scatter path and the crossover calibrator both
/// call THIS entry point, so the calibrated sparse/dense threshold
/// always reflects the scatter variant that actually runs.
void popcount_and_scatter_dispatch(std::uint64_t word, const std::int64_t* cols,
                                   const std::uint64_t* vals, std::size_t count,
                                   std::int64_t* acc) noexcept;

/// True when popcount_and_scatter_dispatch (and the 4-row form) was
/// compiled with the AVX512 gather/scatter + VPOPCNTQ path.
[[nodiscard]] bool popcount_scatter_vectorized() noexcept;

/// 4-row register-blocked variant: four L-side words scatter against the
/// same CSR row segment, updating four distinct accumulator rows:
///   accR[cols[k]] += popcount(wordR ∧ vals[k])   for R in 0..3.
/// Loading (cols[k], vals[k]) once per four updates cuts the index/mask
/// load traffic 4× versus four popcount_and_scatter passes, and the four
/// POPCNT chains are independent. The caller guarantees the accumulator
/// rows are distinct (they are distinct output rows).
inline void popcount_and_scatter_4(std::uint64_t word0, std::uint64_t word1,
                                   std::uint64_t word2, std::uint64_t word3,
                                   const std::int64_t* __restrict cols,
                                   const std::uint64_t* __restrict vals,
                                   std::size_t count,
                                   std::int64_t* __restrict acc0,
                                   std::int64_t* __restrict acc1,
                                   std::int64_t* __restrict acc2,
                                   std::int64_t* __restrict acc3) noexcept {
  for (std::size_t k = 0; k < count; ++k) {
    const std::int64_t c = cols[k];
    const std::uint64_t v = vals[k];
    acc0[c] += std::popcount(word0 & v);
    acc1[c] += std::popcount(word1 & v);
    acc2[c] += std::popcount(word2 & v);
    acc3[c] += std::popcount(word3 & v);
  }
}

/// Out-of-line 4-row scatter with the same contract as
/// popcount_and_scatter_4; lives in util/popcount_scatter.cpp alongside
/// popcount_and_scatter_dispatch (see that declaration for the dispatch
/// story). The AVX512 body loads each (cols, vals) pair once per eight
/// columns and reuses it across all four accumulator rows.
void popcount_and_scatter_4_dispatch(std::uint64_t word0, std::uint64_t word1,
                                     std::uint64_t word2, std::uint64_t word3,
                                     const std::int64_t* cols, const std::uint64_t* vals,
                                     std::size_t count, std::int64_t* acc0,
                                     std::int64_t* acc1, std::int64_t* acc2,
                                     std::int64_t* acc3) noexcept;

}  // namespace sas
