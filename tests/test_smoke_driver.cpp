// test_smoke_driver.cpp — end-to-end checks of the SimilarityAtScale
// driver against brute-force set Jaccard, across every algorithm variant,
// rank count, batch count, bitmask width, and replication factor. These
// are the paper's central invariants: the algebraic
// formulation equals the set definition exactly, and the result is
// independent of all parallelization/batching knobs.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "core/driver.hpp"
#include "core/sample_source.hpp"
#include "util/rng.hpp"

namespace sas::core {
namespace {

/// Brute-force reference: J from set definitions, J(∅,∅) = 1.
std::vector<double> brute_force_similarity(const VectorSampleSource& src) {
  const std::int64_t n = src.sample_count();
  std::vector<double> s(static_cast<std::size_t>(n * n));
  for (std::int64_t i = 0; i < n; ++i) {
    for (std::int64_t j = 0; j < n; ++j) {
      const auto& a = src.sample(i);
      const auto& b = src.sample(j);
      std::size_t ia = 0;
      std::size_t ib = 0;
      std::int64_t inter = 0;
      while (ia < a.size() && ib < b.size()) {
        if (a[ia] < b[ib]) {
          ++ia;
        } else if (b[ib] < a[ia]) {
          ++ib;
        } else {
          ++inter;
          ++ia;
          ++ib;
        }
      }
      const std::int64_t uni =
          static_cast<std::int64_t>(a.size() + b.size()) - inter;
      s[static_cast<std::size_t>(i * n + j)] =
          uni == 0 ? 1.0 : static_cast<double>(inter) / static_cast<double>(uni);
    }
  }
  return s;
}

VectorSampleSource random_source(std::int64_t m, std::int64_t n, double density,
                                 std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<std::int64_t>> samples(static_cast<std::size_t>(n));
  for (auto& s : samples) {
    for (std::int64_t v = 0; v < m; ++v) {
      if (rng.bernoulli(density)) s.push_back(v);
    }
  }
  return VectorSampleSource(m, std::move(samples));
}

struct Case {
  Algorithm algorithm;
  int nranks;
  int batch_count;
  int bit_width;
  int replication;
  bool filter;
};

class DriverEquivalence : public ::testing::TestWithParam<Case> {};

TEST_P(DriverEquivalence, MatchesBruteForce) {
  const Case c = GetParam();
  const auto src = random_source(/*m=*/700, /*n=*/23, /*density=*/0.08, /*seed=*/42);
  const auto expected = brute_force_similarity(src);

  Config cfg;
  cfg.algorithm = c.algorithm;
  cfg.batch_count = c.batch_count;
  cfg.bit_width = c.bit_width;
  cfg.replication = c.replication;
  cfg.use_zero_row_filter = c.filter;

  const Result result = similarity_at_scale_threaded(c.nranks, src, cfg);
  ASSERT_EQ(result.n, src.sample_count());
  ASSERT_EQ(result.similarity.values().size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_NEAR(result.similarity.values()[i], expected[i], 1e-12) << "entry " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllVariants, DriverEquivalence,
    ::testing::Values(
        Case{Algorithm::kSerial, 1, 1, 64, 1, true},
        Case{Algorithm::kSerial, 3, 4, 64, 1, true},
        Case{Algorithm::kSerial, 2, 1, 1, 1, false},
        Case{Algorithm::kRing1D, 1, 1, 64, 1, true},
        Case{Algorithm::kRing1D, 4, 3, 64, 1, true},
        Case{Algorithm::kRing1D, 5, 2, 32, 1, false},
        Case{Algorithm::kSumma, 1, 1, 64, 1, true},
        Case{Algorithm::kSumma, 4, 2, 64, 1, true},
        Case{Algorithm::kSumma, 9, 3, 64, 1, true},
        Case{Algorithm::kSumma, 8, 2, 64, 2, true},     // 2.5D: 2×2×2
        Case{Algorithm::kSumma, 12, 5, 16, 3, true},    // 2×2×3
        Case{Algorithm::kSumma, 6, 4, 64, 1, true},     // inactive ranks (6 -> 2x2)
        Case{Algorithm::kSumma, 4, 7, 8, 1, false}));

}  // namespace
}  // namespace sas::core
