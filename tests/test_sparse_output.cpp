// test_sparse_output.cpp — the survivor-sparse output path.
//
// Contracts under test (survivor parity with kExact across algorithms,
// rank and batch counts lives in test_hybrid's HybridEquivalence):
//   * no quadratic structures: a SparseSimilarity at an n where n²
//     doubles could never be allocated still constructs and answers
//     lookups, and a driver-level sparse run's rank-0 output stays
//     survivor-proportional (far below the dense n²·8 bytes);
//   * matrix_io round-trips the sparse format exactly and rejects
//     corrupted key streams;
//   * the SparseSimilarity lookup semantics (diagonal 1.0, survivor
//     exact, estimate fallback, 0.0 default) and pack_pair validation.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "analysis/similar_pairs.hpp"
#include "core/driver.hpp"
#include "core/matrix_io.hpp"
#include "core/sample_source.hpp"
#include "core/similarity_matrix.hpp"
#include "util/rng.hpp"

namespace sas {
namespace {

/// Two-cluster synthetic source (same regime as test_hybrid): high J
/// within a cluster, near-zero across — survivors and pruned mass both
/// present.
core::VectorSampleSource clustered_source(std::int64_t m, int per_cluster,
                                          std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<std::int64_t>> bases(2);
  for (auto& base : bases) {
    for (std::int64_t v = 0; v < m; ++v) {
      if (rng.bernoulli(0.3)) base.push_back(v);
    }
  }
  std::vector<std::vector<std::int64_t>> samples;
  for (int c = 0; c < 2; ++c) {
    for (int i = 0; i < per_cluster; ++i) {
      std::vector<std::int64_t> s;
      for (std::int64_t v : bases[static_cast<std::size_t>(c)]) {
        if (!rng.bernoulli(0.08)) s.push_back(v);
      }
      for (std::int64_t v = 0; v < m; ++v) {
        if (rng.bernoulli(0.02)) s.push_back(v);
      }
      samples.push_back(std::move(s));
    }
  }
  return core::VectorSampleSource(m, std::move(samples));
}

TEST(SparseSimilarity, LookupSemantics) {
  // survivors: (0, 2) = 0.75; estimates: (1, 3) = 0.05.
  core::SparseSimilarity sparse(
      4, {core::SparseSimilarity::pack_pair(0, 2)}, {0.75},
      {core::SparseSimilarity::pack_pair(1, 3)}, {0.05}, {10, 20, 30, 0});

  EXPECT_DOUBLE_EQ(sparse.similarity(2, 2), 1.0);  // diagonal convention
  EXPECT_DOUBLE_EQ(sparse.similarity(3, 3), 1.0);  // even with â = 0
  EXPECT_DOUBLE_EQ(sparse.similarity(0, 2), 0.75);
  EXPECT_DOUBLE_EQ(sparse.similarity(2, 0), 0.75);  // symmetric lookup
  EXPECT_DOUBLE_EQ(sparse.similarity(1, 3), 0.05);  // pruned estimate
  EXPECT_DOUBLE_EQ(sparse.similarity(0, 1), 0.0);   // never scored
  EXPECT_TRUE(sparse.is_survivor(2, 0));
  EXPECT_FALSE(sparse.is_survivor(1, 3));
  EXPECT_FALSE(sparse.is_survivor(1, 1));
  EXPECT_DOUBLE_EQ(sparse.distance(0, 2), 0.25);

  const core::SimilarityMatrix dense = sparse.to_dense();
  for (std::int64_t i = 0; i < 4; ++i) {
    for (std::int64_t j = 0; j < 4; ++j) {
      EXPECT_EQ(dense.similarity(i, j), sparse.similarity(i, j)) << i << "," << j;
    }
  }

  // Malformed inputs must throw, not mislook.
  EXPECT_THROW((void)core::SparseSimilarity::pack_pair(2, 2), std::invalid_argument);
  EXPECT_THROW((void)core::SparseSimilarity::pack_pair(3, 1), std::invalid_argument);
  EXPECT_THROW(core::SparseSimilarity(4, {core::SparseSimilarity::pack_pair(0, 2)}, {},
                                      {}, {}, {}),
               std::invalid_argument);  // keys/values mismatch
  EXPECT_THROW(core::SparseSimilarity(2, {core::SparseSimilarity::pack_pair(0, 3)},
                                      {0.5}, {}, {}, {}),
               std::invalid_argument);  // pair beyond n
  EXPECT_THROW(core::SparseSimilarity(4,
                                      {core::SparseSimilarity::pack_pair(0, 2),
                                       core::SparseSimilarity::pack_pair(0, 1)},
                                      {0.5, 0.5}, {}, {}, {}),
               std::invalid_argument);  // unsorted keys
  EXPECT_THROW(core::SparseSimilarity(4, {}, {}, {}, {}, {1, 2}),
               std::invalid_argument);  // â length
  EXPECT_THROW(core::SparseSimilarity(4, {core::SparseSimilarity::pack_pair(1, 3)},
                                      {0.8}, {core::SparseSimilarity::pack_pair(1, 3)},
                                      {0.1}, {}),
               std::invalid_argument);  // pair in both maps (corrupt SASP)
}

TEST(SparseSimilarity, NoQuadraticStructuresAtScale) {
  // n where the dense matrix would be n²·8 = 128 TiB: any quadratic
  // allocation in construction or lookup would abort the test run.
  const std::int64_t n = std::int64_t{1} << 22;
  std::vector<std::uint64_t> keys = {core::SparseSimilarity::pack_pair(7, n - 3),
                                     core::SparseSimilarity::pack_pair(n - 5, n - 2)};
  std::vector<double> values = {0.5, 0.25};
  const core::SparseSimilarity sparse(n, std::move(keys), std::move(values), {}, {},
                                      {});
  EXPECT_EQ(sparse.size(), n);
  EXPECT_DOUBLE_EQ(sparse.similarity(n - 3, 7), 0.5);
  EXPECT_DOUBLE_EQ(sparse.similarity(0, 1), 0.0);
  EXPECT_DOUBLE_EQ(sparse.similarity(n - 1, n - 1), 1.0);
  // Resident bytes are survivor-proportional: far below a single dense row.
  EXPECT_LT(sparse.resident_bytes(), static_cast<std::uint64_t>(n));
}

TEST(SparseSimilarity, DriverOutputStaysSurvivorProportional) {
  // Driver-level, in the pair-sparse regime: many small families, n
  // past sketch::kLshMinSamples so the LSH candidate pass engages and both
  // survivors and scored estimates are O(families), not O(n²). The
  // rank-0 output must then stay an order of magnitude below the dense
  // matrix footprint (n²·8 bytes); the margin widens quadratically with
  // n while the output grows linearly.
  const int families = 80;
  Rng rng(3);
  std::vector<std::vector<std::int64_t>> samples;
  const std::int64_t m = 4000;
  for (int f = 0; f < families; ++f) {
    std::vector<std::int64_t> base;
    for (std::int64_t v = 0; v < m; ++v) {
      if (rng.bernoulli(0.03)) base.push_back(v);
    }
    for (int member = 0; member < 2; ++member) {
      std::vector<std::int64_t> s;
      for (std::int64_t v : base) {
        if (!rng.bernoulli(0.05)) s.push_back(v);
      }
      samples.push_back(std::move(s));
    }
  }
  const core::VectorSampleSource src(m, std::move(samples));
  const std::int64_t n = src.sample_count();

  core::Config cfg;
  cfg.algorithm = core::Algorithm::kRing1D;
  cfg.batch_count = 2;
  cfg.estimator = core::Estimator::kHybrid;
  cfg.prune_threshold = 0.3;
  const core::Result result = similarity_at_scale_threaded(4, src, cfg);

  ASSERT_TRUE(result.sparse_output());
  EXPECT_TRUE(result.similarity.empty());
  const std::uint64_t dense_bytes =
      static_cast<std::uint64_t>(n * n) * sizeof(double);
  EXPECT_LT(result.sparse_similarity.resident_bytes(), dense_bytes / 10)
      << "rank-0 output must be survivor-proportional, not quadratic";
  // Within-family pairs survive; the quadratic cross-family mass is gone.
  EXPECT_GE(result.sparse_similarity.survivor_count(), families);
  EXPECT_LT(result.sparse_similarity.survivor_count(), 4 * families);
}

TEST(SparseSimilarity, MatrixIoRoundTrip) {
  const auto src = clustered_source(500, 4, 17);

  core::Config cfg;
  cfg.algorithm = core::Algorithm::kRing1D;
  cfg.estimator = core::Estimator::kHybrid;
  cfg.prune_threshold = 0.3;
  const core::Result result = similarity_at_scale_threaded(2, src, cfg);
  ASSERT_TRUE(result.sparse_output());
  const core::SparseSimilarity& sparse = result.sparse_similarity;

  std::vector<std::string> names;
  for (std::int64_t i = 0; i < result.n; ++i) names.push_back("s" + std::to_string(i));

  std::stringstream stream;
  core::write_sparse_similarity_binary(stream, names, sparse);
  const core::NamedSparseSimilarity loaded =
      core::read_sparse_similarity_binary(stream);

  EXPECT_EQ(loaded.names, names);
  EXPECT_EQ(loaded.sparse.size(), sparse.size());
  EXPECT_EQ(loaded.sparse.survivor_keys(), sparse.survivor_keys());
  EXPECT_EQ(loaded.sparse.survivor_values(), sparse.survivor_values());
  EXPECT_EQ(loaded.sparse.estimate_keys(), sparse.estimate_keys());
  EXPECT_EQ(loaded.sparse.estimate_values(), sparse.estimate_values());
  EXPECT_EQ(loaded.sparse.union_cardinalities(), sparse.union_cardinalities());
  EXPECT_EQ(loaded.sparse.to_dense().max_abs_diff(sparse.to_dense()), 0.0);

  // File round-trip too.
  const std::filesystem::path path =
      std::filesystem::path(::testing::TempDir()) / "sas_sparse_roundtrip.sasp";
  core::write_sparse_similarity_binary_file(path.string(), names, sparse);
  const auto from_file = core::read_sparse_similarity_binary_file(path.string());
  EXPECT_EQ(from_file.sparse.survivor_keys(), sparse.survivor_keys());

  // A dense-magic file must be rejected by the sparse reader and vice
  // versa; corrupted key order must throw through the constructor.
  std::stringstream dense_stream;
  core::write_similarity_binary(dense_stream, {"a"},
                                core::SimilarityMatrix(1, {1.0}));
  EXPECT_THROW((void)core::read_sparse_similarity_binary(dense_stream),
               std::runtime_error);
  std::stringstream sparse_stream;
  core::write_sparse_similarity_binary(sparse_stream, names, sparse);
  EXPECT_THROW((void)core::read_similarity_binary(sparse_stream), std::runtime_error);
}

TEST(SparseSimilarity, AnalysisOverloadsWalkSurvivors) {
  core::SparseSimilarity sparse(
      5,
      {core::SparseSimilarity::pack_pair(0, 1), core::SparseSimilarity::pack_pair(0, 4),
       core::SparseSimilarity::pack_pair(2, 3)},
      {0.9, 0.4, 0.7}, {core::SparseSimilarity::pack_pair(1, 2)}, {0.1}, {});

  const auto all = analysis::candidate_pairs(sparse);
  ASSERT_EQ(all.size(), 3u);
  EXPECT_EQ(all[0].similarity, 0.9);
  EXPECT_EQ(all[1].similarity, 0.7);
  EXPECT_EQ(all[2].similarity, 0.4);

  const auto thresholded = analysis::candidate_pairs(sparse, 0.5);
  ASSERT_EQ(thresholded.size(), 2u);

  // top_k spans survivors first, then scored-but-pruned estimates.
  const auto top = analysis::top_k_pairs(sparse, 4);
  ASSERT_EQ(top.size(), 4u);
  EXPECT_EQ(top[3].similarity, 0.1);
  EXPECT_EQ(top[3].a, 1);
  EXPECT_EQ(top[3].b, 2);
}

}  // namespace
}  // namespace sas
