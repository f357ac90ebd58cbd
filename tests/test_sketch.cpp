// test_sketch.cpp — the sketch subsystem: merge algebra (associativity,
// commutativity, idempotence — the properties that make incremental and
// distributed construction exact), serialization round trips, wire-form
// parity with the object estimators, statistical accuracy against the
// documented error bounds, and distributed parity of the sketch-exchange
// pipeline (bitwise rank-count / batch-count / schedule independence).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "core/driver.hpp"
#include "core/packing.hpp"
#include "core/sample_source.hpp"
#include "sketch/bottomk.hpp"
#include "sketch/exchange.hpp"
#include "sketch/hyperloglog.hpp"
#include "sketch/one_perm_minhash.hpp"
#include "sketch/sketch.hpp"
#include "util/rng.hpp"

namespace sas::sketch {
namespace {

std::vector<std::uint64_t> random_set(std::uint64_t universe, std::size_t count,
                                      std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::uint64_t> out;
  out.reserve(count);
  for (std::size_t i = 0; i < count; ++i) out.push_back(rng.uniform(universe));
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

/// Two sets with exact Jaccard `shared` / (`shared` + 2·`extra`):
/// elements v < 3·n split by residue — ∩ from v≡0, each side adds one
/// residue class.
void thirds_sets(std::size_t n, std::vector<std::uint64_t>& a,
                 std::vector<std::uint64_t>& b) {
  for (std::uint64_t v = 0; v < 3 * n; ++v) {
    if (v % 3 == 0) {
      a.push_back(v);
      b.push_back(v);
    } else if (v % 3 == 1) {
      a.push_back(v);
    } else {
      b.push_back(v);
    }
  }
}

double exact_jaccard_sets(const std::vector<std::uint64_t>& a,
                          const std::vector<std::uint64_t>& b) {
  std::size_t ia = 0;
  std::size_t ib = 0;
  std::size_t inter = 0;
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
  const std::size_t uni = a.size() + b.size() - inter;
  return uni == 0 ? 1.0 : static_cast<double>(inter) / static_cast<double>(uni);
}

// ------------------------------------------------------------ HyperLogLog

TEST(HyperLogLog, CardinalityWithinRelativeErrorBound) {
  // RSE is 1.04/√m; each fixed-seed estimate must sit within ~4σ.
  const int p = 12;
  const double sigma = 1.04 / std::sqrt(static_cast<double>(1 << p));
  for (std::size_t n : {500u, 20000u, 300000u}) {
    for (std::uint64_t seed : {1u, 2u, 3u}) {
      HyperLogLog sk(p, seed);
      for (std::uint64_t v = 0; v < n; ++v) sk.add(v * 0x9e3779b97f4a7c15ULL);
      const double est = sk.estimate();
      EXPECT_NEAR(est, static_cast<double>(n), 4.0 * sigma * static_cast<double>(n))
          << "n=" << n << " seed=" << seed;
    }
  }
}

TEST(HyperLogLog, MergeEqualsSketchOfUnion) {
  const auto a = random_set(1u << 20, 5000, 11);
  const auto b = random_set(1u << 20, 7000, 12);
  HyperLogLog sa(a, 10, 5);
  HyperLogLog sb(b, 10, 5);
  std::vector<std::uint64_t> ab(a);
  ab.insert(ab.end(), b.begin(), b.end());
  const HyperLogLog direct(ab, 10, 5);
  EXPECT_EQ(HyperLogLog::merge(sa, sb).registers(), direct.registers());
}

TEST(HyperLogLog, MergeAlgebra) {
  const HyperLogLog sa(random_set(1u << 20, 1000, 21), 8, 9);
  const HyperLogLog sb(random_set(1u << 20, 2000, 22), 8, 9);
  const HyperLogLog sc(random_set(1u << 20, 3000, 23), 8, 9);
  // Commutative, associative, idempotent (register-wise max).
  EXPECT_EQ(HyperLogLog::merge(sa, sb).registers(),
            HyperLogLog::merge(sb, sa).registers());
  EXPECT_EQ(HyperLogLog::merge(HyperLogLog::merge(sa, sb), sc).registers(),
            HyperLogLog::merge(sa, HyperLogLog::merge(sb, sc)).registers());
  EXPECT_EQ(HyperLogLog::merge(sa, sa).registers(), sa.registers());
}

TEST(HyperLogLog, SerializeRoundTripAndWireParity) {
  const HyperLogLog sa(random_set(1u << 22, 4000, 31), 11, 77);
  const HyperLogLog sb(random_set(1u << 22, 4000, 32), 11, 77);
  const auto wa = sa.serialize();
  const HyperLogLog back = HyperLogLog::deserialize(wa);
  EXPECT_EQ(back.registers(), sa.registers());
  EXPECT_EQ(back.precision(), sa.precision());
  EXPECT_EQ(back.seed(), sa.seed());
  // The wire path must produce the bit-identical estimate.
  EXPECT_EQ(estimate_jaccard_wire(wa, sb.serialize()),
            HyperLogLog::estimate_jaccard(sa, sb));
}

TEST(HyperLogLog, JaccardConventionsAndSelfSimilarity) {
  const HyperLogLog empty(12, 3);
  EXPECT_DOUBLE_EQ(HyperLogLog::estimate_jaccard(empty, empty), 1.0);
  const HyperLogLog full(random_set(1u << 20, 5000, 41), 12, 3);
  EXPECT_DOUBLE_EQ(HyperLogLog::estimate_jaccard(empty, full), 0.0);
  EXPECT_DOUBLE_EQ(HyperLogLog::estimate_jaccard(full, full), 1.0);
}

TEST(HyperLogLog, JaccardWithinDocumentedBound) {
  std::vector<std::uint64_t> a;
  std::vector<std::uint64_t> b;
  thirds_sets(30000, a, b);
  const double truth = exact_jaccard_sets(a, b);
  for (int p : {10, 12}) {
    double err = 0.0;
    const int trials = 8;
    for (int t = 0; t < trials; ++t) {
      const auto seed = 100 + static_cast<std::uint64_t>(t);
      err += std::fabs(
          HyperLogLog::estimate_jaccard(HyperLogLog(a, p, seed), HyperLogLog(b, p, seed)) -
          truth);
    }
    EXPECT_LE(err / trials, hll_jaccard_error_bound(p)) << "p=" << p;
  }
}

TEST(HyperLogLog, RejectsIncompatibleAndMalformed) {
  const HyperLogLog s1(8, 1);
  const HyperLogLog s2(8, 2);   // different seed
  const HyperLogLog s3(10, 1);  // different precision
  EXPECT_THROW((void)HyperLogLog::estimate_jaccard(s1, s2), std::invalid_argument);
  EXPECT_THROW((void)HyperLogLog::merge(s1, s3), std::invalid_argument);
  EXPECT_THROW((void)HyperLogLog(3, 0), std::invalid_argument);
  auto wire = s1.serialize();
  wire.pop_back();
  EXPECT_THROW((void)HyperLogLog::deserialize(wire), std::invalid_argument);
}

// ------------------------------------------------------- OnePermMinHash

TEST(OnePermMinHash, IdenticalSetsEstimateOne) {
  const auto a = random_set(1u << 20, 5000, 51);
  const OnePermMinHash s1(a, 256, 16, 7);
  const OnePermMinHash s2(a, 256, 16, 7);
  EXPECT_DOUBLE_EQ(OnePermMinHash::estimate_jaccard(s1, s2), 1.0);
}

TEST(OnePermMinHash, EmptyConventions) {
  const OnePermMinHash empty(128, 16, 9);
  const OnePermMinHash full(random_set(1u << 16, 400, 52), 128, 16, 9);
  EXPECT_DOUBLE_EQ(OnePermMinHash::estimate_jaccard(empty, empty), 1.0);
  EXPECT_DOUBLE_EQ(OnePermMinHash::estimate_jaccard(empty, full), 0.0);
}

TEST(OnePermMinHash, MergeEqualsSketchOfUnionAndAlgebra) {
  const auto a = random_set(1u << 20, 3000, 61);
  const auto b = random_set(1u << 20, 3000, 62);
  const auto c = random_set(1u << 20, 3000, 63);
  const OnePermMinHash sa(a, 512, 16, 13);
  const OnePermMinHash sb(b, 512, 16, 13);
  const OnePermMinHash sc(c, 512, 16, 13);
  std::vector<std::uint64_t> ab(a);
  ab.insert(ab.end(), b.begin(), b.end());
  const OnePermMinHash direct(ab, 512, 16, 13);
  EXPECT_EQ(OnePermMinHash::merge(sa, sb).serialize(), direct.serialize());
  EXPECT_EQ(OnePermMinHash::merge(sa, sb).serialize(),
            OnePermMinHash::merge(sb, sa).serialize());
  EXPECT_EQ(OnePermMinHash::merge(OnePermMinHash::merge(sa, sb), sc).serialize(),
            OnePermMinHash::merge(sa, OnePermMinHash::merge(sb, sc)).serialize());
  EXPECT_EQ(OnePermMinHash::merge(sa, sa).serialize(), sa.serialize());
}

TEST(OnePermMinHash, SerializeRoundTripStaysMergeable) {
  const auto a = random_set(1u << 18, 2000, 71);
  const auto b = random_set(1u << 18, 2000, 72);
  OnePermMinHash sa(a, 256, 8, 15);
  const OnePermMinHash back = OnePermMinHash::deserialize(sa.serialize());
  EXPECT_EQ(back.serialize(), sa.serialize());
  EXPECT_EQ(back.occupied_bins(), sa.occupied_bins());
  // A deserialized sketch keeps absorbing elements exactly.
  OnePermMinHash grown = back;
  OnePermMinHash direct = sa;
  for (std::uint64_t e : b) {
    grown.add(e);
    direct.add(e);
  }
  EXPECT_EQ(grown.serialize(), direct.serialize());
}

TEST(OnePermMinHash, WireParityWithObjectEstimate) {
  const OnePermMinHash sa(random_set(1u << 20, 4000, 81), 1024, 16, 3);
  const OnePermMinHash sb(random_set(1u << 20, 4000, 82), 1024, 16, 3);
  EXPECT_EQ(estimate_jaccard_wire(sa.wire(), sb.wire()),
            OnePermMinHash::estimate_jaccard(sa, sb));
  // The raw (mergeable) form estimates identically too.
  EXPECT_EQ(estimate_jaccard_wire(sa.serialize(), sb.serialize()),
            OnePermMinHash::estimate_jaccard(sa, sb));
}

TEST(OnePermMinHash, DensificationHandlesSparseSets) {
  // Far fewer elements than bins: most bins borrow via the probe walk.
  const auto tiny = random_set(1u << 16, 10, 91);
  const OnePermMinHash s1(tiny, 512, 16, 5);
  const OnePermMinHash s2(tiny, 512, 16, 5);
  EXPECT_DOUBLE_EQ(OnePermMinHash::estimate_jaccard(s1, s2), 1.0);
  const OnePermMinHash other(random_set(1u << 16, 10, 92), 512, 16, 5);
  const double j = OnePermMinHash::estimate_jaccard(s1, other);
  EXPECT_GE(j, 0.0);
  EXPECT_LE(j, 1.0);
}

TEST(OnePermMinHash, AccuracyWithinDocumentedBound) {
  std::vector<std::uint64_t> a;
  std::vector<std::uint64_t> b;
  thirds_sets(30000, a, b);
  const double truth = exact_jaccard_sets(a, b);
  for (std::int64_t k : {256, 1024}) {
    for (int bits : {8, 16}) {
      double err = 0.0;
      const int trials = 8;
      for (int t = 0; t < trials; ++t) {
        const auto seed = 200 + static_cast<std::uint64_t>(t);
        err += std::fabs(OnePermMinHash::estimate_jaccard(OnePermMinHash(a, k, bits, seed),
                                                          OnePermMinHash(b, k, bits, seed)) -
                         truth);
      }
      EXPECT_LE(err / trials, oph_jaccard_error_bound(k, bits))
          << "k=" << k << " b=" << bits;
    }
  }
}

TEST(OnePermMinHash, RejectsBadParameters) {
  EXPECT_THROW((void)OnePermMinHash(0, 16, 1), std::invalid_argument);
  EXPECT_THROW((void)OnePermMinHash(64, 3, 1), std::invalid_argument);   // 3 ∤ 64
  EXPECT_THROW((void)OnePermMinHash(64, 128, 1), std::invalid_argument);
  const OnePermMinHash s1(64, 16, 1);
  const OnePermMinHash s2(64, 16, 2);
  EXPECT_THROW((void)OnePermMinHash::estimate_jaccard(s1, s2), std::invalid_argument);
}

// ------------------------------------------------------------- BottomK

TEST(BottomK, IncrementalAddEqualsBulkConstruction) {
  const auto a = random_set(1u << 20, 3000, 101);
  const BottomKSketch bulk(a, 256, 17);
  BottomKSketch incremental(256, 17);
  for (std::uint64_t e : a) incremental.add(e);
  EXPECT_EQ(incremental.hashes(), bulk.hashes());
  // Duplicate adds are idempotent (distinct-hash invariant).
  for (std::uint64_t e : a) incremental.add(e);
  EXPECT_EQ(incremental.hashes(), bulk.hashes());
}

TEST(BottomK, SerializeRoundTripAndWireParity) {
  const BottomKSketch sa(random_set(1u << 20, 3000, 111), 256, 19);
  const BottomKSketch sb(random_set(1u << 20, 3000, 112), 256, 19);
  const BottomKSketch back = BottomKSketch::deserialize(sa.serialize());
  EXPECT_EQ(back.hashes(), sa.hashes());
  EXPECT_EQ(back.sketch_size(), sa.sketch_size());
  EXPECT_EQ(estimate_jaccard_wire(sa.wire(), sb.wire()),
            BottomKSketch::estimate_jaccard(sa, sb));
}

// ----------------------------------------------------- wire plumbing

TEST(Wire, PackUnpackWordPanelRoundTrip) {
  const std::vector<std::vector<std::uint64_t>> blobs = {
      {1, 2, 3}, {}, {42}, {7, 7, 7, 7}};
  const auto panel = core::pack_word_panel(blobs);
  const auto views = core::unpack_word_panel(panel);
  ASSERT_EQ(views.size(), blobs.size());
  for (std::size_t i = 0; i < blobs.size(); ++i) {
    EXPECT_EQ(std::vector<std::uint64_t>(views[i].begin(), views[i].end()), blobs[i]);
  }
  EXPECT_EQ(core::unpack_word_panel(core::pack_word_panel({})).size(), 0u);
}

TEST(Wire, RejectsMismatchedTypesAndGarbage) {
  const HyperLogLog hll(8, 1);
  const BottomKSketch bk(random_set(100, 10, 1), 16, 1);
  EXPECT_THROW((void)estimate_jaccard_wire(hll.wire(), bk.wire()), std::invalid_argument);
  const std::vector<std::uint64_t> garbage = {1, 2, 3, 4};
  EXPECT_THROW((void)wire_type(garbage), std::invalid_argument);
}

// ------------------------------------------- sketch-exchange pipeline

core::VectorSampleSource random_source(std::int64_t m, std::int64_t n, double density,
                                       std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<std::int64_t>> samples(static_cast<std::size_t>(n));
  for (auto& s : samples) {
    for (std::int64_t v = 0; v < m; ++v) {
      if (rng.bernoulli(density)) s.push_back(v);
    }
  }
  return core::VectorSampleSource(m, std::move(samples));
}

core::Config sketch_config(core::Estimator estimator) {
  core::Config cfg;
  cfg.estimator = estimator;
  cfg.hll_precision = 8;
  cfg.sketch_size = 128;
  return cfg;
}

class PipelineEstimators : public ::testing::TestWithParam<core::Estimator> {};

TEST_P(PipelineEstimators, BitwiseIndependentOfRankAndBatchCount) {
  const auto src = random_source(2000, 13, 0.1, 42);
  core::Config cfg = sketch_config(GetParam());
  const auto reference = core::similarity_at_scale_threaded(1, src, cfg);
  ASSERT_EQ(reference.similarity.size(), 13);
  for (int ranks : {2, 4, 5}) {
    const auto got = core::similarity_at_scale_threaded(ranks, src, cfg);
    EXPECT_EQ(got.similarity.max_abs_diff(reference.similarity), 0.0)
        << "ranks=" << ranks;
  }
  cfg.batch_count = 7;
  EXPECT_EQ(core::similarity_at_scale_threaded(3, src, cfg)
                .similarity.max_abs_diff(reference.similarity),
            0.0);
}

/// Reference wire of one sample: the whole sample set sketched at once by
/// the sketch class's own set constructor — independent of the
/// pipeline's batched streaming build.
std::vector<std::uint64_t> reference_wire(const core::SampleSource& src, std::int64_t i,
                                          const core::Config& cfg) {
  const std::vector<std::int64_t> values =
      src.values_in_range(i, {0, src.attribute_universe()});
  const std::vector<std::uint64_t> set(values.begin(), values.end());
  switch (cfg.estimator) {
    case core::Estimator::kHll:
      return HyperLogLog(set, cfg.hll_precision, cfg.sketch_seed).wire();
    case core::Estimator::kMinhash:
      return OnePermMinHash(set, cfg.sketch_size, cfg.minhash_bits, cfg.sketch_seed)
          .wire();
    default:
      return BottomKSketch(set, static_cast<std::size_t>(cfg.sketch_size), cfg.sketch_seed)
          .wire();
  }
}

TEST_P(PipelineEstimators, MatchesDirectAllPairsOverWires) {
  const auto src = random_source(1500, 9, 0.08, 43);
  core::Config cfg = sketch_config(GetParam());
  cfg.batch_count = 4;  // the pipeline streams in batches; the reference does not
  const std::int64_t n = src.sample_count();
  std::vector<std::vector<std::uint64_t>> wires;
  for (std::int64_t i = 0; i < n; ++i) {
    wires.push_back(reference_wire(src, i, cfg));
  }
  const auto result = core::similarity_at_scale_threaded(3, src, cfg);
  for (std::int64_t i = 0; i < n; ++i) {
    for (std::int64_t j = 0; j < n; ++j) {
      EXPECT_EQ(result.similarity.similarity(i, j),
                estimate_jaccard_wire(wires[static_cast<std::size_t>(i)],
                                      wires[static_cast<std::size_t>(j)]))
          << "(" << i << ", " << j << ")";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllSketches, PipelineEstimators,
                         ::testing::Values(core::Estimator::kHll,
                                           core::Estimator::kMinhash,
                                           core::Estimator::kBottomK));

TEST(Pipeline, EstimateAccuracyWithinBoundVsExactDriver) {
  // Correlated samples (shared backbone) give a spread of true J values.
  Rng rng(7);
  const std::int64_t m = 4000;
  std::vector<std::int64_t> backbone;
  for (std::int64_t v = 0; v < m; ++v) {
    if (rng.bernoulli(0.1)) backbone.push_back(v);
  }
  std::vector<std::vector<std::int64_t>> samples(10);
  for (auto& s : samples) {
    for (std::int64_t v : backbone) {
      if (rng.bernoulli(0.8)) s.push_back(v);
    }
    for (std::int64_t v = 0; v < m; ++v) {
      if (rng.bernoulli(0.01)) s.push_back(v);
    }
    std::sort(s.begin(), s.end());
    s.erase(std::unique(s.begin(), s.end()), s.end());
  }
  const core::VectorSampleSource src(m, std::move(samples));
  const auto exact = core::similarity_at_scale_threaded(2, src, core::Config{});

  struct Case {
    core::Estimator estimator;
    double bound;
  };
  core::Config cfg;  // default sketch parameters (p=12, k=1024, b=16)
  for (const Case c : {Case{core::Estimator::kHll, hll_jaccard_error_bound(12)},
                       Case{core::Estimator::kMinhash, oph_jaccard_error_bound(1024, 16)},
                       Case{core::Estimator::kBottomK, bottomk_jaccard_error_bound(1024)}}) {
    cfg.estimator = c.estimator;
    const auto got = core::similarity_at_scale_threaded(2, src, cfg);
    double err = 0.0;
    int pairs = 0;
    const std::int64_t n = src.sample_count();
    for (std::int64_t i = 0; i < n; ++i) {
      for (std::int64_t j = i + 1; j < n; ++j) {
        err += std::fabs(got.similarity.similarity(i, j) -
                         exact.similarity.similarity(i, j));
        ++pairs;
      }
    }
    EXPECT_LE(err / pairs, c.bound)
        << "estimator " << static_cast<int>(c.estimator);
  }
}

TEST(Pipeline, CommBytesAreFixedSizeNotNnzProportional) {
  // Same n, very different nnz: the minhash wire panel is fixed-size, so
  // the sketch ring's traffic must be IDENTICAL across densities, while
  // the exact ring's grows with nnz.
  const int ranks = 4;
  const auto sparse = random_source(4096, 12, 0.02, 91);
  const auto dense = random_source(4096, 12, 0.3, 92);

  core::Config cfg = sketch_config(core::Estimator::kMinhash);
  std::vector<bsp::CostCounters> counters;
  (void)core::similarity_at_scale_threaded(ranks, sparse, cfg, &counters);
  const auto sketch_sparse = bsp::CostSummary::aggregate(counters);
  (void)core::similarity_at_scale_threaded(ranks, dense, cfg, &counters);
  const auto sketch_dense = bsp::CostSummary::aggregate(counters);
  EXPECT_EQ(sketch_sparse.total_bytes, sketch_dense.total_bytes);
  EXPECT_EQ(sketch_sparse.max_bytes, sketch_dense.max_bytes);

  core::Config exact_cfg;
  exact_cfg.algorithm = core::Algorithm::kRing1D;
  (void)core::similarity_at_scale_threaded(ranks, dense, exact_cfg, &counters);
  const auto exact_dense = bsp::CostSummary::aggregate(counters);
  EXPECT_LT(sketch_dense.total_bytes, exact_dense.total_bytes);
}

TEST(Pipeline, BatchTrafficExcludesTheAssembleGather) {
  // The pseudo-batch's traffic stops at the closing barrier, like a
  // batched pipeline's: the dense gather of the assemble stage is not
  // batch traffic.
  const auto src = random_source(2000, 11, 0.1, 17);
  const auto result =
      core::similarity_at_scale_threaded(4, src, sketch_config(core::Estimator::kMinhash));
  ASSERT_EQ(result.batches.size(), 1u);
  const core::StageStats& gather = result.stages[core::Stage::kAssemble];
  EXPECT_GT(gather.bytes_sent, 0u);
  EXPECT_GT(result.batches[0].bytes_sent, 0u);
  EXPECT_EQ(result.batches[0].bytes_sent + gather.bytes_sent,
            result.stages.total_bytes_sent());
  EXPECT_EQ(result.batches[0].bytes_received + gather.bytes_received,
            result.stages.total_bytes_received());
}

TEST(Pipeline, MoreRanksThanSamples) {
  const auto src = random_source(500, 3, 0.1, 77);
  core::Config cfg = sketch_config(core::Estimator::kHll);
  const auto reference = core::similarity_at_scale_threaded(1, src, cfg);
  const auto wide = core::similarity_at_scale_threaded(6, src, cfg);
  EXPECT_EQ(wide.similarity.max_abs_diff(reference.similarity), 0.0);
}

TEST(Pipeline, ExactEstimatorRejectsSketchBuild) {
  EXPECT_THROW(StreamingSketcher{core::Config{}}, std::invalid_argument);
}

}  // namespace
}  // namespace sas::sketch
