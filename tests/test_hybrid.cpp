// test_hybrid.cpp — the sketch-prune → exact-rescore hybrid estimator.
//
// The hybrid's contract (core/driver.hpp):
//   * every surviving (masked) pair is BITWISE-identical to the kExact
//     pipeline's value, for every algorithm / rank count / batch count;
//   * no pair with true J ≥ prune_threshold + slack is ever pruned
//     (recall — the slack guards against sketch estimation error);
//   * pruned pairs carry their sketch estimates, not garbage;
//   * the rescore exchange moves fewer bytes than the exact ring on
//     pair-sparse corpora (the targeted alltoall + column dropping);
//   * persisted sketch blobs are loaded instead of re-sketching.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include "analysis/similar_pairs.hpp"
#include "bsp/cost_model.hpp"
#include "bsp/runtime.hpp"
#include "core/driver.hpp"
#include "core/sample_source.hpp"
#include "distmat/spgemm.hpp"
#include "genome/kmer_source.hpp"
#include "genome/sample.hpp"
#include "genome/synthetic.hpp"
#include "sketch/exchange.hpp"
#include "sketch/sketch.hpp"
#include "util/rng.hpp"

namespace sas {
namespace {

/// Two-cluster synthetic source: high Jaccard within a cluster (shared
/// base set plus light noise), near-zero across clusters — the regime the
/// hybrid targets.
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
        if (!rng.bernoulli(0.08)) s.push_back(v);  // drop a few
      }
      for (std::int64_t v = 0; v < m; ++v) {
        if (rng.bernoulli(0.02)) s.push_back(v);  // add a few
      }
      samples.push_back(std::move(s));
    }
  }
  return core::VectorSampleSource(m, std::move(samples));
}

/// Genome family corpus: `families` unrelated ancestors, `members`
/// mutated relatives each, interleaved so block-distributed ranks hold
/// one member of several families (cross-rank surviving pairs).
genome::KmerSampleSource family_corpus(int k, int families, int members,
                                       std::int64_t genome_length, double rate,
                                       std::uint64_t seed) {
  const genome::KmerCodec codec(k);
  Rng rng(seed);
  std::vector<std::string> ancestors;
  for (int f = 0; f < families; ++f) {
    ancestors.push_back(genome::random_genome(genome_length, rng));
  }
  std::vector<genome::KmerSample> corpus;
  for (int i = 0; i < members; ++i) {
    for (int f = 0; f < families; ++f) {
      const std::string& ancestor = ancestors[static_cast<std::size_t>(f)];
      const std::string individual =
          i == 0 ? ancestor : genome::mutate_point(ancestor, rate, rng);
      corpus.push_back(genome::build_sample(
          "f" + std::to_string(f) + "m" + std::to_string(i), {{"g", "", individual}},
          codec));
    }
  }
  return genome::KmerSampleSource(k, std::move(corpus));
}

struct HybridCase {
  core::Algorithm algorithm;
  int nranks;
  int batch_count;
  int replication;
};

class HybridEquivalence : public ::testing::TestWithParam<HybridCase> {};

TEST_P(HybridEquivalence, SurvivingPairsBitwiseEqualExact) {
  const HybridCase c = GetParam();
  const auto src = clustered_source(/*m=*/600, /*per_cluster=*/8, /*seed=*/7);
  const std::int64_t n = src.sample_count();

  core::Config exact_cfg;
  exact_cfg.algorithm = c.algorithm;
  exact_cfg.batch_count = c.batch_count;
  exact_cfg.replication = c.replication;
  const core::Result exact = similarity_at_scale_threaded(c.nranks, src, exact_cfg);

  core::Config hybrid_cfg = exact_cfg;
  hybrid_cfg.estimator = core::Estimator::kHybrid;
  hybrid_cfg.prune_threshold = 0.3;
  const core::Result hybrid = similarity_at_scale_threaded(c.nranks, src, hybrid_cfg);

  ASSERT_EQ(hybrid.n, n);
  ASSERT_EQ(hybrid.candidates.size(), n);
  // The hybrid assembles the survivor-sparse output by default: the
  // dense matrix must not even exist on rank 0.
  EXPECT_TRUE(hybrid.sparse_output());
  EXPECT_TRUE(hybrid.similarity.empty());
  ASSERT_EQ(hybrid.sparse_similarity.size(), n);

  std::int64_t surviving = 0;
  std::int64_t pruned = 0;
  for (std::int64_t i = 0; i < n; ++i) {
    EXPECT_TRUE(hybrid.candidates.test(i, i)) << "diagonal must be a candidate";
    for (std::int64_t j = 0; j < n; ++j) {
      EXPECT_EQ(hybrid.candidates.test(i, j), hybrid.candidates.test(j, i))
          << "mask must be symmetric at (" << i << ", " << j << ")";
      EXPECT_EQ(hybrid.sparse_similarity.is_survivor(i, j),
                i != j && hybrid.candidates.test(i, j))
          << "survivor set must mirror the off-diagonal mask at (" << i << ", " << j
          << ")";
      const double h = hybrid.similarity_at(i, j);
      const double e = exact.similarity.similarity(i, j);
      if (hybrid.candidates.test(i, j)) {
        EXPECT_EQ(h, e) << "surviving pair (" << i << ", " << j
                        << ") must be bitwise-exact";
        ++surviving;
      } else {
        // Pruned pairs carry sketch estimates: bounded error, not garbage.
        EXPECT_GE(h, 0.0);
        EXPECT_LE(h, 1.0);
        EXPECT_NEAR(h, e, 0.1) << "pruned pair (" << i << ", " << j << ")";
        ++pruned;
      }
    }
  }
  // The two-cluster fixture must actually exercise both sides.
  EXPECT_GT(surviving, n);  // diagonal + within-cluster pairs
  EXPECT_GT(pruned, 0);     // cross-cluster pairs
}

INSTANTIATE_TEST_SUITE_P(
    AllVariants, HybridEquivalence,
    ::testing::Values(HybridCase{core::Algorithm::kSerial, 1, 1, 1},
                      HybridCase{core::Algorithm::kSerial, 3, 2, 1},
                      HybridCase{core::Algorithm::kRing1D, 1, 1, 1},
                      HybridCase{core::Algorithm::kRing1D, 4, 3, 1},
                      HybridCase{core::Algorithm::kRing1D, 5, 2, 1},
                      HybridCase{core::Algorithm::kSumma, 4, 2, 1},
                      HybridCase{core::Algorithm::kSumma, 9, 3, 1},
                      HybridCase{core::Algorithm::kSumma, 8, 2, 2},   // 2.5D
                      HybridCase{core::Algorithm::kSumma, 6, 2, 1})); // inactive ranks

TEST(Hybrid, PrunedEntriesEqualPureSketchEstimates) {
  const auto src = clustered_source(600, 6, 11);
  const std::int64_t n = src.sample_count();

  core::Config sketch_cfg;
  sketch_cfg.algorithm = core::Algorithm::kRing1D;
  sketch_cfg.estimator = core::Estimator::kMinhash;
  const core::Result sketched = similarity_at_scale_threaded(3, src, sketch_cfg);

  core::Config hybrid_cfg = sketch_cfg;
  hybrid_cfg.estimator = core::Estimator::kHybrid;
  hybrid_cfg.hybrid_sketch = core::Estimator::kMinhash;
  hybrid_cfg.prune_threshold = 0.3;
  const core::Result hybrid = similarity_at_scale_threaded(3, src, hybrid_cfg);

  for (std::int64_t i = 0; i < n; ++i) {
    for (std::int64_t j = 0; j < n; ++j) {
      if (i == j || hybrid.candidates.test(i, j)) continue;
      EXPECT_EQ(hybrid.similarity_at(i, j), sketched.similarity.similarity(i, j))
          << "pruned pair (" << i << ", " << j
          << ") must carry the sketch estimate";
    }
  }
}

TEST(Hybrid, RecallOnGenomeFamilies) {
  const int k = 15;
  const auto src = family_corpus(k, /*families=*/4, /*members=*/3,
                                 /*genome_length=*/6000, /*rate=*/0.02, /*seed=*/99);
  const std::int64_t n = src.sample_count();

  core::Config exact_cfg;
  exact_cfg.algorithm = core::Algorithm::kRing1D;
  exact_cfg.batch_count = 3;
  const core::Result exact = similarity_at_scale_threaded(4, src, exact_cfg);

  core::Config hybrid_cfg = exact_cfg;
  hybrid_cfg.estimator = core::Estimator::kHybrid;
  hybrid_cfg.prune_threshold = 0.1;
  const double slack = sketch::hybrid_prune_slack(hybrid_cfg);
  const core::Result hybrid = similarity_at_scale_threaded(4, src, hybrid_cfg);

  std::int64_t pruned = 0;
  for (std::int64_t i = 0; i < n; ++i) {
    for (std::int64_t j = i + 1; j < n; ++j) {
      const double truth = exact.similarity.similarity(i, j);
      if (truth >= hybrid_cfg.prune_threshold + slack) {
        EXPECT_TRUE(hybrid.candidates.test(i, j))
            << "pair (" << i << ", " << j << ") with true J = " << truth
            << " must not be pruned";
      }
      if (!hybrid.candidates.test(i, j)) ++pruned;
      if (hybrid.candidates.test(i, j)) {
        EXPECT_EQ(hybrid.similarity_at(i, j), truth);
      }
    }
  }
  // Cross-family pairs (J ≈ 0) dominate and must actually be pruned.
  EXPECT_GT(pruned, n);
}

TEST(Hybrid, TargetedExchangeBeatsExactRingBytes) {
  const int k = 15;
  // 16 samples over 8 ranks: each sample's 2 family partners live on
  // other ranks, so survivors still need the exchange — but only 2 of 7
  // peers, which is where the targeted alltoall wins over the ring.
  const auto src = family_corpus(k, /*families=*/8, /*members=*/2,
                                 /*genome_length=*/6000, /*rate=*/0.02, /*seed=*/5);

  core::Config exact_cfg;
  exact_cfg.algorithm = core::Algorithm::kRing1D;
  exact_cfg.batch_count = 2;
  std::vector<bsp::CostCounters> exact_counters;
  const core::Result exact =
      similarity_at_scale_threaded(8, src, exact_cfg, &exact_counters);
  const auto exact_cost = bsp::CostSummary::aggregate(exact_counters);

  core::Config hybrid_cfg = exact_cfg;
  hybrid_cfg.estimator = core::Estimator::kHybrid;
  hybrid_cfg.prune_threshold = 0.1;
  hybrid_cfg.sketch_size = 256;  // small sketches: the prune pass is cheap
  std::vector<bsp::CostCounters> hybrid_counters;
  const core::Result hybrid =
      similarity_at_scale_threaded(8, src, hybrid_cfg, &hybrid_counters);
  const auto hybrid_cost = bsp::CostSummary::aggregate(hybrid_counters);

  EXPECT_LT(hybrid_cost.total_bytes, exact_cost.total_bytes)
      << "sketch pass + targeted rescore must undercut the exact ring";
  // And the survivors still came out exact.
  const std::int64_t n = src.sample_count();
  for (std::int64_t i = 0; i < n; ++i) {
    for (std::int64_t j = 0; j < n; ++j) {
      if (hybrid.candidates.test(i, j)) {
        EXPECT_EQ(hybrid.similarity_at(i, j), exact.similarity.similarity(i, j));
      }
    }
  }
}

TEST(Hybrid, BatchAndStageStatsReportMeasuredTraffic) {
  const auto src = clustered_source(600, 6, 3);

  core::Config cfg;
  cfg.algorithm = core::Algorithm::kRing1D;
  cfg.batch_count = 3;
  std::vector<bsp::CostCounters> counters;
  const core::Result result = similarity_at_scale_threaded(4, src, cfg, &counters);

  ASSERT_EQ(result.batches.size(), 3u);
  for (const core::BatchStats& bs : result.batches) {
    EXPECT_GT(bs.bytes_sent, 0) << "multi-rank batches move panel bytes";
    EXPECT_GT(bs.bytes_received, 0);
  }
  // Ingest is purely local; the exchange stage carries the panel traffic.
  EXPECT_EQ(result.stages[core::Stage::kIngest].bytes_sent, 0u);
  EXPECT_GT(result.stages[core::Stage::kExchange].bytes_sent, 0u);
  EXPECT_GT(result.stages[core::Stage::kMultiply].seconds, 0.0);

  // Every non-self payload is both sent and received in the bsp runtime.
  const auto cost = bsp::CostSummary::aggregate(counters);
  EXPECT_EQ(cost.total_bytes, cost.total_bytes_received);
}

TEST(Hybrid, PersistedSketchesAreLoadedAndValidated) {
  const int k = 15;
  const genome::KmerCodec codec(k);
  Rng rng(21);
  const std::filesystem::path dir =
      std::filesystem::path(::testing::TempDir()) / "sas_hybrid_persist";
  std::filesystem::create_directories(dir);

  // Three unrelated genomes: all true pairwise J ≈ 0.
  std::vector<std::string> paths;
  std::vector<genome::KmerSample> samples;
  for (int i = 0; i < 3; ++i) {
    const auto sample = genome::build_sample(
        "s" + std::to_string(i), {{"g", "", genome::random_genome(5000, rng)}}, codec);
    const std::string path = (dir / ("s" + std::to_string(i) + ".kmers")).string();
    genome::write_sample_file(path, sample);
    paths.push_back(path);
    samples.push_back(sample);
  }
  const genome::KmerFileSource source(k, paths);

  // Both sketch ingests consult persisted blobs: the hybrid's one-pass
  // ingest and the pure-sketch pipeline's block-owned build.
  for (const core::Estimator estimator :
       {core::Estimator::kHybrid, core::Estimator::kMinhash}) {
    SCOPED_TRACE(estimator == core::Estimator::kHybrid ? "hybrid" : "minhash");
    core::Config cfg;
    cfg.algorithm = core::Algorithm::kRing1D;
    cfg.estimator = estimator;
    cfg.prune_threshold = 0.5;
    // Does pair (0, 1) look identical to the sketches? The hybrid keeps
    // it as a candidate; the pure sketch reports its estimate J = 1.
    const auto sketches_match = [&](const core::Result& result) {
      return estimator == core::Estimator::kHybrid ? result.candidates.test(0, 1)
                                                   : result.similarity_at(0, 1) == 1.0;
    };
    std::filesystem::remove(source.sketch_path(0, cfg));

    const core::Result fresh = similarity_at_scale_threaded(2, source, cfg);
    EXPECT_FALSE(sketches_match(fresh)) << "unrelated genomes must not match";

    // Forge sample 0's persisted blob from sample 1's k-mers (compatible
    // header). If the pipeline loads it, pair (0, 1) estimates as J = 1 —
    // proof the blob replaced re-sketching.
    const sketch::OnePermMinHash forged(std::span<const std::uint64_t>(samples[1].kmers),
                                        cfg.sketch_size, cfg.minhash_bits,
                                        cfg.sketch_seed);
    sketch::write_wire_file(source.sketch_path(0, cfg), forged.wire());
    const core::Result loaded = similarity_at_scale_threaded(2, source, cfg);
    EXPECT_TRUE(sketches_match(loaded)) << "persisted blob was not loaded";

    // An incompatible blob (different seed) must be ignored.
    const sketch::OnePermMinHash incompatible(
        std::span<const std::uint64_t>(samples[1].kmers), cfg.sketch_size,
        cfg.minhash_bits, cfg.sketch_seed + 1);
    sketch::write_wire_file(source.sketch_path(0, cfg), incompatible.wire());
    const core::Result ignored = similarity_at_scale_threaded(2, source, cfg);
    EXPECT_FALSE(sketches_match(ignored)) << "parameter-incompatible blob must be ignored";
  }
}

TEST(Hybrid, RingSkipsFullyPrunedPanels) {
  // Direct kernel-level coverage of ring_ata_accumulate's whole-panel
  // prune skip (the driver's Ring1D hybrid path uses the targeted
  // exchange instead, so this branch needs its own exercise): masked
  // pairs must still come out identical to the unpruned ring.
  const std::int64_t h = 37;
  const std::int64_t n = 16;
  Rng rng(404);
  std::vector<distmat::Triplet<std::uint64_t>> entries;
  for (std::int64_t w = 0; w < h; ++w) {
    for (std::int64_t c = 0; c < n; ++c) {
      if (rng.bernoulli(0.35)) entries.push_back({w, c, rng()});
    }
  }
  const distmat::SparseBlock full{h, n, entries};
  const distmat::DenseBlock<std::int64_t> expected = distmat::serial_ata(full);

  // Two clusters of 8; with 4 ranks each rank's rows pair with only one
  // other rank's columns, so half the arriving panels are skipped whole.
  distmat::PairMask bits(n);
  for (std::int64_t i = 0; i < n; ++i) {
    for (std::int64_t j = 0; j < n; ++j) {
      if ((i < 8) == (j < 8)) bits.set(i, j);
    }
  }
  const distmat::CandidateMask mask(std::move(bits));

  bsp::Runtime::run(4, [&](bsp::Comm& comm) {
    const int p = comm.size();
    const distmat::BlockRange my_cols = distmat::block_range(n, p, comm.rank());
    std::vector<distmat::Triplet<std::uint64_t>> mine;
    for (const auto& t : full.entries) {
      if (my_cols.contains(t.col)) mine.push_back({t.row, t.col - my_cols.begin, t.value});
    }
    const distmat::SparseBlock panel{h, my_cols.size(), std::move(mine)};
    distmat::DenseBlock<std::int64_t> b_panel(my_cols, distmat::BlockRange{0, n});
    distmat::CsrAtaOptions options;
    options.prune = &mask;
    distmat::ring_ata_accumulate(comm, n, panel, b_panel, options);
    for (std::int64_t i = my_cols.begin; i < my_cols.end; ++i) {
      for (std::int64_t j = 0; j < n; ++j) {
        if (mask.test(i, j)) {
          EXPECT_EQ(b_panel.at_global(i, j), expected.at_global(i, j))
              << "masked pair (" << i << ", " << j << ")";
        }
      }
    }
  });
}

TEST(Hybrid, CandidatePairsWalksTheMask) {
  const auto src = clustered_source(600, 5, 13);
  const std::int64_t n = src.sample_count();

  core::Config cfg;
  cfg.algorithm = core::Algorithm::kRing1D;
  cfg.estimator = core::Estimator::kHybrid;
  cfg.prune_threshold = 0.3;
  const core::Result result = similarity_at_scale_threaded(3, src, cfg);

  // The survivor walk IS the pair listing.
  ASSERT_TRUE(result.sparse_output());
  const auto pairs = analysis::candidate_pairs(result.sparse_similarity);
  std::int64_t masked_offdiag = 0;
  for (std::int64_t i = 0; i < n; ++i) {
    for (std::int64_t j = i + 1; j < n; ++j) {
      if (result.candidates.test(i, j)) ++masked_offdiag;
    }
  }
  ASSERT_EQ(static_cast<std::int64_t>(pairs.size()), masked_offdiag);
  for (std::size_t idx = 0; idx < pairs.size(); ++idx) {
    EXPECT_TRUE(result.candidates.test(pairs[idx].a, pairs[idx].b));
    EXPECT_LT(pairs[idx].a, pairs[idx].b);
    EXPECT_EQ(pairs[idx].similarity,
              result.similarity_at(pairs[idx].a, pairs[idx].b));
    if (idx > 0) {
      EXPECT_GE(pairs[idx - 1].similarity, pairs[idx].similarity);
    }
  }

  // Re-thresholding on the exact value filters within the candidates.
  const auto strict = analysis::candidate_pairs(result.sparse_similarity, 0.99);
  for (const auto& pair : strict) EXPECT_GE(pair.similarity, 0.99);
  EXPECT_LE(strict.size(), pairs.size());
}

}  // namespace
}  // namespace sas
