// test_sketch.cpp — the sketch subsystem: wire blobs as the one sketch
// representation (order-independent construction, layout, the Jaccard
// conventions), statistical accuracy of the wire estimators against the
// documented error bounds, and distributed parity of the sketch-exchange
// pipeline (bitwise rank-count / batch-count / schedule independence).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <span>
#include <vector>

#include "bsp/runtime.hpp"
#include "core/driver.hpp"
#include "core/packing.hpp"
#include "core/sample_source.hpp"
#include "sketch/bottomk.hpp"
#include "sketch/exchange.hpp"
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

// ------------------------------------------------------- OnePermMinHash

TEST(OnePermMinHash, IdenticalSetsEstimateOne) {
  const auto a = random_set(1u << 20, 5000, 51);
  EXPECT_DOUBLE_EQ(estimate_jaccard_wire(OnePermMinHash(a, 256, 16, 7).wire(),
                                         OnePermMinHash(a, 256, 16, 7).wire()),
                   1.0);
}

TEST(OnePermMinHash, EmptyConventions) {
  const auto empty = OnePermMinHash(128, 16, 9).wire();
  const auto full = OnePermMinHash(random_set(1u << 16, 400, 52), 128, 16, 9).wire();
  EXPECT_DOUBLE_EQ(estimate_jaccard_wire(empty, empty), 1.0);
  EXPECT_DOUBLE_EQ(estimate_jaccard_wire(empty, full), 0.0);
}

TEST(OnePermMinHash, WirePacksTheDensifiedRegisters) {
  const OnePermMinHash sa(random_set(1u << 20, 4000, 81), 1024, 16, 3);
  const auto wire = sa.wire();
  ASSERT_EQ(wire.size(), kWireHeaderWords + 1 + 1024 * 16 / 64);
  EXPECT_EQ(wire[0], wire_header_word(WireType::kOnePermMinHash));
  EXPECT_EQ(wire[2], 3u);
  EXPECT_GT(wire[kWireHeaderWords], 0u);  // occupied bins: not the empty flag
  const std::vector<std::uint64_t> regs = sa.densified_registers();
  const auto payload = std::span<const std::uint64_t>(wire).subspan(kWireHeaderWords + 1);
  for (std::size_t lane = 0; lane < regs.size(); ++lane) {
    const std::size_t bit = lane * 16;
    EXPECT_EQ((payload[bit / 64] >> (bit % 64)) & 0xffff, regs[lane]) << "lane " << lane;
  }
}

TEST(OnePermMinHash, DensificationHandlesSparseSets) {
  // Far fewer elements than bins: most bins borrow via the probe walk.
  const auto tiny = random_set(1u << 16, 10, 91);
  const auto s1 = OnePermMinHash(tiny, 512, 16, 5).wire();
  const auto s2 = OnePermMinHash(tiny, 512, 16, 5).wire();
  EXPECT_DOUBLE_EQ(estimate_jaccard_wire(s1, s2), 1.0);
  const auto other = OnePermMinHash(random_set(1u << 16, 10, 92), 512, 16, 5).wire();
  const double j = estimate_jaccard_wire(s1, other);
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
        err += std::fabs(estimate_jaccard_wire(OnePermMinHash(a, k, bits, seed).wire(),
                                               OnePermMinHash(b, k, bits, seed).wire()) -
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
  EXPECT_THROW(
      (void)estimate_jaccard_wire(OnePermMinHash(64, 16, 1).wire(),
                                  OnePermMinHash(64, 16, 2).wire()),
      std::invalid_argument);
}

/// Reference estimate from a per-lane match count, one packed_lane-style
/// extraction per register: lane l is bits [l·b, (l+1)·b) of the packed
/// payload and only the first `bins` lanes count; then the same b-bit
/// correction. The word-parallel kernel must reproduce it bitwise.
double lane_loop_estimate(std::span<const std::uint64_t> a,
                          std::span<const std::uint64_t> b) {
  const auto bins = static_cast<std::int64_t>(a[1] & 0xffffffffu);
  const int bits = static_cast<int>(a[1] >> 32);
  const bool empty_a = a[kWireHeaderWords] == 0;
  const bool empty_b = b[kWireHeaderWords] == 0;
  if (empty_a && empty_b) return 1.0;
  if (empty_a || empty_b) return 0.0;
  const std::uint64_t mask = bits >= 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << bits) - 1;
  const auto lane = [&](std::span<const std::uint64_t> payload, std::int64_t l) {
    const std::int64_t bit = l * bits;
    return (payload[static_cast<std::size_t>(bit >> 6)] >> (bit & 63)) & mask;
  };
  const auto pa = a.subspan(kWireHeaderWords + 1);
  const auto pb = b.subspan(kWireHeaderWords + 1);
  std::int64_t matches = 0;
  for (std::int64_t l = 0; l < bins; ++l) matches += lane(pa, l) == lane(pb, l);
  const double collision = std::ldexp(1.0, -bits);
  const double frac = static_cast<double>(matches) / static_cast<double>(bins);
  return std::clamp((frac - collision) / (1.0 - collision), 0.0, 1.0);
}

/// An OPH wire blob with the given registers packed b bits per lane
/// (`occupied` = 0 flags the empty sketch).
std::vector<std::uint64_t> oph_blob(int bits, std::uint64_t occupied,
                                    const std::vector<std::uint64_t>& regs) {
  const auto bins = static_cast<std::uint64_t>(regs.size());
  std::vector<std::uint64_t> wire = {wire_header_word(WireType::kOnePermMinHash),
                                     bins | (static_cast<std::uint64_t>(bits) << 32), 7,
                                     occupied};
  wire.resize(wire.size() + (bins * static_cast<std::uint64_t>(bits) + 63) / 64, 0);
  for (std::size_t l = 0; l < regs.size(); ++l) {
    const std::size_t bit = l * static_cast<std::size_t>(bits);
    wire[kWireHeaderWords + 1 + bit / 64] |= regs[l] << (bit % 64);
  }
  return wire;
}

TEST(OnePermMinHash, WordParallelCountMatchesTheLaneLoop) {
  Rng rng(1234);
  for (int bits : {1, 2, 4, 8, 16, 32, 64}) {
    const std::uint64_t mask =
        bits >= 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << bits) - 1;
    for (std::int64_t bins : {1024, 1000, 37}) {
      const auto k = static_cast<std::size_t>(bins);
      std::vector<std::uint64_t> base(k);
      for (auto& reg : base) reg = rng() & mask;
      const auto a = oph_blob(bits, k, base);
      // Re-draw a growing share of the lanes: match fractions from 1
      // down to the 2^-b collision floor.
      for (double redraw : {0.0, 0.05, 0.3, 0.7, 1.0}) {
        std::vector<std::uint64_t> regs = base;
        for (auto& reg : regs) {
          if (rng.uniform(1000) < static_cast<std::uint64_t>(redraw * 1000)) {
            reg = rng() & mask;
          }
        }
        const auto b = oph_blob(bits, k, regs);
        EXPECT_EQ(oph_wire_jaccard(a, b), lane_loop_estimate(a, b))
            << "b=" << bits << " bins=" << bins << " redraw=" << redraw;
        EXPECT_EQ(oph_wire_jaccard(b, a), oph_wire_jaccard(a, b));
      }
      const auto empty = oph_blob(bits, 0, std::vector<std::uint64_t>(k, 0));
      EXPECT_EQ(oph_wire_jaccard(empty, empty), lane_loop_estimate(empty, empty));
      EXPECT_EQ(oph_wire_jaccard(empty, a), lane_loop_estimate(empty, a));
      EXPECT_EQ(oph_wire_jaccard(a, empty), 0.0);

      // Bits past the last lane are not registers: set them (differently
      // on each side) and the count must ignore them, as the loop does.
      const std::uint64_t tail_bits = (k * static_cast<std::uint64_t>(bits)) % 64;
      if (tail_bits == 0) continue;
      auto noisy_a = a;
      auto noisy_b = a;
      noisy_a.back() |= ~std::uint64_t{0} << tail_bits;
      noisy_b.back() |= std::uint64_t{0x5a5a5a5a5a5a5a5a} << tail_bits;
      EXPECT_EQ(oph_wire_jaccard(noisy_a, noisy_b), lane_loop_estimate(noisy_a, noisy_b))
          << "b=" << bits << " bins=" << bins;
      EXPECT_EQ(oph_wire_jaccard(noisy_a, noisy_b), 1.0);
    }
  }
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

TEST(BottomK, WireCarriesTheSortedHashes) {
  const BottomKSketch sa(random_set(1u << 20, 3000, 111), 256, 19);
  const auto wire = sa.wire();
  EXPECT_EQ(wire[0], wire_header_word(WireType::kBottomK));
  EXPECT_EQ(wire[1], 256u);
  EXPECT_EQ(wire[2], 19u);
  EXPECT_EQ(std::vector<std::uint64_t>(wire.begin() + kWireHeaderWords, wire.end()),
            sa.hashes());
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
  const OnePermMinHash oph(random_set(100, 10, 1), 64, 16, 1);
  const BottomKSketch bk(random_set(100, 10, 1), 16, 1);
  EXPECT_THROW((void)estimate_jaccard_wire(oph.wire(), bk.wire()), std::invalid_argument);
  const std::vector<std::uint64_t> garbage = {1, 2, 3, 4};
  EXPECT_THROW((void)wire_type(garbage), std::invalid_argument);
  // Tag 4 names no sketch type, and tag 1, HyperLogLog's before it was
  // deleted, names none any more: neither is ever scored.
  for (const std::uint64_t tag : {std::uint64_t{1}, std::uint64_t{4}}) {
    auto retagged = oph.wire();
    retagged[0] = (kWireMagic << 32) | tag;
    EXPECT_THROW((void)wire_type(retagged), std::invalid_argument) << tag;
    EXPECT_THROW((void)estimate_jaccard_wire(retagged, retagged), std::invalid_argument)
        << tag;
  }
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
  cfg.sketch_size = 128;
  return cfg;
}

class PipelineEstimators : public ::testing::TestWithParam<core::Estimator> {};

TEST_P(PipelineEstimators, BitwiseIndependentOfRankAndBatchCount) {
  const auto src = random_source(2000, 13, 0.1, 42);
  core::Config cfg = sketch_config(GetParam());
  const auto reference = core::similarity_at_scale_threaded(1, src, cfg);
  ASSERT_EQ(reference.similarity.size(), 13);
  for (int ranks : {2, 4, 5, 6}) {
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
                         ::testing::Values(core::Estimator::kMinhash,
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
  core::Config cfg;  // default sketch parameters (k=1024, b=16)
  for (const Case c : {Case{core::Estimator::kMinhash, oph_jaccard_error_bound(1024, 16)},
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
  // the exact ring's grows with nnz. The output gather codes zero
  // estimates as runs, so its bytes follow the estimates; the ring's
  // traffic is the exchange stage's.
  const int ranks = 4;
  const auto sparse = random_source(4096, 12, 0.02, 91);
  const auto dense = random_source(4096, 12, 0.3, 92);

  core::Config cfg = sketch_config(core::Estimator::kMinhash);
  std::vector<bsp::CostCounters> counters;
  const core::Result on_sparse = core::similarity_at_scale_threaded(ranks, sparse, cfg);
  const core::Result on_dense =
      core::similarity_at_scale_threaded(ranks, dense, cfg, &counters);
  const core::StageStats& ring_sparse = on_sparse.stages[core::Stage::kExchange];
  const core::StageStats& ring_dense = on_dense.stages[core::Stage::kExchange];
  EXPECT_GT(ring_dense.bytes_sent, 0u);
  EXPECT_EQ(ring_sparse.bytes_sent, ring_dense.bytes_sent);
  EXPECT_EQ(ring_sparse.bytes_received, ring_dense.bytes_received);
  EXPECT_EQ(ring_sparse.messages, ring_dense.messages);
  const auto sketch_dense = bsp::CostSummary::aggregate(counters);

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
  for (core::Estimator estimator : {core::Estimator::kMinhash, core::Estimator::kBottomK}) {
    const core::Config cfg = sketch_config(estimator);
    const auto reference = core::similarity_at_scale_threaded(1, src, cfg);
    const auto wide = core::similarity_at_scale_threaded(6, src, cfg);
    EXPECT_EQ(wide.similarity.max_abs_diff(reference.similarity), 0.0)
        << "estimator " << static_cast<int>(estimator);
  }
}

TEST(Pipeline, ExactEstimatorRejectsSketchBuild) {
  const core::VectorSampleSource src(16, {{1, 2, 3}});
  bsp::Runtime::run(1, [&](bsp::Comm& comm) {
    EXPECT_THROW((void)sketch_block(comm, src, core::Config{}), std::invalid_argument);
  });
}

}  // namespace
}  // namespace sas::sketch
