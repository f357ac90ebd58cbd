// test_candidates.cpp — the LSH-banded candidate pass, the sparse
// candidate-mask representation, and the wire-validation hardening.
//
// Covered contracts:
//   * SparsePairMask answers every probe (test / any_pair / row_active /
//     active_columns / count) identically to the dense PairMask on
//     randomized masks, and the storage-parity crossover picks it only
//     when it is no larger;
//   * PairMask::symmetrize (the 64×64 block-transpose rewrite) matches
//     the per-bit reference on sizes straddling word boundaries;
//   * the LSH band/bucket exchange is deterministic across rank counts
//     and loses no pair the all-pairs candidate pass keeps at the same
//     sketch budget on the genome-family corpus;
//   * wire comparators reject blobs of the wrong type even when the
//     params/seed words coincide, and malformed OPH payloads throw
//     instead of smearing across register lanes.
#include <gtest/gtest.h>

#include <cstdint>
#include <span>
#include <stdexcept>
#include <vector>

#include "bsp/runtime.hpp"
#include "core/config.hpp"
#include "core/driver.hpp"
#include "core/sample_source.hpp"
#include "distmat/block.hpp"
#include "distmat/pair_mask.hpp"
#include "genome/kmer_source.hpp"
#include "genome/sample.hpp"
#include "genome/synthetic.hpp"
#include "sketch/bottomk.hpp"
#include "sketch/exchange.hpp"
#include "sketch/hyperloglog.hpp"
#include "sketch/one_perm_minhash.hpp"
#include "sketch/sketch.hpp"
#include "util/rng.hpp"

namespace sas {
namespace {

using distmat::BlockRange;
using distmat::CandidateMask;
using distmat::PairMask;
using distmat::SparsePairMask;

// ---- sparse vs dense equivalence ----------------------------------------

TEST(SparsePairMask, ProbesMatchDenseOnRandomMasks) {
  for (const std::int64_t n : {1, 5, 63, 64, 65, 130}) {
    Rng rng(static_cast<std::uint64_t>(1000 + n));
    std::vector<std::uint64_t> upper;
    PairMask dense(n);
    for (std::int64_t i = 0; i < n; ++i) dense.set(i, i);
    for (std::int64_t i = 0; i < n; ++i) {
      for (std::int64_t j = i + 1; j < n; ++j) {
        if (!rng.bernoulli(0.07)) continue;
        upper.push_back(SparsePairMask::pack_pair(i, j));
        dense.set(i, j);
        dense.set(j, i);
      }
    }
    const SparsePairMask sparse(n, upper);

    EXPECT_EQ(sparse.size(), dense.size());
    EXPECT_EQ(sparse.count(), dense.count()) << "n=" << n;
    EXPECT_EQ(sparse.active_columns(), dense.active_columns());
    for (std::int64_t i = 0; i < n; ++i) {
      EXPECT_EQ(sparse.row_active(i), dense.row_active(i)) << "row " << i;
      for (std::int64_t j = 0; j < n; ++j) {
        EXPECT_EQ(sparse.test(i, j), dense.test(i, j)) << i << "," << j;
      }
    }
    for (int trial = 0; trial < 200; ++trial) {
      const auto r0 = static_cast<std::int64_t>(rng.uniform(static_cast<std::uint64_t>(n)));
      const auto r1 = static_cast<std::int64_t>(rng.uniform(static_cast<std::uint64_t>(n)));
      const auto c0 = static_cast<std::int64_t>(rng.uniform(static_cast<std::uint64_t>(n)));
      const auto c1 = static_cast<std::int64_t>(rng.uniform(static_cast<std::uint64_t>(n)));
      const BlockRange rows{std::min(r0, r1), std::max(r0, r1) + 1};
      const BlockRange cols{std::min(c0, c1), std::max(c0, c1) + 1};
      EXPECT_EQ(sparse.any_pair(rows, cols), dense.any_pair(rows, cols))
          << "rows [" << rows.begin << "," << rows.end << ") cols [" << cols.begin
          << "," << cols.end << ")";
    }

    // The CandidateMask wrapper dispatches to whichever it holds.
    const CandidateMask as_sparse{SparsePairMask(n, upper)};
    const CandidateMask as_dense{PairMask(dense)};
    EXPECT_TRUE(as_sparse.is_sparse());
    EXPECT_FALSE(as_dense.is_sparse());
    EXPECT_EQ(as_sparse.count(), as_dense.count());
    std::vector<std::pair<std::int64_t, std::int64_t>> sparse_pairs;
    std::vector<std::pair<std::int64_t, std::int64_t>> dense_pairs;
    as_sparse.for_each_pair_in({0, n}, {0, n}, [&](std::int64_t i, std::int64_t j) {
      sparse_pairs.emplace_back(i, j);
    });
    as_dense.for_each_pair_in({0, n}, {0, n}, [&](std::int64_t i, std::int64_t j) {
      dense_pairs.emplace_back(i, j);
    });
    EXPECT_EQ(sparse_pairs, dense_pairs);
  }
}

TEST(SparsePairMask, PackPairRejectsWideIndices) {
  EXPECT_THROW((void)SparsePairMask::pack_pair(-1, 0), std::invalid_argument);
  EXPECT_THROW((void)SparsePairMask::pack_pair(0, std::int64_t{1} << 31),
               std::invalid_argument);
  const auto packed = SparsePairMask::pack_pair(3, 9);
  const auto [i, j] = SparsePairMask::unpack_pair(packed);
  EXPECT_EQ(i, 3);
  EXPECT_EQ(j, 9);
}

TEST(SparsePairMask, CrossoverIsStorageParity) {
  // n = 128 → 2 words per row → dense budget 256 words; diagonal costs
  // 128, so the sparse form wins up to 64 pairs and loses after.
  EXPECT_TRUE(distmat::sparse_pair_mask_wins(128, 0));
  EXPECT_TRUE(distmat::sparse_pair_mask_wins(128, 64));
  EXPECT_FALSE(distmat::sparse_pair_mask_wins(128, 65));
  // Below one word per row the dense bitset always wins.
  EXPECT_FALSE(distmat::sparse_pair_mask_wins(64, 1));
}

// ---- symmetrize: block transpose vs per-bit reference -------------------

TEST(PairMaskSymmetrize, MatchesPerBitReference) {
  for (const std::int64_t n : {1, 2, 63, 64, 65, 127, 128, 130, 200}) {
    Rng rng(static_cast<std::uint64_t>(7000 + n));
    PairMask mask(n);
    for (std::int64_t i = 0; i < n; ++i) {
      for (std::int64_t j = 0; j < n; ++j) {
        if (rng.bernoulli(0.1)) mask.set(i, j);
      }
    }
    // Reference: the old O(n²) per-bit union.
    PairMask expected = mask;
    for (std::int64_t i = 0; i < n; ++i) {
      for (std::int64_t j = 0; j < n; ++j) {
        if (mask.test(j, i)) expected.set(i, j);
      }
    }
    mask.symmetrize();
    EXPECT_EQ(mask.words(), expected.words()) << "n=" << n;
  }
}

// ---- wire-type validation -----------------------------------------------

TEST(WireValidation, ComparatorsRejectWrongTypeBlobs) {
  const std::vector<std::uint64_t> elements = {1, 2, 3, 4, 5, 6, 7, 8};
  const std::span<const std::uint64_t> span(elements);
  const std::uint64_t seed = 0x5a5;

  const auto oph = sketch::OnePermMinHash(span, 64, 16, seed).wire();
  const auto hll = sketch::HyperLogLog(span, 9, seed).wire();
  const auto bk = sketch::BottomKSketch(span, 64, seed).wire();

  // Forge blobs whose params/seed words match but whose type word lies:
  // before the fix these were silently reinterpreted, not rejected.
  auto forged_as_bottomk = oph;
  forged_as_bottomk[0] = sketch::wire_header_word(sketch::WireType::kBottomK);
  EXPECT_THROW((void)sketch::oph_wire_jaccard(oph, forged_as_bottomk),
               std::invalid_argument);
  EXPECT_THROW((void)sketch::oph_wire_jaccard(forged_as_bottomk, oph),
               std::invalid_argument);

  auto forged_as_hll = hll;
  forged_as_hll[0] = sketch::wire_header_word(sketch::WireType::kOnePermMinHash);
  EXPECT_THROW((void)sketch::hll_wire_jaccard(hll, forged_as_hll),
               std::invalid_argument);

  auto forged_as_oph = bk;
  forged_as_oph[0] = sketch::wire_header_word(sketch::WireType::kHyperLogLog);
  EXPECT_THROW((void)sketch::bottomk_wire_jaccard(bk, forged_as_oph),
               std::invalid_argument);

  // Cross-type blobs fed to the wrong comparator directly must throw too.
  EXPECT_THROW((void)sketch::oph_wire_jaccard(hll, hll), std::invalid_argument);
  EXPECT_THROW((void)sketch::hll_wire_jaccard(bk, bk), std::invalid_argument);
  EXPECT_THROW((void)sketch::bottomk_wire_jaccard(oph, oph), std::invalid_argument);

  // Sanity: same-type comparisons still work.
  EXPECT_DOUBLE_EQ(sketch::oph_wire_jaccard(oph, oph), 1.0);
  EXPECT_DOUBLE_EQ(sketch::bottomk_wire_jaccard(bk, bk), 1.0);
}

TEST(WireValidation, AdversarialOphPayloads) {
  const std::int64_t bins = 64;
  const int bits = 16;
  const std::uint64_t seed = 11;
  const std::vector<std::uint64_t> elements = {10, 20, 30, 40};
  const sketch::OnePermMinHash honest(std::span<const std::uint64_t>(elements), bins,
                                      bits, seed);

  // Corrupt a raw (mergeable) blob: every stored minimum becomes all-ones
  // (wider than the b-bit register). The comparison wire built from the
  // deserialized sketch must keep every lane within its register mask —
  // no smearing into neighbouring lanes.
  auto raw = honest.serialize();
  for (std::size_t w = sketch::kWireHeaderWords + (bins + 63) / 64; w < raw.size(); ++w) {
    raw[w] = ~std::uint64_t{0};
  }
  const auto corrupted = sketch::OnePermMinHash::deserialize(raw);
  const auto wire = corrupted.wire();
  const auto payload = std::span<const std::uint64_t>(wire).subspan(
      sketch::kWireHeaderWords + 1);
  const std::uint64_t mask = (std::uint64_t{1} << bits) - 1;
  for (std::int64_t lane = 0; lane < bins; ++lane) {
    const std::int64_t bit = lane * bits;
    const std::uint64_t value = (payload[bit >> 6] >> (bit & 63)) & mask;
    EXPECT_EQ(value, mask) << "lane " << lane;  // 0xffff, not smeared junk
  }
  // All corrupted minima equal ⇒ a self-comparison still estimates 1.
  EXPECT_DOUBLE_EQ(sketch::oph_wire_jaccard(wire, wire), 1.0);

  // Malformed blobs must throw, not read out of bounds.
  auto good = honest.wire();
  auto truncated = good;
  truncated.pop_back();
  EXPECT_THROW((void)sketch::oph_wire_jaccard(good, truncated), std::invalid_argument);
  auto bad_params = good;
  bad_params[1] = (std::uint64_t{7} << 32) | 64;  // bits=7 does not divide 64
  EXPECT_THROW((void)sketch::oph_wire_jaccard(bad_params, bad_params),
               std::invalid_argument);
  EXPECT_THROW((void)sketch::oph_wire_band_hashes(bad_params, 4, 2),
               std::invalid_argument);
}

TEST(WireValidation, TruncatedPersistedBlobIsRejectedNotLoaded) {
  core::Config cfg;
  cfg.estimator = core::Estimator::kMinhash;
  const std::vector<std::uint64_t> elements = {5, 6, 7, 8};
  const auto good = sketch::OnePermMinHash(std::span<const std::uint64_t>(elements),
                                           cfg.sketch_size, cfg.minhash_bits,
                                           cfg.sketch_seed)
                        .wire();
  EXPECT_TRUE(sketch::wire_matches_config(good, cfg));
  // An interrupted persist can leave an intact header over a truncated
  // payload — that must read as "no persisted sketch", not throw later.
  auto truncated = good;
  truncated.resize(sketch::kWireHeaderWords + 1);
  EXPECT_FALSE(sketch::wire_matches_config(truncated, cfg));
}

// ---- band hashes and the banding plan -----------------------------------

TEST(LshBands, BucketHashesTrackBandRegisters) {
  const std::int64_t bins = 32;
  const int bits = 16;
  std::vector<std::uint64_t> a_elems;
  for (std::uint64_t v = 0; v < 500; ++v) a_elems.push_back(v);
  const auto a = sketch::OnePermMinHash(std::span<const std::uint64_t>(a_elems), bins,
                                        bits, 3)
                     .wire();

  const auto ha = sketch::oph_wire_band_hashes(a, 8, 4);
  ASSERT_EQ(ha.size(), 8u);
  EXPECT_EQ(ha, sketch::oph_wire_band_hashes(a, 8, 4)) << "must be deterministic";

  // Flip one register lane: exactly the band covering it changes.
  auto b = a;
  const std::size_t payload_base = sketch::kWireHeaderWords + 1;
  b[payload_base + 0] ^= std::uint64_t{1};  // lane 0 → band 0
  const auto hb = sketch::oph_wire_band_hashes(b, 8, 4);
  EXPECT_NE(ha[0], hb[0]);
  for (std::size_t t = 1; t < 8; ++t) EXPECT_EQ(ha[t], hb[t]) << "band " << t;

  // Distinct bands of the same blob must not collide just because their
  // registers coincide — the band index is folded into the hash.
  auto uniform = a;
  for (std::size_t w = payload_base; w < uniform.size(); ++w) uniform[w] = 0;
  const auto hu = sketch::oph_wire_band_hashes(uniform, 8, 4);
  for (std::size_t s = 0; s < 8; ++s) {
    for (std::size_t t = s + 1; t < 8; ++t) EXPECT_NE(hu[s], hu[t]);
  }

  EXPECT_THROW((void)sketch::oph_wire_band_hashes(a, 9, 4), std::invalid_argument);
  EXPECT_THROW((void)sketch::oph_wire_band_hashes(a, 0, 4), std::invalid_argument);
}

TEST(LshBands, PlanAdaptsToThresholdAndPins) {
  core::Config cfg;
  cfg.estimator = core::Estimator::kMinhash;
  cfg.sketch_size = 1024;
  cfg.minhash_bits = 16;

  // Pinned band count: B as given, R = k/B.
  cfg.lsh_bands = 64;
  const auto pinned = sketch::lsh_candidate_plan(cfg, 0.3);
  EXPECT_EQ(pinned.bands, 64);
  EXPECT_EQ(pinned.rows_per_band, 16);

  // Auto: wider bands (larger R, sharper S-curve) at higher thresholds,
  // and always within the register budget.
  cfg.lsh_bands = 0;
  const auto low = sketch::lsh_candidate_plan(cfg, 0.05);
  const auto mid = sketch::lsh_candidate_plan(cfg, 0.25);
  const auto high = sketch::lsh_candidate_plan(cfg, 0.5);
  EXPECT_GE(mid.rows_per_band, low.rows_per_band);
  EXPECT_GE(high.rows_per_band, mid.rows_per_band);
  EXPECT_GT(high.rows_per_band, 1);
  for (const auto& plan : {low, mid, high}) {
    EXPECT_GE(plan.bands, 1);
    EXPECT_LE(plan.bands * plan.rows_per_band, cfg.sketch_size);
  }

  cfg.estimator = core::Estimator::kHll;
  EXPECT_THROW((void)sketch::lsh_candidate_plan(cfg, 0.3), std::invalid_argument);
}

TEST(LshBands, ModeResolution) {
  core::Config cfg;
  cfg.estimator = core::Estimator::kHybrid;
  cfg.hybrid_sketch = core::Estimator::kMinhash;
  cfg.prune_threshold = 0.3;

  EXPECT_EQ(sketch::resolved_candidate_mode(cfg, 16), core::CandidateMode::kAllPairs);
  EXPECT_EQ(sketch::resolved_candidate_mode(cfg, sketch::kLshMinSamples),
            core::CandidateMode::kLsh);
  cfg.candidate_mode = core::CandidateMode::kLsh;
  EXPECT_EQ(sketch::resolved_candidate_mode(cfg, 16), core::CandidateMode::kLsh);

  // Non-positive effective threshold keeps every pair: banding could only
  // lose candidates, so all-pairs is forced.
  cfg.prune_threshold = 0.0;
  EXPECT_EQ(sketch::resolved_candidate_mode(cfg, 1 << 20),
            core::CandidateMode::kAllPairs);

  cfg.prune_threshold = 0.3;
  cfg.hybrid_sketch = core::Estimator::kHll;
  EXPECT_THROW((void)sketch::resolved_candidate_mode(cfg, 16), std::invalid_argument);
  cfg.candidate_mode = core::CandidateMode::kAuto;
  EXPECT_EQ(sketch::resolved_candidate_mode(cfg, 1 << 20),
            core::CandidateMode::kAllPairs);
}

// ---- the banded exchange, collectively ----------------------------------

/// Twin corpus: `pairs` duplicated element sets (true J = 1 within a twin
/// pair) plus unrelated fillers — the pair-sparse regime the LSH pass
/// targets, with full control over which pairs must survive.
std::vector<std::vector<std::uint64_t>> twin_corpus(std::int64_t pairs,
                                                    std::int64_t fillers,
                                                    std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<std::uint64_t>> sets;
  for (std::int64_t t = 0; t < pairs; ++t) {
    std::vector<std::uint64_t> s;
    for (int v = 0; v < 60; ++v) s.push_back(rng());
    sets.push_back(s);
    sets.push_back(std::move(s));  // twin: identical set
  }
  for (std::int64_t f = 0; f < fillers; ++f) {
    std::vector<std::uint64_t> s;
    for (int v = 0; v < 60; ++v) s.push_back(rng());
    sets.push_back(std::move(s));
  }
  return sets;
}

/// Run sketch_candidate_pass over `sets` on `ranks` ranks with cyclic
/// blob ownership (the driver's layout) and return rank 0's pass output.
sketch::CandidatePass run_candidate_pass(
    const std::vector<std::vector<std::uint64_t>>& sets, const core::Config& config,
    int ranks) {
  const auto n = static_cast<std::int64_t>(sets.size());
  sketch::CandidatePass out;
  bsp::Runtime::run(ranks, [&](bsp::Comm& comm) {
    std::vector<std::int64_t> samples;
    std::vector<std::vector<std::uint64_t>> blobs;
    for (std::int64_t i = comm.rank(); i < n; i += comm.size()) {
      samples.push_back(i);
      blobs.push_back(sketch::OnePermMinHash(
                          std::span<const std::uint64_t>(sets[static_cast<std::size_t>(i)]),
                          config.sketch_size, config.minhash_bits, config.sketch_seed)
                          .wire());
    }
    auto pass = sketch::sketch_candidate_pass(
        comm, std::span<const std::int64_t>(samples), blobs, n, config);
    // Single writer (rank 0), read only after run() joins the ranks.
    if (comm.rank() == 0) out = std::move(pass);
  });
  return out;
}

TEST(LshCandidatePass, DeterministicAcrossRankCountsAndFindsTwins) {
  const auto sets = twin_corpus(/*pairs=*/40, /*fillers=*/120, /*seed=*/31);
  const auto n = static_cast<std::int64_t>(sets.size());

  core::Config cfg;
  cfg.estimator = core::Estimator::kMinhash;
  cfg.candidate_mode = core::CandidateMode::kLsh;
  cfg.sketch_size = 256;
  cfg.prune_threshold = 0.5;

  const auto reference = run_candidate_pass(sets, cfg, 1);
  EXPECT_EQ(reference.mode, core::CandidateMode::kLsh);
  // Twin pairs (J = 1) must all collide and survive; unrelated pairs
  // (J ≈ 0) must be pruned in bulk.
  for (std::int64_t t = 0; t < 40; ++t) {
    EXPECT_TRUE(reference.mask.test(2 * t, 2 * t + 1)) << "twin " << t;
    EXPECT_TRUE(reference.mask.test(2 * t + 1, 2 * t)) << "mask must be symmetric";
  }
  EXPECT_LT(reference.mask.count(), n + 2 * 40 + 20)
      << "unrelated pairs must be pruned";
  for (std::int64_t i = 0; i < n; ++i) {
    EXPECT_TRUE(reference.mask.test(i, i)) << "diagonal must be a candidate";
  }
  // 200 samples, ~40 surviving pairs: far below the crossover → sparse.
  EXPECT_TRUE(reference.mask.is_sparse());
  // Rank 0 carries pair-keyed estimates: 1.0 for twins, 0.0 (absent) for
  // never-collided — O(scored pairs), never an n² array.
  EXPECT_LT(reference.estimates.size(), static_cast<std::size_t>(n * n) / 4);
  EXPECT_DOUBLE_EQ(reference.estimate_at(0, 1), 1.0);  // twin (0, 1)
  EXPECT_DOUBLE_EQ(reference.estimate_at(1, 0), 1.0);  // symmetric lookup
  EXPECT_DOUBLE_EQ(reference.estimate_at(0, 0), 1.0);  // diagonal convention
  for (std::size_t e = 0; e < reference.estimates.size(); ++e) {
    EXPECT_LT(reference.estimates[e].i, reference.estimates[e].j);
    EXPECT_NE(reference.estimates[e].est, 0.0) << "zeros must be dropped";
    if (e > 0) {
      EXPECT_TRUE(reference.estimates[e - 1].i < reference.estimates[e].i ||
                  (reference.estimates[e - 1].i == reference.estimates[e].i &&
                   reference.estimates[e - 1].j < reference.estimates[e].j))
          << "estimates must be (i, j)-sorted";
    }
  }

  for (const int ranks : {2, 3, 4}) {
    const auto pass = run_candidate_pass(sets, cfg, ranks);
    EXPECT_EQ(pass.mask.is_sparse(), reference.mask.is_sparse()) << ranks << " ranks";
    EXPECT_EQ(pass.mask.count(), reference.mask.count()) << ranks << " ranks";
    for (std::int64_t i = 0; i < n; ++i) {
      for (std::int64_t j = 0; j < n; ++j) {
        ASSERT_EQ(pass.mask.test(i, j), reference.mask.test(i, j))
            << ranks << " ranks, pair (" << i << ", " << j << ")";
      }
    }
    EXPECT_EQ(pass.estimates, reference.estimates) << ranks << " ranks";
  }
}

TEST(LshCandidatePass, BucketCapRoutesDegenerateBucketsThroughMiniAllPairs) {
  // 80 IDENTICAL samples collide in EVERY band — a degenerate bucket
  // larger than sketch::kLshBucketCap that would emit 80·79/2 pair words
  // per band. Those buckets go through the replicated capped set +
  // owner-local mini all-pairs instead; the surviving mask must keep
  // every clone and twin pair and stay deterministic across rank counts.
  constexpr std::int64_t kClones = 80;
  static_assert(kClones > sketch::kLshBucketCap);
  Rng rng(57);
  std::vector<std::vector<std::uint64_t>> sets;
  std::vector<std::uint64_t> clones;
  for (int v = 0; v < 60; ++v) clones.push_back(rng());
  for (std::int64_t c = 0; c < kClones; ++c) sets.push_back(clones);
  for (std::int64_t t = 0; t < 6; ++t) {  // plus normal twins + fillers
    std::vector<std::uint64_t> s;
    for (int v = 0; v < 60; ++v) s.push_back(rng());
    sets.push_back(s);
    sets.push_back(std::move(s));
  }
  for (std::int64_t f = 0; f < 20; ++f) {
    std::vector<std::uint64_t> s;
    for (int v = 0; v < 60; ++v) s.push_back(rng());
    sets.push_back(std::move(s));
  }
  const auto n = static_cast<std::int64_t>(sets.size());

  core::Config cfg;
  cfg.estimator = core::Estimator::kMinhash;
  cfg.candidate_mode = core::CandidateMode::kLsh;
  cfg.sketch_size = 256;
  cfg.prune_threshold = 0.5;
  const auto reference = run_candidate_pass(sets, cfg, 1);
  for (const int ranks : {2, 3, 4}) {
    const auto capped = run_candidate_pass(sets, cfg, ranks);
    EXPECT_EQ(capped.mask.count(), reference.mask.count()) << ranks << " ranks";
    for (std::int64_t i = 0; i < n; ++i) {
      for (std::int64_t j = 0; j < n; ++j) {
        ASSERT_EQ(capped.mask.test(i, j), reference.mask.test(i, j))
            << ranks << " ranks, pair (" << i << ", " << j << ")";
      }
    }
    EXPECT_EQ(capped.estimates, reference.estimates) << ranks << " ranks";
  }

  // Recall: every clone pair and every twin pair survives under the cap.
  for (std::int64_t a = 0; a < kClones; ++a) {
    for (std::int64_t b = a + 1; b < kClones; ++b) {
      EXPECT_TRUE(reference.mask.test(a, b)) << "clone pair (" << a << ", " << b << ")";
    }
  }
  for (std::int64_t t = 0; t < 6; ++t) {
    EXPECT_TRUE(reference.mask.test(kClones + 2 * t, kClones + 2 * t + 1))
        << "twin " << t;
  }
}

TEST(LshCandidatePass, RecallMatchesAllPairsOnGenomeFamilies) {
  // Genome-family corpus at equal sketch budget: banding must lose no
  // pair the all-pairs candidate pass keeps above threshold + slack.
  const int k = 15;
  const genome::KmerCodec codec(k);
  Rng rng(99);
  std::vector<genome::KmerSample> corpus;
  for (int f = 0; f < 8; ++f) {
    const std::string ancestor = genome::random_genome(5000, rng);
    for (int m = 0; m < 2; ++m) {
      const std::string individual =
          m == 0 ? ancestor : genome::mutate_point(ancestor, 0.02, rng);
      corpus.push_back(genome::build_sample("f" + std::to_string(f) + "m" +
                                                std::to_string(m),
                                            {{"g", "", individual}}, codec));
    }
  }
  std::vector<std::vector<std::uint64_t>> sets;
  for (const auto& sample : corpus) {
    sets.emplace_back(sample.kmers.begin(), sample.kmers.end());
  }

  core::Config cfg;
  cfg.estimator = core::Estimator::kMinhash;
  cfg.prune_threshold = 0.1;

  cfg.candidate_mode = core::CandidateMode::kAllPairs;
  const auto all_pairs = run_candidate_pass(sets, cfg, 4);
  cfg.candidate_mode = core::CandidateMode::kLsh;
  const auto lsh = run_candidate_pass(sets, cfg, 4);
  EXPECT_EQ(lsh.effective_threshold, all_pairs.effective_threshold);

  const auto n = static_cast<std::int64_t>(sets.size());
  const double slack = sketch::hybrid_prune_slack(cfg);
  std::int64_t must_survive = 0;
  for (std::int64_t i = 0; i < n; ++i) {
    for (std::int64_t j = i + 1; j < n; ++j) {
      ASSERT_LT(i + 1, n);
      const double est = all_pairs.estimate_at(i, j);
      if (est < cfg.prune_threshold + slack) continue;
      ++must_survive;
      EXPECT_TRUE(all_pairs.mask.test(i, j));
      EXPECT_TRUE(lsh.mask.test(i, j))
          << "pair (" << i << ", " << j << ") with estimate " << est
          << " kept by all-pairs but lost by banding";
    }
  }
  EXPECT_EQ(must_survive, 8) << "one within-family pair per family";
}

TEST(LshCandidatePass, HybridDriverParityAcrossRankCounts) {
  // End-to-end acceptance: the hybrid with the LSH candidate pass still
  // rescores survivors bitwise-identically to kExact on 1/2/4 ranks.
  const std::int64_t m = 600;
  Rng rng(7);
  std::vector<std::vector<std::int64_t>> bases(2);
  for (auto& base : bases) {
    for (std::int64_t v = 0; v < m; ++v) {
      if (rng.bernoulli(0.3)) base.push_back(v);
    }
  }
  std::vector<std::vector<std::int64_t>> samples;
  for (int c = 0; c < 2; ++c) {
    for (int i = 0; i < 8; ++i) {
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
  const core::VectorSampleSource src(m, std::move(samples));
  const std::int64_t n = src.sample_count();

  core::Config exact_cfg;
  exact_cfg.algorithm = core::Algorithm::kRing1D;
  exact_cfg.batch_count = 2;
  const core::Result exact = similarity_at_scale_threaded(2, src, exact_cfg);

  core::Config hybrid_cfg = exact_cfg;
  hybrid_cfg.estimator = core::Estimator::kHybrid;
  hybrid_cfg.prune_threshold = 0.3;
  hybrid_cfg.candidate_mode = core::CandidateMode::kLsh;

  const core::Result reference = similarity_at_scale_threaded(1, src, hybrid_cfg);
  for (const int ranks : {1, 2, 4}) {
    const core::Result hybrid = similarity_at_scale_threaded(ranks, src, hybrid_cfg);
    std::int64_t surviving = 0;
    for (std::int64_t i = 0; i < n; ++i) {
      EXPECT_TRUE(hybrid.candidates.test(i, i));
      for (std::int64_t j = 0; j < n; ++j) {
        ASSERT_EQ(hybrid.candidates.test(i, j), reference.candidates.test(i, j))
            << ranks << " ranks: mask differs at (" << i << ", " << j << ")";
        if (i != j && hybrid.candidates.test(i, j)) {
          ++surviving;
          EXPECT_EQ(hybrid.similarity_at(i, j), exact.similarity.similarity(i, j))
              << ranks << " ranks: survivor (" << i << ", " << j
              << ") must be bitwise-exact";
        }
      }
    }
    EXPECT_GT(surviving, 0) << "within-cluster pairs must survive";
    EXPECT_LT(surviving, n * (n - 1)) << "cross-cluster pairs must be pruned";
  }
}

}  // namespace
}  // namespace sas
