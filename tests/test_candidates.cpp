// test_candidates.cpp — the LSH-banded candidate pass, the CSR
// candidate mask, and the wire-validation hardening.
//
// Covered contracts:
//   * CandidateMask answers every probe (test / count / row_active /
//     active_columns / any_pair / for_each_pair_in) as a brute-force
//     n × n reference does, on random masks whose sizes straddle 64;
//   * the all-pairs pass keeps exactly the brute-force candidate set and
//     pruned estimates over the driver's block layout, at any rank
//     count, and refuses blobs that do not fit that layout;
//   * the LSH band/bucket exchange is deterministic across rank counts
//     and loses no pair the all-pairs candidate pass keeps at the same
//     sketch budget on the genome-family corpus;
//   * wire comparators reject blobs of the wrong type even when the
//     params/seed words coincide, and malformed payloads (truncated OPH
//     blobs, unsorted bottom-k minima) throw, so wire_matches_config
//     never loads them.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
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
#include "sketch/one_perm_minhash.hpp"
#include "sketch/sketch.hpp"
#include "util/rng.hpp"

namespace sas {
namespace {

using distmat::BlockRange;
using distmat::CandidateMask;

// ---- the CSR mask against a brute-force reference -----------------------

TEST(CandidateMask, ProbesMatchReference) {
  for (const std::int64_t n : {1, 5, 63, 64, 65, 130}) {
    Rng rng(static_cast<std::uint64_t>(1000 + n));
    // Reference: an n × n byte matrix with the diagonal and both
    // directions of every kept pair set.
    std::vector<std::uint8_t> ref(static_cast<std::size_t>(n * n), 0);
    const auto at = [&](std::int64_t i, std::int64_t j) -> std::uint8_t& {
      return ref[static_cast<std::size_t>(i * n + j)];
    };
    std::vector<std::uint64_t> upper;
    for (std::int64_t i = 0; i < n; ++i) at(i, i) = 1;
    for (std::int64_t i = 0; i < n; ++i) {
      for (std::int64_t j = i + 1; j < n; ++j) {
        if (!rng.bernoulli(0.07)) continue;
        upper.push_back(CandidateMask::pack_pair(i, j));
        at(i, j) = 1;
        at(j, i) = 1;
      }
    }
    // Duplicates and any order are accepted.
    if (!upper.empty()) upper.push_back(upper.front());
    std::reverse(upper.begin(), upper.end());
    const CandidateMask mask(n, upper);

    std::int64_t set = 0;
    std::vector<std::uint8_t> active(static_cast<std::size_t>(n), 0);
    for (std::int64_t i = 0; i < n; ++i) {
      for (std::int64_t j = 0; j < n; ++j) {
        EXPECT_EQ(mask.test(i, j), at(i, j) != 0) << i << "," << j;
        set += at(i, j);
        if (i != j && at(i, j) != 0) active[static_cast<std::size_t>(i)] = 1;
      }
      EXPECT_EQ(mask.row_active(i), active[static_cast<std::size_t>(i)] != 0)
          << "row " << i;
    }
    EXPECT_EQ(mask.count(), set) << "n=" << n;
    EXPECT_EQ(mask.active_columns(), active);

    for (int trial = 0; trial < 200; ++trial) {
      const auto r0 = static_cast<std::int64_t>(rng.uniform(static_cast<std::uint64_t>(n)));
      const auto r1 = static_cast<std::int64_t>(rng.uniform(static_cast<std::uint64_t>(n)));
      const auto c0 = static_cast<std::int64_t>(rng.uniform(static_cast<std::uint64_t>(n)));
      const auto c1 = static_cast<std::int64_t>(rng.uniform(static_cast<std::uint64_t>(n)));
      const BlockRange rows{std::min(r0, r1), std::max(r0, r1) + 1};
      const BlockRange cols{std::min(c0, c1), std::max(c0, c1) + 1};

      bool any = false;
      std::vector<std::pair<std::int64_t, std::int64_t>> expected;
      for (std::int64_t i = rows.begin; i < rows.end; ++i) {
        for (std::int64_t j = cols.begin; j < cols.end; ++j) {
          if (at(i, j) == 0) continue;
          any = true;
          if (j > i) expected.emplace_back(i, j);
        }
      }
      std::vector<std::pair<std::int64_t, std::int64_t>> walked;
      mask.for_each_pair_in(
          rows, cols, [&](std::int64_t i, std::int64_t j) { walked.emplace_back(i, j); });
      EXPECT_EQ(mask.any_pair(rows, cols), any)
          << "rows [" << rows.begin << "," << rows.end << ") cols [" << cols.begin << ","
          << cols.end << ")";
      EXPECT_EQ(walked, expected)
          << "rows [" << rows.begin << "," << rows.end << ") cols [" << cols.begin << ","
          << cols.end << ")";
    }
  }
}

TEST(CandidateMask, PackPairRejectsWideIndices) {
  EXPECT_THROW((void)CandidateMask::pack_pair(-1, 0), std::invalid_argument);
  EXPECT_THROW((void)CandidateMask::pack_pair(0, std::int64_t{1} << 31),
               std::invalid_argument);
  const auto packed = CandidateMask::pack_pair(3, 9);
  const auto [i, j] = CandidateMask::unpack_pair(packed);
  EXPECT_EQ(i, 3);
  EXPECT_EQ(j, 9);
  // The mask packs its diagonal too, so n itself must fit 31 bits, and
  // every pair must be an upper pair inside [0, n).
  EXPECT_THROW(CandidateMask(std::int64_t{1} << 31, {}), std::invalid_argument);
  for (const auto& [i, j] : {std::pair{2, 1}, std::pair{1, 1}, std::pair{1, 4}}) {
    const std::vector<std::uint64_t> pairs = {CandidateMask::pack_pair(i, j)};
    EXPECT_THROW(CandidateMask(4, pairs), std::invalid_argument) << i << "," << j;
  }
}

// ---- wire-type validation -----------------------------------------------

TEST(WireValidation, ComparatorsRejectWrongTypeBlobs) {
  const std::vector<std::uint64_t> elements = {1, 2, 3, 4, 5, 6, 7, 8};
  const std::span<const std::uint64_t> span(elements);
  const std::uint64_t seed = 0x5a5;

  const auto oph = sketch::OnePermMinHash(span, 64, 16, seed).wire();
  const auto bk = sketch::BottomKSketch(span, 64, seed).wire();

  // Forge blobs whose params/seed words match but whose type word lies:
  // before the fix these were silently reinterpreted, not rejected.
  auto forged_as_bottomk = oph;
  forged_as_bottomk[0] = sketch::wire_header_word(sketch::WireType::kBottomK);
  EXPECT_THROW((void)sketch::oph_wire_jaccard(oph, forged_as_bottomk),
               std::invalid_argument);
  EXPECT_THROW((void)sketch::oph_wire_jaccard(forged_as_bottomk, oph),
               std::invalid_argument);

  auto forged_as_oph = bk;
  forged_as_oph[0] = sketch::wire_header_word(sketch::WireType::kOnePermMinHash);
  EXPECT_THROW((void)sketch::bottomk_wire_jaccard(bk, forged_as_oph),
               std::invalid_argument);
  EXPECT_THROW((void)sketch::bottomk_wire_jaccard(forged_as_oph, bk),
               std::invalid_argument);

  // Cross-type blobs fed to the wrong comparator directly must throw too.
  EXPECT_THROW((void)sketch::oph_wire_jaccard(bk, bk), std::invalid_argument);
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

TEST(WireValidation, UnsortedBottomKPayloadIsRejected) {
  core::Config cfg;
  cfg.estimator = core::Estimator::kBottomK;
  std::vector<std::uint64_t> elements;
  for (std::uint64_t v = 0; v < 200; ++v) elements.push_back(v * 7919);
  const auto good = sketch::BottomKSketch(std::span<const std::uint64_t>(elements),
                                          static_cast<std::size_t>(cfg.sketch_size),
                                          cfg.sketch_seed)
                        .wire();
  EXPECT_TRUE(sketch::wire_matches_config(good, cfg));
  // Two swapped payload words: the walk would silently mis-count shared
  // minima.
  auto swapped = good;
  std::swap(swapped[sketch::kWireHeaderWords], swapped[sketch::kWireHeaderWords + 1]);
  EXPECT_THROW((void)sketch::bottomk_wire_jaccard(swapped, swapped), std::invalid_argument);
  EXPECT_THROW((void)sketch::bottomk_wire_jaccard(good, swapped), std::invalid_argument);
  EXPECT_FALSE(sketch::wire_matches_config(swapped, cfg));
  // A repeated minimum is not a bottom-k sketch either.
  auto repeated = good;
  repeated[sketch::kWireHeaderWords + 1] = repeated[sketch::kWireHeaderWords];
  EXPECT_FALSE(sketch::wire_matches_config(repeated, cfg));
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

TEST(LshBands, PlanAdaptsToThreshold) {
  core::Config cfg;
  cfg.estimator = core::Estimator::kMinhash;
  cfg.sketch_size = 1024;
  cfg.minhash_bits = 16;

  // Wider bands (larger R, sharper S-curve) at higher thresholds, and
  // always within the register budget.
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

  cfg.estimator = core::Estimator::kBottomK;
  EXPECT_THROW((void)sketch::lsh_candidate_plan(cfg, 0.3), std::invalid_argument);
}

TEST(LshBands, ModeResolution) {
  core::Config cfg;
  cfg.estimator = core::Estimator::kHybrid;
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

/// The minhash wire blob of `set` under `config`'s sketch parameters.
std::vector<std::uint64_t> oph_blob(const std::vector<std::uint64_t>& set,
                                    const core::Config& config) {
  return sketch::OnePermMinHash(std::span<const std::uint64_t>(set), config.sketch_size,
                                config.minhash_bits, config.sketch_seed)
      .wire();
}

/// The blobs of `comm`'s block of `sets` in the driver's layout
/// (sketch::sketch_block): samples distmat::block_range(n, p, r), in order.
std::vector<std::vector<std::uint64_t>> block_blobs(
    const bsp::Comm& comm, const std::vector<std::vector<std::uint64_t>>& sets,
    const core::Config& config) {
  const BlockRange mine = distmat::block_range(static_cast<std::int64_t>(sets.size()),
                                               comm.size(), comm.rank());
  std::vector<std::vector<std::uint64_t>> blobs;
  for (std::int64_t i = mine.begin; i < mine.end; ++i) {
    blobs.push_back(oph_blob(sets[static_cast<std::size_t>(i)], config));
  }
  return blobs;
}

/// Run sketch_candidate_pass over `sets` on `ranks` ranks in the driver's
/// block layout (block_blobs) and return rank 0's pass output.
sketch::CandidatePass run_candidate_pass(
    const std::vector<std::vector<std::uint64_t>>& sets, const core::Config& config,
    int ranks) {
  const auto n = static_cast<std::int64_t>(sets.size());
  sketch::CandidatePass out;
  bsp::Runtime::run(ranks, [&](bsp::Comm& comm) {
    auto pass = sketch::sketch_candidate_pass(comm, block_blobs(comm, sets, config), n, config);
    // Single writer (rank 0), read only after run() joins the ranks.
    if (comm.rank() == 0) out = std::move(pass);
  });
  return out;
}

// ---- the all-pairs pass against brute force -----------------------------

TEST(AllPairsCandidatePass, MatchesBruteForce) {
  // The ring-scored pass keeps exactly the pairs a brute-force loop over
  // the wire estimator keeps, and returns exactly its pruned pairs'
  // non-zero estimates, bitwise — on more ranks than samples too, and
  // with even p's split middle block.
  core::Config cfg;
  cfg.estimator = core::Estimator::kMinhash;
  cfg.candidate_mode = core::CandidateMode::kAllPairs;
  cfg.sketch_size = 128;
  cfg.prune_threshold = 0.4;
  const double effective =
      std::max(0.0, cfg.prune_threshold - sketch::hybrid_prune_slack(cfg));

  for (const std::int64_t n : {1, 2, 5, 13}) {
    // Subsets of one pool at varied keep rates, so that the estimates
    // straddle the threshold.
    Rng rng(static_cast<std::uint64_t>(300 + n));
    std::vector<std::uint64_t> pool(200);
    for (std::uint64_t& v : pool) v = rng();
    std::vector<std::vector<std::uint64_t>> sets;
    for (std::int64_t i = 0; i < n; ++i) {
      const double keep = 0.2 + 0.7 * rng.uniform_real();
      std::vector<std::uint64_t> set;
      for (std::uint64_t v : pool) {
        if (rng.bernoulli(keep)) set.push_back(v);
      }
      sets.push_back(std::move(set));
    }
    std::vector<std::vector<std::uint64_t>> blobs;
    for (const auto& set : sets) blobs.push_back(oph_blob(set, cfg));
    std::vector<std::uint64_t> pruned_keys;
    std::vector<double> pruned_values;
    std::vector<std::uint8_t> kept(static_cast<std::size_t>(n * n), 0);
    std::int64_t kept_pairs = 0;
    for (std::int64_t i = 0; i < n; ++i) {
      for (std::int64_t j = i + 1; j < n; ++j) {
        const double est = sketch::estimate_jaccard_wire(
            blobs[static_cast<std::size_t>(i)], blobs[static_cast<std::size_t>(j)]);
        if (est >= effective) {
          kept[static_cast<std::size_t>(i * n + j)] = 1;
          ++kept_pairs;
        } else if (est != 0.0) {
          pruned_keys.push_back(CandidateMask::pack_pair(i, j));
          pruned_values.push_back(est);
        }
      }
    }
    if (n == 13) {
      ASSERT_GT(kept_pairs, 0);
      ASSERT_FALSE(pruned_keys.empty());
    }

    for (const int p : {1, 2, 3, 4, 5, 6, 8}) {
      SCOPED_TRACE("n=" + std::to_string(n) + " p=" + std::to_string(p));
      const sketch::CandidatePass out = run_candidate_pass(sets, cfg, p);
      EXPECT_EQ(out.mode, core::CandidateMode::kAllPairs);
      EXPECT_EQ(out.effective_threshold, effective);
      EXPECT_EQ(out.mask.count(), n + 2 * kept_pairs);
      for (std::int64_t i = 0; i < n; ++i) {
        for (std::int64_t j = i + 1; j < n; ++j) {
          ASSERT_EQ(out.mask.test(i, j), kept[static_cast<std::size_t>(i * n + j)] != 0)
              << "pair (" << i << ", " << j << ")";
        }
      }
      EXPECT_EQ(out.estimate_keys, pruned_keys);
      EXPECT_EQ(out.estimate_values, pruned_values);
    }
  }
}

TEST(CandidatePassLayout, WrongBlobCountThrows) {
  // Rank r must hold the blobs of its block of samples, block_range(n,
  // p, r): [0, 3) and [3, 5) for n = 5 on 2 ranks. One too few or too
  // many is refused before any traffic, in either candidate mode, naming
  // the block.
  core::Config cfg;
  cfg.estimator = core::Estimator::kMinhash;
  cfg.sketch_size = 64;
  const std::vector<std::vector<std::uint64_t>> sets(5);  // five empty samples
  for (const core::CandidateMode mode :
       {core::CandidateMode::kAllPairs, core::CandidateMode::kLsh}) {
    cfg.candidate_mode = mode;
    for (const int skew : {-1, 1}) {
      try {
        bsp::Runtime::run(2, [&](bsp::Comm& comm) {
          std::vector<std::vector<std::uint64_t>> blobs = block_blobs(comm, sets, cfg);
          if (skew < 0) {
            blobs.pop_back();
          } else {
            blobs.push_back(blobs.front());
          }
          (void)sketch::sketch_candidate_pass(comm, blobs, 5, cfg);
        });
        ADD_FAILURE() << "skew " << skew << ": expected a throw";
      } catch (const std::exception& e) {
        const std::string what = e.what();
        EXPECT_TRUE(what.find("one blob per sample of block [0, 3)") != std::string::npos ||
                    what.find("one blob per sample of block [3, 5)") != std::string::npos)
            << what;
      }
    }
  }
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
  // Rank 0 carries only the pruned colliders' non-zero estimates, as
  // strictly ascending packed keys — O(scored pairs), never an n² array.
  // Survivors (the twins) and never-collided pairs are absent.
  EXPECT_LT(reference.estimate_keys.size(), static_cast<std::size_t>(n * n) / 4);
  ASSERT_EQ(reference.estimate_values.size(), reference.estimate_keys.size());
  for (std::size_t e = 0; e < reference.estimate_keys.size(); ++e) {
    const auto [i, j] = CandidateMask::unpack_pair(reference.estimate_keys[e]);
    EXPECT_LT(i, j);
    EXPECT_FALSE(reference.mask.test(i, j)) << "survivor (" << i << ", " << j << ")";
    EXPECT_NE(reference.estimate_values[e], 0.0) << "zeros must be dropped";
    EXPECT_LT(reference.estimate_values[e], reference.effective_threshold);
    if (e > 0) {
      EXPECT_LT(reference.estimate_keys[e - 1], reference.estimate_keys[e])
          << "estimates must be (i, j)-sorted";
    }
  }

  for (const int ranks : {2, 3, 4}) {
    const auto pass = run_candidate_pass(sets, cfg, ranks);
    EXPECT_EQ(pass.mask.count(), reference.mask.count()) << ranks << " ranks";
    for (std::int64_t i = 0; i < n; ++i) {
      for (std::int64_t j = 0; j < n; ++j) {
        ASSERT_EQ(pass.mask.test(i, j), reference.mask.test(i, j))
            << ranks << " ranks, pair (" << i << ", " << j << ")";
      }
    }
    EXPECT_EQ(pass.estimate_keys, reference.estimate_keys) << ranks << " ranks";
    EXPECT_EQ(pass.estimate_values, reference.estimate_values) << ranks << " ranks";
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
    EXPECT_EQ(capped.estimate_keys, reference.estimate_keys) << ranks << " ranks";
    EXPECT_EQ(capped.estimate_values, reference.estimate_values) << ranks << " ranks";
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
  std::vector<std::vector<std::uint64_t>> blobs;
  for (const auto& set : sets) blobs.push_back(oph_blob(set, cfg));
  std::int64_t must_survive = 0;
  for (std::int64_t i = 0; i < n; ++i) {
    for (std::int64_t j = i + 1; j < n; ++j) {
      const double est = sketch::estimate_jaccard_wire(
          blobs[static_cast<std::size_t>(i)], blobs[static_cast<std::size_t>(j)]);
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
    EXPECT_EQ(hybrid.sparse_similarity.survivor_keys(),
              reference.sparse_similarity.survivor_keys())
        << ranks << " ranks: survivor sets differ";
    std::int64_t surviving = 0;
    for (std::int64_t i = 0; i < n; ++i) {
      for (std::int64_t j = i + 1; j < n; ++j) {
        if (!hybrid.sparse_similarity.is_survivor(i, j)) continue;
        ++surviving;
        EXPECT_EQ(hybrid.similarity_at(i, j), exact.similarity.similarity(i, j))
            << ranks << " ranks: survivor (" << i << ", " << j << ") must be bitwise-exact";
      }
    }
    EXPECT_EQ(surviving, hybrid.sparse_similarity.survivor_count()) << ranks << " ranks";
    EXPECT_GT(surviving, 0) << "within-cluster pairs must survive";
    EXPECT_LT(surviving, n * (n - 1) / 2) << "cross-cluster pairs must be pruned";
  }
}

}  // namespace
}  // namespace sas
