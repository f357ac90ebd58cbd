// test_fault.cpp — failure semantics of the BSP runtime (fault.hpp,
// runtime.cpp) and the checkpoint/restart path of the staged driver
// (core/checkpoint.hpp): abort propagation instead of deadlock, watchdog
// deadlines with blocked-rank diagnostics, deterministic fault injection,
// and bitwise-identical resume after a mid-run kill.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "bsp/fault.hpp"
#include "bsp/runtime.hpp"
#include "core/checkpoint.hpp"
#include "core/driver.hpp"
#include "core/sample_source.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace sas {
namespace {

namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// ------------------------------------------------------ fault plan parsing

TEST(FaultPlan, ParsesActionLists) {
  const auto plan =
      bsp::FaultPlan::parse("rank=1:op=8:throw;rank=0:op=3:delay=50;rank=2:op=0:flip=9");
  ASSERT_EQ(plan.actions.size(), 3u);
  EXPECT_EQ(plan.actions[0].kind, bsp::FaultKind::kThrow);
  EXPECT_EQ(plan.actions[0].rank, 1);
  EXPECT_EQ(plan.actions[0].op, 8u);
  EXPECT_EQ(plan.actions[1].kind, bsp::FaultKind::kDelay);
  EXPECT_EQ(plan.actions[1].param, 50u);
  EXPECT_EQ(plan.actions[2].kind, bsp::FaultKind::kFlip);
  EXPECT_EQ(plan.actions[2].param, 9u);

  // flip's byte offset defaults to 0; empty specs parse to empty plans.
  EXPECT_EQ(bsp::FaultPlan::parse("rank=0:op=0:flip").actions[0].param, 0u);
  EXPECT_TRUE(bsp::FaultPlan::parse("").actions.empty());
}

TEST(FaultPlan, RejectsMalformedSpecs) {
  EXPECT_THROW((void)bsp::FaultPlan::parse("rank=1"), error::ConfigError);
  EXPECT_THROW((void)bsp::FaultPlan::parse("rank=1:op=2"), error::ConfigError);
  EXPECT_THROW((void)bsp::FaultPlan::parse("rank=x:op=2:throw"), error::ConfigError);
  EXPECT_THROW((void)bsp::FaultPlan::parse("rank=1:op=-3:throw"), error::ConfigError);
  EXPECT_THROW((void)bsp::FaultPlan::parse("op=2:rank=1:throw"), error::ConfigError);
  EXPECT_THROW((void)bsp::FaultPlan::parse("rank=1:op=2:frobnicate"),
               error::ConfigError);
  EXPECT_THROW((void)bsp::FaultPlan::parse("rank=1:op=2:throw=3"), error::ConfigError);
  EXPECT_THROW((void)bsp::FaultPlan::parse("rank=1:op=2:delay"), error::ConfigError);
}

TEST(FaultPlan, RandomThrowIsSeedDeterministic) {
  const auto a = bsp::FaultPlan::random_throw(77, 16, 30);
  const auto b = bsp::FaultPlan::random_throw(77, 16, 30);
  ASSERT_EQ(a.actions.size(), 1u);
  EXPECT_EQ(a.actions[0].rank, b.actions[0].rank);
  EXPECT_EQ(a.actions[0].op, b.actions[0].op);
  EXPECT_LT(a.actions[0].rank, 16);
  EXPECT_LT(a.actions[0].op, 30u);
}

// ------------------------------------------------------- abort propagation

TEST(AbortPropagation, ThrowingRankWakesBlockedPeers) {
  // Ranks 0, 2, 3 block in a receive that will never be satisfied; rank 1
  // throws. Without abort propagation this deadlocks; with it, every peer
  // unwinds promptly and the ORIGINAL error (annotated) is rethrown.
  const auto start = Clock::now();
  try {
    bsp::Runtime::run(4, [](bsp::Comm& comm) {
      if (comm.rank() == 1) throw std::runtime_error("boom from the failing rank");
      (void)comm.recv<std::int64_t>((comm.rank() + 1) % 4, /*tag=*/99);
    });
    FAIL() << "expected the run to rethrow the rank failure";
  } catch (const error::Error& e) {
    EXPECT_EQ(e.code(), error::Code::kRankFailure);
    EXPECT_NE(std::string(e.what()).find("rank 1"), std::string::npos) << e.what();
    EXPECT_NE(std::string(e.what()).find("boom from the failing rank"),
              std::string::npos)
        << e.what();
  }
  EXPECT_LT(seconds_since(start), 10.0) << "abort propagation took too long";
}

TEST(AbortPropagation, StandardHierarchyStillCatches) {
  // The annotated rethrow derives from std::runtime_error, so existing
  // catch sites keep working.
  EXPECT_THROW(bsp::Runtime::run(
                   2,
                   [](bsp::Comm& comm) {
                     if (comm.rank() == 0) throw std::runtime_error("x");
                     comm.barrier();
                   }),
               std::runtime_error);
}

TEST(AbortPropagation, SingleRankMessageParity) {
  // p = 1 takes the no-thread fast path; its error wrapping must match
  // the p > 1 thread path exactly.
  try {
    bsp::Runtime::run(1, [](bsp::Comm&) { throw std::runtime_error("boom"); });
    FAIL() << "expected rethrow";
  } catch (const error::Error& e) {
    EXPECT_STREQ(e.what(), "rank 0: boom");
    EXPECT_EQ(e.code(), error::Code::kRankFailure);
  }

  try {
    bsp::Runtime::run(2, [](bsp::Comm& comm) {
      if (comm.rank() == 1) throw std::runtime_error("boom");
      (void)comm.recv<std::int64_t>(1, 7);
    });
    FAIL() << "expected rethrow";
  } catch (const error::Error& e) {
    EXPECT_STREQ(e.what(), "rank 1: boom");
    EXPECT_EQ(e.code(), error::Code::kRankFailure);
  }
}

TEST(AbortPropagation, TaxonomyCodeSurvivesAnnotation) {
  // A rank throwing a typed taxonomy error keeps its code through the
  // annotate-and-rethrow path (the gas exit-code mapping depends on it).
  try {
    bsp::Runtime::run(2, [](bsp::Comm& comm) {
      if (comm.rank() == 0) throw error::CorruptInput("bad bytes");
      comm.barrier();
    });
    FAIL() << "expected rethrow";
  } catch (const error::Error& e) {
    EXPECT_EQ(e.code(), error::Code::kCorruptInput);
    EXPECT_STREQ(e.what(), "rank 0: bad bytes");
  }
}

// ---------------------------------------------------------------- watchdog

TEST(Watchdog, ReportsBlockedReceive) {
  bsp::RuntimeOptions options;
  options.watchdog = std::chrono::milliseconds(200);
  const auto start = Clock::now();
  try {
    bsp::Runtime::run(
        2,
        [](bsp::Comm& comm) {
          // Rank 1 returns immediately; rank 0 waits for a message that
          // never comes.
          if (comm.rank() == 0) (void)comm.recv<std::int64_t>(1, /*tag=*/5);
        },
        options);
    FAIL() << "expected a watchdog timeout";
  } catch (const error::Error& e) {
    EXPECT_EQ(e.code(), error::Code::kWatchdogTimeout);
    EXPECT_NE(std::string(e.what()).find("recv(source=1, tag=5)"), std::string::npos)
        << e.what();
    EXPECT_NE(std::string(e.what()).find("bsp watchdog"), std::string::npos) << e.what();
  }
  EXPECT_LT(seconds_since(start), 10.0);
}

TEST(Watchdog, ReportsBlockedBarrier) {
  bsp::RuntimeOptions options;
  options.watchdog = std::chrono::milliseconds(200);
  try {
    bsp::Runtime::run(
        2,
        [](bsp::Comm& comm) {
          if (comm.rank() == 0) comm.barrier();  // rank 1 never arrives
        },
        options);
    FAIL() << "expected a watchdog timeout";
  } catch (const error::Error& e) {
    EXPECT_EQ(e.code(), error::Code::kWatchdogTimeout);
    EXPECT_NE(std::string(e.what()).find("in barrier"), std::string::npos) << e.what();
  }
}

TEST(Watchdog, HugeDeadlineNeverFiresEarly) {
  // A deadline above INT64_MAX / 10⁶ ms overflows once converted to the
  // clock's nanoseconds, and compared that way fires on the first 5 ms
  // poll. Rank 0 blocks well past one poll on a message that does come.
  bsp::RuntimeOptions options;
  options.watchdog = std::chrono::milliseconds::max();
  const std::vector<std::int64_t> payload = {42};
  bsp::Runtime::run(
      2,
      [&](bsp::Comm& comm) {
        if (comm.rank() == 1) {
          std::this_thread::sleep_for(std::chrono::milliseconds(30));
          comm.send<std::int64_t>(0, /*tag=*/5, std::span<const std::int64_t>(payload));
        } else {
          const Clock::time_point start = Clock::now();
          EXPECT_EQ(comm.recv<std::int64_t>(1, /*tag=*/5), payload);
          EXPECT_GE(seconds_since(start), 0.020) << "rank 0 must have blocked";
        }
      },
      options);
}

TEST(Watchdog, QuietRunsAreUnaffected) {
  bsp::RuntimeOptions options;
  options.watchdog = std::chrono::milliseconds(5000);
  const auto counters = bsp::Runtime::run(
      4,
      [](bsp::Comm& comm) {
        std::vector<std::int64_t> data = {comm.rank()};
        comm.broadcast(data, 0);
        EXPECT_EQ(data[0], 0);
        comm.barrier();
      },
      options);
  EXPECT_EQ(counters.size(), 4u);
}

// --------------------------------------------------------- fault injection

TEST(FaultInjection, InjectedThrowTerminatesCollectives) {
  bsp::RuntimeOptions options;
  options.fault_plan =
      std::make_shared<const bsp::FaultPlan>(bsp::FaultPlan::parse("rank=1:op=0:throw"));
  const auto start = Clock::now();
  try {
    bsp::Runtime::run(
        4,
        [](bsp::Comm& comm) {
          const std::vector<std::int64_t> mine = {comm.rank()};
          const auto all =
              comm.allgather<std::int64_t>(std::span<const std::int64_t>(mine));
          (void)all;
        },
        options);
    FAIL() << "expected the injected fault to abort the run";
  } catch (const error::Error& e) {
    EXPECT_EQ(e.code(), error::Code::kRankFailure);
    EXPECT_NE(std::string(e.what()).find("fault injection: rank 1"), std::string::npos)
        << e.what();
  }
  EXPECT_LT(seconds_since(start), 10.0);
}

TEST(FaultInjection, DelayActionOnlySlowsTheRun) {
  bsp::RuntimeOptions options;
  options.fault_plan = std::make_shared<const bsp::FaultPlan>(
      bsp::FaultPlan::parse("rank=0:op=0:delay=60"));
  const auto start = Clock::now();
  bsp::Runtime::run(
      2,
      [](bsp::Comm& comm) {
        if (comm.rank() == 0) {
          comm.send_value<std::int64_t>(1, 3, 42);
        } else {
          EXPECT_EQ(comm.recv<std::int64_t>(0, 3).at(0), 42);
        }
      },
      options);
  EXPECT_GE(seconds_since(start), 0.055);
}

// ------------------------------------------------- seeded stress matrix

core::VectorSampleSource stress_source(std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<std::int64_t>> samples(24);
  for (auto& s : samples) {
    for (std::int64_t v = 0; v < 220; ++v) {
      if (rng.bernoulli(0.25)) s.push_back(v);
    }
  }
  return core::VectorSampleSource(220, std::move(samples));
}

/// 24 samples of 30 rows each over 2^20: hypersparse, where
/// stress_source is dense.
core::VectorSampleSource hypersparse_source(std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<std::int64_t>> samples(24);
  for (auto& s : samples) {
    for (int i = 0; i < 30; ++i) s.push_back(static_cast<std::int64_t>(rng.uniform(1 << 20)));
    std::sort(s.begin(), s.end());
    s.erase(std::unique(s.begin(), s.end()), s.end());
  }
  return core::VectorSampleSource(1 << 20, std::move(samples));
}

struct StressCase {
  int nranks;
  core::Estimator estimator;
};

class FaultStress : public ::testing::TestWithParam<StressCase> {};

TEST_P(FaultStress, InjectedFailureTerminatesWithOriginalError) {
  // A random rank throws at a random early op (seeded — reruns reproduce
  // the exact failure point). The run must terminate well inside the
  // watchdog deadline and surface the injected error, across every
  // estimator's pipeline shape.
  const StressCase c = GetParam();
  const auto source = stress_source(1000 + static_cast<std::uint64_t>(c.nranks));

  core::Config config;
  config.estimator = c.estimator;
  config.algorithm = core::Algorithm::kRing1D;
  config.batch_count = 2;
  config.watchdog_ms = 30000;  // safety net: a hang fails fast, not never
  const std::uint64_t seed =
      static_cast<std::uint64_t>(7919 * c.nranks) +
      static_cast<std::uint64_t>(c.estimator);
  // Every rank performs at least 2(p-1) >= p send/recv ops (ring
  // collectives), so an op index below p always fires.
  const auto plan = bsp::FaultPlan::random_throw(
      seed, c.nranks, static_cast<std::uint64_t>(c.nranks));
  config.fault_plan = "rank=" + std::to_string(plan.actions[0].rank) +
                      ":op=" + std::to_string(plan.actions[0].op) + ":throw";

  const auto start = Clock::now();
  try {
    (void)core::similarity_at_scale_threaded(c.nranks, source, config);
    FAIL() << "expected the injected failure to abort (plan " << config.fault_plan
           << ")";
  } catch (const error::Error& e) {
    EXPECT_EQ(e.code(), error::Code::kRankFailure) << e.what();
    EXPECT_NE(std::string(e.what()).find("fault injection"), std::string::npos)
        << e.what();
    EXPECT_NE(std::string(e.what())
                  .find("rank " + std::to_string(plan.actions[0].rank)),
              std::string::npos)
        << e.what();
  }
  EXPECT_LT(seconds_since(start), 30.0) << "run did not terminate promptly";
}

INSTANTIATE_TEST_SUITE_P(
    RanksByEstimator, FaultStress,
    ::testing::Values(StressCase{2, core::Estimator::kExact},
                      StressCase{4, core::Estimator::kExact},
                      StressCase{16, core::Estimator::kExact},
                      StressCase{2, core::Estimator::kMinhash},
                      StressCase{4, core::Estimator::kMinhash},
                      StressCase{16, core::Estimator::kMinhash},
                      StressCase{2, core::Estimator::kBottomK},
                      StressCase{4, core::Estimator::kBottomK},
                      StressCase{16, core::Estimator::kBottomK},
                      StressCase{2, core::Estimator::kHybrid},
                      StressCase{4, core::Estimator::kHybrid},
                      StressCase{16, core::Estimator::kHybrid}));

/// Every similarity of a run, dense or sparse output, by (i, j).
std::vector<double> all_similarities(const core::Result& result) {
  std::vector<double> out;
  for (std::int64_t i = 0; i < result.n; ++i) {
    for (std::int64_t j = 0; j < result.n; ++j) out.push_back(result.similarity_at(i, j));
  }
  return out;
}

TEST(FaultInjection, FlippedPanelBytesAreTypedOrBenign) {
  // A byte flipped in flight at any op of a small run fails as corrupt
  // input (exit 3) naming the transport: bsp::Comm checks the CRC-32 of
  // every message (bsp/comm.hpp), whatever it carries — the exact
  // pipeline's filter unions, panels and â reduce, SUMMA's ProcGrid
  // split, the sketch ring's panels, the candidate pass's unions and
  // gathers, the output gather. Wire damage is never a rank failure (exit
  // 4), which names a program bug, nor a hang. Rank 1's ops are swept from
  // 0 until the flip no longer fires; that run must match the fault-free
  // one bit for bit, and `past_last` pins where it falls. On the sketch
  // rings, op 0 is rank 1's first panel hop, and its first blob's tag,
  // parameter and seed words sit at bytes 56, 64 and 72 (after the count
  // and six length words of core::pack_word_panel). The dense corpus's
  // filter index sets travel as word runs, the hypersparse one's as gaps.
  const auto dense = stress_source(2424);
  const auto hypersparse = hypersparse_source(2525);
  struct Sweep {
    const core::SampleSource* source;
    core::Estimator estimator;
    core::Algorithm algorithm;
    std::uint64_t past_last;
  };
  for (const Sweep sweep :
       {Sweep{&dense, core::Estimator::kExact, core::Algorithm::kRing1D, 49},
        Sweep{&dense, core::Estimator::kExact, core::Algorithm::kSumma, 89},
        Sweep{&hypersparse, core::Estimator::kExact, core::Algorithm::kRing1D, 49},
        Sweep{&dense, core::Estimator::kMinhash, core::Algorithm::kRing1D, 13},
        Sweep{&dense, core::Estimator::kHybrid, core::Algorithm::kRing1D, 64}}) {
    core::Config config;
    config.estimator = sweep.estimator;
    config.algorithm = sweep.algorithm;
    config.candidate_mode = core::CandidateMode::kAllPairs;
    config.batch_count = 2;
    config.watchdog_ms = 30000;  // safety net: a hang fails fast, not never
    const std::vector<double> fault_free =
        all_similarities(core::similarity_at_scale_threaded(4, *sweep.source, config));
    const auto expect_rejected = [&](std::uint64_t op, int byte) {
      config.fault_plan = "rank=1:op=" + std::to_string(op) + ":flip=" + std::to_string(byte);
      try {
        const std::vector<double> got =
            all_similarities(core::similarity_at_scale_threaded(4, *sweep.source, config));
        const bool same = std::equal(got.begin(), got.end(), fault_free.begin(), fault_free.end(),
                                     [](double a, double b) {
                                       return std::bit_cast<std::uint64_t>(a) ==
                                              std::bit_cast<std::uint64_t>(b);
                                     });
        EXPECT_TRUE(same) << config.fault_plan << " finished with a different matrix";
        return false;
      } catch (const error::Error& e) {
        EXPECT_EQ(e.code(), error::Code::kCorruptInput) << config.fault_plan << ": " << e.what();
        EXPECT_NE(std::string(e.what()).find("bsp::Comm::recv"), std::string::npos)
            << config.fault_plan << ": " << e.what();
      } catch (const std::exception& e) {
        ADD_FAILURE() << config.fault_plan << " escaped the taxonomy: " << e.what();
      }
      return true;
    };
    std::uint64_t op = 0;
    while (op <= sweep.past_last && expect_rejected(op, 13)) ++op;
    EXPECT_EQ(op, sweep.past_last) << "algorithm " << static_cast<int>(sweep.algorithm)
                                   << ", estimator " << static_cast<int>(sweep.estimator);
    if (sweep.estimator == core::Estimator::kExact) continue;
    for (const int byte : {56, 64, 72}) {
      EXPECT_TRUE(expect_rejected(0, byte)) << "header byte " << byte;
    }
  }
}

// ------------------------------------------------------ checkpoint/restart

/// Fresh scratch directory under the system temp dir.
fs::path fresh_dir(const std::string& name) {
  const fs::path dir = fs::temp_directory_path() / name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

core::Config checkpoint_config(core::Estimator estimator) {
  core::Config config;
  config.estimator = estimator;
  config.algorithm = core::Algorithm::kRing1D;
  config.batch_count = 3;
  config.watchdog_ms = 60000;
  return config;
}

TEST(Checkpoint, ResumeAfterMidRunKillIsBitwiseIdentical) {
  const int nranks = 4;
  const auto source = stress_source(4242);
  const fs::path dir = fresh_dir("sas_ckpt_exact");

  core::Config config = checkpoint_config(core::Estimator::kExact);
  const core::Result reference =
      core::similarity_at_scale_threaded(nranks, source, config);

  const std::uint64_t fingerprint = core::checkpoint_fingerprint(
      config, source.sample_count(), source.attribute_universe(), nranks);

  // Kill the run mid-batch by injecting a throw at increasing op indices
  // until the surviving checkpoint covers SOME but not ALL batches.
  config.checkpoint_dir = dir.string();
  bool killed_mid_run = false;
  for (std::uint64_t op = 4; op <= 400 && !killed_mid_run; op += 4) {
    fs::remove_all(dir);
    core::Config faulty = config;
    faulty.fault_plan = "rank=1:op=" + std::to_string(op) + ":throw";
    try {
      (void)core::similarity_at_scale_threaded(nranks, source, faulty);
      break;  // ops ran out before the pipeline finished injecting
    } catch (const error::Error&) {
      const core::Checkpoint ckpt(dir.string(), fingerprint);
      if (const auto manifest = ckpt.load_manifest()) {
        if (manifest->completed >= 1 && manifest->completed < config.batch_count) {
          killed_mid_run = true;
        }
      }
    }
  }
  ASSERT_TRUE(killed_mid_run)
      << "no op index landed between the first and last batch";

  // Resume from the partial checkpoint; the batch loop accumulates
  // deterministically, so the result must be bit-for-bit the reference.
  config.resume = true;
  const core::Result resumed =
      core::similarity_at_scale_threaded(nranks, source, config);
  ASSERT_EQ(resumed.n, reference.n);
  EXPECT_EQ(resumed.similarity.max_abs_diff(reference.similarity), 0.0);
  EXPECT_EQ(resumed.batches.size(), reference.batches.size());
  fs::remove_all(dir);
}

TEST(Checkpoint, HybridResumeMatchesUninterruptedRun) {
  const int nranks = 4;
  const auto source = stress_source(999);
  const fs::path dir = fresh_dir("sas_ckpt_hybrid");

  core::Config config = checkpoint_config(core::Estimator::kHybrid);
  config.prune_threshold = 0.05;
  const core::Result reference =
      core::similarity_at_scale_threaded(nranks, source, config);

  const std::uint64_t fingerprint = core::checkpoint_fingerprint(
      config, source.sample_count(), source.attribute_universe(), nranks);

  config.checkpoint_dir = dir.string();
  bool killed_mid_run = false;
  for (std::uint64_t op = 4; op <= 600 && !killed_mid_run; op += 4) {
    fs::remove_all(dir);
    core::Config faulty = config;
    faulty.fault_plan = "rank=1:op=" + std::to_string(op) + ":throw";
    try {
      (void)core::similarity_at_scale_threaded(nranks, source, faulty);
      break;
    } catch (const error::Error&) {
      const core::Checkpoint ckpt(dir.string(), fingerprint);
      if (const auto manifest = ckpt.load_manifest()) {
        if (manifest->completed >= 1 && manifest->completed < config.batch_count) {
          killed_mid_run = true;
        }
      }
    }
  }
  ASSERT_TRUE(killed_mid_run)
      << "no op index landed between the first and last rescore batch";

  config.resume = true;
  const core::Result resumed =
      core::similarity_at_scale_threaded(nranks, source, config);
  ASSERT_EQ(resumed.n, reference.n);
  ASSERT_EQ(resumed.sparse_output(), reference.sparse_output());
  EXPECT_EQ(resumed.sparse_similarity.to_dense().max_abs_diff(
                reference.sparse_similarity.to_dense()),
            0.0);
  fs::remove_all(dir);
}

TEST(Checkpoint, ResumeWithDifferentConfigIsRejected) {
  const int nranks = 2;
  const auto source = stress_source(7);
  const fs::path dir = fresh_dir("sas_ckpt_fingerprint");

  core::Config config = checkpoint_config(core::Estimator::kExact);
  config.checkpoint_dir = dir.string();
  (void)core::similarity_at_scale_threaded(nranks, source, config);

  core::Config other = config;
  other.batch_count = 5;  // a different batch shape invalidates the state
  other.resume = true;
  try {
    (void)core::similarity_at_scale_threaded(nranks, source, other);
    FAIL() << "expected a fingerprint mismatch";
  } catch (const error::Error& e) {
    EXPECT_EQ(e.code(), error::Code::kConfig) << e.what();
    EXPECT_NE(std::string(e.what()).find("fingerprint mismatch"), std::string::npos)
        << e.what();
  }
  fs::remove_all(dir);
}

/// checkpoint_fingerprint as it was while every ring filled whole B
/// panels — the formula the ring checkpoints of that layout carry.
std::uint64_t whole_panel_fingerprint(const core::Config& config, std::int64_t n,
                                      std::int64_t m, int nranks) {
  std::uint64_t h = hash_bytes("sas-checkpoint-v1");
  const auto mix = [&h](std::uint64_t v) { h = hash_combine(h, v); };
  mix(static_cast<std::uint64_t>(n));
  mix(static_cast<std::uint64_t>(m));
  mix(static_cast<std::uint64_t>(nranks));
  mix(static_cast<std::uint64_t>(config.batch_count));
  mix(static_cast<std::uint64_t>(config.bit_width));
  mix(static_cast<std::uint64_t>(config.replication));
  mix(static_cast<std::uint64_t>(config.algorithm));
  mix(config.use_zero_row_filter ? 1 : 0);
  mix(static_cast<std::uint64_t>(config.estimator));
  mix(std::uint64_t{12});
  mix(static_cast<std::uint64_t>(config.sketch_size));
  mix(static_cast<std::uint64_t>(config.minhash_bits));
  mix(config.sketch_seed);
  mix(static_cast<std::uint64_t>(core::Estimator::kMinhash));
  mix(std::bit_cast<std::uint64_t>(config.prune_threshold));
  mix(std::bit_cast<std::uint64_t>(-1.0));
  mix(static_cast<std::uint64_t>(config.candidate_mode));
  mix(std::uint64_t{0});
  return h;
}

TEST(Checkpoint, RingFingerprintNamesTheTriangleLayout) {
  // The ring leaves the non-share blocks of its B panels zero, so a ring
  // checkpoint of the whole-panel layout must fail to resume (and the
  // other way round) with the typed fingerprint mismatch, instead of
  // resuming into a silently wrong matrix. The SUMMA and serial panels
  // did not change, so their checkpoints still resume.
  for (const core::Estimator estimator : {core::Estimator::kExact, core::Estimator::kHybrid}) {
    for (const core::Algorithm algorithm :
         {core::Algorithm::kSerial, core::Algorithm::kRing1D, core::Algorithm::kSumma}) {
      core::Config config = checkpoint_config(estimator);
      config.algorithm = algorithm;
      const std::uint64_t now = core::checkpoint_fingerprint(config, 12, 4096, 4);
      const std::uint64_t before = whole_panel_fingerprint(config, 12, 4096, 4);
      const std::string label = "estimator " + std::to_string(static_cast<int>(estimator)) +
                                ", algorithm " + std::to_string(static_cast<int>(algorithm));
      if (algorithm == core::Algorithm::kRing1D) {
        EXPECT_NE(now, before) << label;
      } else {
        EXPECT_EQ(now, before) << label;
      }
    }
  }
}

TEST(Checkpoint, CorruptedStateFileIsRejected) {
  const int nranks = 2;
  const auto source = stress_source(8);
  const fs::path dir = fresh_dir("sas_ckpt_corrupt");

  core::Config config = checkpoint_config(core::Estimator::kExact);
  config.checkpoint_dir = dir.string();
  (void)core::similarity_at_scale_threaded(nranks, source, config);

  // Flip one byte in the middle of rank 1's state file; the CRC trailer
  // must catch it on resume. (The full run left its final batch-3 state.)
  const fs::path victim = dir / "rank1.b3.sasc";
  ASSERT_TRUE(fs::exists(victim));
  std::fstream file(victim, std::ios::binary | std::ios::in | std::ios::out);
  file.seekg(0, std::ios::end);
  const auto size = static_cast<std::int64_t>(file.tellg());
  ASSERT_GT(size, 32);
  file.seekp(size / 2);
  char byte = 0;
  file.seekg(size / 2);
  file.read(&byte, 1);
  byte = static_cast<char>(byte ^ 0x5a);
  file.seekp(size / 2);
  file.write(&byte, 1);
  file.close();

  config.resume = true;
  try {
    (void)core::similarity_at_scale_threaded(nranks, source, config);
    FAIL() << "expected the CRC check to reject the damaged state file";
  } catch (const error::Error& e) {
    EXPECT_EQ(e.code(), error::Code::kCorruptInput) << e.what();
  }
  fs::remove_all(dir);
}

TEST(Checkpoint, ResumeRequiresCheckpointDir) {
  core::Config config = checkpoint_config(core::Estimator::kExact);
  config.resume = true;
  const auto source = stress_source(9);
  EXPECT_THROW((void)core::similarity_at_scale_threaded(2, source, config),
               error::ConfigError);
}

TEST(Checkpoint, SketchEstimatorsRejectCheckpointing) {
  for (const core::Estimator estimator :
       {core::Estimator::kMinhash, core::Estimator::kBottomK}) {
    core::Config config = checkpoint_config(estimator);
    config.checkpoint_dir =
        (fs::temp_directory_path() / "sas_ckpt_sketch_reject").string();
    const auto source = stress_source(10);
    EXPECT_THROW((void)core::similarity_at_scale_threaded(2, source, config),
                 error::ConfigError)
        << static_cast<int>(estimator);
  }
}

}  // namespace
}  // namespace sas
