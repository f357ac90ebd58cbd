// test_protocol.cpp — the debug-build BSP protocol verifier
// (bsp/protocol.hpp): per-rank collective ledgers cross-checked at
// barriers and run exit, unreceived point-to-point messages reported as
// typed errors, split-child communicators swept through the registry,
// env-var arming, and the contract that verification never changes
// results — armed runs are bitwise identical to unarmed ones across the
// estimator sweep.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <optional>
#include <string>
#include <vector>

#include "bsp/runtime.hpp"
#include "core/driver.hpp"
#include "core/sample_source.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace sas {
namespace {

bsp::RuntimeOptions armed() {
  bsp::RuntimeOptions options;
  options.verify_protocol = true;
  return options;
}

// ------------------------------------------------------- divergence paths

TEST(ProtocolVerifier, DivergentBroadcastRootFailsAtBarrierWithNamedEntries) {
  try {
    bsp::Runtime::run(
        2,
        [](bsp::Comm& comm) {
          // Every rank believes it is the root: both send, neither
          // receives (sends are buffered, so nobody blocks), and the
          // ledgers disagree on the recorded tag. The next barrier must
          // fail the run naming both ranks' entries — not hang, not trip
          // the watchdog.
          std::vector<std::int64_t> data = {1, 2, 3};
          comm.broadcast(data, comm.rank());
          comm.barrier();
        },
        armed());
    FAIL() << "expected a protocol divergence";
  } catch (const error::Error& e) {
    EXPECT_EQ(e.code(), error::Code::kProtocol);
    const std::string what = e.what();
    EXPECT_NE(what.find("diverged at barrier"), std::string::npos) << what;
    EXPECT_NE(what.find("broadcast(tag=0"), std::string::npos) << what;
    EXPECT_NE(what.find("broadcast(tag=1"), std::string::npos) << what;
    EXPECT_NE(what.find("world communicator"), std::string::npos) << what;
  }
}

TEST(ProtocolVerifier, ExtraCollectiveOnOneRankFailsAtBarrier) {
  try {
    bsp::Runtime::run(
        2,
        [](bsp::Comm& comm) {
          // Rank 1 issues a gather_v rank 0 never joins. As a non-root,
          // rank 1 only sends, so it reaches the barrier where the
          // sequence-length mismatch is detected.
          std::vector<std::int64_t> mine = {7};
          if (comm.rank() == 1) (void)comm.gather_v<std::int64_t>(mine, 0);
          comm.barrier();
        },
        armed());
    FAIL() << "expected a protocol divergence";
  } catch (const error::Error& e) {
    EXPECT_EQ(e.code(), error::Code::kProtocol);
    const std::string what = e.what();
    EXPECT_NE(what.find("gather_v(tag=0"), std::string::npos) << what;
    EXPECT_NE(what.find("rank 0 issued 1 collectives"), std::string::npos) << what;
    EXPECT_NE(what.find("rank 1 issued 2"), std::string::npos) << what;
  }
}

TEST(ProtocolVerifier, UnreceivedSendFailsAtExitNamingSourceDestTag) {
  try {
    (void)bsp::Runtime::run(
        2,
        [](bsp::Comm& comm) {
          // Collective sequences agree (none); the leak is pure p2p.
          if (comm.rank() == 0) comm.send_value<std::int64_t>(1, /*tag=*/42, 99);
        },
        armed());
    FAIL() << "expected an unreceived-send report";
  } catch (const error::ProtocolError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("unreceived message"), std::string::npos) << what;
    EXPECT_NE(what.find("from rank 0 to rank 1"), std::string::npos) << what;
    EXPECT_NE(what.find("tag=42"), std::string::npos) << what;
  }
}

TEST(ProtocolVerifier, SplitChildLeakIsSweptThroughRegistry) {
  try {
    (void)bsp::Runtime::run(
        4,
        [](bsp::Comm& comm) {
          // The world's own ledgers and mailboxes stay clean; the leak
          // lives in a split child, reachable only via the registry.
          auto child = comm.split(comm.rank() % 2, comm.rank());
          if (comm.rank() == 0) {
            child.send_value<std::int64_t>(/*dest=*/1, /*tag=*/5, 123);
          }
        },
        armed());
    FAIL() << "expected a split-child leak report";
  } catch (const error::ProtocolError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("split child"), std::string::npos) << what;
    EXPECT_NE(what.find("tag=5"), std::string::npos) << what;
  }
}

TEST(ProtocolVerifier, SplitChildDivergenceFailsAtChildBarrier) {
  try {
    bsp::Runtime::run(
        4,
        [](bsp::Comm& comm) {
          auto child = comm.split(comm.rank() % 2, comm.rank());
          // In the color-0 child, the second member issues an extra
          // send-only collective before the child barrier.
          std::vector<std::int64_t> mine = {1};
          if (comm.rank() == 2) (void)child.gather_v<std::int64_t>(mine, 0);
          child.barrier();
        },
        armed());
    FAIL() << "expected a child-communicator divergence";
  } catch (const error::Error& e) {
    EXPECT_EQ(e.code(), error::Code::kProtocol);
    const std::string what = e.what();
    EXPECT_NE(what.find("split child"), std::string::npos) << what;
    EXPECT_NE(what.find("diverged at barrier"), std::string::npos) << what;
  }
}

// ----------------------------------------------------------- clean paths

TEST(ProtocolVerifier, FullCollectiveSuitePassesArmed) {
  // Every collective the runtime offers, with deliberately rank-varying
  // gather/alltoall block lengths (shape is recorded as 0 for those) and
  // a split with child collectives. Must complete without a report.
  const auto counters = bsp::Runtime::run(
      4,
      [](bsp::Comm& comm) {
        const int r = comm.rank();
        std::vector<std::int64_t> data = {r, r + 1};
        comm.broadcast(data, 0);
        comm.allreduce(data, std::plus<std::int64_t>{});

        // Rank-varying lengths: rank r contributes r + 1 elements.
        std::vector<std::int64_t> mine(static_cast<std::size_t>(r + 1), r);
        (void)comm.gather_v<std::int64_t>(mine, 0);
        (void)comm.allgather_v<std::int64_t>(mine);

        auto child = comm.split(r % 2, r);
        std::vector<std::int64_t> cdata = {child.rank()};
        child.allreduce(cdata, std::plus<std::int64_t>{});
        child.barrier();
        comm.barrier();
      },
      armed());
  EXPECT_EQ(counters.size(), 4u);
}

TEST(ProtocolVerifier, AbortedRunsSkipTheExitSweep) {
  // A failing rank legitimately leaves messages in flight; the sweep
  // must not mask the original error with a leak report.
  try {
    bsp::Runtime::run(
        2,
        [](bsp::Comm& comm) {
          comm.send_value<std::int64_t>(1 - comm.rank(), /*tag=*/9, 5);
          if (comm.rank() == 0) throw error::CorruptInput("bad bytes");
          comm.barrier();
        },
        armed());
    FAIL() << "expected the original error";
  } catch (const error::Error& e) {
    EXPECT_EQ(e.code(), error::Code::kCorruptInput);
  }
}

// ------------------------------------------------------------ env arming

class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    const char* old = std::getenv(name);
    if (old != nullptr) saved_ = old;
    ::setenv(name, value, /*overwrite=*/1);
  }
  ~ScopedEnv() {
    if (saved_.has_value()) {
      ::setenv(name_, saved_->c_str(), 1);
    } else {
      ::unsetenv(name_);
    }
  }

 private:
  const char* name_;
  std::optional<std::string> saved_;
};

TEST(ProtocolVerifier, EnvVariableArmsTheVerifier) {
  const ScopedEnv guard("SAS_VERIFY_PROTOCOL", "1");
  EXPECT_THROW(bsp::Runtime::run(2,
                                 [](bsp::Comm& comm) {
                                   std::vector<std::int64_t> d = {1};
                                   comm.broadcast(d, comm.rank());
                                   comm.barrier();
                                 }),
               error::Error);
}

TEST(ProtocolVerifier, EnvValueZeroLeavesVerificationOff) {
  const ScopedEnv guard("SAS_VERIFY_PROTOCOL", "0");
  // The same divergent pattern runs to completion unarmed: the stray
  // broadcasts leak silently, which is exactly the failure mode the
  // verifier exists to surface.
  EXPECT_NO_THROW(bsp::Runtime::run(2, [](bsp::Comm& comm) {
    std::vector<std::int64_t> d = {1};
    comm.broadcast(d, comm.rank());
    comm.barrier();
  }));
}

// ---------------------------------------- armed == unarmed (bitwise)

core::VectorSampleSource random_source(std::int64_t m, std::int64_t n,
                                       double density, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<std::int64_t>> samples(static_cast<std::size_t>(n));
  for (auto& s : samples) {
    for (std::int64_t v = 0; v < m; ++v) {
      if (rng.bernoulli(density)) s.push_back(v);
    }
  }
  return core::VectorSampleSource(m, std::move(samples));
}

struct SweepCase {
  core::Estimator estimator;
  core::Algorithm algorithm;
  int nranks;
};

class ArmedParity : public ::testing::TestWithParam<SweepCase> {};

TEST_P(ArmedParity, VerificationNeverChangesResults) {
  // Env must not pre-arm the baseline: CI exports SAS_VERIFY_PROTOCOL=1
  // for the whole ctest run, so pin it off and arm via config only.
  const ScopedEnv guard("SAS_VERIFY_PROTOCOL", "0");
  const SweepCase c = GetParam();
  const auto src = random_source(/*m=*/500, /*n=*/18, /*density=*/0.08, /*seed=*/7);

  core::Config cfg;
  cfg.estimator = c.estimator;
  cfg.algorithm = c.algorithm;
  cfg.batch_count = 2;

  const core::Result plain = core::similarity_at_scale_threaded(c.nranks, src, cfg);

  cfg.verify_protocol = true;
  const core::Result armed_run =
      core::similarity_at_scale_threaded(c.nranks, src, cfg);

  ASSERT_EQ(armed_run.n, plain.n);
  for (std::int64_t i = 0; i < plain.n; ++i) {
    for (std::int64_t j = 0; j < plain.n; ++j) {
      // Bitwise: verification adds checks, never arithmetic.
      EXPECT_EQ(armed_run.similarity_at(i, j), plain.similarity_at(i, j))
          << "(" << i << ", " << j << ")";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    EstimatorSweep, ArmedParity,
    ::testing::Values(
        SweepCase{core::Estimator::kExact, core::Algorithm::kRing1D, 1},
        SweepCase{core::Estimator::kExact, core::Algorithm::kRing1D, 2},
        SweepCase{core::Estimator::kExact, core::Algorithm::kSumma, 4},
        SweepCase{core::Estimator::kMinhash, core::Algorithm::kRing1D, 2},
        SweepCase{core::Estimator::kMinhash, core::Algorithm::kRing1D, 4},
        SweepCase{core::Estimator::kBottomK, core::Algorithm::kRing1D, 2},
        SweepCase{core::Estimator::kHybrid, core::Algorithm::kRing1D, 1},
        SweepCase{core::Estimator::kHybrid, core::Algorithm::kRing1D, 2},
        SweepCase{core::Estimator::kHybrid, core::Algorithm::kRing1D, 4}));

}  // namespace
}  // namespace sas
