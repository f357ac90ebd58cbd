// test_recovery.cpp — in-run recovery semantics of the staged driver
// (core/driver.cpp run_batch_with_recovery, bsp/comm.cpp Comm::recover):
// transient faults retry to bitwise-identical results, retry exhaustion
// and permanent faults quarantine deterministically under --quarantine,
// and the resource guardrails (memory budget, durable checkpointing)
// fail as typed errors instead of OOM kills or torn files.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "bsp/fault.hpp"
#include "core/checkpoint.hpp"
#include "core/driver.hpp"
#include "core/sample_source.hpp"
#include "distmat/dense_block.hpp"
#include "util/error.hpp"
#include "util/membudget.hpp"
#include "util/rng.hpp"

namespace sas {
namespace {

namespace fs = std::filesystem;

// ---------------------------------------------- fault-plan grammar (PR 10)

TEST(RecoveryPlan, ParsesTransientAndModifiers) {
  const auto plan = bsp::FaultPlan::parse(
      "rank=1:op=8:throw_transient:until=2:count=3;rank=0:op=4:throw:count=2");
  ASSERT_EQ(plan.actions.size(), 2u);
  EXPECT_EQ(plan.actions[0].kind, bsp::FaultKind::kThrowTransient);
  EXPECT_EQ(plan.actions[0].until_attempt, 2u);
  EXPECT_EQ(plan.actions[0].count, 3u);
  EXPECT_EQ(plan.actions[1].kind, bsp::FaultKind::kThrow);
  EXPECT_EQ(plan.actions[1].count, 2u);
  // Modifier order is free.
  const auto swapped =
      bsp::FaultPlan::parse("rank=1:op=8:throw_transient:count=3:until=2");
  EXPECT_EQ(swapped.actions[0].until_attempt, 2u);
  EXPECT_EQ(swapped.actions[0].count, 3u);
  // Defaults: fire forever (never heal), once per attempt.
  const auto bare = bsp::FaultPlan::parse("rank=1:op=8:throw_transient");
  EXPECT_EQ(bare.actions[0].until_attempt, ~std::uint64_t{0});
  EXPECT_EQ(bare.actions[0].count, 1u);
}

TEST(RecoveryPlan, RejectsMalformedTransientSpecs) {
  // Every malformed spec is a typed ConfigError (gas exit 2), not a crash.
  EXPECT_THROW((void)bsp::FaultPlan::parse("rank=1:op=2:throw_transient=3"),
               error::ConfigError);
  EXPECT_THROW((void)bsp::FaultPlan::parse("rank=1:op=2:throw:until=1"),
               error::ConfigError);
  EXPECT_THROW((void)bsp::FaultPlan::parse("rank=1:op=2:throw_transient:until=x"),
               error::ConfigError);
  EXPECT_THROW((void)bsp::FaultPlan::parse("rank=1:op=2:throw_transient:until="),
               error::ConfigError);
  EXPECT_THROW((void)bsp::FaultPlan::parse("rank=1:op=2:throw_transient:count=0"),
               error::ConfigError);
  EXPECT_THROW(
      (void)bsp::FaultPlan::parse("rank=1:op=2:throw_transient:until=1:until=2"),
      error::ConfigError);
  EXPECT_THROW(
      (void)bsp::FaultPlan::parse("rank=1:op=2:throw_transient:count=1:count=1"),
      error::ConfigError);
  EXPECT_THROW((void)bsp::FaultPlan::parse("rank=1:op=2:throw_transient:frob=1"),
               error::ConfigError);
}

// --------------------------------------------------- seeded stress corpus

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

core::Config recovery_config(core::Estimator estimator) {
  core::Config config;
  config.estimator = estimator;
  config.algorithm = core::Algorithm::kRing1D;
  config.batch_count = 3;
  config.watchdog_ms = 60000;  // safety net: a recovery hang fails, not never
  if (estimator == core::Estimator::kHybrid) config.prune_threshold = 0.05;
  return config;
}

/// Compare two results of the same config bitwise (dense or sparse form).
void expect_bitwise_equal(const core::Result& got, const core::Result& want) {
  ASSERT_EQ(got.n, want.n);
  ASSERT_EQ(got.sparse_output(), want.sparse_output());
  if (got.sparse_output()) {
    EXPECT_EQ(got.sparse_similarity.to_dense().max_abs_diff(
                  want.sparse_similarity.to_dense()),
              0.0);
  } else {
    EXPECT_EQ(got.similarity.max_abs_diff(want.similarity), 0.0);
  }
}

// ------------------------------------------------- transient-retry matrix

struct RecoveryCase {
  int nranks;
  core::Estimator estimator;
};

class RecoveryStress : public ::testing::TestWithParam<RecoveryCase> {};

TEST_P(RecoveryStress, TransientFaultRetriesToBitwiseIdenticalResult) {
  // A transient fault healing at attempt 1 (until=1) fires once; the
  // recovery layer must roll the batch back, resync, replay, and produce
  // a result bit-for-bit equal to the fault-free run. The injection op
  // index is scanned (like the checkpoint kill tests) because ops fired
  // outside a batch body — layout setup, final assembly — are outside
  // the recovery contract and legitimately abort.
  const RecoveryCase c = GetParam();
  const auto source = stress_source(500 + static_cast<std::uint64_t>(c.nranks));
  const core::Config config = recovery_config(c.estimator);
  const core::Result reference =
      core::similarity_at_scale_threaded(c.nranks, source, config);

  bool recovered = false;
  for (std::uint64_t op = 2; op <= 140 && !recovered; op += 3) {
    core::Config faulty = config;
    faulty.max_retries = 3;
    faulty.retry_backoff_ms = 1;
    faulty.fault_plan =
        "rank=1:op=" + std::to_string(op) + ":throw_transient:until=1";
    try {
      const core::Result result =
          core::similarity_at_scale_threaded(c.nranks, source, faulty);
      if (result.retries == 0) break;  // ops ran out before the plan fired
      EXPECT_TRUE(result.quarantined.empty());
      EXPECT_FALSE(result.degraded());
      expect_bitwise_equal(result, reference);
      recovered = true;
    } catch (const error::Error&) {
      // Fired outside a recoverable batch body; try the next op index.
    }
  }
  ASSERT_TRUE(recovered)
      << "no op index recovered for " << c.nranks << " ranks";
}

INSTANTIATE_TEST_SUITE_P(
    RanksByEstimator, RecoveryStress,
    ::testing::Values(RecoveryCase{2, core::Estimator::kExact},
                      RecoveryCase{4, core::Estimator::kExact},
                      RecoveryCase{8, core::Estimator::kExact},
                      RecoveryCase{2, core::Estimator::kHybrid},
                      RecoveryCase{4, core::Estimator::kHybrid},
                      RecoveryCase{8, core::Estimator::kHybrid}));

// --------------------------------------------------- quarantine semantics

/// Scan op indices until a faulty run completes degraded; returns the op
/// used (0 when none quarantined — the caller asserts).
std::uint64_t find_quarantining_op(int nranks,
                                   const core::SampleSource& source,
                                   const core::Config& base,
                                   const std::string& action,
                                   core::Result* out) {
  for (std::uint64_t op = 2; op <= 140; op += 3) {
    core::Config faulty = base;
    faulty.fault_plan = "rank=1:op=" + std::to_string(op) + ":" + action;
    try {
      core::Result result =
          core::similarity_at_scale_threaded(nranks, source, faulty);
      if (result.degraded()) {
        *out = std::move(result);
        return op;
      }
      if (result.retries == 0 && result.quarantined.empty()) break;  // never fired
    } catch (const error::Error&) {
      // Fired outside a batch body; keep scanning.
    }
  }
  return 0;
}

TEST(Quarantine, RetryExhaustionQuarantinesDeterministically) {
  const int nranks = 4;
  const auto source = stress_source(4321);
  core::Config config = recovery_config(core::Estimator::kExact);
  config.max_retries = 2;
  config.retry_backoff_ms = 1;
  config.quarantine = true;

  core::Result degraded;
  const std::uint64_t op = find_quarantining_op(
      nranks, source, config, "throw_transient", &degraded);
  ASSERT_NE(op, 0u) << "no op index quarantined a batch";

  // max_retries=2 on a never-healing fault: attempts 0, 1, 2 all fail,
  // so the batch records 3 attempts and 2 replays before quarantine.
  ASSERT_EQ(degraded.quarantined.size(), 1u);
  const core::QuarantinedBatch& q = degraded.quarantined[0];
  EXPECT_EQ(q.attempts, 3);
  EXPECT_EQ(degraded.retries, 2);
  EXPECT_GE(q.batch, 0);
  EXPECT_LT(q.batch, config.batch_count);
  EXPECT_LT(q.row_begin, q.row_end);
  EXPECT_LE(q.row_end, source.attribute_universe());
  EXPECT_NE(q.reason.find("fault injection"), std::string::npos) << q.reason;

  // Determinism: the same seeded plan quarantines the same batch again.
  core::Config again = config;
  again.fault_plan = "rank=1:op=" + std::to_string(op) + ":throw_transient";
  const core::Result repeat =
      core::similarity_at_scale_threaded(nranks, source, again);
  ASSERT_EQ(repeat.quarantined.size(), 1u);
  EXPECT_EQ(repeat.quarantined[0].batch, q.batch);
  EXPECT_EQ(repeat.quarantined[0].attempts, q.attempts);
  EXPECT_EQ(repeat.retries, degraded.retries);
  expect_bitwise_equal(repeat, degraded);
}

TEST(Quarantine, PermanentFaultQuarantinesWithoutRetry) {
  // A permanent fault must never be retried: one attempt, straight to
  // quarantine, zero replays — even with a retry budget armed.
  const int nranks = 4;
  const auto source = stress_source(8765);
  core::Config config = recovery_config(core::Estimator::kExact);
  config.max_retries = 3;
  config.retry_backoff_ms = 1;
  config.quarantine = true;

  core::Result degraded;
  const std::uint64_t op =
      find_quarantining_op(nranks, source, config, "throw", &degraded);
  ASSERT_NE(op, 0u) << "no op index quarantined a batch";
  ASSERT_EQ(degraded.quarantined.size(), 1u);
  EXPECT_EQ(degraded.quarantined[0].attempts, 1);
  EXPECT_EQ(degraded.retries, 0);
}

TEST(Quarantine, WritesManifestNamingSkippedBatches) {
  const int nranks = 4;
  const auto source = stress_source(4321);
  const fs::path manifest =
      fs::temp_directory_path() / "sas_quarantine_manifest.json";
  fs::remove(manifest);

  core::Config config = recovery_config(core::Estimator::kExact);
  config.max_retries = 1;
  config.retry_backoff_ms = 1;
  config.quarantine = true;
  config.quarantine_manifest = manifest.string();

  core::Result degraded;
  const std::uint64_t op = find_quarantining_op(
      nranks, source, config, "throw_transient", &degraded);
  ASSERT_NE(op, 0u) << "no op index quarantined a batch";
  ASSERT_TRUE(fs::exists(manifest));

  std::ifstream in(manifest);
  std::stringstream buffer;
  buffer << in.rdbuf();
  const std::string text = buffer.str();
  EXPECT_NE(text.find("\"schema\":\"sas-quarantine-v1\""), std::string::npos)
      << text;
  EXPECT_NE(text.find("\"quarantined_batches\":1"), std::string::npos) << text;
  EXPECT_NE(text.find("\"batch\":" +
                      std::to_string(degraded.quarantined[0].batch)),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("\"reason\""), std::string::npos) << text;
  fs::remove(manifest);
}

// ------------------------------------------------ severity without recovery

TEST(Severity, TransientWithoutRecoveryAbortsWithTransientCode) {
  // No retry budget, no quarantine: a transient fault is a plain abort,
  // and the typed code (gas exit 7) survives the annotate-and-rethrow.
  const auto source = stress_source(99);
  core::Config config = recovery_config(core::Estimator::kExact);
  config.fault_plan = "rank=1:op=2:throw_transient";
  try {
    (void)core::similarity_at_scale_threaded(4, source, config);
    FAIL() << "expected the transient fault to abort without recovery armed";
  } catch (const error::Error& e) {
    EXPECT_EQ(e.code(), error::Code::kTransient) << e.what();
    EXPECT_TRUE(e.transient());
    EXPECT_NE(std::string(e.what()).find("transient throw"), std::string::npos)
        << e.what();
  }
}

TEST(Severity, RecoveryRequiresBatchedPipeline) {
  // Sketch estimators have no batch boundary to roll back to.
  const auto source = stress_source(7);
  core::Config config;
  config.estimator = core::Estimator::kMinhash;
  config.max_retries = 2;
  EXPECT_THROW((void)core::similarity_at_scale_threaded(2, source, config),
               error::ConfigError);
}

TEST(Severity, QuarantineManifestRequiresQuarantine) {
  const auto source = stress_source(7);
  core::Config config = recovery_config(core::Estimator::kExact);
  config.quarantine_manifest = "unused.json";
  EXPECT_THROW((void)core::similarity_at_scale_threaded(2, source, config),
               error::ConfigError);
}

// --------------------------------------------------------- memory budget

TEST(MemBudget, ChargesReleasesAndThrowsTyped) {
  util::ScopedBudget scope(1024);
  util::charge_mem(512, "first block");
  try {
    util::charge_mem(1024, "accumulator panel");
    FAIL() << "expected the over-budget charge to throw";
  } catch (const error::ResourceExhausted& e) {
    EXPECT_EQ(e.code(), error::Code::kResourceExhausted);
    EXPECT_NE(std::string(e.what()).find("accumulator panel"), std::string::npos)
        << e.what();
    EXPECT_NE(std::string(e.what()).find("1024"), std::string::npos) << e.what();
  }
  // The failed charge was not booked: the remaining headroom still fits.
  util::charge_mem(512, "second block");
  EXPECT_EQ(scope.budget().used(), 1024u);
  EXPECT_EQ(scope.budget().high_water(), 1024u);
  {
    // ScopedCharge releases on unwind; high water remembers the peak...
    EXPECT_THROW(util::ScopedCharge(1u, "one byte too many"),
                 error::ResourceExhausted);
  }
  EXPECT_EQ(scope.budget().used(), 1024u);
}

TEST(MemBudget, NoBudgetMeansNoOp) {
  ASSERT_EQ(util::current_mem_budget(), nullptr);
  util::charge_mem(std::uint64_t{1} << 60, "unbounded");  // must not throw
}

TEST(MemBudget, DriverPanelAllocationFailsTyped) {
  // 400 samples: the serial accumulator panel alone is n²·8 = 1.28 MB,
  // over a 1 MB per-rank budget — the run must fail with the typed
  // resource error (gas exit 8), not an OOM kill.
  std::vector<std::vector<std::int64_t>> samples(400);
  for (std::size_t i = 0; i < samples.size(); ++i) {
    samples[i] = {static_cast<std::int64_t>(i % 64)};
  }
  const core::VectorSampleSource source(64, std::move(samples));
  core::Config config;
  config.estimator = core::Estimator::kExact;
  config.algorithm = core::Algorithm::kSerial;
  config.mem_budget_mb = 1;
  try {
    (void)core::similarity_at_scale_threaded(1, source, config);
    FAIL() << "expected the panel charge to exhaust the budget";
  } catch (const error::Error& e) {
    EXPECT_EQ(e.code(), error::Code::kResourceExhausted) << e.what();
    EXPECT_NE(std::string(e.what()).find("memory budget exceeded"),
              std::string::npos)
        << e.what();
  }
}

// -------------------------------------------------- durable checkpointing

fs::path fresh_dir(const std::string& name) {
  const fs::path dir = fs::temp_directory_path() / name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

TEST(DurableCheckpoint, SweepsStaleTmpPartialsOnConstruction) {
  const fs::path dir = fresh_dir("sas_ckpt_sweep");
  const fs::path stale = dir / "rank0.b1.sasc.tmp";
  std::ofstream(stale) << "torn partial from a kill mid-commit";
  ASSERT_TRUE(fs::exists(stale));
  const core::Checkpoint ckpt(dir.string(), 1234);
  EXPECT_FALSE(fs::exists(stale)) << "stale .tmp survived the sweep";
  fs::remove_all(dir);
}

TEST(DurableCheckpoint, SaveIntoRemovedDirectoryThrowsTyped) {
  const fs::path dir = fresh_dir("sas_ckpt_unwritable");
  const core::Checkpoint ckpt(dir.string(), 1);
  fs::remove_all(dir);  // yank the directory out from under the writer
  const std::vector<std::int64_t> ahat = {1, 2, 3};
  EXPECT_THROW(ckpt.save_rank(0, 1, nullptr, ahat), error::ConfigError);
}

TEST(BatchSnapshot, RoundTripsAccumulatorStateBitwise) {
  distmat::DenseBlock<std::int64_t> block(distmat::BlockRange{0, 3},
                                          distmat::BlockRange{0, 4});
  for (std::size_t i = 0; i < block.values.size(); ++i) {
    block.values[i] = static_cast<std::int64_t>(i * 7 + 1);
  }
  std::vector<std::int64_t> ahat = {5, 6, 7};
  const auto block_before = block.values;
  const auto ahat_before = ahat;

  core::BatchSnapshot snapshot;
  EXPECT_FALSE(snapshot.valid());
  snapshot.capture(2, &block, ahat);
  EXPECT_TRUE(snapshot.valid());
  EXPECT_GT(snapshot.bytes(), 0u);

  for (auto& v : block.values) v += 1000;  // the failed attempt's damage
  ahat.assign({9, 9, 9});
  snapshot.restore(2, &block, ahat);
  EXPECT_EQ(block.values, block_before);
  EXPECT_EQ(ahat, ahat_before);

  // A snapshot restored at the wrong batch boundary is a logic error —
  // the recovery layer only ever restores what it just captured.
  EXPECT_THROW(snapshot.restore(3, &block, ahat), std::logic_error);
}

TEST(BatchSnapshot, BlocklessRanksRoundTripToo) {
  std::vector<std::int64_t> ahat = {11, 12};
  const auto before = ahat;
  core::BatchSnapshot snapshot;
  snapshot.capture(0, nullptr, ahat);
  ahat.clear();
  ahat.assign({0, 0});
  snapshot.restore(0, nullptr, ahat);
  EXPECT_EQ(ahat, before);
}

}  // namespace
}  // namespace sas
