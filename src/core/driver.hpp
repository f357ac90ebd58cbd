// driver.hpp — the SimilarityAtScale algorithm (paper Listings 1–2) as a
// staged, composable pipeline.
//
// Every estimator is a composition of five stages over a bsp communicator:
//
//   ingest    — read one row batch A⁽ˡ⁾ of each rank's block of samples
//               (packing.hpp read_batch; purely local)
//   pack /    — zero-row filter + bitmask compression of the reads
//   sketch      (pack_batch, Eq. 5–7) and/or per-sample sketch
//               construction (sketch/exchange.hpp sketch_block, which
//               reads each sample one row batch at a time)
//   exchange  — move data where it multiplies: SUMMA's and serial's
//               triplet redistribution, ring/SUMMA panel movement,
//               sketch-panel rotation, or the hybrid's mask-targeted alltoall
//   multiply  — B += Â⁽ˡ⁾ᵀ Â⁽ˡ⁾ under the popcount semiring (spgemm.hpp,
//               Eq. 7) and â += column popcounts (Eq. 4), or wire-level
//               Jaccard estimation for sketch estimators
//   assemble  — C = â1ᵀ + 1âᵀ − B;  S = B ⊘ C;  D = 1 − S (Eq. 2). With
//               no mask (exact / sketch estimators) the owning ranks'
//               dense blocks are gathered whole on world rank 0; with a
//               candidate mask (hybrid) each owning rank finalizes ONLY
//               its masked cells and ships (i, j, value) survivor
//               triplets, assembled into a SparseSimilarity — bytes and
//               rank-0 memory O(survivors), not O(n²)
//
// Two pipelines compose the stages:
//
//   kExact, kHybrid    ONE batched loop (run_batched_pipeline):
//                        [hybrid prologue: sketch each rank's block;
//                         candidate pass → replicated candidate mask (Ĵ ≥
//                         prune_threshold − slack; all-pairs scoring on
//                         the sketch ring or LSH banding per
//                         Config::candidate_mode, one CSR of surviving
//                         pairs, pair_mask.hpp)]
//                        for each batch: ingest [only the samples with
//                          a surviving pair] → pack →
//                          exchange (serial / ring / SUMMA; a mask turns
//                          the ring into the targeted alltoall) →
//                          multiply (tile-level mask skip)
//                        assemble (dense; survivor-sparse with a mask)
//                      The bracketed steps are the hybrid's; surviving
//                      pairs rescore BITWISE-IDENTICALLY to kExact, and
//                      pair-keyed sketch estimates fill the pruned
//                      entries. Checkpoint/resume and in-run recovery
//                      wrap each batch of this loop.
//   kMinhash/kBottomK  ingest+sketch fused per owned sample → exchange
//                      (sketch-panel rotation on the same 1-D ring
//                      schedule as the exact ring) → multiply
//                      (estimation) → assemble; one pseudo-batch.
//
// Per-stage time and traffic land in PipelineStats (fed by the bsp cost
// counters); per-batch traffic lands in BatchStats. Both are rank-0
// views consumed by the benches.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "bsp/comm.hpp"
#include "core/config.hpp"
#include "core/sample_source.hpp"
#include "core/similarity_matrix.hpp"
#include "util/error.hpp"
#include "util/timer.hpp"

namespace sas::core {

/// Pipeline stages (see the diagram above).
enum class Stage : int {
  kIngest = 0,  ///< batch reads (values_in_range loops)
  kPackSketch,  ///< zero-row filter + bitmask packing + sketch building
  kExchange,    ///< redistribution, panel movement, mask union
  kMultiply,    ///< popcount SpGEMM / wire-level estimation
  kAssemble,    ///< finalize S = B ⊘ C, gather to root (dense or survivors)
};
inline constexpr std::size_t kStageCount = 5;

[[nodiscard]] const char* stage_name(Stage stage);

/// One stage's measured cost. Seconds are the maximum over ranks (the BSP
/// critical path); traffic is summed over ranks (what the network moved).
struct StageStats {
  double seconds = 0.0;
  std::uint64_t bytes_sent = 0;
  std::uint64_t bytes_received = 0;
  std::uint64_t messages = 0;
};

/// Per-stage instrumentation of one driver run (rank-0 view).
struct PipelineStats {
  std::array<StageStats, kStageCount> stages{};

  [[nodiscard]] StageStats& operator[](Stage s) {
    return stages[static_cast<std::size_t>(s)];
  }
  [[nodiscard]] const StageStats& operator[](Stage s) const {
    return stages[static_cast<std::size_t>(s)];
  }
  [[nodiscard]] std::uint64_t total_bytes_sent() const {
    std::uint64_t total = 0;
    for (const StageStats& s : stages) total += s.bytes_sent;
    return total;
  }
  [[nodiscard]] std::uint64_t total_bytes_received() const {
    std::uint64_t total = 0;
    for (const StageStats& s : stages) total += s.bytes_received;
    return total;
  }
};

/// Per-rank stage recorder. Wrap each stage in a scope(); the destructor
/// books wall time and the delta of this rank's bsp cost counters. Time
/// and traffic may be attributed to different stages — the ring multiply,
/// for instance, is compute time (kMultiply) whose only bytes are
/// rotation hops (kExchange). reduce_to_root is collective and returns
/// the cross-rank aggregate on rank 0.
class StageRecorder {
 public:
  explicit StageRecorder(bsp::CostCounters& counters) : counters_(&counters) {}

  class Scope {
   public:
    Scope(StageRecorder& recorder, Stage time_stage, Stage byte_stage)
        : recorder_(recorder),
          time_stage_(time_stage),
          byte_stage_(byte_stage),
          span_(stage_name(time_stage), "stage", recorder.counters_),
          context_(std::string("stage=") + stage_name(time_stage)),
          bytes_sent_(recorder.counters_->bytes_sent),
          bytes_received_(recorder.counters_->bytes_received),
          messages_(recorder.counters_->messages_sent) {}
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    ~Scope() {
      recorder_.local_[time_stage_].seconds += timer_.seconds();
      StageStats& bytes = recorder_.local_[byte_stage_];
      bytes.bytes_sent += recorder_.counters_->bytes_sent - bytes_sent_;
      bytes.bytes_received += recorder_.counters_->bytes_received - bytes_received_;
      bytes.messages += recorder_.counters_->messages_sent - messages_;
    }

   private:
    StageRecorder& recorder_;
    Stage time_stage_;
    Stage byte_stage_;
    // Trace span named after the time stage; its byte args are this
    // rank's counter deltas over the scope. Declared before the Timer so
    // the span closes after the stage accounting (it destructs last of
    // the measurement members). No-op when observability is off.
    obs::Span span_;
    // Provenance for error annotation: a rank failing inside this scope
    // reports "rank R [stage=multiply, ...]" (util/error.hpp).
    error::Context context_;
    Timer timer_;
    std::uint64_t bytes_sent_;
    std::uint64_t bytes_received_;
    std::uint64_t messages_;
  };

  [[nodiscard]] Scope scope(Stage stage) { return Scope(*this, stage, stage); }
  [[nodiscard]] Scope scope(Stage time_stage, Stage byte_stage) {
    return Scope(*this, time_stage, byte_stage);
  }

  /// Collective: max seconds / summed traffic across ranks, on rank 0.
  [[nodiscard]] PipelineStats reduce_to_root(bsp::Comm& comm);

 private:
  PipelineStats local_;
  bsp::CostCounters* counters_;
};

/// Per-batch instrumentation (rank-0 view; the benches consume this).
/// Byte counters are std::uint64_t to match StageStats/CostCounters —
/// one signedness across every traffic counter in the system (the
/// checkpoint manifest still serializes them as int64 on the wire for
/// format stability; checkpoint.cpp casts explicitly).
struct BatchStats {
  double seconds = 0.0;          ///< wall time, barrier-to-barrier (I/O included)
  std::int64_t filtered_rows = 0;///< rows surviving the zero-row filter
  std::int64_t word_rows = 0;    ///< h after bitmask compression
  std::int64_t packed_nnz = 0;   ///< nonzero words across all ranks
  std::uint64_t bytes_sent = 0;  ///< measured payload bytes, summed over ranks
  std::uint64_t bytes_received = 0;  ///< measured receive bytes, summed over ranks
};

/// One batch the recovery layer gave up on (retries exhausted or the
/// failure was permanent) under Config::quarantine. A batch is a row
/// range of the attribute universe (paper Eq. 3), so a quarantined batch
/// means those attribute rows contributed nothing to any intersection or
/// union count: the run completes and every pair stays defined, but the
/// similarities are computed over the surviving attribute rows only. The
/// quarantine manifest (sas-quarantine-v1) and the run report name each
/// skipped batch, its row range, and why it was abandoned.
struct QuarantinedBatch {
  std::int64_t batch = 0;      ///< batch index l in [0, batch_count)
  std::int64_t row_begin = 0;  ///< first attribute row of the batch
  std::int64_t row_end = 0;    ///< one past the last attribute row
  std::int64_t attempts = 0;   ///< attempts consumed (1 = no retry ran)
  std::string reason;          ///< the abandoning failure's message
};

struct Result {
  std::int64_t n = 0;
  /// Dense n×n output (rank 0): populated by kExact and the pure sketch
  /// estimators; empty for kHybrid (SparseSimilarity::to_dense rebuilds
  /// it on demand).
  SimilarityMatrix similarity;
  /// Survivor-proportional output (rank 0), populated by kHybrid: exact
  /// values for the pairs that survived the sketch prune (is_survivor —
  /// exactly the candidate mask's off-diagonal pairs), sketch estimates
  /// for scored-but-pruned pairs, 0.0 elsewhere (an LSH pair that never
  /// collided is never scored). Rank 0 never materializes an n² array on
  /// this path.
  SparseSimilarity sparse_similarity;
  std::vector<BatchStats> batches;  ///< valid on world rank 0
  int active_ranks = 0;             ///< ranks that took part in the product
  PipelineStats stages;             ///< per-stage cost breakdown (rank 0)

  // ---- in-run recovery (rank-0 view) ---------------------------------

  /// Batches abandoned under Config::quarantine, batch index ascending.
  /// Empty on a fully-complete run.
  std::vector<QuarantinedBatch> quarantined;
  /// Batch replays that ran (a batch retried twice counts 2).
  std::int64_t retries = 0;

  /// True when the run completed but with quarantined batches — the gas
  /// CLI maps this to its own exit code (9) so schedulers can tell a
  /// degraded completion from a clean one.
  [[nodiscard]] bool degraded() const noexcept { return !quarantined.empty(); }

  /// Which output form this run assembled (rank 0): true for kHybrid.
  [[nodiscard]] bool sparse_output() const noexcept { return !sparse_similarity.empty(); }

  /// Similarity lookup across both output forms. Hybrid survivors are
  /// bitwise equal to the kExact value of the same pair (parity-tested).
  [[nodiscard]] double similarity_at(std::int64_t i, std::int64_t j) const {
    return sparse_output() ? sparse_similarity.similarity(i, j)
                           : similarity.similarity(i, j);
  }
};

/// Run SimilarityAtScale collectively over `world`. Every rank of `world`
/// must call with identical `config`; the result's similarity matrix and
/// batch statistics are populated on rank 0.
[[nodiscard]] Result similarity_at_scale(bsp::Comm& world, const SampleSource& source,
                                         const Config& config);

/// Single-threaded convenience wrapper: spins up `nranks` bsp ranks, runs
/// the driver, and returns rank 0's result (plus the cost counters, if
/// requested via `counters_out`). A bad `nranks` or Config throws
/// error::ConfigError before any rank starts.
///
/// Observability: a caller-owned `observer` (benches, tests) is bound to
/// the rank threads for the run; when none is given but the config asks
/// for artifacts (trace_out / report_json), one is created internally.
/// Either way the artifacts are written at run end — including after a
/// failed run, where the flushed trace carries the abort postmortem
/// before the error is rethrown.
[[nodiscard]] Result similarity_at_scale_threaded(
    int nranks, const SampleSource& source, const Config& config,
    std::vector<bsp::CostCounters>* counters_out = nullptr,
    obs::Observer* observer = nullptr);

}  // namespace sas::core
