// config.hpp — the knob ledger of the SimilarityAtScale driver.
//
// The defaults reproduce the paper's configuration (bitmask b = 64,
// zero-row filter on, SUMMA parallelization). Every field below sits in
// exactly one group, and each group says why its fields exist; a knob
// that fits none of them (one value outside tests, not in the paper,
// never read by the perf ledger) is deleted rather than kept:
//
//   paper ablation    batch_count (Fig. 2c/2d), bit_width, replication,
//                     algorithm, use_zero_row_filter — the paper's own
//                     levers, swept by bench_paper_figures
//                     (bench/paper_figures.cpp)
//   perf ledger       compress_filter, dense_crossover — read by
//                     bench/ledger/perf_ledger.cpp (its kernel probe packs
//                     with compress_filter; --dense-crossover and the
//                     --sensitivity run pin the sparse/dense crossover)
//   estimator         estimator and the sketch / hybrid / LSH parameters
//                     below it — the approximate pipelines, measured by
//                     bench/minhash_accuracy and the perf ledger. Minhash
//                     prunes for the hybrid; bottom-k is Mash, the paper's
//                     comparator (Table II)
//   operational       failure semantics, recovery, memory budget and
//                     observability — no effect on results
#pragma once

#include <cstdint>
#include <string>

namespace sas::core {

/// Which AᵀA parallelization the driver uses (paper §III-C; the schedule
/// ablation of bench_paper_figures compares them).
enum class Algorithm {
  kSerial,   ///< rank 0 computes everything (reference / baseline)
  kRing1D,   ///< symmetric 1D column-panel ring — Θ(z) per-rank communication,
             ///< each unordered block pair multiplied once
  kSumma,    ///< 2D/2.5D SUMMA — Θ(z/√(cp) + cn²/p) per-rank communication
};

/// Which Jaccard estimator the driver runs (src/sketch/sketch.hpp has the
/// error/bytes guide). kExact is the paper's SpGEMM pipeline; the sketch
/// estimators swap it for the sketch-exchange ring, which rotates
/// fixed-size per-sample summaries — O(samples_per_rank · sketch_bytes)
/// per step instead of O(nnz) panel bytes — at a bounded, documented
/// estimation error. kHybrid composes the two: a sketch pass prunes the
/// pair space (Ĵ < prune_threshold − slack), then the exact pipeline
/// rescores only the surviving pairs — sketch-level traffic on the
/// pruned mass, bitwise-exact answers on every reported candidate.
///
/// The values are mixed into checkpoint_fingerprint, so they are fixed;
/// 1 was HyperLogLog's (deleted; sketch/sketch.hpp says why).
enum class Estimator {
  kExact = 0,    ///< exact popcount-semiring AᵀA (zero error)
  kMinhash = 2,  ///< b-bit one-permutation MinHash (sketch/one_perm_minhash.hpp)
  kBottomK = 3,  ///< Mash-style bottom-k MinHash (sketch/bottomk.hpp)
  kHybrid = 4,   ///< sketch-prune → exact-rescore (core/driver.hpp stage diagram)
};

/// How the hybrid's candidate pass generates the pair set
/// (sketch/exchange.hpp documents both paths).
enum class CandidateMode {
  /// kLsh when the effective threshold is positive and sample_count >=
  /// sketch::kLshMinSamples; kAllPairs otherwise.
  kAuto,
  /// Rotate the sketch blobs around the sketch ring (⌊p/2⌋ hops of n/p
  /// blobs per rank) and score n(n − 1)/(2p) pairs per rank — the exact
  /// candidate set at O(n²) score work. The right call at small n.
  kAllPairs,
  /// LSH banding over the one-permutation MinHash registers: exchange
  /// only (band, bucket, sample) keys and score just the pairs that
  /// collide in ≥ 1 band — O(collisions) score work and candidate bytes.
  /// Recall follows the banding S-curve (sketch::lsh_candidate_plan), not
  /// the all-pairs guarantee.
  kLsh,
};

struct Config {
  // ---- paper ablations (Fig. 2c/2d, §III-B/C) --------------------------

  /// Number of row batches r (paper Eq. 3). Larger values shrink the
  /// working set per batch at the cost of per-batch latency (Fig. 2c/2d).
  std::int64_t batch_count = 1;

  /// Bits packed per word, the paper's b in [1, 64] (§III-B technique 3).
  /// 64 is the production setting; 1 disables compression (ablation).
  int bit_width = 64;

  /// Replication factor c >= 1 of the processor grid (paper §III-C). Only
  /// meaningful for Algorithm::kSumma.
  int replication = 1;

  Algorithm algorithm = Algorithm::kSumma;

  /// Zero-row filtering via the distributed sparse vector f (Eq. 5–6).
  /// Disabling it (ablation) packs raw row ids, wasting mask bits on
  /// hypersparse inputs.
  bool use_zero_row_filter = true;

  // ---- read by the perf ledger (bench/ledger) -------------------------

  /// Sparse/dense fill-product crossover of the SpGEMM kernel. 0 (the
  /// default) derives it from a one-shot startup micro-calibration of the
  /// scatter vs streaming-popcount rates on this machine
  /// (distmat/crossover.hpp); a positive value pins it (ablation /
  /// reproducing a recorded run).
  double dense_crossover = 0.0;

  /// Ship each batch's zero-row filter contributions and owner replies in
  /// the set-bit wire code (word runs or index gaps, whichever is smaller —
  /// distmat/panel_wire.hpp) instead of raw 8-byte words. Identical
  /// compacted ids either way. Nothing in the pipeline sets it false: the
  /// field stays because the perf ledger (bench/ledger) reads it, and the
  /// raw branch it guards is the reference the compressed filter is
  /// tested against.
  bool compress_filter = true;

  // ---- estimator parameters -------------------------------------------

  /// Jaccard estimator (kExact = the paper's pipeline; others trade a
  /// documented error bound for fixed-size communication).
  Estimator estimator = Estimator::kExact;

  /// Sketch slots: one-permutation MinHash bins (kMinhash) or bottom-k
  /// capacity (kBottomK).
  std::int64_t sketch_size = 1024;

  /// Register width b of the b-bit one-permutation MinHash wire form
  /// (kMinhash). Must divide 64.
  int minhash_bits = 16;

  /// Hash-family seed shared by all ranks' sketches. Any value works;
  /// runs are reproducible given (seed, estimator parameters).
  std::uint64_t sketch_seed = 0x5a5;

  /// Candidate threshold of the hybrid: pairs with estimated Jaccard
  /// Ĵ ≥ prune_threshold − slack survive into the exact rescore pass;
  /// the rest are reported at their sketch estimate. The prune sketch is
  /// always minhash (sketch_size bins of minhash_bits bits), and the slack
  /// guarding recall against its estimation error is its documented
  /// mean-error bound (sketch::hybrid_prune_slack).
  double prune_threshold = 0.1;

  /// Candidate-pass strategy of the hybrid (estimator == kHybrid). kAuto
  /// switches from all-pairs scoring to LSH banding once the corpus
  /// clears sketch::kLshMinSamples, and a non-positive effective
  /// threshold always falls back to all-pairs (every pair survives —
  /// banding could only lose candidates).
  CandidateMode candidate_mode = CandidateMode::kAuto;

  // ---- operational: failure semantics (ROADMAP "Failure semantics") ----

  /// Watchdog deadline (milliseconds) for the blocking BSP primitives
  /// (recv, barrier). 0 defers to the SAS_WATCHDOG_MS environment
  /// variable (CI sets it); unset/0 there disables the watchdog. On
  /// expiry the run aborts with error::WatchdogTimeout naming every
  /// blocked rank and the primitive (source, tag) it was stuck in.
  std::int64_t watchdog_ms = 0;

  /// Deterministic fault-injection plan (bsp::FaultPlan::parse grammar),
  /// e.g. "rank=1:op=8:throw;rank=0:op=3:delay=50". Empty = none. A
  /// test/CI hook — never set in production runs.
  std::string fault_plan;

  /// Arm the BSP protocol verifier (bsp/protocol.hpp; gas dist
  /// --verify-protocol): per-rank collective ledgers cross-checked at
  /// barriers and run exit, unreceived sends reported as
  /// error::ProtocolError. false defers to the SAS_VERIFY_PROTOCOL
  /// environment variable (CI arms it). Results are unchanged — the
  /// verifier only adds checks.
  bool verify_protocol = false;

  /// Directory for per-batch checkpoints (core/checkpoint.hpp). Empty
  /// disables checkpointing. Only the batched pipelines (kExact,
  /// kHybrid) support it.
  std::string checkpoint_dir;

  /// Resume from checkpoint_dir: validate the manifest against this
  /// run's config fingerprint, restore each rank's partial accumulators,
  /// and skip completed batches. The resumed result is bitwise-identical
  /// to an uninterrupted run.
  bool resume = false;

  // ---- operational: in-run recovery -------------------------------------

  /// Bounded in-run retries of a failed batch (gas dist --max-retries).
  /// A batch whose failure is transient (error::Severity::kTransient) is
  /// rolled back to its in-memory snapshot and replayed up to this many
  /// times, with exponential backoff between attempts. 0 (the default)
  /// disables the recovery machinery entirely — failures abort the run
  /// exactly as before.
  std::int64_t max_retries = 0;

  /// Base backoff before retry attempt k: retry_backoff_ms · 2^(k−1),
  /// plus a deterministic seeded jitter of up to 50% (keyed on batch,
  /// attempt, and rank so replays stay reproducible). At most
  /// INT64_MAX >> 7 (2⁵⁶ − 1), so the longest backoff, 2⁶ · 1.5 times the
  /// base, stays an int64 count of milliseconds.
  std::int64_t retry_backoff_ms = 10;

  /// Degraded completion (gas dist --quarantine): when a batch exhausts
  /// its retries or fails permanently, quarantine its samples and
  /// complete the run over the rest instead of aborting. Quarantined
  /// pairs read 0 in the result; the run report and the quarantine
  /// manifest (sas-quarantine-v1) name every skipped batch, its sample
  /// range, and why. gas exits 9 for a degraded-complete run.
  bool quarantine = false;

  /// Quarantine manifest JSON output path (gas dist
  /// --quarantine-manifest). Empty writes no manifest file (the run
  /// report still carries the quarantine table).
  std::string quarantine_manifest;

  /// Per-rank memory budget in MiB (gas dist --mem-budget-mb) charged by
  /// the driver's large allocations (panels, packed batches, payload
  /// staging — util/membudget.hpp). An over-budget allocation throws
  /// error::ResourceExhausted (exit code 8) before allocating. 0 (the
  /// default) disables the budget.
  std::int64_t mem_budget_mb = 0;

  // ---- operational: observability (ROADMAP "Observability") ------------

  /// Chrome trace-event JSON output path (gas dist --trace-out). Every
  /// rank's spans — stages, batches, collectives, checkpoint ops, LSH
  /// candidate phases — merge into one file loadable in Perfetto /
  /// about:tracing, with rank → "process" mapping and byte counts as
  /// span args. An aborted run still flushes the buffers, with the
  /// failure and blocked-site snapshot attached (postmortem timeline).
  /// Empty disables tracing.
  std::string trace_out;

  /// Machine-readable run-report JSON path (gas dist --report-json):
  /// per-stage and per-batch tables mirroring PipelineStats/BatchStats,
  /// per-rank BSP cost counters and metric histograms, and per-primitive
  /// cost-model drift (α-β predicted vs measured seconds). Written on
  /// success and on abort (status "aborted"). Empty disables the report.
  std::string report_json;
};

}  // namespace sas::core
