// exchange.hpp — the distributed sketch-exchange pipeline and the
// hybrid's candidate pass, both fed by one sketch builder.
//
// == The sketch builder ====================================================
//
// StreamingSketcher is the only place sketches are built from sample
// data. Callers register the samples a rank owns (a compatible persisted
// blob, SampleSource::persisted_sketch, replaces streaming), feed each
// sample's attribute ids batch by batch as they are read, and collect the
// wire blobs. add() is order-independent, so the blobs do not depend on
// the batch count or on the read order.
//
// == The pure-sketch pipeline (kHll / kMinhash / kBottomK) ================
//
// The approximate counterpart of the SpGEMM driver path: instead of
// redistributing bit-packed k-mer panels and multiplying under the
// popcount semiring, each rank
//
//   1. sketches its OWNED samples (block distribution over the n samples)
//      through a StreamingSketcher, per sample and per batch through
//      SampleSource::values_in_range — same batched reads, same bounded
//      per-read memory as the exact path;
//   2. flattens the owned sketches' wire blobs into one panel
//      (core::pack_word_panel) and rotates the panels around the 1-D ring
//      it shares with the exact SpGEMM ring (distmat/ring.hpp; send
//      posted before the local estimation work);
//   3. estimates all-pairs Jaccard between its sketches and each
//      arriving panel (sketch::estimate_jaccard_wire) straight into its
//      row panel of the SimilarityMatrix, which is assembled on rank 0
//      exactly like the exact path's output.
//
// Communication per rotation step is O(samples_per_rank · sketch_bytes)
// — independent of genome size — versus the exact ring's O(nnz) panel
// bytes; bench/minhash_accuracy reports both through the bsp cost
// counters. Estimates are symmetric and deterministic in (config, data),
// so the result is bitwise independent of the rank count (tested).
//
// The ring is kept rather than routing pure sketch through the all-pairs
// candidate pass below: that pass would ship every non-zero (i, j, est)
// triplet to rank 0 plus an n²-bit mask allreduce, more bytes than the
// ring's dense gather on the perf ledger's families-minhash workload
// (≈35.8 MB + 0.66 MB against 31.85 MB).
//
// == The hybrid candidate pass ===========================================
//
// Estimator::kHybrid uses the same wire blobs differently: instead of a
// similarity matrix alone, the pass returns a replicated candidate mask
// (distmat::CandidateMask) — every pair whose estimated Jaccard clears
// prune_threshold − slack — plus the estimates themselves (rank 0), which
// the driver uses to fill the pruned entries of the final matrix. The
// blobs arrive from the batched pipeline's one-pass ingest (the
// StreamingSketcher fed by the same reads that are later bitmask-packed),
// so the hybrid reads each input exactly once. Two candidate strategies exist
// (core::CandidateMode):
//
//   all-pairs — every blob is allgathered (ring allgather, O(n ·
//     sketch_bytes) per rank) and each rank scores its n/p-row slice of
//     all n² pairs into a dense PairMask (word-OR allreduce). Exact
//     candidate set; quadratic score work and a quadratic replicated
//     mask. The default below kLshMinSamples.
//
//   lsh — LSH banding over the one-permutation MinHash registers
//     (oph_wire_band_hashes): each rank computes B band buckets per
//     owned sample, routes ONE packed (bucket-group, sample) word per
//     band through the existing alltoall, and only pairs colliding in
//     ≥ 1 bucket are routed (to the rank owning the lower sample's
//     blob), deduplicated, blob-fetched, and scored. Bytes and score
//     work are O(collisions), not O(n²); the replicated mask switches to
//     the CSR SparsePairMask when the surviving density is low
//     (sparse_pair_mask_wins), with a union-merge allreduce
//     (allreduce_pair_union) replacing the dense word-OR. Recall follows
//     the banding S-curve 1 − (1 − m^R)^B (lsh_candidate_plan picks
//     (B, R) from the effective threshold); pairs that never collide
//     report a 0.0 estimate. Pairs BELOW the effective threshold that do
//     collide still report their scored estimate, so precision is
//     identical to all-pairs. Degenerate buckets larger than
//     kLshBucketCap (e.g. all-empty sketches hashing into one bucket,
//     which would emit s(s−1)/2 pair words) replicate their
//     member list instead and are rescored by a mini all-pairs pass over
//     the capped union on the blob owners — O(s) routed bytes, recall a
//     superset of the uncapped bucket's.
#pragma once

#include <cstdint>
#include <span>
#include <variant>
#include <vector>

#include "bsp/comm.hpp"
#include "core/config.hpp"
#include "core/driver.hpp"
#include "core/sample_source.hpp"
#include "distmat/pair_mask.hpp"
#include "sketch/bottomk.hpp"
#include "sketch/hyperloglog.hpp"
#include "sketch/one_perm_minhash.hpp"

namespace sas::sketch {

/// Short name of a sketch estimator ("hll" | "minhash" | "bottomk") —
/// the persisted-blob file suffix and the CLI spelling. Throws
/// std::invalid_argument for non-sketch estimators.
[[nodiscard]] const char* estimator_wire_name(core::Estimator estimator);

/// The sketch estimator `config` resolves to: the estimator itself, or
/// Config::hybrid_sketch for a hybrid config (kExact resolves to kExact;
/// most callers reject it downstream).
[[nodiscard]] core::Estimator resolved_sketch_estimator(const core::Config& config);

/// Does `wire` carry a sketch comparable against sketches built under
/// `config` (same type, parameters, and seed)? False for malformed blobs.
[[nodiscard]] bool wire_matches_config(std::span<const std::uint64_t> wire,
                                       const core::Config& config);

/// Effective prune slack of the hybrid: Config::prune_slack when pinned
/// (≥ 0), else the documented mean-error bound of the configured
/// hybrid_sketch at its configured size.
[[nodiscard]] double hybrid_prune_slack(const core::Config& config);

/// Incremental per-sample sketch builders for one rank (see "The sketch
/// builder" above). add() is order- and batch-independent, so the blobs
/// are identical to whole-sample sketches.
class StreamingSketcher {
 public:
  /// `config` must resolve to a sketch estimator (a pure sketch
  /// estimator, or a hybrid config whose hybrid_sketch is used); throws
  /// std::invalid_argument otherwise.
  explicit StreamingSketcher(const core::Config& config);

  /// Register a sample; returns its local index (registration order).
  /// A persisted blob of `source` whose header matches this config
  /// (wire_matches_config) is preloaded and replaces streaming.
  std::size_t add_sample(std::int64_t sample, const core::SampleSource& source);

  /// False when `index` is preloaded — its absorb calls may be skipped.
  [[nodiscard]] bool needs_stream(std::size_t index) const;

  /// Feed one batch of the sample's global attribute ids.
  void absorb(std::size_t index, std::span<const std::int64_t> values);

  [[nodiscard]] const std::vector<std::int64_t>& samples() const noexcept {
    return samples_;
  }

  /// Wire blobs in registration order. The sketcher is spent afterwards.
  [[nodiscard]] std::vector<std::vector<std::uint64_t>> finish();

 private:
  using AnySketch = std::variant<HyperLogLog, OnePermMinHash, BottomKSketch>;

  core::Config config_;
  std::vector<std::int64_t> samples_;
  std::vector<AnySketch> sketches_;
  std::vector<std::vector<std::uint64_t>> preloaded_;  ///< empty = stream
};

/// Sample count below which CandidateMode::kAuto keeps the all-pairs
/// candidate pass: under ~10² samples the n² score work is trivial and
/// the dense mask is bytes-cheaper than band keys.
inline constexpr std::int64_t kLshMinSamples = 128;

/// LSH bucket-size cap. A degenerate bucket of s samples would emit
/// s(s−1)/2 pair words into the candidate alltoall; a bucket larger than
/// the cap instead replicates its MEMBER list (O(s) bytes) and routes the
/// implied pairs through a mini all-pairs pass on the blob owners.
/// Recall can only grow (a superset of the bucket's pairs is scored).
inline constexpr std::int64_t kLshBucketCap = 64;

/// Banding parameters of the LSH candidate pass: B bands of R registers
/// each (B·R ≤ sketch_size).
struct LshPlan {
  std::int64_t bands = 0;          ///< B
  std::int64_t rows_per_band = 0;  ///< R
};

/// (B, R) for the LSH candidate pass under `config` at the given
/// effective Jaccard threshold. Config::lsh_bands > 0 pins B (with
/// R = max(1, sketch_size / B)); 0 derives both from the threshold's
/// register match fraction m = t(1−2⁻ᵇ) + 2⁻ᵇ: the LARGEST R whose
/// required band count B = ⌈C/mᴿ⌉ (detection constant C = 7, i.e.
/// P(miss at exactly the threshold) ≤ e⁻⁷) still fits the register
/// budget B·R ≤ sketch_size. Larger R sharpens the S-curve (fewer
/// sub-threshold collisions) at more band keys; pairs safely above the
/// threshold collide with probability ≥ 1 − e⁻ᶜ. Throws when the
/// resolved sketch is not minhash.
[[nodiscard]] LshPlan lsh_candidate_plan(const core::Config& config,
                                         double effective_threshold);

/// Candidate strategy `config` resolves to for an n-sample corpus (the
/// kAuto rule, plus the correctness fallbacks documented in
/// core::CandidateMode). Throws std::invalid_argument when kLsh is
/// pinned with a non-minhash prune sketch.
[[nodiscard]] core::CandidateMode resolved_candidate_mode(const core::Config& config,
                                                          std::int64_t n);

/// One scored pair's sketch estimate (i < j). What the candidate pass
/// hands rank 0 instead of a dense n² estimate array: pairs the pass
/// never scored (LSH non-colliders) or scored at exactly 0 are simply
/// absent — their estimate reads as 0.0.
struct PairEstimate {
  std::int64_t i = 0;
  std::int64_t j = 0;  ///< i < j
  double est = 0.0;

  friend bool operator==(const PairEstimate&, const PairEstimate&) = default;
};
static_assert(std::is_trivially_copyable_v<PairEstimate>);

/// Output of the hybrid's sketch-prune pass.
struct CandidatePass {
  /// Replicated candidate mask: pair (i, j) set iff Ĵ(i, j) ≥
  /// prune_threshold − slack (and, under kLsh, the pair collided in ≥ 1
  /// band), plus the full diagonal. Symmetric; dense or sparse per the
  /// storage-parity crossover.
  distmat::CandidateMask mask;
  /// Rank 0: the scored pairs with a non-zero estimate, sorted by
  /// (i, j) — O(scored pairs) memory, never an n² array. All-pairs mode
  /// scores every pair (zeros are dropped); LSH mode scores colliding
  /// pairs; estimate_at reports 0.0 for everything absent. Empty on
  /// other ranks.
  std::vector<PairEstimate> estimates;
  /// The threshold actually applied (prune_threshold − slack, floored at 0).
  double effective_threshold = 0.0;
  /// Strategy actually used (kAuto resolved) and, for kLsh, the banding.
  core::CandidateMode mode = core::CandidateMode::kAllPairs;
  LshPlan plan;

  /// The estimate of (i, j): 1.0 on the diagonal, the scored value when
  /// present, 0.0 otherwise. O(log estimates); rank 0 only.
  [[nodiscard]] double estimate_at(std::int64_t i, std::int64_t j) const noexcept;
};

/// Collective over `world`: generate and score candidate pairs from
/// per-sample wire blobs and threshold them into a replicated candidate
/// mask (all-pairs or LSH-banded per Config::candidate_mode).
/// `samples`/`blobs` are this rank's registered samples (any disjoint
/// cover of [0, n) across ranks works; the driver passes its cyclic read
/// ownership). `config` is the sketch view of the hybrid config
/// (estimator already resolved to the prune sketch).
[[nodiscard]] CandidatePass sketch_candidate_pass(
    bsp::Comm& world, std::span<const std::int64_t> samples,
    const std::vector<std::vector<std::uint64_t>>& blobs, std::int64_t n,
    const core::Config& config);

/// Run the sketch-exchange pipeline collectively over `world`. Every
/// rank must call with identical `config` (estimator must be a sketch
/// estimator); the estimated similarity matrix and batch statistics land
/// on rank 0, mirroring core::similarity_at_scale's contract.
[[nodiscard]] core::Result sketch_similarity_at_scale(bsp::Comm& world,
                                                      const core::SampleSource& source,
                                                      const core::Config& config);

}  // namespace sas::sketch
