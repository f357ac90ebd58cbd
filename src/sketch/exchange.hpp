// exchange.hpp — the distributed sketch-exchange pipeline and the
// hybrid's candidate pass, both fed by one sketch builder and scored on
// one ring.
//
// == The sketch builder ====================================================
//
// make_sketch is the one place a Config becomes a sketch: the empty
// sketch of the configured type, parameters and seed. sketch_block
// builds every pipeline blob from it, one sample at a time: a compatible
// persisted blob (SampleSource::persisted_sketch, wire_matches_config)
// is returned as is; otherwise the sample's attribute ids are read one
// row batch at a time (values_in_range) and added, so a single sketch's
// working state is live at a time. `gas sketch` builds the blobs it
// persists from make_sketch too, so a persisted blob is byte-identical to
// the one a run would build. add() is order-independent, so the blobs do
// not depend on the batch count or on the read order.
//
// == The pure-sketch pipeline (kMinhash / kBottomK) =======================
//
// The approximate counterpart of the SpGEMM driver path: instead of
// redistributing bit-packed k-mer panels and multiplying under the
// popcount semiring, each rank
//
//   1. sketches its block of samples, distmat::block_range(n, p, r), with
//      sketch_block — same batched reads, same bounded per-read memory as
//      the exact path;
//   2. flattens the owned sketches' wire blobs into one panel
//      (core::pack_word_panel) and rotates the panels ⌊p/2⌋ + 1 steps
//      around the 1-D ring it shares with the exact SpGEMM ring and the
//      all-pairs candidate pass (distmat/ring.hpp; send posted before the
//      local estimation work);
//   3. estimates Jaccard between its sketches and each arriving panel
//      (sketch::estimate_jaccard_wire) over one triangle of the symmetric
//      matrix: every wire estimator is bitwise symmetric, so each
//      unordered pair is scored once — the diagonal block's upper
//      triangle, the whole block (r, r − s) at steps 0 < s < p/2, and at
//      even p one half of the block that ranks p/2 apart share. A panel
//      arrives intact or not at all (bsp::Comm checks every message's
//      CRC-32), so a blob whose tag, parameter or seed word differs from
//      the run's is a program bug, and the estimators'
//      std::invalid_argument reports it as one. Rank 0 gathers only those
//      cells, as raw doubles in the output gather's zero-run code, and
//      writes each one and its transpose (distmat::gather_blocks_to_root).
//
// Communication per rotation step is O(samples_per_rank · sketch_bytes)
// — independent of genome size — versus the exact ring's O(nnz) panel
// bytes; bench/minhash_accuracy reports both through the bsp cost
// counters. Estimates are symmetric and deterministic in (config, data),
// so the result is bitwise independent of the rank count (tested).
//
// Pure sketch and the all-pairs candidate pass below score on the same
// ring and differ only in what they keep. Pure sketch keeps every
// estimate: rank 0 gathers the dense blocks, whose zero estimates travel
// as runs and whose others as 8 raw bytes each; the pass gathers non-zero
// estimates (only the pruned ones) as 24-byte (i, j, est) triplets. On
// the perf ledger's families-minhash workload (n = 2,304, p = 4), where
// ≈98% of the pairs estimate exactly 0, the block gather moves 0.41 MB
// (19.91 MB as dense doubles); triplets would move 0.75 MB, and up to
// 47.8 MB once every pair is related.
//
// == The hybrid candidate pass ===========================================
//
// Estimator::kHybrid uses the same wire blobs differently, always as
// minhash sketches: instead of a similarity matrix alone, the pass
// returns a replicated candidate mask (distmat::CandidateMask) — every
// pair whose estimated Jaccard clears prune_threshold − slack — plus, on
// rank 0, the non-zero estimates of the pairs it prunes, which the driver
// uses to fill the pruned entries of the final matrix (survivors get
// their exact values). The driver sketches each rank's block of samples,
// the one it reads and multiplies, with sketch_block before the batch
// loop, which then reads each batch again for packing: a re-read costs
// less than holding every batch's reads for the whole run. Every rank
// computes where a sample lives (distmat::block_owner), so no id
// directory travels. Two candidate strategies exist (core::CandidateMode):
//
//   all-pairs — the blob panels rotate ⌊p/2⌋ + 1 steps around the sketch
//     ring, as in the pure-sketch pipeline (⌊p/2⌋ panel hops and O(n/p)
//     blobs held per rank), and each rank scores its share of the
//     n(n − 1)/2 unordered pairs, keeping each pair that clears the
//     threshold. Exact candidate set; quadratic score work. The default
//     below kLshMinSamples.
//
//   lsh — LSH banding over the one-permutation MinHash registers
//     (oph_wire_band_hashes): each rank computes B band buckets per
//     owned sample, routes ONE packed (bucket-group, sample) word per
//     band through the existing alltoall, and only pairs colliding in
//     ≥ 1 bucket are routed (to the rank owning the lower sample's
//     blob), deduplicated, blob-fetched, and scored. Block ownership
//     skews that routing toward low ranks: at p = 4, 7/16 of random pairs
//     have their lower sample on rank 0. Bytes and score work are
//     O(collisions), not O(n²). Recall follows the banding
//     S-curve 1 − (1 − m^R)^B (lsh_candidate_plan picks (B, R) from the
//     effective threshold); pairs that never collide report a 0.0
//     estimate. Pairs BELOW the effective threshold that do
//     collide still report their scored estimate, so precision is
//     identical to all-pairs. Degenerate buckets larger than
//     kLshBucketCap (e.g. all-empty sketches hashing into one bucket,
//     which would emit s(s−1)/2 pair words) replicate their
//     member list instead and are rescored by a mini all-pairs pass over
//     the capped union on the blob owners — O(s) routed bytes, recall a
//     superset of the uncapped bucket's.
//
// Both passes end the same way: the kept (i < j) pairs of every rank go
// through allreduce_pair_union (dist_filter.hpp) into the replicated
// CandidateMask — 8 bytes per kept pair on the wire and O(survivors)
// memory per rank, whatever n is — and only the pruned pairs' non-zero
// estimates are gathered on rank 0.
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
#include "sketch/one_perm_minhash.hpp"

namespace sas::sketch {

/// Short name of a sketch estimator ("minhash" | "bottomk") —
/// the persisted-blob file suffix and the CLI spelling. Throws
/// std::invalid_argument for non-sketch estimators.
[[nodiscard]] const char* estimator_wire_name(core::Estimator estimator);

/// The sketch estimator `config` resolves to: the estimator itself, or
/// kMinhash, the hybrid's one prune sketch, for a hybrid config (kExact
/// resolves to kExact; most callers reject it downstream).
[[nodiscard]] core::Estimator resolved_sketch_estimator(const core::Config& config);

/// A sketch of either type (sketch.hpp).
using AnySketch = std::variant<OnePermMinHash, BottomKSketch>;

/// Empty sketch of the type `config` resolves to (resolved_sketch_estimator),
/// with its configured parameters and seed. Throws std::invalid_argument
/// when the config names no sketch estimator.
[[nodiscard]] AnySketch make_sketch(const core::Config& config);

/// Does `wire` carry a sketch comparable against sketches built under
/// `config` (same type, parameters, and seed)? False for malformed blobs.
[[nodiscard]] bool wire_matches_config(std::span<const std::uint64_t> wire,
                                       const core::Config& config);

/// Effective prune slack of the hybrid: the documented mean-error bound
/// of the resolved sketch (minhash for a hybrid) at its configured size.
[[nodiscard]] double hybrid_prune_slack(const core::Config& config);

/// Caller-error check of both sketch parameters, whichever sketch the
/// run uses: sketch_size ≥ 1 and minhash_bits dividing 64. Throws
/// error::ConfigError naming the first bad one.
void validate_sketch_params(const core::Config& config);

/// The wire blobs under `config` of this rank's block of samples,
/// distmat::block_range(n, p, r), in order (see "The sketch builder" above):
/// each the persisted blob when wire_matches_config accepts it, else
/// make_sketch(config) fed from values_in_range one row batch at a time.
/// Throws std::invalid_argument when `config` names no sketch estimator.
[[nodiscard]] std::vector<std::vector<std::uint64_t>> sketch_block(
    const bsp::Comm& world, const core::SampleSource& source, const core::Config& config);

/// Sample count below which CandidateMode::kAuto keeps the all-pairs
/// candidate pass: under ~10² samples the n² score work is trivial and
/// the pass keeps the exact candidate set.
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
/// effective Jaccard threshold, derived from the threshold's register
/// match fraction m = t(1−2⁻ᵇ) + 2⁻ᵇ: the LARGEST R whose
/// required band count B = ⌈C/mᴿ⌉ (detection constant C = 7, i.e.
/// P(miss at exactly the threshold) ≤ e⁻⁷) still fits the register
/// budget B·R ≤ sketch_size. Larger R sharpens the S-curve (fewer
/// sub-threshold collisions) at more band keys; pairs safely above the
/// threshold collide with probability ≥ 1 − e⁻ᶜ. Throws when the
/// resolved sketch is not minhash.
[[nodiscard]] LshPlan lsh_candidate_plan(const core::Config& config,
                                         double effective_threshold);

/// Candidate strategy `config` resolves to for an n-sample corpus (the
/// kAuto rule, plus the correctness fallback documented in
/// core::CandidateMode).
[[nodiscard]] core::CandidateMode resolved_candidate_mode(const core::Config& config,
                                                          std::int64_t n);

/// Output of the hybrid's sketch-prune pass.
struct CandidatePass {
  /// Replicated candidate mask: pair (i, j) set iff Ĵ(i, j) ≥
  /// prune_threshold − slack (and, under kLsh, the pair collided in ≥ 1
  /// band), plus the full diagonal. Symmetric.
  distmat::CandidateMask mask;
  /// Rank 0: the pruned pairs' estimates — scored non-zero and below
  /// effective_threshold — as ascending CandidateMask::pack_pair keys
  /// with parallel values, SparseSimilarity's estimate form. O(pruned
  /// scored pairs) memory, never an n² array; a pair absent here is a
  /// survivor or reads as 0.0. Empty on other ranks.
  std::vector<std::uint64_t> estimate_keys;
  std::vector<double> estimate_values;
  /// The threshold actually applied (prune_threshold − slack, floored at 0).
  double effective_threshold = 0.0;
  /// Strategy actually used (kAuto resolved) and, for kLsh, the banding.
  core::CandidateMode mode = core::CandidateMode::kAllPairs;
  LshPlan plan;
};

/// Collective over `world`: generate and score candidate pairs from
/// per-sample wire blobs and threshold them into a replicated candidate
/// mask (all-pairs or LSH-banded per Config::candidate_mode). `blobs`
/// are the wire blobs of samples distmat::block_range(n, p, r), in order
/// (sketch_block); throws std::invalid_argument naming that block unless
/// there is one per sample. `config` supplies prune_threshold,
/// candidate_mode and the sketch parameters (a hybrid config resolves to
/// minhash).
[[nodiscard]] CandidatePass sketch_candidate_pass(
    bsp::Comm& world, const std::vector<std::vector<std::uint64_t>>& blobs,
    std::int64_t n, const core::Config& config);

/// Run the sketch-exchange pipeline collectively over `world`. Every
/// rank must call with identical `config` (estimator must be a sketch
/// estimator); the estimated similarity matrix and batch statistics land
/// on rank 0, mirroring core::similarity_at_scale's contract.
[[nodiscard]] core::Result sketch_similarity_at_scale(bsp::Comm& world,
                                                      const core::SampleSource& source,
                                                      const core::Config& config);

}  // namespace sas::sketch
