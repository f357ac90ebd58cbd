#include "sketch/exchange.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <stdexcept>
#include <utility>

#include "bsp/tags.hpp"
#include "core/packing.hpp"
#include "distmat/block.hpp"
#include "distmat/dense_block.hpp"
#include "distmat/dist_filter.hpp"
#include "distmat/gather.hpp"
#include "distmat/ring.hpp"
#include "obs/trace.hpp"
#include "util/timer.hpp"

namespace sas::sketch {

core::Estimator resolved_sketch_estimator(const core::Config& config) {
  return config.estimator == core::Estimator::kHybrid ? config.hybrid_sketch
                                                      : config.estimator;
}

namespace {

using distmat::BlockRange;
using distmat::DenseBlock;

/// Empty sketch of the configured type — the parameter/seed reference for
/// compatibility checks and the starting state of streaming construction.
std::variant<HyperLogLog, OnePermMinHash, BottomKSketch> make_empty_sketch(
    const core::Config& config) {
  switch (resolved_sketch_estimator(config)) {
    case core::Estimator::kHll:
      return HyperLogLog(config.hll_precision, config.sketch_seed);
    case core::Estimator::kMinhash:
      return OnePermMinHash(config.sketch_size, config.minhash_bits, config.sketch_seed);
    case core::Estimator::kBottomK:
      return BottomKSketch(static_cast<std::size_t>(config.sketch_size),
                           config.sketch_seed);
    default:
      break;
  }
  throw std::invalid_argument("sketch: config does not name a sketch estimator");
}

}  // namespace

const char* estimator_wire_name(core::Estimator estimator) {
  switch (estimator) {
    case core::Estimator::kHll:
      return "hll";
    case core::Estimator::kMinhash:
      return "minhash";
    case core::Estimator::kBottomK:
      return "bottomk";
    default:
      break;
  }
  throw std::invalid_argument("estimator_wire_name: not a sketch estimator");
}

bool wire_matches_config(std::span<const std::uint64_t> wire,
                         const core::Config& config) {
  if (wire.size() < kWireHeaderWords) return false;
  // The (magic|type, params, seed) header of an empty sketch under this
  // config is exactly what every compatible blob must carry.
  const auto expected =
      std::visit([](const auto& sk) { return sk.wire(); }, make_empty_sketch(config));
  for (std::size_t w = 0; w < kWireHeaderWords; ++w) {
    if (wire[w] != expected[w]) return false;
  }
  // A matching header is not enough: a truncated persisted blob (e.g. an
  // interrupted `gas sketch` write) must be treated as "no persisted
  // sketch" here, not throw later inside the rank threads. Running the
  // pipeline's own comparator against the blob validates the payload
  // exactly as deeply as the pipeline will need it.
  try {
    (void)estimate_jaccard_wire(wire, wire);
  } catch (const std::invalid_argument&) {
    return false;
  }
  return true;
}

double hybrid_prune_slack(const core::Config& config) {
  if (config.prune_slack >= 0.0) return config.prune_slack;
  switch (resolved_sketch_estimator(config)) {
    case core::Estimator::kHll:
      return hll_jaccard_error_bound(config.hll_precision);
    case core::Estimator::kMinhash:
      return oph_jaccard_error_bound(config.sketch_size, config.minhash_bits);
    case core::Estimator::kBottomK:
      return bottomk_jaccard_error_bound(config.sketch_size);
    default:
      break;
  }
  throw std::invalid_argument("hybrid_prune_slack: config names no sketch estimator");
}

StreamingSketcher::StreamingSketcher(const core::Config& config) : config_(config) {
  (void)make_empty_sketch(config_);  // validate the estimator up front
}

std::size_t StreamingSketcher::add_sample(std::int64_t sample,
                                          const core::SampleSource& source) {
  samples_.push_back(sample);
  sketches_.push_back(make_empty_sketch(config_));
  // Persisted blob first: written by `gas sketch --estimator`, trusted
  // only when its header matches this run's (type, params, seed).
  std::vector<std::uint64_t> persisted = source.persisted_sketch(sample, config_);
  if (!persisted.empty() && wire_matches_config(persisted, config_)) {
    preloaded_.push_back(std::move(persisted));
  } else {
    preloaded_.emplace_back();
  }
  return samples_.size() - 1;
}

bool StreamingSketcher::needs_stream(std::size_t index) const {
  return preloaded_[index].empty();
}

void StreamingSketcher::absorb(std::size_t index, std::span<const std::int64_t> values) {
  if (!needs_stream(index)) return;
  std::visit(
      [&](auto& sk) {
        for (std::int64_t v : values) sk.add(static_cast<std::uint64_t>(v));
      },
      sketches_[index]);
}

std::vector<std::vector<std::uint64_t>> StreamingSketcher::finish() {
  std::vector<std::vector<std::uint64_t>> blobs;
  blobs.reserve(sketches_.size());
  for (std::size_t i = 0; i < sketches_.size(); ++i) {
    if (!preloaded_[i].empty()) {
      blobs.push_back(std::move(preloaded_[i]));
    } else {
      blobs.push_back(std::visit([](const auto& sk) { return sk.wire(); }, sketches_[i]));
    }
  }
  return blobs;
}

LshPlan lsh_candidate_plan(const core::Config& config, double effective_threshold) {
  if (resolved_sketch_estimator(config) != core::Estimator::kMinhash) {
    throw std::invalid_argument(
        "lsh_candidate_plan: banding is defined over the minhash registers");
  }
  const std::int64_t k = config.sketch_size;
  if (config.lsh_bands > 0) {
    LshPlan plan;
    plan.bands = std::min<std::int64_t>(config.lsh_bands, k);
    plan.rows_per_band = std::max<std::int64_t>(1, k / plan.bands);
    return plan;
  }
  // Auto rule (see exchange.hpp): register match fraction at the
  // threshold, then the largest feasible band width.
  const double collision = std::ldexp(1.0, -config.minhash_bits);
  const double m = std::clamp(
      effective_threshold * (1.0 - collision) + collision, collision, 1.0);
  constexpr double kDetection = 7.0;  // P(miss at the threshold) ≤ e⁻⁷
  LshPlan plan{/*bands=*/std::min<std::int64_t>(
                   k, static_cast<std::int64_t>(std::ceil(kDetection / m))),
               /*rows_per_band=*/1};
  for (std::int64_t rows = 2; rows * 2 <= k; rows *= 2) {
    const double per_band = std::pow(m, static_cast<double>(rows));
    const double needed = kDetection / per_band;
    if (needed > static_cast<double>(k / rows)) break;  // budget exceeded
    plan.bands = static_cast<std::int64_t>(std::ceil(needed));
    plan.rows_per_band = rows;
  }
  plan.bands = std::max<std::int64_t>(1, plan.bands);
  return plan;
}

core::CandidateMode resolved_candidate_mode(const core::Config& config, std::int64_t n) {
  const bool minhash = resolved_sketch_estimator(config) == core::Estimator::kMinhash;
  if (config.candidate_mode == core::CandidateMode::kLsh && !minhash) {
    throw std::invalid_argument(
        "sketch_candidate_pass: candidate_mode lsh requires the minhash prune sketch");
  }
  // A non-positive effective threshold keeps every pair: banding could
  // only lose candidates, so all-pairs is a correctness fallback.
  const double effective =
      std::max(0.0, config.prune_threshold - hybrid_prune_slack(config));
  if (effective <= 0.0) return core::CandidateMode::kAllPairs;
  switch (config.candidate_mode) {
    case core::CandidateMode::kAllPairs:
      return core::CandidateMode::kAllPairs;
    case core::CandidateMode::kLsh:
      return core::CandidateMode::kLsh;
    case core::CandidateMode::kAuto:
      break;
  }
  return (minhash && n >= kLshMinSamples) ? core::CandidateMode::kLsh
                                          : core::CandidateMode::kAllPairs;
}

namespace {

/// Ascending (i, j) order over pair estimates — the sort/search order of
/// CandidatePass::estimates.
bool pair_estimate_order(const PairEstimate& a, const PairEstimate& b) noexcept {
  return a.i != b.i ? a.i < b.i : a.j < b.j;
}

/// Sample-id → owning-rank map from the per-rank id lists; validates that
/// the lists cover [0, n) disjointly.
std::vector<int> owner_map(const std::vector<std::vector<std::int64_t>>& id_blocks,
                           std::int64_t n) {
  std::vector<int> owner(static_cast<std::size_t>(n), -1);
  std::int64_t seen = 0;
  for (std::size_t q = 0; q < id_blocks.size(); ++q) {
    for (std::int64_t id : id_blocks[q]) {
      if (id < 0 || id >= n || owner[static_cast<std::size_t>(id)] != -1) {
        throw std::invalid_argument(
            "sketch_candidate_pass: samples do not cover [0, n)");
      }
      owner[static_cast<std::size_t>(id)] = static_cast<int>(q);
      ++seen;
    }
  }
  if (seen != n) {
    throw std::invalid_argument("sketch_candidate_pass: samples do not cover [0, n)");
  }
  return owner;
}

/// Gather each rank's non-zero (i < j) pair estimates on rank 0, sorted
/// by (i, j). Every scored pair is scored by exactly one rank (all-pairs
/// partitions the rows; LSH routes a pair to its lower sample's blob
/// owner and dedupes), which the shared triplet gather's
/// overlapping-contribution check enforces.
std::vector<PairEstimate> gather_estimates(bsp::Comm& world,
                                           std::vector<PairEstimate> mine) {
  std::vector<distmat::Triplet<double>> triplets;
  triplets.reserve(mine.size());
  for (const PairEstimate& pe : mine) triplets.push_back({pe.i, pe.j, pe.est});
  const auto merged = distmat::gather_triplets_to_root(world, std::move(triplets));
  std::vector<PairEstimate> out;
  out.reserve(merged.size());
  for (const auto& t : merged) out.push_back({t.row, t.col, t.value});
  return out;
}

/// The all-pairs candidate pass (PR 3): allgather every blob, score this
/// rank's row slice of all n² pairs into a dense mask.
CandidatePass all_pairs_candidate_pass(
    bsp::Comm& world, std::span<const std::int64_t> samples,
    const std::vector<std::vector<std::uint64_t>>& blobs, std::int64_t n,
    double effective_threshold) {
  const int p = world.size();
  const int r = world.rank();
  const obs::Span stage_span("allpairs-candidates", "sketch",
                             &world.counters());

  // Every rank needs every blob (the mask prunes rank-local columns and
  // tiles), so the exchange is a ring allgather of the wire panels —
  // O(n · sketch_bytes) per rank, the same as a full rotation would move.
  const std::vector<std::uint64_t> panel = core::pack_word_panel(blobs);
  const auto id_blocks = world.allgather_v<std::int64_t>(samples);
  const auto panel_blocks =
      world.allgather_v<std::uint64_t>(std::span<const std::uint64_t>(panel));

  std::vector<std::span<const std::uint64_t>> views(static_cast<std::size_t>(n));
  std::int64_t seen = 0;
  for (int q = 0; q < p; ++q) {
    const auto q_views = core::unpack_word_panel(panel_blocks[static_cast<std::size_t>(q)]);
    const auto& q_ids = id_blocks[static_cast<std::size_t>(q)];
    if (q_views.size() != q_ids.size()) {
      throw std::invalid_argument("sketch_candidate_pass: panel/id mismatch");
    }
    for (std::size_t i = 0; i < q_ids.size(); ++i) {
      views[static_cast<std::size_t>(q_ids[i])] = q_views[i];
      ++seen;
    }
  }
  if (seen != n) {
    throw std::invalid_argument("sketch_candidate_pass: samples do not cover [0, n)");
  }

  CandidatePass pass;
  pass.effective_threshold = effective_threshold;
  pass.mode = core::CandidateMode::kAllPairs;
  distmat::PairMask mask(n);

  // Score a block partition of the rows (any disjoint cover works — all
  // blobs are local now); the diagonal is always a candidate. Estimates
  // ride to rank 0 as (i < j, value) pairs — each upper pair is scored
  // by exactly the rank owning row i, and zero estimates are dropped
  // (absent pairs read as 0.0), so the estimate payload tracks the
  // non-zero pair structure instead of a dense n² array.
  const BlockRange mine = distmat::block_range(n, p, r);
  std::vector<PairEstimate> scored;
  for (std::int64_t i = mine.begin; i < mine.end; ++i) {
    mask.set(i, i);
    for (std::int64_t j = 0; j < n; ++j) {
      if (j == i) continue;
      const double est = estimate_jaccard_wire(views[static_cast<std::size_t>(i)],
                                               views[static_cast<std::size_t>(j)]);
      if (j > i && est != 0.0) scored.push_back({i, j, est});
      if (est >= pass.effective_threshold) mask.set(i, j);
    }
  }

  distmat::allreduce_pair_mask(world, mask);
  pass.mask = distmat::CandidateMask(std::move(mask));
  pass.estimates = gather_estimates(world, std::move(scored));
  return pass;
}

/// The LSH-banded candidate pass: band keys through the alltoall, score
/// only colliding pairs, replicate a sparse (or dense, above the
/// crossover) candidate mask. See the strategy note in exchange.hpp.
CandidatePass lsh_candidate_pass(bsp::Comm& world,
                                 std::span<const std::int64_t> samples,
                                 const std::vector<std::vector<std::uint64_t>>& blobs,
                                 std::int64_t n, const core::Config& config,
                                 double effective_threshold) {
  const int p = world.size();
  const int r = world.rank();
  if (n >= (std::int64_t{1} << 31)) {
    // Key/pair words carry 31-bit sample ids (SparsePairMask::pack_pair).
    throw std::invalid_argument("sketch_candidate_pass: lsh requires n < 2^31");
  }

  CandidatePass pass;
  pass.effective_threshold = effective_threshold;
  pass.mode = core::CandidateMode::kLsh;
  pass.plan = lsh_candidate_plan(config, effective_threshold);

  // Phase spans: the pass is straight-line code with locals flowing
  // across phases, so each span is an explicit object closed at the
  // phase boundary instead of a nested block.
  obs::Span phase_ownership("lsh/ownership", "lsh", &world.counters());

  // (1) Ownership map: who holds which blob (cheap — ids only, no blobs).
  const auto id_blocks = world.allgather_v<std::int64_t>(samples);
  const std::vector<int> owner = owner_map(id_blocks, n);
  std::vector<std::int64_t> local_index(static_cast<std::size_t>(n), -1);
  for (std::size_t i = 0; i < samples.size(); ++i) {
    local_index[static_cast<std::size_t>(samples[i])] = static_cast<std::int64_t>(i);
  }

  phase_ownership.close();
  obs::Span phase_band_keys("lsh/band-keys", "lsh", &world.counters());

  // (2) Band keys, one packed word per (sample, band): the bucket hash's
  // high 32 bits form the routing group, the low half carries the sample
  // id. Equal band registers ⇒ equal group, so true collisions always
  // co-locate; cross-band groups that alias in 32 bits only add scored-
  // then-filtered pairs. Routing by group keeps the emitted pair set
  // independent of the rank count.
  std::vector<std::vector<std::uint64_t>> key_blocks(static_cast<std::size_t>(p));
  for (std::size_t s = 0; s < blobs.size(); ++s) {
    const std::vector<std::uint64_t> buckets =
        oph_wire_band_hashes(blobs[s], pass.plan.bands, pass.plan.rows_per_band);
    for (std::uint64_t bucket : buckets) {
      const std::uint64_t group = bucket >> 32;
      const int dest = static_cast<int>((group * static_cast<std::uint64_t>(p)) >> 32);
      key_blocks[static_cast<std::size_t>(dest)].push_back(
          (group << 32) | static_cast<std::uint64_t>(samples[s]));
    }
  }
  const auto incoming_keys = world.alltoall_v(key_blocks);

  phase_band_keys.close();
  obs::Span phase_buckets("lsh/buckets", "lsh", &world.counters());

  // (3) Bucket grouping: sorting the packed words groups by (group,
  // sample); every within-group sample pair is a collision candidate,
  // routed to the rank owning the LOWER sample's blob. Degenerate
  // buckets — s samples hashing identically (e.g. all-empty sketches)
  // would emit s(s−1)/2 pair words here — are capped at kLshBucketCap:
  // their members go to a replicated capped set
  // (O(s) bytes) and the implied pairs are generated locally on the blob
  // owners below, a mini all-pairs pass over the capped union.
  std::vector<std::uint64_t> keys;
  for (const auto& block : incoming_keys) {
    keys.insert(keys.end(), block.begin(), block.end());
  }
  std::sort(keys.begin(), keys.end());
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
  std::vector<std::int64_t> capped_members;
  std::vector<std::vector<std::uint64_t>> pair_blocks(static_cast<std::size_t>(p));
  for (std::size_t begin = 0; begin < keys.size();) {
    std::size_t end = begin;
    const std::uint64_t group = keys[begin] >> 32;
    while (end < keys.size() && (keys[end] >> 32) == group) ++end;
    if (end - begin > static_cast<std::size_t>(kLshBucketCap)) {
      for (std::size_t a = begin; a < end; ++a) {
        capped_members.push_back(static_cast<std::int64_t>(keys[a] & 0xffffffffULL));
      }
      begin = end;
      continue;
    }
    for (std::size_t a = begin; a < end; ++a) {
      const auto i = static_cast<std::int64_t>(keys[a] & 0xffffffffULL);
      for (std::size_t b = a + 1; b < end; ++b) {
        const auto j = static_cast<std::int64_t>(keys[b] & 0xffffffffULL);
        pair_blocks[static_cast<std::size_t>(owner[static_cast<std::size_t>(i)])]
            .push_back(distmat::SparsePairMask::pack_pair(i, j));
      }
    }
    begin = end;
  }
  const auto incoming_pairs = world.alltoall_v(pair_blocks);

  // Mini all-pairs over the capped buckets: replicate the member union
  // (collective — every rank participates, usually with an empty list)
  // and let each rank generate the pairs whose lower sample it owns.
  // This scores a superset of the capped buckets' pairs (cross-bucket
  // members of the union included), so recall can only improve; the
  // routed bytes drop from O(s²) pair words to O(s) member ids.
  std::sort(capped_members.begin(), capped_members.end());
  capped_members.erase(std::unique(capped_members.begin(), capped_members.end()),
                       capped_members.end());
  std::vector<std::int64_t> capped_union =
      world.allgather<std::int64_t>(std::span<const std::int64_t>(capped_members));
  std::sort(capped_union.begin(), capped_union.end());
  capped_union.erase(std::unique(capped_union.begin(), capped_union.end()),
                     capped_union.end());

  phase_buckets.close();
  obs::Span phase_dedup("lsh/dedup", "lsh", &world.counters());

  // (4) Deduplicate (a pair may collide in several bands, possibly via
  // different group owners, or re-arrive via the capped union) and list
  // the partner blobs to fetch.
  std::vector<std::uint64_t> todo;
  for (const auto& block : incoming_pairs) {
    todo.insert(todo.end(), block.begin(), block.end());
  }
  for (std::size_t a = 0; a < capped_union.size(); ++a) {
    const std::int64_t i = capped_union[a];
    if (owner[static_cast<std::size_t>(i)] != r) continue;
    for (std::size_t b = a + 1; b < capped_union.size(); ++b) {
      todo.push_back(distmat::SparsePairMask::pack_pair(i, capped_union[b]));
    }
  }
  std::sort(todo.begin(), todo.end());
  todo.erase(std::unique(todo.begin(), todo.end()), todo.end());

  std::vector<std::vector<std::int64_t>> requests(static_cast<std::size_t>(p));
  for (std::uint64_t packed : todo) {
    const auto [i, j] = distmat::SparsePairMask::unpack_pair(packed);
    (void)i;
    if (local_index[static_cast<std::size_t>(j)] >= 0) continue;
    requests[static_cast<std::size_t>(owner[static_cast<std::size_t>(j)])].push_back(j);
  }
  for (auto& block : requests) {
    std::sort(block.begin(), block.end());
    block.erase(std::unique(block.begin(), block.end()), block.end());
  }

  phase_dedup.close();
  obs::Span phase_fetch("lsh/blob-fetch", "lsh", &world.counters());

  // (5) Blob fetch, request/response over two alltoalls — O(distinct
  // colliding partners · sketch_bytes), the LSH pass's only blob traffic.
  const auto incoming_requests = world.alltoall_v(requests);
  std::vector<std::vector<std::uint64_t>> responses(static_cast<std::size_t>(p));
  for (int q = 0; q < p; ++q) {
    const auto& wanted = incoming_requests[static_cast<std::size_t>(q)];
    if (wanted.empty()) continue;
    std::vector<std::vector<std::uint64_t>> payload;
    payload.reserve(wanted.size());
    for (std::int64_t id : wanted) {
      const std::int64_t idx = local_index[static_cast<std::size_t>(id)];
      if (idx < 0) {
        throw std::invalid_argument("sketch_candidate_pass: blob request misrouted");
      }
      payload.push_back(blobs[static_cast<std::size_t>(idx)]);
    }
    responses[static_cast<std::size_t>(q)] = core::pack_word_panel(payload);
  }
  const auto incoming_responses = world.alltoall_v(responses);

  std::vector<std::span<const std::uint64_t>> fetched(static_cast<std::size_t>(n));
  for (int q = 0; q < p; ++q) {
    const auto& asked = requests[static_cast<std::size_t>(q)];
    if (asked.empty()) continue;
    const auto views =
        core::unpack_word_panel(incoming_responses[static_cast<std::size_t>(q)]);
    if (views.size() != asked.size()) {
      throw std::invalid_argument("sketch_candidate_pass: blob response mismatch");
    }
    for (std::size_t v = 0; v < asked.size(); ++v) {
      fetched[static_cast<std::size_t>(asked[v])] = views[v];
    }
  }
  const auto view_of = [&](std::int64_t id) -> std::span<const std::uint64_t> {
    const std::int64_t idx = local_index[static_cast<std::size_t>(id)];
    return idx >= 0 ? std::span<const std::uint64_t>(blobs[static_cast<std::size_t>(idx)])
                    : fetched[static_cast<std::size_t>(id)];
  };

  phase_fetch.close();
  obs::Span phase_score("lsh/score", "lsh", &world.counters());

  // (6) Score exactly the colliding pairs; keep every non-zero estimate
  // (pruned colliders still fill the assembled output better than 0) and
  // threshold into the local candidate list.
  std::vector<PairEstimate> scored;
  scored.reserve(todo.size());
  std::vector<std::uint64_t> kept;
  for (std::uint64_t packed : todo) {
    const auto [i, j] = distmat::SparsePairMask::unpack_pair(packed);
    const double est = estimate_jaccard_wire(view_of(i), view_of(j));
    if (est != 0.0) scored.push_back({i, j, est});
    if (est >= pass.effective_threshold) kept.push_back(packed);
  }

  phase_score.close();
  obs::Span phase_mask("lsh/mask-union", "lsh", &world.counters());

  // (7) Replicate the union — O(survivors) bytes, not O(n²/8) — and pick
  // the representation by the storage-parity crossover.
  const std::vector<std::uint64_t> survivors =
      distmat::allreduce_pair_union(world, std::move(kept));
  if (distmat::sparse_pair_mask_wins(n, static_cast<std::int64_t>(survivors.size()))) {
    pass.mask = distmat::CandidateMask(distmat::SparsePairMask(
        n, std::span<const std::uint64_t>(survivors)));
  } else {
    distmat::PairMask mask(n);
    for (std::int64_t i = 0; i < n; ++i) mask.set(i, i);
    for (std::uint64_t packed : survivors) {
      const auto [i, j] = distmat::SparsePairMask::unpack_pair(packed);
      mask.set(i, j);
      mask.set(j, i);
    }
    pass.mask = distmat::CandidateMask(std::move(mask));
  }

  phase_mask.close();
  obs::Span phase_estimates("lsh/estimates", "lsh", &world.counters());

  // (8) Estimates to rank 0 as sorted (i < j, value) pairs — O(scored)
  // memory; never-collided pairs stay absent and read as 0.0 (they are
  // below the S-curve's collision range).
  pass.estimates = gather_estimates(world, std::move(scored));
  return pass;
}

}  // namespace

double CandidatePass::estimate_at(std::int64_t i, std::int64_t j) const noexcept {
  if (i == j) return 1.0;
  const PairEstimate key{std::min(i, j), std::max(i, j), 0.0};
  const auto it =
      std::lower_bound(estimates.begin(), estimates.end(), key, pair_estimate_order);
  if (it == estimates.end() || it->i != key.i || it->j != key.j) return 0.0;
  return it->est;
}

CandidatePass sketch_candidate_pass(bsp::Comm& world,
                                    std::span<const std::int64_t> samples,
                                    const std::vector<std::vector<std::uint64_t>>& blobs,
                                    std::int64_t n, const core::Config& config) {
  if (samples.size() != blobs.size()) {
    throw std::invalid_argument("sketch_candidate_pass: ids/blobs length mismatch");
  }
  const double effective =
      std::max(0.0, config.prune_threshold - hybrid_prune_slack(config));
  if (resolved_candidate_mode(config, n) == core::CandidateMode::kLsh) {
    return lsh_candidate_pass(world, samples, blobs, n, config, effective);
  }
  return all_pairs_candidate_pass(world, samples, blobs, n, effective);
}

core::Result sketch_similarity_at_scale(bsp::Comm& world,
                                        const core::SampleSource& source,
                                        const core::Config& config) {
  const std::int64_t n = source.sample_count();
  const std::int64_t m = source.attribute_universe();
  const int batches = static_cast<int>(config.batch_count);
  const int p = world.size();
  const int r = world.rank();

  world.barrier();
  Timer timer;
  core::StageRecorder recorder(world.counters());

  // (1) Sketch the owned samples (block distribution, matching the ring
  // panel layout so arriving panels map onto contiguous output columns),
  // streaming each sample's attribute ids batch by batch. Reading and
  // hashing are one fused loop, so the whole build lands in the
  // pack/sketch stage. Samples with a compatible persisted blob are not
  // read at all. One sketcher per sample keeps a single sketch's working
  // state live at a time; only the compact wire blobs accumulate.
  const BlockRange mine = distmat::block_range(n, p, r);
  std::vector<std::vector<std::uint64_t>> blobs;
  {
    auto stage = recorder.scope(core::Stage::kPackSketch);
    blobs.reserve(static_cast<std::size_t>(mine.size()));
    for (std::int64_t i = mine.begin; i < mine.end; ++i) {
      StreamingSketcher sketcher(config);
      const std::size_t idx = sketcher.add_sample(i, source);
      for (int l = 0; l < batches && sketcher.needs_stream(idx); ++l) {
        sketcher.absorb(idx, source.values_in_range(i, distmat::block_range(m, batches, l)));
      }
      blobs.push_back(std::move(sketcher.finish().front()));
    }
  }
  const std::vector<std::uint64_t> panel_words = core::pack_word_panel(blobs);
  const auto my_views = core::unpack_word_panel(panel_words);

  // (2)+(3) Rotate panels around the shared double-buffered ring
  // (distmat/ring.hpp) and estimate into this rank's output row panel. Stage attribution
  // mirrors the exact pipeline: estimation time is the "multiply",
  // rotation bytes are the "exchange".
  DenseBlock<double> s_panel(mine, BlockRange{0, n});
  {
    auto stage = recorder.scope(core::Stage::kMultiply, core::Stage::kExchange);
    distmat::ring_rotate<std::uint64_t>(
        world, bsp::tags::kSketchRing, "sketch-ring/step", panel_words,
        [&](int owner, std::span<const std::uint64_t> held) {
          const BlockRange owner_cols = distmat::block_range(n, p, owner);
          const auto views = owner == r ? my_views : core::unpack_word_panel(held);
          for (std::int64_t i = 0; i < mine.size(); ++i) {
            for (std::int64_t j = 0; j < owner_cols.size(); ++j) {
              s_panel.at_local(i, owner_cols.begin + j) =
                  estimate_jaccard_wire(my_views[static_cast<std::size_t>(i)],
                                        views[static_cast<std::size_t>(j)]);
            }
          }
        });
  }

  const std::int64_t total_words = world.allreduce_value<std::int64_t>(
      static_cast<std::int64_t>(panel_words.size()), std::plus<std::int64_t>{});
  world.barrier();
  const double seconds = timer.seconds();

  std::vector<double> full;
  {
    auto stage = recorder.scope(core::Stage::kAssemble);
    full = distmat::gather_dense_to_root(world, &s_panel, n, n);
  }

  core::Result result;
  result.n = n;
  result.active_ranks = p;
  result.stages = recorder.reduce_to_root(world);
  if (world.rank() == 0) {
    result.similarity = core::SimilarityMatrix(n, std::move(full));
    core::BatchStats bs;
    bs.seconds = seconds;
    bs.filtered_rows = 0;  // no packing pass: sketches replace the panels
    bs.word_rows = blobs.empty() ? 0 : static_cast<std::int64_t>(blobs.front().size());
    bs.packed_nnz = total_words;  // wire words across all ranks
    // Batch traffic stops at the closing barrier, as in the batched
    // pipelines: the assemble-stage dense gather is not batch traffic.
    const core::StageStats& gather = result.stages[core::Stage::kAssemble];
    bs.bytes_sent = result.stages.total_bytes_sent() - gather.bytes_sent;
    bs.bytes_received = result.stages.total_bytes_received() - gather.bytes_received;
    result.batches = {bs};
  }
  return result;
}

}  // namespace sas::sketch
