#include "sketch/exchange.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <stdexcept>
#include <string>
#include <utility>

#include "bsp/tags.hpp"
#include "core/packing.hpp"
#include "distmat/block.hpp"
#include "distmat/dense_block.hpp"
#include "distmat/dist_filter.hpp"
#include "distmat/gather.hpp"
#include "distmat/ring.hpp"
#include "obs/trace.hpp"
#include "util/error.hpp"
#include "util/timer.hpp"

namespace sas::sketch {

core::Estimator resolved_sketch_estimator(const core::Config& config) {
  return config.estimator == core::Estimator::kHybrid ? core::Estimator::kMinhash
                                                      : config.estimator;
}

AnySketch make_sketch(const core::Config& config) {
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

namespace {

using distmat::BlockRange;
using distmat::DenseBlock;

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
      std::visit([](const auto& sk) { return sk.wire(); }, make_sketch(config));
  for (std::size_t w = 0; w < kWireHeaderWords; ++w) {
    if (wire[w] != expected[w]) return false;
  }
  // A matching header is not enough: a truncated persisted blob (e.g. an
  // interrupted `gas sketch` write) or a corrupt payload (an HLL register
  // above the maximum rank, bottom-k minima out of order) must be treated
  // as "no persisted sketch" here, not throw or mis-score later inside
  // the rank threads. Running the pipeline's own comparator against the
  // blob validates the payload exactly as deeply as the pipeline will
  // need it.
  try {
    (void)estimate_jaccard_wire(wire, wire);
  } catch (const std::invalid_argument&) {
    return false;
  }
  return true;
}

double hybrid_prune_slack(const core::Config& config) {
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

void validate_sketch_params(const core::Config& config) {
  if (config.sketch_size < 1) {
    throw error::ConfigError("sketch: sketch_size must be >= 1");
  }
  if (config.minhash_bits < 1 || config.minhash_bits > 64 ||
      64 % config.minhash_bits != 0) {
    throw error::ConfigError("sketch: minhash_bits must divide 64");
  }
  if (config.hll_precision < HyperLogLog::kMinPrecision ||
      config.hll_precision > HyperLogLog::kMaxPrecision) {
    throw error::ConfigError("sketch: hll_precision must be in [" +
                             std::to_string(HyperLogLog::kMinPrecision) + ", " +
                             std::to_string(HyperLogLog::kMaxPrecision) + "]");
  }
}

std::vector<std::uint64_t> sketch_sample(const core::SampleSource& source,
                                         const core::Config& config, std::int64_t sample) {
  AnySketch sketch = make_sketch(config);
  // Persisted blob first: written by `gas sketch --estimator`, trusted
  // only when it matches this run's (type, params, seed) and validates.
  std::vector<std::uint64_t> persisted = source.persisted_sketch(sample, config);
  if (!persisted.empty() && wire_matches_config(persisted, config)) return persisted;
  const std::int64_t m = source.attribute_universe();
  const int batches = static_cast<int>(config.batch_count);
  return std::visit(
      [&](auto& sk) {
        for (int l = 0; l < batches; ++l) {
          const BlockRange rows = distmat::block_range(m, batches, l);
          for (std::int64_t v : source.values_in_range(sample, rows)) {
            sk.add(static_cast<std::uint64_t>(v));
          }
        }
        return sk.wire();
      },
      sketch);
}

LshPlan lsh_candidate_plan(const core::Config& config, double effective_threshold) {
  if (resolved_sketch_estimator(config) != core::Estimator::kMinhash) {
    throw std::invalid_argument(
        "lsh_candidate_plan: banding is defined over the minhash registers");
  }
  const std::int64_t k = config.sketch_size;
  // Register match fraction at the threshold, then the largest feasible
  // band width (see exchange.hpp).
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
  return n >= kLshMinSamples ? core::CandidateMode::kLsh : core::CandidateMode::kAllPairs;
}

namespace {

/// Shared tail of both candidate passes: replicate the union of every
/// rank's kept (i < j) pairs as the candidate mask — 8 bytes per kept
/// pair on the wire, whatever n is — and gather the pruned pairs'
/// non-zero (i < j, est) estimates on rank 0 as ascending packed keys.
/// Each pair is scored by exactly one rank (the ring scores each block
/// once; LSH routes a pair to its lower sample's blob owner and dedupes),
/// which the triplet gather's overlapping-contribution check enforces.
void finish_candidate_pass(bsp::Comm& world, std::int64_t n,
                           std::vector<std::uint64_t> kept,
                           std::vector<distmat::Triplet<double>> pruned,
                           CandidatePass& pass) {
  const std::vector<std::uint64_t> survivors =
      distmat::allreduce_pair_union(world, std::move(kept));
  pass.mask = distmat::CandidateMask(n, std::span<const std::uint64_t>(survivors));
  const auto merged = distmat::gather_triplets_to_root(world, std::move(pruned));
  pass.estimate_keys.reserve(merged.size());
  pass.estimate_values.reserve(merged.size());
  for (const auto& t : merged) {
    pass.estimate_keys.push_back(distmat::CandidateMask::pack_pair(t.row, t.col));
    pass.estimate_values.push_back(t.value);
  }
}

/// Score one triangle of the symmetric pair matrix on the sketch ring
/// (pure-sketch steps 2–3 in exchange.hpp): rotate this rank's wire panel
/// (core::pack_word_panel) ⌊p/2⌋ + 1 steps and score this rank's
/// distmat::ring_share of each block, so each unordered pair is scored
/// exactly once across the ranks, whichever samples each rank holds; with
/// `diagonal`, each blob against itself too. `on_block(owner, rows, cols)`
/// is called once per non-empty share with position ranges in this
/// rank's panel and in `owner`'s, and returns the visitor `(a, b, est)`
/// of its pairs.
template <typename OnBlock>
void score_ring_triangle(bsp::Comm& world, const std::vector<std::uint64_t>& panel,
                         bool diagonal, OnBlock&& on_block) {
  const int p = world.size();
  const int r = world.rank();
  const auto mine = core::unpack_word_panel(panel);
  distmat::ring_rotate<std::uint64_t>(
      world, bsp::tags::kSketchRing, "sketch-ring/step", panel,
      [&](int owner, std::span<const std::uint64_t> held) {
        const auto theirs = core::unpack_word_panel(held);
        const distmat::RingShare share =
            distmat::ring_share(p, r, owner, static_cast<std::int64_t>(mine.size()),
                                static_cast<std::int64_t>(theirs.size()));
        if (share.empty()) return;
        auto visit = on_block(owner, share.rows, share.cols);
        for (std::int64_t a = share.rows.begin; a < share.rows.end; ++a) {
          const std::int64_t first =
              owner == r ? (diagonal ? a : a + 1) : share.cols.begin;
          for (std::int64_t b = first; b < share.cols.end; ++b) {
            visit(a, b,
                  estimate_jaccard_wire(mine[static_cast<std::size_t>(a)],
                                        theirs[static_cast<std::size_t>(b)]));
          }
        }
      });
}

/// The all-pairs candidate pass: score every unordered pair once on the
/// sketch ring. Panel position a of rank q is sample q + a·p (the cyclic
/// layout), so no ids travel.
void all_pairs_candidate_pass(bsp::Comm& world,
                              const std::vector<std::vector<std::uint64_t>>& blobs,
                              std::int64_t n, CandidatePass& pass) {
  const obs::Span stage_span("allpairs-candidates", "sketch",
                             &world.counters());
  const std::int64_t p = world.size();
  const std::int64_t r = world.rank();
  std::vector<distmat::Triplet<double>> pruned;
  std::vector<std::uint64_t> kept;
  score_ring_triangle(
      world, core::pack_word_panel(blobs), /*diagonal=*/false,
      [&](int owner, BlockRange, BlockRange) {
        return [&, owner](std::int64_t a, std::int64_t b, double est) {
          const std::int64_t x = r + a * p;
          const std::int64_t y = owner + b * p;
          const std::int64_t i = std::min(x, y);
          const std::int64_t j = std::max(x, y);
          if (est >= pass.effective_threshold) {
            kept.push_back(distmat::CandidateMask::pack_pair(i, j));
          } else if (est != 0.0) {
            pruned.push_back({i, j, est});
          }
        };
      });
  finish_candidate_pass(world, n, std::move(kept), std::move(pruned), pass);
}

/// The LSH-banded candidate pass: band keys through the alltoall, score
/// only colliding pairs. See the strategy note in exchange.hpp.
void lsh_candidate_pass(bsp::Comm& world,
                        const std::vector<std::vector<std::uint64_t>>& blobs,
                        std::int64_t n, CandidatePass& pass) {
  const int p = world.size();
  const int r = world.rank();
  // The cyclic layout: sample id lives on rank id mod p, at blob id / p.
  const auto owner = [p](std::int64_t id) { return static_cast<int>(id % p); };

  // Phase spans: the pass is straight-line code with locals flowing
  // across phases, so each span is an explicit object closed at the
  // phase boundary instead of a nested block.
  obs::Span phase_band_keys("lsh/band-keys", "lsh", &world.counters());

  // (1) Band keys, one packed word per (sample, band): the bucket hash's
  // high 32 bits form the routing group, the low half carries the sample
  // id. Equal band registers ⇒ equal group, so true collisions always
  // co-locate; cross-band groups that alias in 32 bits only add scored-
  // then-filtered pairs. Routing by group keeps the emitted pair set
  // independent of the rank count.
  std::vector<std::vector<std::uint64_t>> key_blocks(static_cast<std::size_t>(p));
  for (std::size_t s = 0; s < blobs.size(); ++s) {
    const auto id = static_cast<std::uint64_t>(r) + s * static_cast<std::uint64_t>(p);
    for (std::uint64_t bucket :
         oph_wire_band_hashes(blobs[s], pass.plan.bands, pass.plan.rows_per_band)) {
      const std::uint64_t group = bucket >> 32;
      const int dest = static_cast<int>((group * static_cast<std::uint64_t>(p)) >> 32);
      key_blocks[static_cast<std::size_t>(dest)].push_back((group << 32) | id);
    }
  }
  const auto incoming_keys = world.alltoall_v(key_blocks);

  phase_band_keys.close();
  obs::Span phase_buckets("lsh/buckets", "lsh", &world.counters());

  // (2) Bucket grouping: sorting the packed words groups by (group,
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
        pair_blocks[static_cast<std::size_t>(owner(i))].push_back(
            distmat::CandidateMask::pack_pair(i, j));
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

  // (3) Deduplicate (a pair may collide in several bands, possibly via
  // different group owners, or re-arrive via the capped union) and list
  // the partner blobs to fetch.
  std::vector<std::uint64_t> todo;
  for (const auto& block : incoming_pairs) {
    todo.insert(todo.end(), block.begin(), block.end());
  }
  for (std::size_t a = 0; a < capped_union.size(); ++a) {
    const std::int64_t i = capped_union[a];
    if (owner(i) != r) continue;
    for (std::size_t b = a + 1; b < capped_union.size(); ++b) {
      todo.push_back(distmat::CandidateMask::pack_pair(i, capped_union[b]));
    }
  }
  std::sort(todo.begin(), todo.end());
  todo.erase(std::unique(todo.begin(), todo.end()), todo.end());

  std::vector<std::vector<std::int64_t>> requests(static_cast<std::size_t>(p));
  for (std::uint64_t packed : todo) {
    const std::int64_t j = distmat::CandidateMask::unpack_pair(packed).second;
    if (owner(j) != r) requests[static_cast<std::size_t>(owner(j))].push_back(j);
  }
  for (auto& block : requests) {
    std::sort(block.begin(), block.end());
    block.erase(std::unique(block.begin(), block.end()), block.end());
  }

  phase_dedup.close();
  obs::Span phase_fetch("lsh/blob-fetch", "lsh", &world.counters());

  // (4) Blob fetch, request/response over two alltoalls — O(distinct
  // colliding partners · sketch_bytes), the LSH pass's only blob traffic.
  const auto incoming_requests = world.alltoall_v(requests);
  std::vector<std::vector<std::uint64_t>> responses(static_cast<std::size_t>(p));
  for (int q = 0; q < p; ++q) {
    const auto& wanted = incoming_requests[static_cast<std::size_t>(q)];
    if (wanted.empty()) continue;
    std::vector<std::vector<std::uint64_t>> payload;
    payload.reserve(wanted.size());
    for (std::int64_t id : wanted) {
      if (id < 0 || id >= n || owner(id) != r) {
        throw std::invalid_argument("sketch_candidate_pass: blob request misrouted");
      }
      payload.push_back(blobs[static_cast<std::size_t>(id / p)]);
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
    if (owner(id) == r) return blobs[static_cast<std::size_t>(id / p)];
    return fetched[static_cast<std::size_t>(id)];
  };

  phase_fetch.close();
  obs::Span phase_score("lsh/score", "lsh", &world.counters());

  // (5) Score exactly the colliding pairs and threshold them into the
  // local candidate list; a pruned collider keeps its non-zero estimate,
  // which fills the assembled output better than 0.
  std::vector<distmat::Triplet<double>> pruned;
  std::vector<std::uint64_t> kept;
  for (std::uint64_t packed : todo) {
    const auto [i, j] = distmat::CandidateMask::unpack_pair(packed);
    const double est = estimate_jaccard_wire(view_of(i), view_of(j));
    if (est >= pass.effective_threshold) {
      kept.push_back(packed);
    } else if (est != 0.0) {
      pruned.push_back({i, j, est});
    }
  }

  phase_score.close();
  obs::Span phase_finish("lsh/finish", "lsh", &world.counters());

  // (6) Replicate the kept pairs as the mask and gather the pruned
  // estimates; never-collided pairs stay absent and read as 0.0 (they are
  // below the S-curve's collision range).
  finish_candidate_pass(world, n, std::move(kept), std::move(pruned), pass);
}

}  // namespace

CandidatePass sketch_candidate_pass(bsp::Comm& world,
                                    const std::vector<std::vector<std::uint64_t>>& blobs,
                                    std::int64_t n, const core::Config& config) {
  const std::int64_t p = world.size();
  const std::int64_t r = world.rank();
  if (static_cast<std::int64_t>(blobs.size()) != (n - r + p - 1) / p) {
    throw std::invalid_argument(
        "sketch_candidate_pass: need one blob per cyclic sample r, r + p, ...");
  }
  CandidatePass pass;
  pass.effective_threshold =
      std::max(0.0, config.prune_threshold - hybrid_prune_slack(config));
  pass.mode = resolved_candidate_mode(config, n);
  if (pass.mode == core::CandidateMode::kLsh) {
    pass.plan = lsh_candidate_plan(config, pass.effective_threshold);
    lsh_candidate_pass(world, blobs, n, pass);
  } else {
    all_pairs_candidate_pass(world, blobs, n, pass);
  }
  return pass;
}

core::Result sketch_similarity_at_scale(bsp::Comm& world,
                                        const core::SampleSource& source,
                                        const core::Config& config) {
  const std::int64_t n = source.sample_count();
  const int p = world.size();
  const int r = world.rank();

  world.barrier();
  Timer timer;
  core::StageRecorder recorder(world.counters());

  // (1) Sketch the owned samples (block distribution, matching the ring
  // panel layout so arriving panels map onto contiguous output columns),
  // one sample at a time: only the compact wire blobs accumulate. Reading
  // and hashing are one fused loop, so the whole build lands in the
  // pack/sketch stage; samples with a compatible persisted blob are not
  // read at all.
  const BlockRange mine = distmat::block_range(n, p, r);
  std::vector<std::vector<std::uint64_t>> blobs;
  {
    auto stage = recorder.scope(core::Stage::kPackSketch);
    blobs.reserve(static_cast<std::size_t>(mine.size()));
    for (std::int64_t i = mine.begin; i < mine.end; ++i) {
      blobs.push_back(sketch_sample(source, config, i));
    }
  }
  const std::vector<std::uint64_t> panel_words = core::pack_word_panel(blobs);

  // (2)+(3) Score one triangle on the sketch ring; rank 0 mirrors it.
  // Panel positions are offsets into each owner's block of samples. Stage
  // attribution mirrors the exact pipeline: estimation time is the
  // "multiply", rotation bytes are the "exchange".
  std::vector<DenseBlock<double>> computed;
  {
    auto stage = recorder.scope(core::Stage::kMultiply, core::Stage::kExchange);
    score_ring_triangle(
        world, panel_words, /*diagonal=*/true,
        [&](int owner, BlockRange rows, BlockRange cols) {
          const std::int64_t row0 = mine.begin;
          const std::int64_t col0 = distmat::block_range(n, p, owner).begin;
          DenseBlock<double>* block = &computed.emplace_back(
              BlockRange{row0 + rows.begin, row0 + rows.end},
              BlockRange{col0 + cols.begin, col0 + cols.end});
          const bool diagonal_block = owner == r;
          return [=](std::int64_t a, std::int64_t b, double est) {
            block->at_global(row0 + a, col0 + b) = est;
            if (diagonal_block) block->at_global(col0 + b, row0 + a) = est;
          };
        });
  }

  const std::int64_t total_words = world.allreduce_value<std::int64_t>(
      static_cast<std::int64_t>(panel_words.size()), std::plus<std::int64_t>{});
  world.barrier();
  const double seconds = timer.seconds();

  std::vector<double> full;
  {
    auto stage = recorder.scope(core::Stage::kAssemble);
    full = distmat::gather_blocks_to_root(
        world, std::span<const DenseBlock<double>>(computed), n, n, /*mirror=*/true);
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
