#include "core/driver.hpp"

#include <algorithm>
#include <chrono>
#include <fstream>
#include <functional>
#include <iostream>
#include <limits>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <thread>
#include <utility>

#include "bsp/runtime.hpp"
#include "core/checkpoint.hpp"
#include "core/packing.hpp"
#include "obs/json.hpp"
#include "obs/report.hpp"
#include "obs/trace.hpp"
#include "distmat/dist_filter.hpp"
#include "distmat/gather.hpp"
#include "distmat/proc_grid.hpp"
#include "distmat/redistribute.hpp"
#include "distmat/spgemm.hpp"
#include "sketch/exchange.hpp"
#include "util/hashing.hpp"
#include "util/membudget.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

namespace sas::core {

const char* stage_name(Stage stage) {
  switch (stage) {
    case Stage::kIngest:
      return "ingest";
    case Stage::kPackSketch:
      return "pack/sketch";
    case Stage::kExchange:
      return "exchange";
    case Stage::kMultiply:
      return "multiply";
    case Stage::kAssemble:
      return "assemble";
  }
  return "?";
}

PipelineStats StageRecorder::reduce_to_root(bsp::Comm& comm) {
  std::vector<double> seconds(kStageCount);
  std::vector<std::uint64_t> traffic(kStageCount * 3);
  for (std::size_t s = 0; s < kStageCount; ++s) {
    seconds[s] = local_.stages[s].seconds;
    traffic[s * 3 + 0] = local_.stages[s].bytes_sent;
    traffic[s * 3 + 1] = local_.stages[s].bytes_received;
    traffic[s * 3 + 2] = local_.stages[s].messages;
  }
  comm.reduce(seconds, [](double a, double b) { return a > b ? a : b; }, 0);
  comm.reduce(traffic, std::plus<std::uint64_t>{}, 0);
  PipelineStats out;
  for (std::size_t s = 0; s < kStageCount; ++s) {
    out.stages[s].seconds = seconds[s];
    out.stages[s].bytes_sent = traffic[s * 3 + 0];
    out.stages[s].bytes_received = traffic[s * 3 + 1];
    out.stages[s].messages = traffic[s * 3 + 2];
  }
  return out;
}

namespace {

using distmat::BlockRange;
using distmat::DenseBlock;
using distmat::SparseBlock;
using distmat::Triplet;

/// Parallel layout of the batched pipeline. The SUMMA
/// path builds the √(p/c)×√(p/c)×c grid; the others use the flat
/// communicator directly.
struct Layout {
  std::optional<distmat::ProcGrid> grid;
  std::optional<DenseBlock<std::int64_t>> b_block;
  int active_ranks = 0;
  BlockRange my_cols{0, 0};  ///< columns whose â this rank accumulates
};

Layout make_layout(bsp::Comm& world, const Config& config, std::int64_t n) {
  Layout layout;
  const int p = world.size();
  layout.active_ranks = p;
  // Budget the accumulator panel BEFORE allocating it — the single
  // largest long-lived allocation a rank makes. No-op without
  // --mem-budget-mb (util/membudget.hpp).
  const auto charge_panel = [](BlockRange rows, BlockRange cols) {
    util::charge_mem(static_cast<std::uint64_t>(rows.size()) *
                         static_cast<std::uint64_t>(cols.size()) *
                         sizeof(std::int64_t),
                     "accumulator panel");
  };
  switch (config.algorithm) {
    case Algorithm::kSerial:
      layout.active_ranks = 1;
      if (world.rank() == 0) {
        charge_panel({0, n}, {0, n});
        layout.b_block.emplace(BlockRange{0, n}, BlockRange{0, n});
        layout.my_cols = {0, n};
      }
      break;
    case Algorithm::kRing1D:
      charge_panel(distmat::block_range(n, p, world.rank()), {0, n});
      layout.b_block.emplace(distmat::block_range(n, p, world.rank()), BlockRange{0, n});
      layout.my_cols = layout.b_block->row_range;
      break;
    case Algorithm::kSumma:
      layout.grid.emplace(world, config.replication);
      layout.active_ranks = layout.grid->active_ranks();
      if (layout.grid->active()) {
        const distmat::SummaShare share = distmat::summa_share(
            n, layout.grid->side(), layout.grid->grid_row(), layout.grid->grid_col());
        charge_panel(share.rows, share.cols);
        layout.b_block.emplace(share.rows, share.cols);
        layout.my_cols =
            distmat::block_range(n, layout.grid->side(), layout.grid->grid_col());
      }
      break;
  }
  return layout;
}

/// Exchange + multiply stages for one packed batch. With a candidate
/// mask (`prune`, hybrid rescore): the ring schedule is replaced by the
/// mask-targeted alltoall exchange, and the kernels skip fully pruned
/// blocks/tiles everywhere.
void exchange_and_multiply(bsp::Comm& world, Layout& layout, const Config& config,
                           std::int64_t n, PackedBatch packed,
                           std::vector<std::int64_t>& ahat, StageRecorder& recorder,
                           const distmat::CandidateMask* prune) {
  const std::int64_t h = packed.word_rows;

  // Kernel tuning shared by all schedules: CSR panels are built once
  // per batch (not re-derived per ring step / SUMMA stage).
  distmat::CsrAtaOptions kernel_options;
  kernel_options.dense_crossover = config.dense_crossover;
  kernel_options.prune = prune;

  switch (config.algorithm) {
    case Algorithm::kSerial: {
      SparseBlock block;
      {
        auto stage = recorder.scope(Stage::kExchange);
        block = distmat::redistribute_panel(
            world, std::move(packed.triplets), [](std::int64_t, std::int64_t) { return 0; },
            {{0, h}, {0, n}});
      }
      if (world.rank() == 0) {
        auto stage = recorder.scope(Stage::kMultiply);
        const distmat::CsrPanel panel = distmat::CsrPanel::from_block(block);
        distmat::csr_popcount_syrk_accumulate(panel, 0, 0, *layout.b_block,
                                              &world.counters(), kernel_options);
        distmat::accumulate_column_popcounts(block, 0, ahat);
      }
      break;
    }
    case Algorithm::kRing1D: {
      SparseBlock panel;
      {
        // read_batch read this panel's columns: localize them; rows stay global.
        auto stage = recorder.scope(Stage::kExchange);
        for (Triplet<std::uint64_t>& t : packed.triplets) t.col -= layout.my_cols.begin;
        panel = SparseBlock::from_triplets(h, layout.my_cols.size(), std::move(packed.triplets));
      }
      {
        // Multiply time; the only bytes inside are panel movement hops.
        auto stage = recorder.scope(Stage::kMultiply, Stage::kExchange);
        if (prune != nullptr) {
          distmat::targeted_ata_accumulate(world, n, panel, *prune, *layout.b_block,
                                           kernel_options);
        } else {
          distmat::ring_ata_accumulate(world, n, panel, *layout.b_block, kernel_options);
        }
        distmat::accumulate_column_popcounts(panel, layout.my_cols.begin, ahat);
      }
      break;
    }
    case Algorithm::kSumma: {
      const int s = layout.grid->side();
      const int c = layout.grid->layers();
      // Word-row chunk q = ℓ·s + i of this rank; inactive ranks own no
      // block and receive nothing.
      BlockRange chunk;
      if (layout.grid->active()) {
        chunk = distmat::block_range(h, s * c, layout.grid->layer() * s + layout.grid->grid_row());
      }
      SparseBlock block;
      {
        auto stage = recorder.scope(Stage::kExchange);
        block = distmat::redistribute_panel(
            world, std::move(packed.triplets),
            [&](std::int64_t w, std::int64_t col) {
              const int q = distmat::block_owner(h, s * c, w);
              const int j = distmat::block_owner(n, s, col);
              return layout.grid->world_rank_of(q / s, q % s, j);
            },
            {chunk, layout.my_cols});
      }
      if (layout.grid->active()) {
        auto stage = recorder.scope(Stage::kMultiply, Stage::kExchange);
        distmat::summa_ata_accumulate(*layout.grid, n, block, *layout.b_block,
                                      kernel_options);
        distmat::accumulate_column_popcounts(block, layout.my_cols.begin, ahat);
      }
      break;
    }
  }
}

/// The blocks of B this rank ships. Every schedule multiplies each
/// unordered pair once, so the blocks of all ranks hold one triangle of
/// the symmetric product: the serial rank's whole (diagonal) block,
/// SUMMA's whole block (its distmat::summa_share), or the ring's
/// distmat::ring_share of each block (r, owner).
std::vector<distmat::GatherBlock<std::int64_t>> output_blocks(const bsp::Comm& world,
                                                              const Layout& layout,
                                                              const Config& config,
                                                              std::int64_t n) {
  const DenseBlock<std::int64_t>& b = *layout.b_block;
  if (config.algorithm != Algorithm::kRing1D) return {distmat::GatherBlock(b)};
  const int p = world.size();
  std::vector<distmat::GatherBlock<std::int64_t>> blocks;
  for (int owner = 0; owner < p; ++owner) {
    const BlockRange cols = distmat::block_range(n, p, owner);
    const distmat::RingShare share =
        distmat::ring_share(p, world.rank(), owner, b.row_range.size(), cols.size());
    if (share.empty()) continue;
    blocks.emplace_back(
        b, BlockRange{b.row_range.begin + share.rows.begin, b.row_range.begin + share.rows.end},
        BlockRange{cols.begin + share.cols.begin, cols.begin + share.cols.end});
  }
  return blocks;
}

/// Assemble stage: â allreduce, then one of two output paths over this
/// rank's output blocks. Both finalize a cell with the one expression
/// sᵢⱼ = bᵢⱼ / (âᵢ + âⱼ − bᵢⱼ), and J(∅, ∅) = 1 where the union is empty
/// (paper §II-A).
///
/// Dense (no mask: kExact): each owning rank ships its blocks' integer
/// counts bᵢⱼ straight from its B panel, zero-run coded, a diagonal
/// block as its upper triangle (distmat::gather_blocks_to_root), and
/// rank 0 finalizes every cell as it decodes it and mirrors it, since the
/// blocks cover one triangle (S(j, i) equals S(i, j) bitwise: B, â and
/// the union are integers). No rank builds a block of doubles; rank 0
/// holds the n² output and the coded counts.
///
/// Sparse (a candidate mask: kHybrid): each owning rank walks its blocks
/// against the mask (for_each_pair_in, i < j so disjoint blocks emit
/// disjoint pairs; a ring block below the diagonal is walked as its
/// transpose and reads B(j, i)), finalizes ONLY those cells, and ships
/// survivor triplets; rank 0 assembles a SparseSimilarity from them and
/// moves in the candidate pass's pruned estimates, already in its
/// packed-key form. Rank 0 never holds an n² structure.
Result assemble(bsp::Comm& world, Layout& layout, const Config& config, std::int64_t n,
                std::vector<std::int64_t>& ahat, std::vector<BatchStats> stats,
                StageRecorder& recorder, sketch::CandidatePass* candidates) {
  const distmat::CandidateMask* const mask = candidates ? &candidates->mask : nullptr;
  const bool owns_output =
      layout.b_block.has_value() &&
      (config.algorithm != Algorithm::kSumma || layout.grid->layer() == 0);

  std::vector<double> full;
  std::vector<Triplet<double>> survivors;
  {
    auto stage = recorder.scope(Stage::kAssemble);
    // Union cardinalities need â = Σ column popcounts over all batches;
    // the local accumulators cover disjoint blocks, so a sum-allreduce is
    // exact.
    world.allreduce(ahat, std::plus<std::int64_t>{});

    const auto finalize_cell = [&](std::int64_t gi, std::int64_t gj,
                                   std::int64_t inter) {
      const std::int64_t uni = ahat[static_cast<std::size_t>(gi)] +
                               ahat[static_cast<std::size_t>(gj)] - inter;
      return uni == 0 ? 1.0
                      : static_cast<double>(inter) / static_cast<double>(uni);
    };
    // With SUMMA replication only layer 0 holds the reduced B.
    const std::vector<distmat::GatherBlock<std::int64_t>> blocks =
        owns_output ? output_blocks(world, layout, config, n)
                    : std::vector<distmat::GatherBlock<std::int64_t>>{};

    if (mask != nullptr) {
      std::vector<Triplet<double>> mine;
      for (const distmat::GatherBlock<std::int64_t>& block : blocks) {
        const DenseBlock<std::int64_t>& b = *block.source;
        if (block.cols.end <= block.rows.begin) {
          mask->for_each_pair_in(block.cols, block.rows,
                                 [&](std::int64_t i, std::int64_t j) {
                                   mine.push_back(
                                       {i, j, finalize_cell(i, j, b.at_global(j, i))});
                                 });
        } else {
          mask->for_each_pair_in(block.rows, block.cols,
                                 [&](std::int64_t i, std::int64_t j) {
                                   mine.push_back(
                                       {i, j, finalize_cell(i, j, b.at_global(i, j))});
                                 });
        }
      }
      survivors = distmat::gather_triplets_to_root(world, std::move(mine), n);
    } else {
      full = distmat::gather_blocks_to_root(
          world, std::span<const distmat::GatherBlock<std::int64_t>>(blocks), n, finalize_cell);
    }
  }

  Result result;
  result.n = n;
  result.active_ranks = layout.active_ranks;
  result.stages = recorder.reduce_to_root(world);
  if (world.rank() == 0) {
    if (mask != nullptr) {
      std::vector<std::uint64_t> survivor_keys;
      std::vector<double> survivor_values;
      survivor_keys.reserve(survivors.size());
      survivor_values.reserve(survivors.size());
      for (const Triplet<double>& t : survivors) {
        survivor_keys.push_back(SparseSimilarity::pack_pair(t.row, t.col));
        survivor_values.push_back(t.value);
      }
      result.sparse_similarity = SparseSimilarity(
          n, std::move(survivor_keys), std::move(survivor_values),
          std::move(candidates->estimate_keys), std::move(candidates->estimate_values),
          ahat);
    } else {
      result.similarity = SimilarityMatrix(n, std::move(full));
    }
    result.batches = std::move(stats);
  }
  return result;
}

/// Checkpoint state of one batched pipeline run (checkpoint.hpp).
struct CheckpointState {
  std::optional<Checkpoint> ckpt;
  std::int64_t start_batch = 0;       ///< first batch still to run
  std::vector<BatchStats> stats;      ///< restored stats (rank 0)
};

/// Open (and on --resume restore from) the checkpoint directory. The
/// completed-batch count comes from rank 0's manifest and is broadcast
/// so every rank restores and skips consistently; each rank then loads
/// its own B block and â vector.
CheckpointState init_checkpoint(bsp::Comm& world, Layout& layout, const Config& config,
                                std::int64_t n, std::int64_t m,
                                std::vector<std::int64_t>& ahat) {
  CheckpointState cs;
  if (config.checkpoint_dir.empty()) return cs;
  const std::uint64_t fingerprint =
      checkpoint_fingerprint(config, n, m, world.size());
  cs.ckpt.emplace(config.checkpoint_dir, fingerprint);
  if (!config.resume) return cs;

  std::int64_t completed = 0;
  CheckpointManifest manifest;
  if (world.rank() == 0) {
    if (auto loaded = cs.ckpt->load_manifest()) {
      manifest = std::move(*loaded);
      completed = manifest.completed;
    }
  }
  completed = world.broadcast_value<std::int64_t>(completed, 0);
  if (completed <= 0) return cs;  // nothing durable yet: run from scratch

  distmat::DenseBlock<std::int64_t>* block =
      layout.b_block.has_value() ? &*layout.b_block : nullptr;
  cs.ckpt->load_rank(world.rank(), completed, block, ahat);
  cs.start_batch = completed;
  cs.stats = std::move(manifest.stats);
  return cs;
}

/// Persist batch `completed`'s state: every rank saves its versioned
/// b<completed> file, a min-vote allreduce proves them all durable (and
/// doubles as the barrier the protocol needs), rank 0 commits the
/// manifest, a broadcast of the vote proves THAT durable, and only then
/// is the obsolete b<completed-1> state deleted. A kill at any point
/// leaves the manifest pointing at a fully durable set of rank files.
///
/// Returns false when any rank's save hit the disk-full family
/// (error::ResourceExhausted): the run goes on, but the caller must stop
/// checkpointing — a half-saved batch set is never referenced by a
/// manifest, so the last fully committed checkpoint stays valid. Any
/// other save failure still throws (it is a config/permission bug, not a
/// capacity condition).
[[nodiscard]] bool checkpoint_batch(bsp::Comm& world, const Checkpoint& ckpt,
                                    const Layout& layout, std::int64_t completed,
                                    const std::vector<std::int64_t>& ahat,
                                    const std::vector<BatchStats>& stats) {
  const obs::Span span("checkpoint", "checkpoint", &world.counters());
  const distmat::DenseBlock<std::int64_t>* block =
      layout.b_block.has_value() ? &*layout.b_block : nullptr;
  int ok = 1;
  try {
    ckpt.save_rank(world.rank(), completed, block,
                   std::span<const std::int64_t>(ahat));
  } catch (const error::ResourceExhausted& e) {
    std::cerr << "checkpoint: rank " << world.rank() << ": " << e.what() << "\n";
    ok = 0;
  }
  ok = world.allreduce_value<int>(ok, [](int a, int b) { return a < b ? a : b; });
  if (ok == 1 && world.rank() == 0) {
    try {
      ckpt.save_manifest({completed, stats});
    } catch (const error::ResourceExhausted& e) {
      std::cerr << "checkpoint: rank 0: " << e.what() << "\n";
      ok = 0;
    }
  }
  ok = world.broadcast_value<int>(ok, 0);
  if (ok == 0) {
    if (world.rank() == 0) {
      std::cerr << "checkpoint: disk full — checkpointing disabled for the rest "
                   "of the run (the last committed checkpoint stays valid)\n";
    }
    return false;
  }
  ckpt.remove_rank(world.rank(), completed - 1);
  return true;
}

// ---- in-run recovery (ROADMAP "Failure semantics") ---------------------

/// Per-rank recovery configuration + bookkeeping for one pipeline run.
/// The verdicts driving `retries`/`quarantined` come out of the shared
/// rendezvous, so every rank accumulates identical records; rank 0's
/// reach the Result.
struct RecoveryState {
  bool armed = false;            ///< any recovery feature on?
  std::uint64_t max_retries = 0;
  std::int64_t backoff_ms = 0;
  bool quarantine = false;
  std::int64_t retries = 0;
  std::vector<QuarantinedBatch> quarantined;
};

RecoveryState make_recovery_state(const Config& config) {
  RecoveryState rs;
  rs.armed = config.max_retries > 0 || config.quarantine;
  rs.max_retries = config.max_retries > 0
                       ? static_cast<std::uint64_t>(config.max_retries)
                       : 0;
  rs.backoff_ms = config.retry_backoff_ms;
  rs.quarantine = config.quarantine;
  return rs;
}

/// Deterministic exponential backoff before replay `attempt` (1-based):
/// base · 2^(attempt−1), scaled by a seeded jitter in [1.0, 1.5) keyed
/// on (batch, attempt, rank) — reproducible across runs, decorrelated
/// across ranks so replays do not stampede in lockstep.
std::chrono::milliseconds retry_backoff(std::int64_t base_ms, std::int64_t batch,
                                        std::uint64_t attempt, int rank) {
  if (base_ms <= 0) return std::chrono::milliseconds{0};
  const std::uint64_t shift = attempt > 6 ? 6 : attempt - 1;  // cap at 64×base
  Rng rng(hash_combine(
      hash_combine(hash_combine(hash_bytes("sas-retry-jitter"),
                                static_cast<std::uint64_t>(batch)),
                   attempt),
      static_cast<std::uint64_t>(rank)));
  const double jitter = 1.0 + 0.5 * rng.uniform_real();
  const double ms = static_cast<double>(base_ms << shift) * jitter;
  return std::chrono::milliseconds(static_cast<std::int64_t>(ms));
}

/// Run one batch body under the recovery contract. Disarmed (`rs.armed`
/// false — the default config) this is exactly `body()`: zero behavioral
/// change. Armed:
///
///   1. Snapshot the rank's accumulator state (B block + â) in memory
///      and mark the stats vector, so a failed attempt can roll back to
///      the batch boundary bitwise.
///   2. Run the body. A local throw trips the abort token (annotated) so
///      peers unwind; a RankAborted means a peer failed first.
///   3. All ranks meet at the recovery rendezvous, which produces one
///      shared verdict. retry → roll back, back off (exponential +
///      seeded jitter), replay. Healable-but-spent under quarantine →
///      roll back, record the batch as quarantined, continue with the
///      next batch. Otherwise → rethrow: the local failer rethrows its
///      raw exception (Runtime annotates it once, same as today), peers
///      throw RankAborted (Runtime swallows those and reports the
///      token's cause) — byte-identical failure reporting to the
///      disarmed path.
///
/// Returns true when the batch completed (possibly after replays), false
/// when it was quarantined.
bool run_batch_with_recovery(bsp::Comm& world, RecoveryState& rs, Layout& layout,
                             std::int64_t batch, BlockRange rows,
                             std::vector<std::int64_t>& ahat,
                             std::vector<BatchStats>& stats,
                             const std::function<void()>& body) {
  if (!rs.armed) {
    body();
    return true;
  }

  BatchSnapshot snapshot;
  {
    const distmat::DenseBlock<std::int64_t>* block =
        layout.b_block.has_value() ? &*layout.b_block : nullptr;
    snapshot.capture(batch, block, ahat);
  }
  const std::size_t stats_mark = stats.size();
  const auto rollback = [&] {
    distmat::DenseBlock<std::int64_t>* block =
        layout.b_block.has_value() ? &*layout.b_block : nullptr;
    snapshot.restore(batch, block, ahat);
    stats.resize(stats_mark);
  };

  for (std::uint64_t attempt = 0;; ++attempt) {
    std::exception_ptr raw;  // THIS rank's failure, un-annotated
    try {
      body();
      return true;
    } catch (const bsp::RankAborted&) {
      // A peer failed first; the token carries its annotated cause.
    } catch (...) {
      raw = std::current_exception();
      world.abort_with(error::annotate_rank_error(raw, world.rank()));
    }

    const bsp::RecoveryOutcome verdict =
        world.recover(batch, attempt, rs.max_retries, rs.quarantine);

    if (verdict.retry) {
      const obs::Span span("retry", "recovery", &world.counters());
      rollback();
      ++rs.retries;
      const std::chrono::milliseconds backoff =
          retry_backoff(rs.backoff_ms, batch, attempt + 1, world.rank());
      if (obs::RankObserver* o = obs::current()) {
        o->add_counter("recovery.retries", 1);
        o->add_counter("recovery.backoff_ms",
                       static_cast<std::uint64_t>(backoff.count()));
      }
      if (backoff.count() > 0) {
        const obs::Span backoff_span("backoff", "recovery", &world.counters());
        std::this_thread::sleep_for(backoff);
      }
      continue;
    }

    if (rs.quarantine && verdict.healable) {
      const obs::Span span("quarantine", "recovery", &world.counters());
      rollback();
      QuarantinedBatch q;
      q.batch = batch;
      q.row_begin = rows.begin;
      q.row_end = rows.end;
      q.attempts = static_cast<std::int64_t>(attempt) + 1;
      q.reason = verdict.message;
      rs.quarantined.push_back(std::move(q));
      if (obs::RankObserver* o = obs::current()) {
        o->add_counter("recovery.quarantined", 1);
      }
      return false;
    }

    // Unhealable (defections / batch disagreement) or recovery declined:
    // reproduce the disarmed failure path exactly.
    if (raw != nullptr) std::rethrow_exception(raw);
    if (verdict.cause != nullptr && world.rank() == verdict.source_rank) {
      // p=1 edge: the failure tripped the token on this rank without a
      // local catch (cannot happen — local throws set `raw` — but kept
      // for safety).
      std::rethrow_exception(verdict.cause);
    }
    throw bsp::RankAborted();
  }
}

/// Per-batch instrumentation of the batched pipeline: the
/// paper times barrier-to-barrier batches; traffic is the allreduced
/// delta of the bsp byte counters across the batch. The closing barrier
/// comes FIRST and the clock is read right after it, so the reported
/// wall time covers exactly the batch work — not the stats allreduce
/// bookkeeping that follows.
void record_batch(bsp::Comm& world, const Timer& timer, std::int64_t filtered_rows,
                  std::int64_t word_rows, std::int64_t local_nnz,
                  const bsp::CostCounters& at_batch_start,
                  std::vector<BatchStats>& stats) {
  world.barrier();
  const double batch_seconds = timer.seconds();
  std::vector<std::int64_t> totals = {
      local_nnz,
      static_cast<std::int64_t>(world.counters().bytes_sent - at_batch_start.bytes_sent),
      static_cast<std::int64_t>(world.counters().bytes_received -
                                at_batch_start.bytes_received)};
  world.allreduce(totals, std::plus<std::int64_t>{});
  if (world.rank() == 0) {
    BatchStats bs;
    bs.seconds = batch_seconds;
    bs.filtered_rows = filtered_rows;
    bs.word_rows = word_rows;
    bs.packed_nnz = totals[0];
    // The allreduce moves int64 (signed sums are what the reduce op
    // combines); the stored counters are uint64 like every other byte
    // counter, and deltas of monotonic counters are never negative.
    bs.bytes_sent = static_cast<std::uint64_t>(totals[1]);
    bs.bytes_received = static_cast<std::uint64_t>(totals[2]);
    stats.push_back(bs);
  }
}

/// The hybrid's prologue (sketch-prune), run before the batch loop: each
/// rank sketches its block of samples (sketch::sketch_block), then the
/// candidate pass thresholds all pairs into the replicated
/// candidate mask (Ĵ ≥ prune_threshold − slack). The batch loop reads
/// the inputs again, only for the samples the mask keeps. Sketching and
/// scoring are sketch work; the candidate traffic is exchange.
sketch::CandidatePass sketch_prune(bsp::Comm& world, const SampleSource& source,
                                   const Config& config, StageRecorder& recorder) {
  auto stage = recorder.scope(Stage::kPackSketch, Stage::kExchange);
  return sketch::sketch_candidate_pass(world, sketch::sketch_block(world, source, config),
                                       source.sample_count(), config);
}

/// The batched pipeline (paper Listings 1–2) behind kExact and kHybrid:
/// per batch ingest → pack → exchange → multiply, then assemble. The
/// hybrid is the same loop with a candidate mask computed up front by
/// sketch_prune: samples with no surviving pair are never read, the ring
/// schedule becomes the mask-targeted alltoall, and the kernels tile-skip
/// pruned pairs. Surviving pairs come out bitwise-identical to kExact
/// (their columns keep every entry and â is exact on active columns).
Result run_batched_pipeline(bsp::Comm& world, const SampleSource& source,
                            const Config& config) {
  const std::int64_t n = source.sample_count();
  const std::int64_t m = source.attribute_universe();
  Layout layout = make_layout(world, config, n);
  StageRecorder recorder(world.counters());

  std::optional<sketch::CandidatePass> candidates;
  if (config.estimator == Estimator::kHybrid) {
    candidates = sketch_prune(world, source, config, recorder);
  }
  const distmat::CandidateMask* const mask = candidates ? &candidates->mask : nullptr;
  const std::vector<std::uint8_t> active =
      mask != nullptr ? mask->active_columns() : std::vector<std::uint8_t>{};

  // On --resume the hybrid prologue above reran (it is deterministic and
  // cheap relative to the rescore); only completed batches are skipped,
  // their accumulator state restored from the checkpoint.
  std::vector<std::int64_t> ahat(static_cast<std::size_t>(n), 0);
  CheckpointState cs = init_checkpoint(world, layout, config, n, m, ahat);
  std::vector<BatchStats> stats = std::move(cs.stats);
  RecoveryState rs = make_recovery_state(config);

  const int batches = static_cast<int>(config.batch_count);
  for (int l = 0; l < batches; ++l) {
    if (l < cs.start_batch) continue;  // restored from the checkpoint
    const BlockRange rows = distmat::block_range(m, batches, l);
    // The recovery wrapper replays the WHOLE body — opening barrier,
    // counter snapshot, timer, stage scopes — so a replayed batch's
    // BatchStats bytes are identical to a fault-free run's.
    run_batch_with_recovery(world, rs, layout, l, rows, ahat, stats, [&] {
      const error::Context batch_context("batch " + std::to_string(l));
      const obs::BatchScope batch_scope(l);
      world.barrier();
      const bsp::CostCounters batch_start = world.counters();
      Timer timer;

      // Mask-first ingest: samples with no surviving pair are never read,
      // so the zero-row filter and the triplet build never see them — a
      // column the candidate pass pruned costs zero pack work and zero
      // filter bytes. Their â stays 0, their diagonal falls back to
      // the J(∅, ∅) = 1 convention, and off-diagonal entries are filled
      // from the sketch estimates. Rows observed only in pruned samples
      // leave the filter too; they contributed only to pruned pairs, so
      // surviving pairs are unchanged.
      BatchReads reads;
      {
        auto stage = recorder.scope(Stage::kIngest);
        reads = read_batch(world.rank(), world.size(), source, rows, active);
      }
      PackedBatch packed;
      {
        auto stage = recorder.scope(Stage::kPackSketch);
        packed = pack_batch(world, reads, rows, config.bit_width,
                            config.use_zero_row_filter, config.compress_filter);
      }
      // Budget the packed batch for the exchange/multiply it feeds
      // (released at body end; no-op without --mem-budget-mb).
      const util::ScopedCharge packed_charge(
          packed.triplets.size() * sizeof(Triplet<std::uint64_t>),
          "packed batch triplets");
      const auto local_nnz = static_cast<std::int64_t>(packed.triplets.size());
      const std::int64_t filtered_rows = packed.filtered_rows;
      const std::int64_t word_rows = packed.word_rows;

      exchange_and_multiply(world, layout, config, n, std::move(packed), ahat,
                            recorder, mask);
      record_batch(world, timer, filtered_rows, word_rows, local_nnz, batch_start,
                   stats);
      if (cs.ckpt.has_value() &&
          !checkpoint_batch(world, *cs.ckpt, layout, l + 1, ahat, stats)) {
        cs.ckpt.reset();  // disk full: finish in-memory, keep the last good set
      }
    });
  }

  Result result = assemble(world, layout, config, n, ahat, std::move(stats), recorder,
                           candidates ? &*candidates : nullptr);
  if (world.rank() == 0) {
    result.retries = rs.retries;
    result.quarantined = std::move(rs.quarantined);
  }
  return result;
}

/// Does `estimator` run on the batched pipeline (and so get the
/// checkpoint and recovery contract)?
bool batched_estimator(Estimator estimator) {
  return estimator == Estimator::kExact || estimator == Estimator::kHybrid;
}

/// Caller-error validation of a run over `nranks` ranks, shared by both
/// entry points. The threaded entry runs it BEFORE spawning ranks so a
/// bad config surfaces as the plain error::ConfigError it is, not as an
/// annotated rank failure.
void validate_config(const SampleSource& source, const Config& config, int nranks) {
  const std::int64_t m = source.attribute_universe();
  if (nranks < 1) {
    throw error::ConfigError("similarity_at_scale: ranks must be >= 1");
  }
  if (config.batch_count < 1) {
    throw error::ConfigError("similarity_at_scale: batch_count must be >= 1");
  }
  if (config.batch_count > m && m > 0) {
    throw error::ConfigError("similarity_at_scale: more batches than matrix rows");
  }
  // Batch indices are ints (distmat::block_range), whatever m allows.
  if (config.batch_count > std::numeric_limits<int>::max()) {
    throw error::ConfigError("similarity_at_scale: batch_count must be <= " +
                             std::to_string(std::numeric_limits<int>::max()));
  }
  if (config.bit_width < 1 || config.bit_width > 64) {
    throw error::ConfigError("similarity_at_scale: bit_width must be in [1, 64]");
  }
  if (config.replication < 1) {
    throw error::ConfigError("similarity_at_scale: replication must be >= 1");
  }
  // Only the batched SUMMA path builds the c-layer grid; the ring and the
  // sketch pipelines ignore replication.
  if (batched_estimator(config.estimator) && config.algorithm == Algorithm::kSumma &&
      nranks < config.replication) {
    throw error::ConfigError("similarity_at_scale: SUMMA replication " +
                             std::to_string(config.replication) + " needs at least " +
                             std::to_string(config.replication) + " ranks, got " +
                             std::to_string(nranks));
  }
  if (config.resume && config.checkpoint_dir.empty()) {
    throw error::ConfigError("similarity_at_scale: --resume needs a checkpoint dir");
  }
  if (config.max_retries < 0) {
    throw error::ConfigError("similarity_at_scale: max_retries must be >= 0");
  }
  // retry_backoff scales the base by up to 2⁶ · 1.5, which must fit int64.
  if (config.retry_backoff_ms < 0 ||
      config.retry_backoff_ms > (std::numeric_limits<std::int64_t>::max() >> 7)) {
    throw error::ConfigError(
        "similarity_at_scale: retry_backoff_ms must be in [0, 2^56 - 1]");
  }
  if (config.mem_budget_mb < 0) {
    throw error::ConfigError("similarity_at_scale: mem_budget_mb must be >= 0");
  }
  if ((config.max_retries > 0 || config.quarantine) &&
      !batched_estimator(config.estimator)) {
    throw error::ConfigError(
        "similarity_at_scale: in-run recovery (--max-retries/--quarantine) "
        "requires a batched pipeline (estimator exact or hybrid)");
  }
  if (!config.quarantine_manifest.empty() && !config.quarantine) {
    throw error::ConfigError(
        "similarity_at_scale: --quarantine-manifest needs --quarantine");
  }
  if (!config.checkpoint_dir.empty() && !batched_estimator(config.estimator)) {
    throw error::ConfigError(
        "similarity_at_scale: checkpointing requires a batched pipeline "
        "(estimator exact or hybrid)");
  }
  if (config.estimator != Estimator::kExact) {
    sketch::validate_sketch_params(config);
  }
  if (config.estimator == Estimator::kHybrid) {
    // Negated range test, so that a NaN threshold fails it too.
    if (!(config.prune_threshold >= 0.0 && config.prune_threshold <= 1.0)) {
      throw error::ConfigError("similarity_at_scale: prune_threshold must be in [0, 1]");
    }
  }
}

const char* estimator_name(Estimator e) {
  switch (e) {
    case Estimator::kExact:
      return "exact";
    case Estimator::kMinhash:
      return "minhash";
    case Estimator::kBottomK:
      return "bottomk";
    case Estimator::kHybrid:
      return "hybrid";
  }
  return "?";
}

const char* algorithm_name(Algorithm a) {
  switch (a) {
    case Algorithm::kSerial:
      return "serial";
    case Algorithm::kRing1D:
      return "ring";
    case Algorithm::kSumma:
      return "summa";
  }
  return "?";
}

/// Write the quarantine manifest (`gas dist --quarantine-manifest`):
/// schema sas-quarantine-v1, one row per abandoned batch with its
/// attribute row range, attempts consumed, and the abandoning failure's
/// message. Written by rank 0 after assembly, degraded runs only.
void write_quarantine_manifest(const std::string& path, const Config& config,
                               std::int64_t n, const Result& result) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) throw error::ConfigError("cannot write quarantine manifest: " + path);
  obs::JsonWriter w(out);
  w.begin_object();
  w.field("schema", "sas-quarantine-v1");
  w.field("samples", n);
  w.field("batch_count", config.batch_count);
  w.field("quarantined_batches",
          static_cast<std::int64_t>(result.quarantined.size()));
  w.field("retries", result.retries);
  w.key("batches");
  w.begin_array();
  for (const QuarantinedBatch& q : result.quarantined) {
    w.begin_object();
    w.field("batch", q.batch);
    w.field("row_begin", q.row_begin);
    w.field("row_end", q.row_end);
    w.field("attempts", q.attempts);
    w.field("reason", q.reason);
    w.end_object();
  }
  w.end_array();
  w.end_object();
  out << '\n';
  out.flush();
  if (!out) {
    throw error::ConfigError("failed writing quarantine manifest: " + path);
  }
}

/// Flush the run's observability artifacts (config.trace_out /
/// config.report_json). `result` is null on the postmortem path — the
/// report then carries the abort note but no stage/batch tables (they
/// live on rank 0, which died).
void write_observability_artifacts(const Config& config, const SampleSource& source,
                                   int nranks, const obs::Observer& observer,
                                   const Result* result,
                                   std::span<const bsp::CostCounters> counters) {
  if (!config.trace_out.empty()) {
    observer.write_chrome_trace_file(config.trace_out);
  }
  if (config.report_json.empty()) return;
  obs::ReportInput input;
  input.ranks = nranks;
  input.samples = source.sample_count();
  input.estimator = estimator_name(config.estimator);
  input.algorithm = algorithm_name(config.algorithm);
  if (result != nullptr) {
    for (std::size_t s = 0; s < kStageCount; ++s) {
      const StageStats& st = result->stages.stages[s];
      input.stages.push_back({stage_name(static_cast<Stage>(s)), st.seconds,
                              st.bytes_sent, st.bytes_received, st.messages});
    }
    for (std::size_t b = 0; b < result->batches.size(); ++b) {
      const BatchStats& bs = result->batches[b];
      input.batches.push_back({static_cast<int>(b), bs.seconds, bs.packed_nnz,
                               bs.bytes_sent, bs.bytes_received});
    }
    input.retries = result->retries;
    for (const QuarantinedBatch& q : result->quarantined) {
      input.quarantined.push_back(
          {q.batch, q.row_begin, q.row_end, q.attempts, q.reason});
    }
  }
  input.counters.assign(counters.begin(), counters.end());
  input.observer = &observer;
  input.abort_message = observer.abort_message();
  input.blocked_sites = observer.blocked_sites_at_abort();
  obs::write_report_json_file(config.report_json, input);
}

}  // namespace

Result similarity_at_scale(bsp::Comm& world, const SampleSource& source,
                           const Config& config) {
  validate_config(source, config, world.size());

  // Per-rank memory-budget guardrail: installed for the pipeline body on
  // this rank's thread, so the driver's large allocations fail as typed
  // error::ResourceExhausted instead of OOM kills. No-op at budget 0.
  std::optional<util::ScopedBudget> budget;
  if (config.mem_budget_mb > 0) {
    budget.emplace(static_cast<std::uint64_t>(config.mem_budget_mb) * 1024 * 1024);
  }

  // Pure sketch estimators swap the SpGEMM pipeline for the sketch-
  // exchange ring (fixed-size panels, documented error bounds — see
  // sketch/sketch.hpp for the tradeoff guide).
  Result result = batched_estimator(config.estimator)
                      ? run_batched_pipeline(world, source, config)
                      : sketch::sketch_similarity_at_scale(world, source, config);
  if (world.rank() == 0 && result.degraded() && !config.quarantine_manifest.empty()) {
    write_quarantine_manifest(config.quarantine_manifest, config,
                              source.sample_count(), result);
  }
  if (budget.has_value()) {
    if (obs::RankObserver* o = obs::current()) {
      o->add_counter("membudget.high_water_bytes", budget->budget().high_water());
    }
  }
  return result;
}

Result similarity_at_scale_threaded(int nranks, const SampleSource& source,
                                    const Config& config,
                                    std::vector<bsp::CostCounters>* counters_out,
                                    obs::Observer* observer) {
  validate_config(source, config, nranks);
  // Observability: use the caller's observer when given (benches own
  // theirs to inspect drift); otherwise create one only if the config
  // requests an artifact, so runs with neither flag pay nothing.
  std::unique_ptr<obs::Observer> owned_observer;
  if (observer == nullptr &&
      (!config.trace_out.empty() || !config.report_json.empty())) {
    owned_observer = std::make_unique<obs::Observer>(nranks);
    observer = owned_observer.get();
  }
  Result result;
  std::mutex result_mutex;
  bsp::RuntimeOptions options;
  options.watchdog = std::chrono::milliseconds(config.watchdog_ms);
  options.observer = observer;
  options.verify_protocol = config.verify_protocol;
  if (!config.fault_plan.empty()) {
    options.fault_plan =
        std::make_shared<const bsp::FaultPlan>(bsp::FaultPlan::parse(config.fault_plan));
  }
  std::vector<bsp::CostCounters> counters;
  try {
    counters = bsp::Runtime::run(
        nranks,
        [&](bsp::Comm& comm) {
          Result local = similarity_at_scale(comm, source, config);
          if (comm.rank() == 0) {
            std::lock_guard<std::mutex> lock(result_mutex);
            result = std::move(local);
          }
        },
        options);
  } catch (...) {
    // Postmortem flush: a failed run still leaves its trace + report
    // (status "aborted", blocked-site snapshot attached). Best-effort —
    // a write failure here must not mask the run's actual error.
    if (observer != nullptr) {
      try {
        write_observability_artifacts(config, source, nranks, *observer, nullptr,
                                      {});
      } catch (...) {  // sas-lint: allow(R7 best-effort flush: a write failure must not mask the run's error)
      }
    }
    throw;
  }
  if (observer != nullptr) {
    write_observability_artifacts(config, source, nranks, *observer, &result,
                                  counters);
  }
  if (counters_out != nullptr) *counters_out = std::move(counters);
  return result;
}

}  // namespace sas::core
