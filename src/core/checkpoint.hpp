// checkpoint.hpp — per-batch checkpoint/restart of the staged driver.
//
// A batched run (`gas dist --checkpoint DIR`) persists its accumulator
// state after every completed batch:
//
//   DIR/manifest.sasc      (rank 0)  "SASC": config fingerprint,
//                                    completed-batch count, per-batch
//                                    BatchStats
//   DIR/rank<r>.b<k>.sasc  (rank r)  "SASR": fingerprint, batch count k,
//                                    the rank's partial B block (if it
//                                    owns one) and its â column-popcount
//                                    vector after k completed batches
//
// Every file ends with a CRC-32 of its preceding bytes and is written
// atomically AND durably: the bytes land in a .tmp sibling, which is
// fsync'd before the rename and whose parent directory is fsync'd after
// it, so "saved" means on-disk even across a power cut. A disk-full
// failure (ENOSPC/EDQUOT) during a save throws the typed
// error::ResourceExhausted — the driver reacts by disabling further
// checkpointing and finishing in-memory rather than aborting the run.
// Stale .tmp partials left by a kill mid-commit are swept on the next
// Checkpoint construction. Rank state is VERSIONED by batch so a kill
// at any instant leaves a usable checkpoint: ranks save b<k> first, a
// barrier proves every b<k> durable, rank 0 commits the manifest
// pointing at k, a second barrier proves the manifest durable, and only
// then is each rank's obsolete b<k-1> file deleted. A kill mid-save
// leaves the manifest at k-1 with its b<k-1> files still intact; a kill
// mid-cleanup leaves a stale b<k-1> file that the next run overwrites.
//
// --resume validates fingerprint + CRC (error::ConfigError on a
// fingerprint from a differently-shaped run, error::CorruptInput on
// damage), restores B/â/stats, and the driver skips the completed
// batches. Because the batch loop accumulates deterministically, the
// resumed result is bitwise-identical to an uninterrupted run — the
// hybrid included (its candidate pass is deterministic and recomputed).
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/config.hpp"
#include "core/driver.hpp"
#include "distmat/dense_block.hpp"

namespace sas::core {

/// Rank 0's view of a checkpointed run.
struct CheckpointManifest {
  std::int64_t completed = 0;     ///< batches fully accumulated AND saved
  std::vector<BatchStats> stats;  ///< per-batch stats of the completed batches
};

/// Everything that must match between the checkpointing run and the
/// resuming run for the restored accumulators to be meaningful: the
/// input shape (n, m), the rank count, every config knob that shapes
/// the batch loop or the numbers it accumulates, and which blocks of the
/// B panel are filled (a ring tag: the ring fills only its triangle of
/// shares, so ring checkpoints from before that layout fail to resume;
/// an upper-diagonal tag: every diagonal block holds its upper triangle
/// and each SUMMA grid rank its summa_share, so no checkpoint from
/// before that layout resumes, nor one of it under an older binary).
[[nodiscard]] std::uint64_t checkpoint_fingerprint(const Config& config, std::int64_t n,
                                                   std::int64_t m, int nranks);

/// In-memory snapshot of one rank's accumulator state at a batch
/// boundary, serialized with the checkpoint wire format (including the
/// trailing CRC) but never touching disk. The recovery layer captures
/// one before each batch and restores it before a replay, so a rolled-
/// back batch re-accumulates from bitwise-identical state.
class BatchSnapshot {
 public:
  /// Serialize (completed, block, ahat); `block` may be null (ranks that
  /// own no output block).
  void capture(std::int64_t completed, const distmat::DenseBlock<std::int64_t>* block,
               std::span<const std::int64_t> ahat);

  /// Restore a prior capture into `block`/`ahat`. The shapes must match
  /// the captured ones (they do by construction: same rank, same run).
  void restore(std::int64_t completed, distmat::DenseBlock<std::int64_t>* block,
               std::vector<std::int64_t>& ahat) const;

  [[nodiscard]] bool valid() const noexcept { return !buffer_.empty(); }
  [[nodiscard]] std::size_t bytes() const noexcept { return buffer_.size(); }

 private:
  std::vector<char> buffer_;
};

class Checkpoint {
 public:
  /// Creates `dir` if needed (throws error::ConfigError when impossible)
  /// and sweeps stale .tmp partials left by a kill mid-commit.
  Checkpoint(std::string dir, std::uint64_t fingerprint);

  /// Persist rank `rank`'s state after batch `completed` finished, as
  /// rank<rank>.b<completed>.sasc. `block` may be null (ranks owning no
  /// output block).
  void save_rank(int rank, std::int64_t completed,
                 const distmat::DenseBlock<std::int64_t>* block,
                 std::span<const std::int64_t> ahat) const;

  /// Restore rank `rank`'s state as of the manifest's `completed` count.
  /// `block`'s ranges must match the saved ones.
  void load_rank(int rank, std::int64_t completed,
                 distmat::DenseBlock<std::int64_t>* block,
                 std::vector<std::int64_t>& ahat) const;

  /// Delete rank `rank`'s obsolete b<completed> state file, if any. Call
  /// only after a LATER manifest is durable (a stale file is harmless; a
  /// premature delete would orphan the current manifest).
  void remove_rank(int rank, std::int64_t completed) const noexcept;

  /// Commit the manifest (rank 0, after a barrier proves every rank's
  /// state file is durable).
  void save_manifest(const CheckpointManifest& manifest) const;

  /// Read the manifest; std::nullopt when no checkpoint exists yet.
  [[nodiscard]] std::optional<CheckpointManifest> load_manifest() const;

 private:
  std::string dir_;
  std::uint64_t fingerprint_;
};

}  // namespace sas::core
