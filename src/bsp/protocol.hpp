// protocol.hpp — debug-build BSP protocol verifier (ledger + registry).
//
// The BSP contract the whole runtime rests on is rank symmetry: every
// rank of a communicator must issue the same collective sequence with
// compatible arguments, and every point-to-point send must be received
// before the run ends. Violations today surface as a watchdog timeout
// 120 s later (a rank blocks in a collective its peers never entered) or
// not at all (a leaked message is silently dropped with the mailbox).
//
// When RuntimeOptions::verify_protocol is armed (or SAS_VERIFY_PROTOCOL
// is set — CI does), each rank appends every collective's
// (op-kind, tag, element-size, count-shape) to a per-rank ProtocolLedger:
// a rolling FNV-1a hash plus a ring of the last kRecent entries. Ledgers
// are cross-checked whenever the communicator synchronizes — at every
// barrier (by the last-arriving rank, under the barrier mutex, which
// orders the peers' ledger writes before the read) and again at
// Runtime::run exit — so a diverging rank fails *immediately* with both
// ranks' recent ledger entries named. At run exit the world's mailboxes
// (and every split child's, via the ProtocolRegistry) are swept for
// unreceived messages, which become typed errors naming (source, dest,
// tag). All checks throw error::ProtocolError (exit code 6).
//
// Cost when disarmed: one branch per collective; the ledgers stay empty.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

namespace sas::bsp {

namespace detail {
struct SharedState;
}  // namespace detail

/// Collective kinds the ledger distinguishes. One entry per *call*, so
/// nested implementations (a flat allreduce records its internal reduce
/// and broadcast too) stay rank-symmetric by construction.
enum class ProtoOp : std::uint8_t {
  kBarrier = 0,
  kBroadcast,
  kReduce,
  kAllreduce,
  kGather,
  kAllgather,
  kAlltoall,
  kSplit,
};

[[nodiscard]] const char* proto_op_name(ProtoOp op) noexcept;

/// One ledgered collective call. `shape` is whichever length argument the
/// collective requires to agree across ranks (element count for reduce
/// flavors, block count for alltoall_v, 0 where per-rank lengths may
/// legitimately differ); `tag` carries the root where the call has one.
struct ProtocolEntry {
  std::uint64_t seq = 0;
  ProtoOp op = ProtoOp::kBarrier;
  int tag = 0;
  std::uint32_t elem_size = 0;
  std::uint64_t shape = 0;
};

[[nodiscard]] std::string format_entry(const ProtocolEntry& entry);

/// Per-rank rolling record of the collective sequence. Written only by
/// the owning rank's thread; read by peers only at synchronization points
/// that already order the writes (barrier mutex, thread join).
class ProtocolLedger {
 public:
  static constexpr std::size_t kRecent = 8;

  void record(ProtoOp op, int tag, std::uint32_t elem_size,
              std::uint64_t shape) noexcept {
    const ProtocolEntry entry{count_, op, tag, elem_size, shape};
    recent_[static_cast<std::size_t>(count_ % kRecent)] = entry;
    ++count_;
    hash_ = mix(hash_, static_cast<std::uint64_t>(op));
    hash_ = mix(hash_, static_cast<std::uint64_t>(static_cast<std::int64_t>(tag)));
    hash_ = mix(hash_, elem_size);
    hash_ = mix(hash_, shape);
  }

  [[nodiscard]] std::uint64_t hash() const noexcept { return hash_; }
  [[nodiscard]] std::uint64_t count() const noexcept { return count_; }

  /// The last min(count, kRecent) entries, oldest first.
  [[nodiscard]] std::vector<ProtocolEntry> recent() const;

  /// Human-readable "#seq op(tag=…, elem=…, shape=…); …" of recent().
  [[nodiscard]] std::string render_recent() const;

 private:
  [[nodiscard]] static std::uint64_t mix(std::uint64_t h,
                                         std::uint64_t v) noexcept {
    // FNV-1a over the 8 bytes of v.
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xffu;
      h *= 1099511628211ull;
    }
    return h;
  }

  std::uint64_t hash_ = 1469598103934665603ull;  // FNV offset basis
  std::uint64_t count_ = 0;
  std::array<ProtocolEntry, kRecent> recent_{};
};

/// World-owned registry of split-child communicator states, so the
/// run-exit sweep can cross-check ledgers and mailbox leaks in
/// sub-communicators too. Holding shared_ptrs keeps the child states
/// alive past the last Comm handle's destruction.
class ProtocolRegistry {
 public:
  void register_child(std::shared_ptr<detail::SharedState> child) {
    std::lock_guard<std::mutex> lock(mutex_);
    children_.push_back(std::move(child));
  }

  [[nodiscard]] std::vector<std::shared_ptr<detail::SharedState>> snapshot() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return children_;
  }

  /// Drop every registered child. Recovery only: children created during
  /// an aborted batch attempt hold divergent ledgers and leaked
  /// mailboxes by design, so the rendezvous forgets them (children of
  /// completed batches were already verified consistent at the barriers
  /// they ran through; the run-exit sweep loses only their mailbox-leak
  /// coverage).
  void clear() {
    std::lock_guard<std::mutex> lock(mutex_);
    children_.clear();
  }

 private:
  mutable std::mutex mutex_;
  std::vector<std::shared_ptr<detail::SharedState>> children_;
};

/// Compare every rank's ledger against rank 0's. Returns "" when they
/// agree, otherwise a report naming the first diverging rank pair and
/// both ranks' recent entries. `where` describes the synchronization
/// point ("barrier", "run exit"); `label` the communicator.
[[nodiscard]] std::string describe_ledger_divergence(
    std::span<const ProtocolLedger> ledgers, const std::string& label,
    const std::string& where);

/// Run-exit sweep over the world state and every registered split child:
/// ledger symmetry plus unreceived point-to-point messages left in any
/// mailbox. Throws error::ProtocolError on the first violation. Call
/// after all rank threads have joined and only when the run did not
/// abort (an aborted run leaks messages by design).
void verify_protocol_at_exit(detail::SharedState& world);

}  // namespace sas::bsp
