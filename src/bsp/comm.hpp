// comm.hpp — SPMD communicator for the in-process BSP runtime.
//
// This is the library's substitute for MPI: ranks are threads,
// point-to-point messages are buffered byte copies, and the collective
// set mirrors the MPI collectives the paper's Cyclops backend uses.
// Collectives are implemented *on top of* point-to-point sends with
// the textbook algorithms (binomial trees, rings, dissemination), so the
// message/byte counters reflect realistic communication structure — e.g.
// a broadcast really costs O(log p) rounds, an all-to-all really moves
// p·(p−1) messages. That is what makes the §III-C cost-model validation
// meaningful.
//
// Usage (SPMD, same style as an MPI program):
//   bsp::Runtime::run(8, [](bsp::Comm& comm) {
//     auto part = ...;                       // rank-local work
//     auto total = comm.allreduce<std::uint64_t>(part, std::plus<>{});
//   });
#pragma once

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "bsp/cost_model.hpp"
#include "bsp/fault.hpp"
#include "bsp/mailbox.hpp"
#include "bsp/protocol.hpp"
#include "obs/trace.hpp"
#include "util/membudget.hpp"

namespace sas::bsp {

/// Verdict of a recovery rendezvous (Comm::recover), identical on every
/// rank of the same generation.
struct RecoveryOutcome {
  bool retry = false;      ///< replay the batch (state was reset for it)
  bool healable = false;   ///< ranks agreed on the batch and none defected
  bool transient = false;  ///< the cause carried Severity::kTransient
  bool rearmed = false;    ///< shared state was reset — the run may go on
  int source_rank = -1;    ///< rank whose failure tripped the token
  std::string message;     ///< the cause's what() (quarantine manifests)
  std::exception_ptr cause;
};

namespace detail {

/// State shared by all ranks of one communicator (world or split group).
struct SharedState {
  explicit SharedState(int size_in)
      : size(size_in),
        mailboxes(static_cast<std::size_t>(size_in)),
        abort(std::make_shared<AbortToken>()) {}

  int size;
  std::vector<Mailbox> mailboxes;

  // Simulated node topology for the hierarchical collectives: node_of[r]
  // maps each rank to a node id in [0, nodes); node_members[q] lists node
  // q's ranks ascending, and the first member is the node's leader.
  // nodes == 1 means the flat single-tier network (the default) — the
  // collectives then keep their textbook single-stage forms and no send
  // is classified intra-node. Installed before the rank threads start
  // (Runtime) or derived from the parent map at split(); immutable while
  // collectives run.
  int nodes = 1;
  std::vector<int> node_of;
  std::vector<std::vector<int>> node_members;

  /// Group ranks into `nodes_in` contiguous near-equal blocks (clamped to
  /// [1, size]).
  void set_node_topology(int nodes_in);

  /// Install an arbitrary rank→node map (split children inherit the
  /// parent's placement this way; ids are renumbered dense). map.size()
  /// must equal size.
  void set_node_map(std::vector<int> map);

  // Failure semantics (fault.hpp). Split children share the parent's
  // abort token — a failure anywhere unwinds every communicator — and
  // inherit the watchdog deadline and fault plan.
  std::shared_ptr<AbortToken> abort;
  std::chrono::milliseconds watchdog{0};  ///< 0 = no deadline
  std::shared_ptr<const FaultPlan> fault_plan;

  // Sense-reversing barrier.
  std::mutex barrier_mutex;
  std::condition_variable barrier_cv;
  int barrier_arrived = 0;
  std::uint64_t barrier_generation = 0;

  // Recovery rendezvous (Comm::recover): after an abort, every rank
  // unwinds to its batch boundary and arrives here; the last arrival
  // coordinates the verdict (retry vs give up), resets the abort/
  // protocol/mailbox state for a replay, and releases the others. A rank
  // whose thread exits WITHOUT reaching the rendezvous (the failure
  // escaped the batch loop) is counted defected by Runtime so arrivals
  // never wait for a thread that is already gone.
  std::mutex recovery_mutex;
  std::condition_variable recovery_cv;
  int recovery_arrived = 0;
  int recovery_defected = 0;
  bool recovery_claimed = false;       ///< a coordinator is working
  std::uint64_t recovery_generation = 0;
  std::uint64_t recovery_epoch = 0;    ///< completed rendezvous count
  std::int64_t recovery_batch = -1;    ///< batch of the first arrival
  bool recovery_batch_mismatch = false;
  RecoveryOutcome recovery_outcome;    ///< current generation's verdict

  /// Runtime calls this when a rank's thread is about to exit while the
  /// run is aborted: the rank can no longer join a rendezvous, and any
  /// peers already waiting there must learn that and give up.
  void note_recovery_defection() {
    std::lock_guard<std::mutex> lock(recovery_mutex);
    ++recovery_defected;
    recovery_cv.notify_all();
  }

  // Registry used by split(): the first member of each (generation, color)
  // group allocates the child state; the last member erases the entry.
  std::mutex split_mutex;
  std::condition_variable split_cv;
  std::map<std::pair<std::uint64_t, int>, std::shared_ptr<SharedState>> split_children;
  std::map<std::pair<std::uint64_t, int>, int> split_remaining;

  // Debug-build protocol verifier (bsp/protocol.hpp). When armed, every
  // collective appends to this communicator's per-rank ledgers, which are
  // cross-checked at barriers and at run exit. Split children inherit the
  // flag and the world-owned registry so the exit sweep reaches their
  // ledgers and mailboxes too. Disarmed: one branch per collective.
  bool verify_protocol = false;
  std::vector<ProtocolLedger> ledgers;           ///< one per rank, owner-written
  ProtocolRegistry* protocol_registry = nullptr; ///< world's; null when disarmed
  std::shared_ptr<ProtocolRegistry> owned_registry;  ///< non-null on world only
  std::string label = "world communicator";      ///< for verifier reports
};

}  // namespace detail

/// Reserved tag space for internal collective traffic; user tags must be
/// non-negative.
enum InternalTag : int {
  kTagBcast = -1,
  kTagReduce = -2,
  kTagGather = -3,
  kTagAllgather = -4,
  kTagAlltoall = -6,
  kTagSplit = -8,
  // Hierarchical (two-tier) collective stages; see the hier_* helpers.
  kTagHierBcast = -10,     ///< inter-node leader tree + root→leader hop
  kTagHierReduce = -11,    ///< member→leader combine + leader tree
  kTagHierAllgather = -12, ///< intra gather + leader ring frames
  kTagHierAlltoall = -13,  ///< member→leader relay + leader↔leader frames
  kTagHierDown = -14,      ///< leader→member redistribution stages
};

/// SPMD communicator handle. Move-only: every rank owns exactly one
/// instance per (sub-)communicator so that collective call sequences stay
/// aligned across ranks.
class Comm {
 public:
  Comm(std::shared_ptr<detail::SharedState> state, int rank, CostCounters* counters,
       FaultSlot* fault = nullptr)
      : state_(std::move(state)), rank_(rank), counters_(counters), fault_(fault) {}

  Comm(const Comm&) = delete;
  Comm& operator=(const Comm&) = delete;
  Comm(Comm&&) = default;
  Comm& operator=(Comm&&) = default;

  [[nodiscard]] int rank() const noexcept { return rank_; }
  [[nodiscard]] int size() const noexcept { return state_->size; }
  [[nodiscard]] CostCounters& counters() noexcept { return *counters_; }

  // ---- node topology (hierarchical collectives) ----------------------
  // Flat communicators report one node containing every rank.

  [[nodiscard]] int node_count() const noexcept { return state_->nodes; }
  [[nodiscard]] bool hierarchical() const noexcept { return state_->nodes > 1; }
  [[nodiscard]] int node_of(int r) const noexcept {
    return state_->node_of.empty() ? 0
                                   : state_->node_of[static_cast<std::size_t>(r)];
  }
  [[nodiscard]] int my_node() const noexcept { return node_of(rank_); }
  /// Ranks of `node`, ascending; the first entry is the node's leader.
  [[nodiscard]] std::span<const int> node_ranks(int node) const {
    if (state_->node_members.empty()) {
      throw std::logic_error("bsp::Comm::node_ranks: flat communicator");
    }
    return state_->node_members[static_cast<std::size_t>(node)];
  }
  [[nodiscard]] bool is_node_leader() const noexcept {
    return !hierarchical() ||
           state_->node_members[static_cast<std::size_t>(my_node())].front() == rank_;
  }

  /// Record kernel arithmetic against this rank's γ term.
  void add_flops(std::uint64_t n) noexcept { counters_->flops += n; }

  /// Global synchronization; counts one BSP superstep.
  void barrier();

  // ---- in-run recovery -----------------------------------------------

  /// Trip the run's abort token with `cause` so blocked peers unwind.
  /// First trip wins; the recovery layer calls this when a rank's batch
  /// body throws locally (peers learn of the failure through the token).
  void abort_with(std::exception_ptr cause) {
    state_->abort->trip(rank_, std::move(cause));
  }

  /// Recovery rendezvous: call on the WORLD communicator, on every rank,
  /// after the abort cascade unwound the batch to its boundary. Blocks
  /// until all surviving ranks arrive, then returns the shared verdict.
  /// Retry requires the cause to be transient, `attempt` < `max_retries`,
  /// every rank to name the same `batch`, and no rank to have defected
  /// (healable). When the verdict is retry — or the failure is healable
  /// and `quarantine` says the caller will skip the batch and go on — the
  /// shared state is re-armed (`rearmed`): abort token reset, mailboxes
  /// purged, protocol ledgers resynchronized at tags::kRecoveryResync,
  /// split registries cleared. On retry this rank's fault-injection slot
  /// additionally advances to `attempt` + 1 so `until=A` specs heal; a
  /// quarantine skip keeps the attempt (an unhealed fault must not
  /// re-fire into every later batch).
  [[nodiscard]] RecoveryOutcome recover(std::int64_t batch, std::uint64_t attempt,
                                        std::uint64_t max_retries, bool quarantine);

  // ---- point-to-point ----------------------------------------------------

  /// Buffered send of a trivially copyable span. Never blocks.
  /// Self-sends are delivered but not counted: they are local memcpys,
  /// not network traffic, and would skew the α-β accounting.
  template <typename T>
  void send(int dest, int tag, std::span<const T> data) {
    static_assert(std::is_trivially_copyable_v<T>);
    check_rank(dest);
    // Memory-budget guardrail on the staging copy: under a per-rank
    // budget (util/membudget.hpp) an over-limit payload fails as a typed
    // error::ResourceExhausted at the allocation site. Transient charge —
    // the mailbox's resident copy is the receiver's cost to bear.
    const util::ScopedCharge charge(data.size_bytes(), "send payload staging");
    Mailbox::Message payload(data.size_bytes());
    if (!data.empty()) std::memcpy(payload.data(), data.data(), data.size_bytes());
    fault_point(&payload);
    if (dest != rank_) {
      counters_->messages_sent += 1;
      counters_->bytes_sent += payload.size();
      // Two-tier classification: under an active node topology, sends
      // between ranks of the same node also accrue to the intra-tier
      // counters (the totals above keep their flat meaning; inter-node
      // traffic is the difference — see bsp/cost_model.hpp).
      if (state_->nodes > 1 &&
          state_->node_of[static_cast<std::size_t>(dest)] ==
              state_->node_of[static_cast<std::size_t>(rank_)]) {
        counters_->messages_intra += 1;
        counters_->bytes_intra += payload.size();
      }
      if (obs::RankObserver* o = obs::current()) {
        o->message_bytes.record(payload.size());
      }
    }
    state_->mailboxes[static_cast<std::size_t>(dest)].deposit(rank_, tag,
                                                              std::move(payload));
  }

  template <typename T>
  void send_value(int dest, int tag, const T& value) {
    send<T>(dest, tag, std::span<const T>(&value, 1));
  }

  /// Blocking receive of a message from (source, tag). Mirrors send():
  /// self-receives are local memcpys and are not counted as traffic.
  template <typename T>
  [[nodiscard]] std::vector<T> recv(int source, int tag) {
    static_assert(std::is_trivially_copyable_v<T>);
    check_rank(source);
    obs::RankObserver* const o = obs::current();
    const std::int64_t wait_start_ns = o != nullptr ? o->now_ns() : 0;
    Mailbox::Message payload = state_->mailboxes[static_cast<std::size_t>(rank_)].retrieve(
        source, tag, wait_policy());
    if (o != nullptr) {
      o->mailbox_wait_ns.record(
          static_cast<std::uint64_t>(o->now_ns() - wait_start_ns));
    }
    fault_point(&payload);
    if (source != rank_) counters_->bytes_received += payload.size();
    if (payload.size() % sizeof(T) != 0) {
      throw std::logic_error("bsp::Comm::recv: payload size not a multiple of element size");
    }
    // Budget the unpack copy (see send(): typed failure, not an OOM kill).
    const util::ScopedCharge charge(payload.size(), "recv payload unpack");
    std::vector<T> data(payload.size() / sizeof(T));
    if (!data.empty()) std::memcpy(data.data(), payload.data(), payload.size());
    return data;
  }

  template <typename T>
  [[nodiscard]] T recv_value(int source, int tag) {
    auto data = recv<T>(source, tag);
    if (data.size() != 1) {
      throw std::logic_error("bsp::Comm::recv_value: expected exactly one element");
    }
    return data.front();
  }

  // ---- collectives ---------------------------------------------------

  /// Binomial-tree broadcast from `root`; non-root contents are replaced.
  /// Under a node topology (node_count() > 1) the tree is split into a
  /// root→leader hop, a binomial tree over the node leaders (inter tier),
  /// and per-node binomial trees (intra tier) — bitwise-identical output,
  /// fewer inter-node hops.
  template <typename T>
  void broadcast(std::vector<T>& data, int root) {
    const int p = size();
    proto_record(ProtoOp::kBroadcast, root, sizeof(T), 0);
    if (p == 1) return;
    const obs::CollectiveScope obs_scope(obs::Primitive::kBroadcast, *counters_);
    if (hierarchical()) {
      hier_broadcast(data, root);
      return;
    }
    const int vrank = virtual_rank(root);
    for (int mask = 1; mask < p; mask <<= 1) {
      if (vrank < mask) {
        const int partner = vrank + mask;
        if (partner < p) {
          send<T>(real_rank(partner, root), kTagBcast, std::span<const T>(data));
        }
      } else if (vrank < (mask << 1)) {
        data = recv<T>(real_rank(vrank - mask, root), kTagBcast);
      }
    }
  }

  template <typename T>
  [[nodiscard]] T broadcast_value(T value, int root) {
    std::vector<T> buf(1, value);
    broadcast(buf, root);
    return buf.front();
  }

  /// Binomial-tree reduction to `root`; `op(a, b)` must be associative and
  /// commutative. Vector variant combines elementwise; all ranks must pass
  /// equal-length vectors. Returns the reduced vector on root (others get
  /// their partially combined buffer back — only root's result is defined).
  template <typename T, typename Op>
  void reduce(std::vector<T>& data, Op op, int root) {
    const int p = size();
    proto_record(ProtoOp::kReduce, root, sizeof(T), data.size());
    const obs::CollectiveScope obs_scope(obs::Primitive::kReduce, *counters_);
    const int vrank = virtual_rank(root);
    int top = 1;
    while (top < p) top <<= 1;
    for (int mask = top >> 1; mask >= 1; mask >>= 1) {
      if (vrank < mask) {
        const int partner = vrank + mask;
        if (partner < p) {
          auto incoming = recv<T>(real_rank(partner, root), kTagReduce);
          combine_elementwise(data, incoming, op);
        }
      } else if (vrank < (mask << 1)) {
        send<T>(real_rank(vrank - mask, root), kTagReduce, std::span<const T>(data));
        return;  // contributed; out of the tree
      }
    }
  }

  /// reduce-to-root followed by broadcast; result defined on all ranks.
  /// Under a node topology: members combine onto their leader (intra),
  /// leaders reduce+broadcast among themselves (inter), leaders fan the
  /// result back out (intra). `op` must be associative and commutative —
  /// the same contract reduce() already imposes — so the result is
  /// bit-identical for the integer/bitwise/min-max ops the pipelines use.
  template <typename T, typename Op>
  void allreduce(std::vector<T>& data, Op op) {
    proto_record(ProtoOp::kAllreduce, 0, sizeof(T), data.size());
    // Outermost scope: the internal reduce + broadcast emit nested spans
    // but only this one books cost-model drift (obs/trace.hpp).
    const obs::CollectiveScope obs_scope(obs::Primitive::kAllreduce, *counters_);
    if (hierarchical()) {
      hier_allreduce(data, op);
      return;
    }
    reduce(data, op, 0);
    broadcast(data, 0);
  }

  template <typename T, typename Op>
  [[nodiscard]] T allreduce_value(T value, Op op) {
    std::vector<T> buf(1, value);
    allreduce(buf, op);
    return buf.front();
  }

  /// Flat gather of variable-length blocks to root; returns one vector per
  /// source rank (empty on non-roots).
  template <typename T>
  [[nodiscard]] std::vector<std::vector<T>> gather_v(std::span<const T> mine, int root) {
    const int p = size();
    // shape 0: per-rank block lengths may legitimately differ.
    proto_record(ProtoOp::kGather, root, sizeof(T), 0);
    const obs::CollectiveScope obs_scope(obs::Primitive::kGather, *counters_);
    std::vector<std::vector<T>> blocks;
    if (rank_ == root) {
      blocks.resize(static_cast<std::size_t>(p));
      blocks[static_cast<std::size_t>(rank_)].assign(mine.begin(), mine.end());
      for (int r = 0; r < p; ++r) {
        if (r == root) continue;
        blocks[static_cast<std::size_t>(r)] = recv<T>(r, kTagGather);
      }
    } else {
      send<T>(root, kTagGather, mine);
    }
    return blocks;
  }

  /// Ring allgather of variable-length blocks; every rank returns all
  /// blocks in rank order. Bandwidth-optimal: p−1 rounds, each forwarding
  /// the block received in the previous round. Under a node topology the
  /// ring runs over node *leaders* carrying per-node aggregates, framed
  /// by member-block lengths, with intra-node gather/redistribute stages
  /// on either side — the returned blocks are bitwise identical.
  template <typename T>
  [[nodiscard]] std::vector<std::vector<T>> allgather_v(std::span<const T> mine) {
    const int p = size();
    proto_record(ProtoOp::kAllgather, 0, sizeof(T), 0);
    const obs::CollectiveScope obs_scope(obs::Primitive::kAllgather, *counters_);
    if (hierarchical()) return hier_allgather_v(mine);
    std::vector<std::vector<T>> blocks(static_cast<std::size_t>(p));
    blocks[static_cast<std::size_t>(rank_)].assign(mine.begin(), mine.end());
    const int next = (rank_ + 1) % p;
    const int prev = (rank_ + p - 1) % p;
    int forwarding = rank_;  // owner of the block sent in this round
    for (int step = 0; step + 1 < p; ++step) {
      send<T>(next, kTagAllgather,
              std::span<const T>(blocks[static_cast<std::size_t>(forwarding)]));
      const int incoming = (rank_ + p - 1 - step) % p;
      blocks[static_cast<std::size_t>(incoming)] = recv<T>(prev, kTagAllgather);
      forwarding = incoming;
    }
    return blocks;
  }

  /// Concatenating allgather (blocks appended in rank order).
  template <typename T>
  [[nodiscard]] std::vector<T> allgather(std::span<const T> mine) {
    auto blocks = allgather_v(mine);
    std::size_t total = 0;
    for (const auto& b : blocks) total += b.size();
    std::vector<T> out;
    out.reserve(total);
    for (const auto& b : blocks) out.insert(out.end(), b.begin(), b.end());
    return out;
  }

  /// Personalized all-to-all with variable block sizes. outgoing[r] is the
  /// block for rank r; returns incoming[r] = block from rank r. Buffered
  /// sends make the direct exchange deadlock-free.
  template <typename T>
  [[nodiscard]] std::vector<std::vector<T>> alltoall_v(
      const std::vector<std::vector<T>>& outgoing) {
    const int p = size();
    proto_record(ProtoOp::kAlltoall, 0, sizeof(T), outgoing.size());
    const obs::CollectiveScope obs_scope(obs::Primitive::kAlltoall, *counters_);
    if (static_cast<int>(outgoing.size()) != p) {
      throw std::invalid_argument("bsp::Comm::alltoall_v: need one block per rank");
    }
    if (hierarchical()) return hier_alltoall_v(outgoing);
    std::vector<std::vector<T>> incoming(static_cast<std::size_t>(p));
    incoming[static_cast<std::size_t>(rank_)] = outgoing[static_cast<std::size_t>(rank_)];
    // Pairwise-offset schedule spreads load across the "network".
    for (int offset = 1; offset < p; ++offset) {
      const int dest = (rank_ + offset) % p;
      send<T>(dest, kTagAlltoall, std::span<const T>(outgoing[static_cast<std::size_t>(dest)]));
    }
    for (int offset = 1; offset < p; ++offset) {
      const int source = (rank_ + p - offset) % p;
      incoming[static_cast<std::size_t>(source)] = recv<T>(source, kTagAlltoall);
    }
    return incoming;
  }

  /// Collective split into sub-communicators, MPI_Comm_split semantics:
  /// ranks sharing `color` form a group, ordered by (key, parent rank).
  /// Cost counters keep pointing at this rank's root counters, so
  /// sub-communicator traffic still accrues to the global BSP accounting.
  [[nodiscard]] Comm split(int color, int key);

 private:
  // ---- hierarchical (two-tier) collective machinery ------------------
  // Shapes: every hier_* stage is built from the same point-to-point
  // sends as the flat collectives, so the cost counters see the real
  // message structure; the intra/inter split falls out of send()'s
  // node classification. All payload routing is order-preserving
  // (mailboxes are FIFO per (source, tag)), and blocks are reassembled in
  // world-rank order, so results are bitwise identical to the flat forms.

  /// Leader rank of each node (node_members[q].front()), indexed by node.
  [[nodiscard]] std::vector<int> node_leaders() const {
    std::vector<int> leaders;
    leaders.reserve(state_->node_members.size());
    for (const auto& m : state_->node_members) leaders.push_back(m.front());
    return leaders;
  }

  /// Index of `r` in the ascending rank list `group`.
  [[nodiscard]] static int index_in(std::span<const int> group, int r) {
    const auto it = std::lower_bound(group.begin(), group.end(), r);
    return static_cast<int>(it - group.begin());
  }

  /// Binomial broadcast over an explicit rank group. Collective over
  /// exactly the ranks in `group` (ascending); `me_idx`/`root_idx` are
  /// indices into it. Non-root contents are replaced.
  template <typename T>
  void group_broadcast(std::span<const int> group, int me_idx, int root_idx,
                       std::vector<T>& data, int tag) {
    const int g = static_cast<int>(group.size());
    const int v = (me_idx - root_idx + g) % g;
    for (int mask = 1; mask < g; mask <<= 1) {
      if (v < mask) {
        const int partner = v + mask;
        if (partner < g) {
          send<T>(group[static_cast<std::size_t>((partner + root_idx) % g)], tag,
                  std::span<const T>(data));
        }
      } else if (v < (mask << 1)) {
        data = recv<T>(group[static_cast<std::size_t>((v - mask + root_idx) % g)], tag);
      }
    }
  }

  /// Binomial reduction over an explicit rank group; result defined on
  /// the root member only (others have partially combined buffers).
  template <typename T, typename Op>
  void group_reduce(std::span<const int> group, int me_idx, int root_idx,
                    std::vector<T>& data, Op op, int tag) {
    const int g = static_cast<int>(group.size());
    const int v = (me_idx - root_idx + g) % g;
    int top = 1;
    while (top < g) top <<= 1;
    for (int mask = top >> 1; mask >= 1; mask >>= 1) {
      if (v < mask) {
        const int partner = v + mask;
        if (partner < g) {
          auto incoming =
              recv<T>(group[static_cast<std::size_t>((partner + root_idx) % g)], tag);
          combine_elementwise(data, incoming, op);
        }
      } else if (v < (mask << 1)) {
        send<T>(group[static_cast<std::size_t>((v - mask + root_idx) % g)], tag,
                std::span<const T>(data));
        return;  // contributed; out of the tree
      }
    }
  }

  /// Two-tier broadcast: root→leader hop, leader tree, per-node trees.
  template <typename T>
  void hier_broadcast(std::vector<T>& data, int root) {
    const int rnode = node_of(root);
    const int rleader = state_->node_members[static_cast<std::size_t>(rnode)].front();
    if (root != rleader) {
      if (rank_ == root) {
        send<T>(rleader, kTagHierBcast, std::span<const T>(data));
      } else if (rank_ == rleader) {
        data = recv<T>(root, kTagHierBcast);
      }
    }
    const std::vector<int> leaders = node_leaders();
    const auto& members = state_->node_members[static_cast<std::size_t>(my_node())];
    if (rank_ == members.front()) {
      group_broadcast<T>(leaders, my_node(), rnode, data, kTagHierBcast);
    }
    group_broadcast<T>(members, index_in(members, rank_), 0, data, kTagHierDown);
  }

  /// Two-tier allreduce: member→leader combine (ascending member order),
  /// leader reduce+broadcast, leader→member fan-out.
  template <typename T, typename Op>
  void hier_allreduce(std::vector<T>& data, Op op) {
    const auto& members = state_->node_members[static_cast<std::size_t>(my_node())];
    const int leader = members.front();
    if (rank_ == leader) {
      for (std::size_t i = 1; i < members.size(); ++i) {
        auto incoming = recv<T>(members[i], kTagHierReduce);
        combine_elementwise(data, incoming, op);
      }
      const std::vector<int> leaders = node_leaders();
      group_reduce<T>(leaders, my_node(), 0, data, op, kTagHierReduce);
      group_broadcast<T>(leaders, my_node(), 0, data, kTagHierBcast);
    } else {
      send<T>(leader, kTagHierReduce, std::span<const T>(data));
    }
    group_broadcast<T>(members, index_in(members, rank_), 0, data, kTagHierDown);
  }

  /// Two-tier allgather_v: intra gather onto leaders, leader ring over
  /// per-node aggregates (lengths frame + payload frame per hop), intra
  /// redistribution of the assembled result.
  template <typename T>
  [[nodiscard]] std::vector<std::vector<T>> hier_allgather_v(std::span<const T> mine) {
    const int p = size();
    const int nn = state_->nodes;
    const auto& members = state_->node_members[static_cast<std::size_t>(my_node())];
    const int leader = members.front();
    std::vector<std::vector<T>> blocks(static_cast<std::size_t>(p));

    auto unpack = [&](const std::vector<std::uint64_t>& lengths,
                      const std::vector<T>& payload) {
      std::size_t off = 0;
      for (int r = 0; r < p; ++r) {
        const auto len = static_cast<std::size_t>(lengths[static_cast<std::size_t>(r)]);
        blocks[static_cast<std::size_t>(r)].assign(payload.begin() + off,
                                                   payload.begin() + off + len);
        off += len;
      }
    };

    if (rank_ != leader) {
      send<T>(leader, kTagHierAllgather, mine);
      const auto lengths = recv<std::uint64_t>(leader, kTagHierDown);
      const auto payload = recv<T>(leader, kTagHierDown);
      unpack(lengths, payload);
      return blocks;
    }

    // Leader: node aggregate = member lengths + concatenated payload,
    // members ascending (leader first).
    std::vector<std::vector<std::uint64_t>> agg_len(static_cast<std::size_t>(nn));
    std::vector<std::vector<T>> agg_pay(static_cast<std::size_t>(nn));
    {
      auto& len = agg_len[static_cast<std::size_t>(my_node())];
      auto& pay = agg_pay[static_cast<std::size_t>(my_node())];
      len.push_back(mine.size());
      pay.assign(mine.begin(), mine.end());
      for (std::size_t i = 1; i < members.size(); ++i) {
        auto blk = recv<T>(members[i], kTagHierAllgather);
        len.push_back(blk.size());
        pay.insert(pay.end(), blk.begin(), blk.end());
      }
    }

    // Inter ring over leaders, forwarding node aggregates (nn−1 rounds).
    const std::vector<int> leaders = node_leaders();
    const int me = my_node();
    const int next = leaders[static_cast<std::size_t>((me + 1) % nn)];
    const int prev = leaders[static_cast<std::size_t>((me + nn - 1) % nn)];
    int forwarding = me;
    for (int step = 0; step + 1 < nn; ++step) {
      send<std::uint64_t>(next, kTagHierAllgather,
                          std::span<const std::uint64_t>(
                              agg_len[static_cast<std::size_t>(forwarding)]));
      send<T>(next, kTagHierAllgather,
              std::span<const T>(agg_pay[static_cast<std::size_t>(forwarding)]));
      const int incoming = (me + nn - 1 - step) % nn;
      agg_len[static_cast<std::size_t>(incoming)] =
          recv<std::uint64_t>(prev, kTagHierAllgather);
      agg_pay[static_cast<std::size_t>(incoming)] = recv<T>(prev, kTagHierAllgather);
      forwarding = incoming;
    }

    // Reassemble in world-rank order and fan out to members as one
    // (lengths, payload) pair each.
    std::vector<std::uint64_t> flat_len(static_cast<std::size_t>(p), 0);
    for (int q = 0; q < nn; ++q) {
      const auto& qm = state_->node_members[static_cast<std::size_t>(q)];
      std::size_t off = 0;
      for (std::size_t i = 0; i < qm.size(); ++i) {
        const auto len = static_cast<std::size_t>(agg_len[static_cast<std::size_t>(q)][i]);
        const auto& pay = agg_pay[static_cast<std::size_t>(q)];
        blocks[static_cast<std::size_t>(qm[i])].assign(pay.begin() + off,
                                                       pay.begin() + off + len);
        flat_len[static_cast<std::size_t>(qm[i])] = len;
        off += len;
      }
    }
    std::vector<T> flat_pay;
    for (const auto& b : blocks) flat_pay.insert(flat_pay.end(), b.begin(), b.end());
    for (std::size_t i = 1; i < members.size(); ++i) {
      send<std::uint64_t>(members[i], kTagHierDown,
                          std::span<const std::uint64_t>(flat_len));
      send<T>(members[i], kTagHierDown, std::span<const T>(flat_pay));
    }
    return blocks;
  }

  /// Two-tier alltoall_v: same-node pairs exchange directly (intra);
  /// remote blocks relay member→leader, one dst-major framed message per
  /// (source node, destination node) leader pair, then leader→member.
  template <typename T>
  [[nodiscard]] std::vector<std::vector<T>> hier_alltoall_v(
      const std::vector<std::vector<T>>& outgoing) {
    const int p = size();
    const int nn = state_->nodes;
    const int mynode = my_node();
    const auto& members = state_->node_members[static_cast<std::size_t>(mynode)];
    const int m = static_cast<int>(members.size());
    const int my_idx = index_in(members, rank_);
    const int leader = members.front();
    std::vector<std::vector<T>> incoming(static_cast<std::size_t>(p));
    incoming[static_cast<std::size_t>(rank_)] = outgoing[static_cast<std::size_t>(rank_)];

    // Same-node pairs: pairwise-offset exchange, as in the flat schedule.
    for (int off = 1; off < m; ++off) {
      const int dest = members[static_cast<std::size_t>((my_idx + off) % m)];
      send<T>(dest, kTagAlltoall, std::span<const T>(outgoing[static_cast<std::size_t>(dest)]));
    }
    for (int off = 1; off < m; ++off) {
      const int src = members[static_cast<std::size_t>((my_idx + m - off) % m)];
      incoming[static_cast<std::size_t>(src)] = recv<T>(src, kTagAlltoall);
    }

    if (rank_ != leader) {
      // Up: per remote node q ascending, my blocks for q's ranks as one
      // (lengths, payload) chunk. FIFO per (rank, tag) keeps the q order.
      for (int q = 0; q < nn; ++q) {
        if (q == mynode) continue;
        const auto& qm = state_->node_members[static_cast<std::size_t>(q)];
        std::vector<std::uint64_t> len;
        std::vector<T> pay;
        len.reserve(qm.size());
        for (int dst : qm) {
          const auto& blk = outgoing[static_cast<std::size_t>(dst)];
          len.push_back(blk.size());
          pay.insert(pay.end(), blk.begin(), blk.end());
        }
        send<std::uint64_t>(leader, kTagHierAlltoall, std::span<const std::uint64_t>(len));
        send<T>(leader, kTagHierAlltoall, std::span<const T>(pay));
      }
      // Down: per remote node q ascending, the blocks from q's ranks
      // addressed to me, framed by source-member lengths.
      for (int q = 0; q < nn; ++q) {
        if (q == mynode) continue;
        const auto& qm = state_->node_members[static_cast<std::size_t>(q)];
        const auto len = recv<std::uint64_t>(leader, kTagHierDown);
        const auto pay = recv<T>(leader, kTagHierDown);
        std::size_t off = 0;
        for (std::size_t i = 0; i < qm.size(); ++i) {
          const auto l = static_cast<std::size_t>(len[i]);
          incoming[static_cast<std::size_t>(qm[i])].assign(pay.begin() + off,
                                                           pay.begin() + off + l);
          off += l;
        }
      }
      return incoming;
    }

    // Leader. For each remote node q: absorb every member's chunk for q,
    // assemble one dst-major frame — for each dst member of q (asc), the
    // blocks from this node's members (asc) — and ship it to q's leader.
    const std::vector<int> leaders = node_leaders();
    for (int q = 0; q < nn; ++q) {
      if (q == mynode) continue;
      const auto& qm = state_->node_members[static_cast<std::size_t>(q)];
      const auto md = static_cast<std::size_t>(qm.size());
      // chunk_len[i][j] / payload of member i: blocks for q's dst j.
      std::vector<std::vector<std::uint64_t>> chunk_len(static_cast<std::size_t>(m));
      std::vector<std::vector<T>> chunk_pay(static_cast<std::size_t>(m));
      chunk_len[0].reserve(md);
      for (int dst : qm) {
        const auto& blk = outgoing[static_cast<std::size_t>(dst)];
        chunk_len[0].push_back(blk.size());
        chunk_pay[0].insert(chunk_pay[0].end(), blk.begin(), blk.end());
      }
      for (int i = 1; i < m; ++i) {
        chunk_len[static_cast<std::size_t>(i)] =
            recv<std::uint64_t>(members[static_cast<std::size_t>(i)], kTagHierAlltoall);
        chunk_pay[static_cast<std::size_t>(i)] =
            recv<T>(members[static_cast<std::size_t>(i)], kTagHierAlltoall);
      }
      std::vector<std::uint64_t> flen;
      std::vector<T> fpay;
      flen.reserve(md * static_cast<std::size_t>(m));
      std::vector<std::size_t> cursor(static_cast<std::size_t>(m), 0);
      for (std::size_t j = 0; j < md; ++j) {
        for (int i = 0; i < m; ++i) {
          const auto l = static_cast<std::size_t>(chunk_len[static_cast<std::size_t>(i)][j]);
          flen.push_back(l);
          const auto& pay = chunk_pay[static_cast<std::size_t>(i)];
          fpay.insert(fpay.end(), pay.begin() + cursor[static_cast<std::size_t>(i)],
                      pay.begin() + cursor[static_cast<std::size_t>(i)] + l);
          cursor[static_cast<std::size_t>(i)] += l;
        }
      }
      send<std::uint64_t>(leaders[static_cast<std::size_t>(q)], kTagHierAlltoall,
                          std::span<const std::uint64_t>(flen));
      send<T>(leaders[static_cast<std::size_t>(q)], kTagHierAlltoall,
              std::span<const T>(fpay));
    }

    // Receive one frame per remote node and redistribute: dst member j of
    // my node gets the source-member lengths row + contiguous payload.
    for (int q = 0; q < nn; ++q) {
      if (q == mynode) continue;
      const auto& qm = state_->node_members[static_cast<std::size_t>(q)];
      const auto ms = static_cast<std::size_t>(qm.size());
      const auto flen =
          recv<std::uint64_t>(leaders[static_cast<std::size_t>(q)], kTagHierAlltoall);
      const auto fpay = recv<T>(leaders[static_cast<std::size_t>(q)], kTagHierAlltoall);
      std::size_t off = 0;
      for (int j = 0; j < m; ++j) {
        const std::size_t row = static_cast<std::size_t>(j) * ms;
        std::size_t seg = 0;
        for (std::size_t i = 0; i < ms; ++i) seg += static_cast<std::size_t>(flen[row + i]);
        if (j == 0) {
          std::size_t o = off;
          for (std::size_t i = 0; i < ms; ++i) {
            const auto l = static_cast<std::size_t>(flen[row + i]);
            incoming[static_cast<std::size_t>(qm[i])].assign(fpay.begin() + o,
                                                             fpay.begin() + o + l);
            o += l;
          }
        } else {
          send<std::uint64_t>(members[static_cast<std::size_t>(j)], kTagHierDown,
                              std::span<const std::uint64_t>(flen.data() + row, ms));
          send<T>(members[static_cast<std::size_t>(j)], kTagHierDown,
                  std::span<const T>(fpay.data() + off, seg));
        }
        off += seg;
      }
    }
    return incoming;
  }

  [[nodiscard]] int virtual_rank(int root) const noexcept {
    return (rank_ - root + size()) % size();
  }
  [[nodiscard]] int real_rank(int vrank, int root) const noexcept {
    return (vrank + root) % size();
  }
  void check_rank(int r) const {
    if (r < 0 || r >= size()) throw std::out_of_range("bsp::Comm: rank out of range");
  }

  [[nodiscard]] WaitPolicy wait_policy() const noexcept {
    return WaitPolicy{state_->abort.get(), state_->watchdog, rank_};
  }

  /// Protocol-verifier hook at the top of every collective: append the
  /// call's fingerprint to this rank's ledger (bsp/protocol.hpp). The
  /// ledger is only read at synchronization points that order this write
  /// (barrier mutex, thread join). No-op unless verification is armed.
  void proto_record(ProtoOp op, int tag, std::uint32_t elem_size,
                    std::uint64_t shape) noexcept {
    if (!state_->verify_protocol) return;
    state_->ledgers[static_cast<std::size_t>(rank_)].record(op, tag, elem_size,
                                                            shape);
  }

  /// Fault-injection hook on every counted point-to-point op (and so on
  /// every collective). No-op unless a plan is installed.
  void fault_point(Mailbox::Message* payload) {
    if (fault_ == nullptr) return;
    const FaultPlan* plan = state_->fault_plan.get();
    if (plan == nullptr) return;
    plan->apply(*fault_, payload);
  }

  template <typename T, typename Op>
  static void combine_elementwise(std::vector<T>& into, const std::vector<T>& from,
                                  Op op) {
    if (into.size() != from.size()) {
      throw std::logic_error("bsp reduce: mismatched vector lengths across ranks");
    }
    for (std::size_t i = 0; i < into.size(); ++i) into[i] = op(into[i], from[i]);
  }

  std::shared_ptr<detail::SharedState> state_;
  int rank_;
  CostCounters* counters_;
  FaultSlot* fault_ = nullptr;  // world-rank injection state; null = no plan
  std::uint64_t split_sequence_ = 0;  // aligned across ranks by SPMD discipline
};

}  // namespace sas::bsp
