// fault.hpp — failure semantics of the in-process BSP runtime.
//
// Three cooperating pieces (ROADMAP "Failure semantics" has the contract):
//
//   AbortToken    One per world communicator, shared with every split
//                 child. When a rank's fn throws, Runtime trips the token
//                 with the annotated original error; every other rank's
//                 blocking primitive (Mailbox::retrieve, barrier, and the
//                 collectives built on them) polls the flag and unwinds
//                 with RankAborted, so a single failure terminates the
//                 whole run instead of deadlocking it. The token also
//                 keeps a registry of where each blocked thread currently
//                 waits, which the watchdog renders into its diagnostic.
//
//   WaitPolicy    The (token, watchdog deadline, rank) triple every
//                 blocking wait runs under. wait_or_abort is the single
//                 poll loop implementing both semantics: wake on notify,
//                 re-check the abort flag every few milliseconds, and trip
//                 the watchdog after `watchdog` of continuous blocking.
//
//   FaultPlan     Deterministic fault injection for tests: a parsed list
//                 of (rank, op-count) trigger points that throw, corrupt
//                 (byte-flip), or delay a message inside Comm::send/recv —
//                 and therefore inside every collective, which are built
//                 on them. Op counts are per WORLD rank and survive
//                 communicator splits (the FaultSlot travels with the
//                 rank like its cost counters).
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "util/error.hpp"

namespace sas::bsp {

/// Thrown by blocking primitives on ranks that did NOT fail, so they
/// unwind quietly while the failing rank's annotated error is rethrown
/// by Runtime::run.
class RankAborted : public error::Error {
 public:
  RankAborted()
      : Error(error::Code::kRankFailure, "bsp: run aborted by a peer rank failure") {}
};

/// Thrown at the injection point of a FaultPlan `throw` action.
class FaultInjected : public error::Error {
 public:
  explicit FaultInjected(const std::string& message)
      : Error(error::Code::kRankFailure, message) {}

 protected:
  FaultInjected(error::Code code, const std::string& message,
                error::Severity severity)
      : Error(code, message, severity) {}
};

/// Thrown at the injection point of a `throw_transient` action: carries
/// error::Severity::kTransient so the recovery layer retries the batch
/// instead of aborting the run.
class TransientFaultInjected : public FaultInjected {
 public:
  explicit TransientFaultInjected(const std::string& message)
      : FaultInjected(error::Code::kTransient, message,
                      error::Severity::kTransient) {}
};

/// Cross-rank abort state. First trip wins; later trips (the cascade of
/// RankAborted unwinds) are ignored.
class AbortToken {
 public:
  std::atomic<bool> tripped{false};

  /// Record `cause` as the run's original error. Returns true if this
  /// call won the race (callers that lose should unwind quietly).
  bool trip(int rank, std::exception_ptr cause) {
    std::lock_guard<std::mutex> lock(mutex_);
    if (tripped.load(std::memory_order_relaxed)) return false;
    cause_ = std::move(cause);
    source_rank_ = rank;
    // Snapshot the blocked-site registry at the instant of failure — the
    // observability layer attaches it to the postmortem trace. Built
    // inline because mutex_ is already held (blocked_sites() would
    // self-deadlock).
    blocked_at_trip_.clear();
    for (const auto& [tid, site] : blocked_) {
      if (!blocked_at_trip_.empty()) blocked_at_trip_ += "; ";
      blocked_at_trip_ += site;
    }
    tripped.store(true, std::memory_order_release);
    return true;
  }

  [[nodiscard]] std::exception_ptr cause() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return cause_;
  }

  [[nodiscard]] int source_rank() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return source_rank_;
  }

  /// The blocked-site snapshot captured when the token tripped (empty if
  /// no thread was blocked, or the token never tripped).
  [[nodiscard]] std::string blocked_at_trip() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return blocked_at_trip_;
  }

  /// Re-arm the token after a recovery rendezvous agreed to replay the
  /// failed batch. Call only while every rank is quiescent at the
  /// rendezvous (bsp/comm.cpp Comm::recover) — a reset racing a live
  /// collective would let a rank miss the abort it is unwinding from.
  void reset() {
    std::lock_guard<std::mutex> lock(mutex_);
    cause_ = nullptr;
    source_rank_ = -1;
    blocked_at_trip_.clear();
    tripped.store(false, std::memory_order_release);
  }

  void register_blocked(std::string site) {
    std::lock_guard<std::mutex> lock(mutex_);
    blocked_[std::this_thread::get_id()] = std::move(site);
  }

  void unregister_blocked() {
    std::lock_guard<std::mutex> lock(mutex_);
    blocked_.erase(std::this_thread::get_id());
  }

  /// Snapshot of every currently blocked thread's site, "; "-joined —
  /// the watchdog's per-rank blocked-in diagnostic.
  [[nodiscard]] std::string blocked_sites() const {
    std::lock_guard<std::mutex> lock(mutex_);
    std::string out;
    for (const auto& [tid, site] : blocked_) {
      if (!out.empty()) out += "; ";
      out += site;
    }
    return out;
  }

 private:
  mutable std::mutex mutex_;
  std::exception_ptr cause_;
  int source_rank_ = -1;
  std::string blocked_at_trip_;
  std::map<std::thread::id, std::string> blocked_;
};

/// Parameters every blocking BSP wait runs under. token == nullptr (bare
/// Mailbox unit tests) degrades to a plain wait; watchdog == 0 disables
/// the deadline.
struct WaitPolicy {
  AbortToken* token = nullptr;
  std::chrono::milliseconds watchdog{0};
  int rank = 0;
};

/// How often blocked waits re-check the abort flag. Small enough that
/// abort latency is invisible next to any real run; large enough that
/// idle polling costs nothing.
inline constexpr std::chrono::milliseconds kAbortPollInterval{5};

/// The one poll loop behind Mailbox::retrieve and Comm::barrier: wait on
/// `cv` until `ready()`, unwinding with RankAborted if the token trips
/// and with WatchdogTimeout if `policy.watchdog` elapses first. `site`
/// names this wait for the watchdog diagnostic, e.g.
/// "rank 2 in recv(source=0, tag=5)".
template <typename Pred>
void wait_or_abort(std::condition_variable& cv, std::unique_lock<std::mutex>& lock,
                   Pred ready, const WaitPolicy& policy, const std::string& site) {
  if (ready()) return;
  if (policy.token == nullptr && policy.watchdog.count() <= 0) {
    cv.wait(lock, std::move(ready));
    return;
  }
  struct BlockedGuard {
    AbortToken* token;
    ~BlockedGuard() {
      if (token != nullptr) token->unregister_blocked();
    }
  } guard{policy.token};
  if (policy.token != nullptr) policy.token->register_blocked(site);

  const auto start = std::chrono::steady_clock::now();
  for (;;) {
    if (policy.token != nullptr &&
        policy.token->tripped.load(std::memory_order_acquire)) {
      throw RankAborted();
    }
    if (cv.wait_for(lock, kAbortPollInterval, ready)) return;
    // In ms: the deadline in the clock's ns overflows above INT64_MAX / 10⁶.
    if (policy.watchdog.count() > 0 &&
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::steady_clock::now() - start) >= policy.watchdog) {
      std::string message = "bsp watchdog: " + site + " for over " +
                            std::to_string(policy.watchdog.count()) + " ms";
      if (policy.token != nullptr) {
        message += "; blocked ranks: [" + policy.token->blocked_sites() + "]";
        // First expiring rank owns the diagnostic; everyone else is
        // already covered by the abort cascade it triggers.
        if (!policy.token->trip(policy.rank,
                                std::make_exception_ptr(
                                    error::WatchdogTimeout(message)))) {
          throw RankAborted();
        }
      }
      throw error::WatchdogTimeout(message);
    }
  }
}

// ---- deterministic fault injection ---------------------------------------

enum class FaultKind {
  kThrow,           ///< throw FaultInjected at the op
  kThrowTransient,  ///< throw TransientFaultInjected (recovery retries it)
  kFlip,            ///< XOR one payload byte with 0xff (wire validation must catch)
  kDelay,           ///< sleep `param` milliseconds (watchdog fodder)
};

/// One trigger, firing on `rank`'s counted ops whose index is >= `op`
/// (">=" rather than "==" so a plan outliving a refactor that shaves a
/// few ops still fires). `count` repeats the action on that many
/// qualifying ops — per replay attempt for kThrowTransient, total for
/// the permanent kinds. A kThrowTransient action fires only while the
/// rank's replay attempt is < `until_attempt`, then succeeds, which is
/// what makes recovery deterministically testable: until=A heals on
/// attempt A, the default (never succeed) exercises retry exhaustion.
struct FaultAction {
  FaultKind kind = FaultKind::kThrow;
  int rank = 0;
  std::uint64_t op = 0;
  std::uint64_t param = 0;  ///< kFlip: byte offset; kDelay: milliseconds
  std::uint64_t count = 1;
  std::uint64_t until_attempt = ~std::uint64_t{0};
};

/// Per-world-rank injection state: the op counter, the current replay
/// attempt (bumped by the recovery layer), and per-action firing counts.
/// Carried by Comm alongside the cost counters so split-child traffic
/// keeps counting against the world rank.
struct FaultSlot {
  int world_rank = 0;
  std::uint64_t ops = 0;
  std::uint64_t attempt = 0;
  std::vector<std::uint64_t> fired;        ///< firings in the current epoch
  std::vector<std::uint64_t> fired_epoch;  ///< attempt the count belongs to
};

/// A parsed fault plan. Spec grammar (';'-separated actions, each a
/// ':'-separated field list):
///
///   rank=R:op=K:throw                    throw FaultInjected at op K
///   rank=R:op=K:throw_transient          transient fault (recoverable)
///   rank=R:op=K:flip[=OFF]               flip payload byte OFF (default 0)
///   rank=R:op=K:delay=MS                 sleep MS milliseconds
///
/// optionally followed by modifier fields in any order:
///
///   :count=N     fire on N qualifying ops (default 1); per replay
///                attempt for throw_transient, total otherwise
///   :until=A     throw_transient only: fire while the replay attempt is
///                < A, then succeed (default: never succeed)
///
/// e.g. --fault-plan "rank=1:op=8:throw_transient:until=2;rank=0:op=3:delay=50".
class FaultPlan {
 public:
  std::vector<FaultAction> actions;

  /// Parse a spec string; throws error::ConfigError on malformed input.
  [[nodiscard]] static FaultPlan parse(const std::string& spec);

  /// Seeded single-throw plan at a uniform (rank, op) point — the stress
  /// matrix's generator.
  [[nodiscard]] static FaultPlan random_throw(std::uint64_t seed, int nranks,
                                              std::uint64_t max_op);

  /// Seeded single-transient plan: like random_throw but recoverable,
  /// healing at replay attempt `until`.
  [[nodiscard]] static FaultPlan random_transient(std::uint64_t seed, int nranks,
                                                  std::uint64_t max_op,
                                                  std::uint64_t until);

  /// Advance `slot`'s op counter and fire any matching actions.
  /// `payload` is the message being sent/received (nullptr when the op
  /// carries none); kFlip actions wait for the next op with a non-empty
  /// payload rather than fizzling.
  void apply(FaultSlot& slot, std::vector<std::byte>* payload) const;
};

}  // namespace sas::bsp
