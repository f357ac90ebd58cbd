// trace.hpp — per-rank span tracing and metrics for the BSP runtime.
//
// Design (ROADMAP "Observability"):
//   * One `Observer` per run owns one `RankObserver` per rank. Runtime::run
//     binds the calling thread to its rank's observer through a
//     thread-local pointer; every instrumentation site goes through
//     `obs::current()`, so an unbound thread (no observer requested, or a
//     kernel worker thread inside a rank) pays exactly one thread-local
//     load and a null check — the layer is cheap enough to stay on by
//     default in the benches (micro_kernels gates the overhead < 3%).
//   * Spans are RAII (`Span`, `CollectiveScope`, `BatchScope`) against a
//     monotonic clock shared across ranks (one epoch per Observer), stored
//     in a bounded per-rank buffer; overflow drops the newest span and
//     bumps a drop counter instead of allocating.
//   * `CollectiveScope` additionally records α-β predicted vs measured
//     time per primitive — but only at the outermost nesting level, so an
//     allreduce does not double-count its internal reduce + broadcast.
//   * Each RankObserver is touched by exactly one thread during the run;
//     the merge into Chrome trace-event JSON happens after the rank
//     threads joined (or, on abort, after Runtime::run caught the cause),
//     so no synchronization is needed on the hot path.
//
// Span names must be string literals (or otherwise outlive the Observer):
// events store `const char*` to keep the hot path allocation-free.
#pragma once

#include <array>
#include <bit>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "bsp/cost_model.hpp"

namespace sas::obs {

/// Communication primitives tracked for cost-model drift.
enum class Primitive : int {
  kBroadcast = 0,
  kReduce,
  kAllreduce,
  kGather,
  kAllgather,
  kAlltoall,
  kBarrier,
};
inline constexpr std::size_t kPrimitiveCount = 7;

[[nodiscard]] const char* primitive_name(Primitive p) noexcept;

/// One closed span. `name`/`category` must point at static storage.
struct SpanEvent {
  const char* name = "";
  const char* category = "";
  std::int64_t start_ns = 0;
  std::int64_t dur_ns = 0;
  std::uint64_t bytes_sent = 0;
  std::uint64_t bytes_received = 0;
  std::uint64_t messages = 0;
  std::int64_t batch = -1;       ///< ambient batch index, -1 outside batches
  double predicted_s = -1.0;     ///< α-β prediction; < 0 when not recorded
};

/// Power-of-two-bucket histogram (bucket k counts values with bit width
/// k, i.e. v in [2^(k-1), 2^k)); cheap enough for per-message recording.
struct Histogram {
  std::array<std::uint64_t, 65> buckets{};
  std::uint64_t count = 0;
  std::uint64_t sum = 0;
  std::uint64_t max = 0;

  void record(std::uint64_t v) noexcept {
    ++count;
    sum += v;
    if (v > max) max = v;
    ++buckets[static_cast<std::size_t>(std::bit_width(v))];
  }
};

/// Per-primitive drift accumulator: Σ predicted and Σ measured seconds
/// over every outermost instance of the primitive on one rank.
struct DriftCell {
  std::uint64_t samples = 0;
  double predicted_seconds = 0.0;
  double measured_seconds = 0.0;
};

/// Per-rank event buffer + metrics. Written only by the owning rank
/// thread during a run; read by the Observer's writers after join.
class RankObserver {
 public:
  RankObserver(int rank, std::size_t capacity,
               std::chrono::steady_clock::time_point epoch,
               const bsp::BspMachine& machine)
      : rank_(rank), capacity_(capacity), epoch_(epoch), machine_(machine) {
    events_.reserve(capacity);
  }

  [[nodiscard]] std::int64_t now_ns() const noexcept {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - epoch_)
        .count();
  }

  /// Bounded append: past capacity the newest span is dropped (counted),
  /// never reallocating — emission stays noexcept on the hot path.
  void emit(const SpanEvent& ev) noexcept {
    if (events_.size() >= capacity_) {
      ++dropped_;
      return;
    }
    events_.push_back(ev);
  }

  /// Named cold-path counter (checkpoint bytes, tile-skip totals, …).
  /// Not for per-message rates — those use the fixed-slot histograms.
  void add_counter(const char* name, std::uint64_t delta) {
    counters_[name] += delta;
  }

  [[nodiscard]] int rank() const noexcept { return rank_; }
  [[nodiscard]] const std::vector<SpanEvent>& events() const noexcept {
    return events_;
  }
  [[nodiscard]] std::uint64_t dropped() const noexcept { return dropped_; }
  [[nodiscard]] const std::map<std::string, std::uint64_t>& counters()
      const noexcept {
    return counters_;
  }
  [[nodiscard]] const std::array<DriftCell, kPrimitiveCount>& drift()
      const noexcept {
    return drift_;
  }
  [[nodiscard]] const bsp::BspMachine& machine() const noexcept {
    return machine_;
  }

  // Ambient state manipulated by the RAII scopes below. Single-threaded
  // by construction (one rank thread), so plain ints suffice.
  int open_depth = 0;        ///< currently-open spans (balance invariant)
  int collective_depth = 0;  ///< nesting level of CollectiveScopes
  std::int64_t current_batch = -1;

  Histogram message_bytes;    ///< wire size (CRC trailer included) of every non-self send
  Histogram mailbox_wait_ns;  ///< time blocked in each mailbox retrieve

  std::array<DriftCell, kPrimitiveCount> drift_{};

 private:
  int rank_;
  std::size_t capacity_;
  std::chrono::steady_clock::time_point epoch_;
  bsp::BspMachine machine_;
  std::vector<SpanEvent> events_;
  std::uint64_t dropped_ = 0;
  std::map<std::string, std::uint64_t> counters_;
};

/// Default per-rank span capacity (~1 MiB of events per rank).
inline constexpr std::size_t kDefaultSpanCapacity = std::size_t{1} << 14;

/// Run-wide observer: per-rank buffers, a shared monotonic epoch, the
/// cost model used for predictions, and the abort postmortem note.
class Observer {
 public:
  explicit Observer(int nranks, std::size_t span_capacity = kDefaultSpanCapacity,
                    const bsp::BspMachine& machine = bsp::BspMachine{})
      : epoch_(std::chrono::steady_clock::now()) {
    ranks_.reserve(static_cast<std::size_t>(nranks));
    for (int r = 0; r < nranks; ++r) {
      ranks_.push_back(
          std::make_unique<RankObserver>(r, span_capacity, epoch_, machine));
    }
  }

  [[nodiscard]] int nranks() const noexcept {
    return static_cast<int>(ranks_.size());
  }
  [[nodiscard]] RankObserver& rank(int r) { return *ranks_[static_cast<std::size_t>(r)]; }
  [[nodiscard]] const RankObserver& rank(int r) const {
    return *ranks_[static_cast<std::size_t>(r)];
  }

  /// Postmortem note recorded by Runtime::run when the abort token
  /// tripped (or by the single-rank fast path's catch). First note wins,
  /// matching the abort token's first-failure semantics.
  void note_abort(const std::string& message, const std::string& blocked_sites) {
    const std::lock_guard<std::mutex> lock(abort_mutex_);
    if (aborted_) return;
    aborted_ = true;
    abort_message_ = message;
    blocked_sites_ = blocked_sites;
  }

  [[nodiscard]] bool aborted() const {
    const std::lock_guard<std::mutex> lock(abort_mutex_);
    return aborted_;
  }
  [[nodiscard]] std::string abort_message() const {
    const std::lock_guard<std::mutex> lock(abort_mutex_);
    return abort_message_;
  }
  [[nodiscard]] std::string blocked_sites_at_abort() const {
    const std::lock_guard<std::mutex> lock(abort_mutex_);
    return blocked_sites_;
  }

  [[nodiscard]] std::uint64_t total_dropped() const noexcept {
    std::uint64_t total = 0;
    for (const auto& r : ranks_) total += r->dropped();
    return total;
  }

  /// Sum the per-rank drift cells into one table.
  [[nodiscard]] std::array<DriftCell, kPrimitiveCount> aggregate_drift() const;

  /// Merge all rank buffers into Chrome trace-event JSON (Perfetto /
  /// about:tracing): rank → "process", span args carry byte counts,
  /// batch index, and the α-β prediction; `otherData` carries drop
  /// counts and, on an aborted run, the failure + blocked-site snapshot.
  void write_chrome_trace(std::ostream& out) const;
  /// As above, to a file. Throws error::ConfigError if unwritable.
  void write_chrome_trace_file(const std::string& path) const;

 private:
  std::chrono::steady_clock::time_point epoch_;
  std::vector<std::unique_ptr<RankObserver>> ranks_;
  mutable std::mutex abort_mutex_;
  bool aborted_ = false;
  std::string abort_message_;
  std::string blocked_sites_;
};

namespace detail {
inline thread_local RankObserver* t_rank_observer = nullptr;
}

/// The RankObserver bound to this thread, or nullptr when observability
/// is off (or this is an unbound kernel worker thread).
[[nodiscard]] inline RankObserver* current() noexcept {
  return detail::t_rank_observer;
}

/// Binds the calling thread to `observer->rank(rank)` for its lifetime;
/// installed by Runtime::run on every rank thread (and the p = 1 fast
/// path). A null observer binds nothing, restoring cleanly either way.
class ScopedRankBinding {
 public:
  ScopedRankBinding(Observer* observer, int rank) noexcept
      : prev_(detail::t_rank_observer) {
    detail::t_rank_observer =
        observer != nullptr ? &observer->rank(rank) : nullptr;
  }
  ~ScopedRankBinding() { detail::t_rank_observer = prev_; }
  ScopedRankBinding(const ScopedRankBinding&) = delete;
  ScopedRankBinding& operator=(const ScopedRankBinding&) = delete;

 private:
  RankObserver* prev_;
};

/// RAII span. When constructed with a CostCounters pointer the span's
/// byte/message args are the counter deltas over its lifetime; add_bytes
/// covers sites that account traffic manually. No-op when unbound.
class Span {
 public:
  explicit Span(const char* name, const char* category,
                const bsp::CostCounters* counters = nullptr) noexcept
      : obs_(current()), name_(name), category_(category) {
    if (obs_ == nullptr) return;
    counters_ = counters;
    if (counters_ != nullptr) {
      sent0_ = counters_->bytes_sent;
      recv0_ = counters_->bytes_received;
      msgs0_ = counters_->messages_sent;
    }
    ++obs_->open_depth;
    start_ns_ = obs_->now_ns();
  }
  ~Span() { close(); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Manual traffic attribution for spans without a counters pointer.
  void add_bytes(std::uint64_t sent, std::uint64_t received) noexcept {
    extra_sent_ += sent;
    extra_recv_ += received;
  }

  void set_predicted(double seconds) noexcept { predicted_ = seconds; }

  /// Emit now instead of at destruction — lets straight-line phase code
  /// (the LSH candidate pass) mark phase boundaries without nesting.
  void close() noexcept {
    if (obs_ == nullptr) return;
    RankObserver* const o = obs_;
    obs_ = nullptr;
    SpanEvent ev;
    ev.name = name_;
    ev.category = category_;
    ev.start_ns = start_ns_;
    ev.dur_ns = o->now_ns() - start_ns_;
    ev.bytes_sent = extra_sent_;
    ev.bytes_received = extra_recv_;
    if (counters_ != nullptr) {
      ev.bytes_sent += counters_->bytes_sent - sent0_;
      ev.bytes_received += counters_->bytes_received - recv0_;
      ev.messages = counters_->messages_sent - msgs0_;
    }
    ev.batch = o->current_batch;
    ev.predicted_s = predicted_;
    --o->open_depth;
    o->emit(ev);
  }

 private:
  RankObserver* obs_;
  const char* name_;
  const char* category_;
  const bsp::CostCounters* counters_ = nullptr;
  std::int64_t start_ns_ = 0;
  std::uint64_t sent0_ = 0;
  std::uint64_t recv0_ = 0;
  std::uint64_t msgs0_ = 0;
  std::uint64_t extra_sent_ = 0;
  std::uint64_t extra_recv_ = 0;
  double predicted_ = -1.0;
};

/// Span around one Comm collective. At the outermost nesting level it
/// also books predicted (α-β over the counter deltas) vs measured time
/// into the rank's drift table; nested collectives (allreduce's internal
/// reduce + broadcast, split's allgather + barrier) emit plain spans so
/// drift never double-counts.
class CollectiveScope {
 public:
  CollectiveScope(Primitive prim, const bsp::CostCounters& counters) noexcept
      : obs_(current()) {
    if (obs_ == nullptr) return;
    prim_ = prim;
    counters_ = &counters;
    sent0_ = counters.bytes_sent;
    recv0_ = counters.bytes_received;
    msgs0_ = counters.messages_sent;
    outermost_ = obs_->collective_depth == 0;
    ++obs_->collective_depth;
    ++obs_->open_depth;
    start_ns_ = obs_->now_ns();
  }
  ~CollectiveScope() {
    if (obs_ == nullptr) return;
    const std::int64_t end_ns = obs_->now_ns();
    SpanEvent ev;
    ev.name = primitive_name(prim_);
    ev.category = "collective";
    ev.start_ns = start_ns_;
    ev.dur_ns = end_ns - start_ns_;
    ev.bytes_sent = counters_->bytes_sent - sent0_;
    ev.bytes_received = counters_->bytes_received - recv0_;
    ev.messages = counters_->messages_sent - msgs0_;
    ev.batch = obs_->current_batch;
    if (outermost_) {
      const double predicted =
          obs_->machine().predicted_seconds(ev.messages, ev.bytes_sent);
      ev.predicted_s = predicted;
      DriftCell& cell = obs_->drift_[static_cast<std::size_t>(prim_)];
      ++cell.samples;
      cell.predicted_seconds += predicted;
      cell.measured_seconds += static_cast<double>(ev.dur_ns) * 1e-9;
    }
    --obs_->collective_depth;
    --obs_->open_depth;
    obs_->emit(ev);
  }
  CollectiveScope(const CollectiveScope&) = delete;
  CollectiveScope& operator=(const CollectiveScope&) = delete;

 private:
  RankObserver* obs_;
  Primitive prim_ = Primitive::kBarrier;
  const bsp::CostCounters* counters_ = nullptr;
  std::int64_t start_ns_ = 0;
  std::uint64_t sent0_ = 0;
  std::uint64_t recv0_ = 0;
  std::uint64_t msgs0_ = 0;
  bool outermost_ = false;
};

/// Sets the ambient batch index (stamped into every span closed inside)
/// and emits a "batch" span covering the whole batch body.
class BatchScope {
 public:
  explicit BatchScope(std::int64_t batch) noexcept
      : restore_{current(), current() != nullptr ? current()->current_batch : -1},
        span_("batch", "batch") {
    if (restore_.obs != nullptr) restore_.obs->current_batch = batch;
  }
  BatchScope(const BatchScope&) = delete;
  BatchScope& operator=(const BatchScope&) = delete;

 private:
  // Declared before span_ so it is destroyed after it: the batch span
  // closes while the batch index is still current, then the previous
  // index is restored.
  struct Restore {
    RankObserver* obs;
    std::int64_t prev;
    ~Restore() {
      if (obs != nullptr) obs->current_batch = prev;
    }
  };
  Restore restore_;
  Span span_;
};

}  // namespace sas::obs
