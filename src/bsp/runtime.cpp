#include "bsp/runtime.hpp"

#include <cstdlib>
#include <exception>
#include <memory>
#include <stdexcept>
#include <thread>

#include "obs/trace.hpp"
#include "util/error.hpp"

namespace sas::bsp {

namespace {

/// Explicit option wins; otherwise SAS_WATCHDOG_MS (CI's safety net);
/// otherwise off.
std::chrono::milliseconds effective_watchdog(std::chrono::milliseconds requested) {
  if (requested.count() > 0) return requested;
  if (const char* env = std::getenv("SAS_WATCHDOG_MS")) {
    char* end = nullptr;
    const long long ms = std::strtoll(env, &end, 10);
    if (end != env && *end == '\0' && ms > 0) return std::chrono::milliseconds(ms);
  }
  return std::chrono::milliseconds{0};
}

/// Explicit option wins; otherwise SAS_VERIFY_PROTOCOL (CI arms it with
/// "1"; empty or "0" means off).
bool effective_verify_protocol(bool requested) {
  if (requested) return true;
  const char* env = std::getenv("SAS_VERIFY_PROTOCOL");
  return env != nullptr && env[0] != '\0' &&
         !(env[0] == '0' && env[1] == '\0');
}

/// Postmortem note: record the run's failure (and the blocked-site
/// snapshot, when available) into the observer so the flushed trace
/// explains what the timeline was doing when it died.
void note_abort(obs::Observer* observer, const std::exception_ptr& cause,
                const std::string& blocked_sites) {
  if (observer == nullptr) return;
  std::string message = "unknown error";
  try {
    std::rethrow_exception(cause);
  } catch (const std::exception& e) {
    message = e.what();
  } catch (...) {  // sas-lint: allow(R7 postmortem label fallback: the "unknown error" default IS the translation)
  }
  observer->note_abort(message, blocked_sites);
}

}  // namespace

std::vector<CostCounters> Runtime::run(int nranks,
                                       const std::function<void(Comm&)>& fn) {
  return run(nranks, fn, RuntimeOptions{});
}

std::vector<CostCounters> Runtime::run(int nranks, const std::function<void(Comm&)>& fn,
                                       const RuntimeOptions& options) {
  if (nranks < 1) throw std::invalid_argument("bsp::Runtime::run: nranks must be >= 1");
  if (options.observer != nullptr && options.observer->nranks() < nranks) {
    throw std::invalid_argument(
        "bsp::Runtime::run: observer has fewer rank buffers than nranks");
  }

  auto state = std::make_shared<detail::SharedState>(nranks);
  state->watchdog = effective_watchdog(options.watchdog);
  state->fault_plan = options.fault_plan;
  if (effective_verify_protocol(options.verify_protocol)) {
    state->verify_protocol = true;
    state->ledgers.resize(static_cast<std::size_t>(nranks));
    state->owned_registry = std::make_shared<ProtocolRegistry>();
    state->protocol_registry = state->owned_registry.get();
  }
  std::vector<CostCounters> counters(static_cast<std::size_t>(nranks));
  std::vector<FaultSlot> fault_slots(static_cast<std::size_t>(nranks));
  for (int r = 0; r < nranks; ++r) fault_slots[static_cast<std::size_t>(r)].world_rank = r;

  if (nranks == 1) {
    // Fast path: run on the calling thread (serial references, unit
    // tests). Errors get the same rank/context annotation as the
    // threaded path so messages are identical at any p.
    try {
      obs::ScopedRankBinding obs_binding(options.observer, 0);
      Comm comm(state, 0, &counters[0], &fault_slots[0]);
      fn(comm);
    } catch (...) {
      const std::exception_ptr annotated =
          error::annotate_rank_error(std::current_exception(), 0);
      note_abort(options.observer, annotated, state->abort->blocked_at_trip());
      std::rethrow_exception(annotated);
    }
    if (state->verify_protocol) verify_protocol_at_exit(*state);
    return counters;
  }

  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(nranks));
  for (int r = 0; r < nranks; ++r) {
    threads.emplace_back([&, r] {
      obs::ScopedRankBinding obs_binding(options.observer, r);
      try {
        Comm comm(state, r, &counters[static_cast<std::size_t>(r)],
                  &fault_slots[static_cast<std::size_t>(r)]);
        fn(comm);
        // Exiting while the run is aborted (however unlikely on a clean
        // return) still counts as a defection: a recovery rendezvous
        // must never wait for a thread that is gone.
        if (state->abort->tripped.load(std::memory_order_acquire)) {
          state->note_recovery_defection();
        }
      } catch (const RankAborted&) {
        // A peer failed first; its annotated error is already in the
        // token. Unwind quietly — but tell any recovery rendezvous this
        // rank is gone (the failure escaped the driver's batch loop, so
        // this rank can no longer participate in a replay).
        state->note_recovery_defection();
      } catch (...) {
        // Annotate on THIS thread — the context stack is thread-local to
        // the failing rank. Losing the trip race (two ranks failing
        // concurrently) just means the other rank's error is the one
        // reported.
        state->abort->trip(r,
                           error::annotate_rank_error(std::current_exception(), r));
        state->note_recovery_defection();
      }
    });
  }
  for (auto& t : threads) t.join();
  if (state->abort->tripped.load(std::memory_order_acquire)) {
    note_abort(options.observer, state->abort->cause(),
               state->abort->blocked_at_trip());
    std::rethrow_exception(state->abort->cause());
  }
  // Run-exit protocol sweep (clean runs only: an aborted run leaks
  // messages by design). The joins above order every rank's ledger and
  // mailbox writes before this read.
  if (state->verify_protocol) verify_protocol_at_exit(*state);
  return counters;
}

}  // namespace sas::bsp
