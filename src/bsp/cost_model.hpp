// cost_model.hpp — BSP α-β-γ cost accounting on a flat network.
//
// The paper analyzes SimilarityAtScale in the Bulk Synchronous Parallel
// model (§III-C): a superstep costs α, each transferred byte costs β, and
// each arithmetic operation costs γ, with α ≥ β ≥ γ. Because this
// reproduction substitutes an in-process runtime for MPI,
// the communication-efficiency claims are validated by *measuring* the
// α/β/γ quantities — supersteps, bytes moved, flops — rather than relying
// on NIC wall-clock alone. Every Comm operation updates these counters.
//
// The network is a single tier, as in the paper's per-rank volume
// bounds: every send between two distinct ranks costs one α plus β per
// payload byte, wherever the ranks sit. BspMachine turns the counters
// into a modelled run time (modelled_seconds) and prices one collective
// as observed from one rank (predicted_seconds); the observability layer
// records the latter next to each outermost collective's measured
// duration, which is the per-primitive drift the reports surface.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>

namespace sas::bsp {

/// Per-rank communication/computation counters. Padded to a cache line to
/// avoid false sharing between rank threads.
struct alignas(64) CostCounters {
  std::uint64_t messages_sent = 0;  ///< point-to-point sends issued
  std::uint64_t bytes_sent = 0;     ///< wire bytes (CRC trailers included) of all sends
  std::uint64_t bytes_received = 0; ///< wire bytes (CRC trailers included) of all receives
  std::uint64_t supersteps = 0;     ///< barrier synchronizations entered
  std::uint64_t flops = 0;          ///< arithmetic ops recorded by kernels

  void reset() noexcept { *this = CostCounters{}; }
};

/// Aggregate view over all ranks of a run; `max_*` fields are the
/// per-rank maxima, which is what the BSP bounds constrain (the critical
/// path is the busiest rank).
struct CostSummary {
  std::uint64_t total_messages = 0;
  std::uint64_t total_bytes = 0;          ///< sum of per-rank bytes_sent
  std::uint64_t total_bytes_received = 0; ///< sum of per-rank bytes_received
  std::uint64_t max_messages = 0;   ///< max over ranks
  std::uint64_t max_bytes = 0;      ///< max over ranks
  std::uint64_t max_supersteps = 0; ///< max over ranks (≈ common value)
  std::uint64_t total_flops = 0;
  std::uint64_t max_flops = 0;

  static CostSummary aggregate(std::span<const CostCounters> per_rank) {
    CostSummary s;
    for (const CostCounters& c : per_rank) {
      s.total_messages += c.messages_sent;
      s.total_bytes += c.bytes_sent;
      s.total_bytes_received += c.bytes_received;
      s.total_flops += c.flops;
      s.max_messages = std::max(s.max_messages, c.messages_sent);
      s.max_bytes = std::max(s.max_bytes, c.bytes_sent);
      s.max_supersteps = std::max(s.max_supersteps, c.supersteps);
      s.max_flops = std::max(s.max_flops, c.flops);
    }
    return s;
  }
};

/// Machine parameters of the BSP model; used by benches to convert the
/// measured counters into a modelled time
/// T = supersteps·α + bytes·β + flops·γ and to check the paper's
/// asymptotic bounds.
struct BspMachine {
  double alpha = 1.0e-6;   ///< seconds per superstep / message
  double beta = 1.0e-9;    ///< seconds per byte
  double gamma = 1.0e-10;  ///< seconds per arithmetic op

  [[nodiscard]] double modelled_seconds(const CostSummary& s) const noexcept {
    return static_cast<double>(s.max_supersteps) * alpha +
           static_cast<double>(s.max_bytes) * beta +
           static_cast<double>(s.max_flops) * gamma;
  }

  /// α-β prediction for a single communication primitive as observed
  /// from one rank: `messages` sends at latency α each plus `bytes`
  /// payload at β each. A zero-message primitive (barrier) still pays one
  /// α of synchronization.
  [[nodiscard]] double predicted_seconds(std::uint64_t messages,
                                         std::uint64_t bytes) const noexcept {
    const double latency =
        static_cast<double>(messages > 0 ? messages : 1) * alpha;
    return latency + static_cast<double>(bytes) * beta;
  }
};

}  // namespace sas::bsp
