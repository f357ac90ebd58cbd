// cost_model.hpp — BSP α-β-γ cost accounting, with a two-tier network.
//
// The paper analyzes SimilarityAtScale in the Bulk Synchronous Parallel
// model (§III-C): a superstep costs α, each transferred byte costs β, and
// each arithmetic operation costs γ, with α ≥ β ≥ γ. Because this
// reproduction substitutes an in-process runtime for MPI,
// the communication-efficiency claims are validated by *measuring* the
// α/β/γ quantities — supersteps, bytes moved, flops — rather than relying
// on NIC wall-clock alone. Every Comm operation updates these counters.
//
// == Two-tier model ======================================================
//
// Real clusters are not flat: a message between two ranks on the same
// node crosses shared memory (cheap α_intra, β_intra), while a message
// between nodes crosses the network (expensive α, β) — the (g, L)
// hierarchy that motivates the hierarchical collectives in bsp/comm.cpp.
// The counters therefore track every send twice:
//
//   messages_sent / bytes_sent   — ALL sends (both tiers). These keep
//                                  their historical meaning, so every
//                                  existing byte gate, bench column and
//                                  Θ-bound check reads totals unchanged.
//   messages_intra / bytes_intra — the same-node subset, as classified by
//                                  the runtime's node map (flat runs have
//                                  one node, so intra == 0 by convention:
//                                  a single tier is all "network").
//
// Inter-node traffic is the difference (total − intra). BspMachine prices
// the tiers separately: predicted_seconds(msgs, bytes, msgs_intra,
// bytes_intra) = inter·(α, β) + intra·(α_intra, β_intra). The
// observability layer records both tiers per collective span, so the
// drift report compares the two-tier prediction — not the flat one —
// against measured wall time whenever a node topology is active.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>

namespace sas::bsp {

/// Per-rank communication/computation counters. Padded to a cache line to
/// avoid false sharing between rank threads.
struct alignas(64) CostCounters {
  std::uint64_t messages_sent = 0;  ///< point-to-point sends issued (all tiers)
  std::uint64_t bytes_sent = 0;     ///< payload bytes across all sends (all tiers)
  std::uint64_t bytes_received = 0; ///< payload bytes across all receives
  std::uint64_t supersteps = 0;     ///< barrier synchronizations entered
  std::uint64_t flops = 0;          ///< arithmetic ops recorded by kernels
  std::uint64_t messages_intra = 0; ///< same-node subset of messages_sent
  std::uint64_t bytes_intra = 0;    ///< same-node subset of bytes_sent

  void reset() noexcept { *this = CostCounters{}; }
};

/// Aggregate view over all ranks of a run; `max_*` fields are the
/// per-rank maxima, which is what the BSP bounds constrain (the critical
/// path is the busiest rank).
struct CostSummary {
  std::uint64_t total_messages = 0;
  std::uint64_t total_bytes = 0;          ///< sum of per-rank bytes_sent
  std::uint64_t total_bytes_received = 0; ///< sum of per-rank bytes_received
  std::uint64_t total_messages_intra = 0; ///< same-node subset of total_messages
  std::uint64_t total_bytes_intra = 0;    ///< same-node subset of total_bytes
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
      s.total_messages_intra += c.messages_intra;
      s.total_bytes_intra += c.bytes_intra;
      s.total_flops += c.flops;
      s.max_messages = std::max(s.max_messages, c.messages_sent);
      s.max_bytes = std::max(s.max_bytes, c.bytes_sent);
      s.max_supersteps = std::max(s.max_supersteps, c.supersteps);
      s.max_flops = std::max(s.max_flops, c.flops);
    }
    return s;
  }
};

/// Machine parameters of the (two-tier) BSP model; used by benches to
/// convert the measured counters into a modelled time
/// T = supersteps·α + bytes·β + flops·γ and to check the paper's
/// asymptotic bounds. The intra tier defaults reflect shared-memory
/// transport being roughly an order of magnitude cheaper per message and
/// per byte than the network tier — benches that pin (α, β) positionally
/// keep working because the intra fields trail with defaults.
struct BspMachine {
  double alpha = 1.0e-6;   ///< seconds per superstep / inter-node message
  double beta = 1.0e-9;    ///< seconds per inter-node byte
  double gamma = 1.0e-10;  ///< seconds per arithmetic op
  double alpha_intra = 1.0e-7;  ///< seconds per intra-node (same-node) message
  double beta_intra = 1.0e-10;  ///< seconds per intra-node byte

  [[nodiscard]] double modelled_seconds(const CostSummary& s) const noexcept {
    return static_cast<double>(s.max_supersteps) * alpha +
           static_cast<double>(s.max_bytes) * beta +
           static_cast<double>(s.max_flops) * gamma;
  }

  /// Flat α-β prediction for a single communication primitive as observed
  /// from one rank: `messages` sends at latency α each plus `bytes`
  /// payload at β each. A zero-message primitive (barrier) still pays one
  /// α of synchronization. Used when no node topology is active (every
  /// send is network-tier).
  [[nodiscard]] double predicted_seconds(std::uint64_t messages,
                                         std::uint64_t bytes) const noexcept {
    const double latency =
        static_cast<double>(messages > 0 ? messages : 1) * alpha;
    return latency + static_cast<double>(bytes) * beta;
  }

  /// Two-tier α-β prediction: `messages`/`bytes` are the PRIMITIVE TOTALS
  /// (matching the counters), `messages_intra`/`bytes_intra` the same-node
  /// subset; the inter tier is the difference. The observability layer
  /// (obs/trace.hpp) records this next to the measured duration of every
  /// outermost collective so the report can surface per-primitive model
  /// drift under a node topology. A primitive that moved no messages at
  /// all (barrier) still pays one inter-tier α of synchronization.
  [[nodiscard]] double predicted_seconds(std::uint64_t messages, std::uint64_t bytes,
                                         std::uint64_t messages_intra,
                                         std::uint64_t bytes_intra) const noexcept {
    const std::uint64_t m_in = std::min(messages_intra, messages);
    const std::uint64_t b_in = std::min(bytes_intra, bytes);
    const std::uint64_t m_ex = messages - m_in;
    const std::uint64_t b_ex = bytes - b_in;
    if (messages == 0) return alpha;  // pure synchronization
    return static_cast<double>(m_ex) * alpha + static_cast<double>(b_ex) * beta +
           static_cast<double>(m_in) * alpha_intra +
           static_cast<double>(b_in) * beta_intra;
  }
};

}  // namespace sas::bsp
