// ring.hpp — the double-buffered 1-D ring rotation (the 1-D rotation of
// Özkural & Aykanat, with an overlapped send), shared by the exact SpGEMM
// ring (spgemm.hpp ring_ata_accumulate) and the sketch ring, which scores
// both the pure-sketch pipeline and the hybrid's all-pairs candidate pass
// (sketch/exchange.hpp).
//
// Each rank starts holding its own panel. At step s rank r holds the
// panel of rank (r − s) mod p, forwards it to rank r + 1, hands it to the
// caller's step callback, and receives the next one from rank r − 1; the
// last step only computes. The forward send is posted BEFORE the
// callback — bsp sends are buffered copies, so the payload is immutable
// once posted and the neighbour's receive (hence the whole hop) completes
// while this rank computes.
//
// A full rotation takes p steps (p − 1 hops): every panel visits every
// rank, which the exact SpGEMM ring needs. A symmetric product needs only
// ⌊p/2⌋ + 1 steps: step s gives rank r block (r, r − s), whose transpose
// (r − s, r) is what rank r − s would see at step p − s, so steps past
// p/2 only repeat blocks already seen. At even p, step p/2 hands ranks r
// and r + p/2 the two transposes of one block; the sketch ring splits it
// between them.
#pragma once

#include <span>
#include <stdexcept>
#include <vector>

#include "bsp/comm.hpp"
#include "obs/trace.hpp"

namespace sas::distmat {

/// Rotate `panel` (this rank's own payload) `steps` steps around `comm`'s
/// ring (p for a full rotation, ⌊p/2⌋ + 1 for a symmetric product; 1 ≤
/// steps ≤ p), calling `step(owner, held)` once per step with the rank
/// that owns the held panel (`owner == comm.rank()` at step 0). Every
/// step runs inside a plain obs::Span named `span_name` (no drift
/// prediction: the hop interleaves with the callback's compute, so α-β
/// time would not be comparable). `tag` is the caller's bsp::tags
/// constant. Collective.
template <typename T, typename StepFn>
void ring_rotate(bsp::Comm& comm, int tag, const char* span_name, int steps,
                 std::vector<T> panel, StepFn&& step) {
  const int p = comm.size();
  const int r = comm.rank();
  if (steps < 1 || steps > p) {
    throw std::invalid_argument("ring_rotate: steps must be in [1, p]");
  }
  int owner = r;
  for (int s = 0; s < steps; ++s) {
    const obs::Span hop(span_name, "ring", &comm.counters());
    const bool last_step = s + 1 == steps;
    if (!last_step) comm.send<T>((r + 1) % p, tag, std::span<const T>(panel));
    step(owner, std::span<const T>(panel));
    if (last_step) break;
    panel = comm.recv<T>((r + p - 1) % p, tag);
    owner = (owner + p - 1) % p;
  }
}

}  // namespace sas::distmat
