// ring.hpp — the double-buffered 1-D ring rotation (the 1-D rotation of
// Özkural & Aykanat, with an overlapped send), shared by the exact SpGEMM
// ring (spgemm.hpp ring_ata_accumulate) and the sketch-exchange ring
// (sketch/exchange.hpp sketch_similarity_at_scale).
//
// Each rank starts holding its own panel. In p steps every panel visits
// every rank: at step s rank r holds the panel of rank (r − s) mod p,
// forwards it to rank r + 1, hands it to the caller's step callback, and
// receives the next one from rank r − 1. The forward send is posted
// BEFORE the callback — bsp sends are buffered copies, so the payload is
// immutable once posted and the neighbour's receive (hence the whole hop)
// completes while this rank computes.
#pragma once

#include <span>
#include <vector>

#include "bsp/comm.hpp"
#include "obs/trace.hpp"

namespace sas::distmat {

/// Rotate `panel` (this rank's own payload) around `comm`'s ring, calling
/// `step(owner, held)` once per step with the rank that owns the held
/// panel (`owner == comm.rank()` at step 0). Every step runs inside a
/// plain obs::Span named `span_name` (no drift prediction: the hop
/// interleaves with the callback's compute, so α-β time would not be
/// comparable). `tag` is the caller's bsp::tags constant. Collective.
template <typename T, typename StepFn>
void ring_rotate(bsp::Comm& comm, int tag, const char* span_name, std::vector<T> panel,
                 StepFn&& step) {
  const int p = comm.size();
  const int r = comm.rank();
  int owner = r;
  for (int s = 0; s < p; ++s) {
    const obs::Span hop(span_name, "ring", &comm.counters());
    const bool last_step = s + 1 == p;
    if (!last_step) comm.send<T>((r + 1) % p, tag, std::span<const T>(panel));
    step(owner, std::span<const T>(panel));
    if (last_step) break;
    panel = comm.recv<T>((r + p - 1) % p, tag);
    owner = (owner + p - 1) % p;
  }
}

}  // namespace sas::distmat
