// ring.hpp — the double-buffered symmetric 1-D ring, shared by the exact
// SpGEMM ring (spgemm.hpp ring_ata_accumulate) and the sketch ring, which
// scores both the pure-sketch pipeline and the hybrid's all-pairs
// candidate pass (sketch/exchange.hpp). ring_share is the one triangle
// rule: the exact ring, the hybrid's targeted exchange, both assemble
// paths of the driver and the sketch ring all take their blocks from it.
//
// Each rank starts holding its own panel. At step s rank r holds the
// panel of rank (r − s) mod p, forwards it to rank r + 1, hands it to the
// caller's step callback, and receives the next one from rank r − 1; the
// last step only computes. The forward send is posted BEFORE the
// callback — bsp sends are buffered copies, so the payload is immutable
// once posted and the neighbour's receive (hence the whole hop) completes
// while this rank computes. Payloads are opaque here: the exact ring
// rotates its panel in the compact panel wire (panel_wire.hpp), encoded
// once per batch and forwarded verbatim, and decodes each held panel in
// its callback; the sketch ring rotates flattened wire blobs.
//
// Every product on the ring is symmetric (B(i, j) = B(j, i) bitwise: an
// integer popcount sum; the wire estimators are symmetric too), so the
// rotation takes ⌊p/2⌋ + 1 steps (⌊p/2⌋ hops): step s gives rank r block
// (r, r − s), whose transpose (r − s, r) is what rank r − s would see at
// step p − s, so steps past p/2 only repeat blocks already seen. At even
// p, step p/2 hands ranks r and r + p/2 the two transposes of one block,
// and ring_share splits it between them. The 1-D rotation of Özkural &
// Aykanat and CoMet's all-pairs kernels (Joubert et al.) use the same
// symmetry.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "bsp/comm.hpp"
#include "distmat/block.hpp"
#include "obs/trace.hpp"

namespace sas::distmat {

/// The part of block (rank, owner) of a symmetric product that `rank`
/// computes: `rows` are positions in rank's own block, `cols` positions
/// in owner's block.
struct RingShare {
  BlockRange rows;
  BlockRange cols;

  [[nodiscard]] bool empty() const noexcept { return rows.size() <= 0 || cols.size() <= 0; }
};

/// `rank`'s share of block (rank, owner) on the p-rank symmetric ring,
/// where rank's block holds `rows` samples and owner's `cols`. The shares
/// of all ranks cover each off-diagonal block pair {a, b} exactly once —
/// by one share or its transpose — and each diagonal block by its
/// owner's share alone:
///   * step (rank − owner) mod p = 0: the whole diagonal block;
///   * steps 0 < s < p/2: the whole block;
///   * even p's step p/2: the lower rank takes the first half of its
///     rows, the upper rank the second half of its held columns;
///   * steps past p/2: empty (the transpose's owner computes it).
[[nodiscard]] inline RingShare ring_share(int p, int rank, int owner, std::int64_t rows,
                                          std::int64_t cols) noexcept {
  const int step = (rank - owner + p) % p;
  if (2 * step > p) return {};
  RingShare share{{0, rows}, {0, cols}};
  if (2 * step == p) {
    if (rank < owner) {
      share.rows.end = rows / 2;
    } else {
      share.cols.begin = cols / 2;
    }
  }
  return share;
}

/// Rotate `panel` (this rank's own payload) ⌊p/2⌋ + 1 steps around
/// `comm`'s ring, calling `step(owner, held)` once per step with the rank
/// that owns the held panel (`owner == comm.rank()` at step 0); the
/// callback computes its ring_share of block (rank, owner). Every step
/// runs inside a plain obs::Span named `span_name` (no drift prediction:
/// the hop interleaves with the callback's compute, so α-β time would
/// not be comparable). `tag` is the caller's bsp::tags constant.
/// Collective.
template <typename T, typename StepFn>
void ring_rotate(bsp::Comm& comm, int tag, const char* span_name, std::vector<T> panel,
                 StepFn&& step) {
  const int p = comm.size();
  const int r = comm.rank();
  const int steps = p / 2 + 1;
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
