// tags.hpp — central registry of user-level BSP message tags.
//
// comm.hpp reserves the negative tag space for internal collective
// traffic (InternalTag); user tags must be non-negative. This header is
// the ONE place non-negative tags are minted: every send/recv call site
// outside the bsp layer names a constant from here, so two subsystems
// can never collide on a tag and the whole tag space is auditable at a
// glance. Enforced by tools/sas_lint.py rule R2 — a numeric literal in
// the tag position of a send/recv call site anywhere in src/ fails lint.
//
// Allocation policy: each subsystem owns a decade-aligned block. Keep
// values unique across the file (tags only ever match symmetrically
// between a send and its recv, so renumbering is behavior-neutral, but
// unique values make mailbox dumps and verifier leak reports unambiguous).
#pragma once

namespace sas::bsp::tags {

// -- distmat/spgemm.cpp ------------------------------------------------
// 200–299: SUMMA A^T·A. One tag per k-stage so a stage's panel cannot be
// confused with the next stage's under the FIFO (source, tag) matching.
inline constexpr int kSummaTransposeBase = 200;
/// Tag of SUMMA transpose stage k (k < 100 in any realistic grid).
[[nodiscard]] inline constexpr int summa_transpose(int k) {
  return kSummaTransposeBase + k;
}

// 300–309: 1-D ring A^T·A — the rotating panel hop.
inline constexpr int kSpgemmRing = 300;

// 310–319: free.

// -- sketch/exchange.cpp -----------------------------------------------
// 320–329: sketch-panel ring of the distributed estimator exchange.
inline constexpr int kSketchRing = 320;

// -- bsp/comm.cpp (recovery rendezvous) --------------------------------
// 330–339: in-run recovery. The rendezvous itself synchronizes on shared
// state, not messages, but its resync point is stamped into every rank's
// fresh protocol ledger under this tag so the verifier's divergence
// reports show exactly where a replay re-synchronized — and so a ledger
// that diverges *across* a recovery names the recovery, not a phantom
// collective.
inline constexpr int kRecoveryResync = 330;

}  // namespace sas::bsp::tags
