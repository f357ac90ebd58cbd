// spgemm.hpp — the popcount-semiring AᵀA product (paper Eq. 7 + §III-C).
//
// Computes B-contributions s⁽ˡ⁾ᵢⱼ = Σₖ popcount(âₖᵢ ∧ âₖⱼ) from bit-packed
// sparse blocks, in four interchangeable parallel forms:
//
//   serial_ata             — single-block reference (tests, baselines)
//   ring_ata_accumulate    — symmetric 1D column-panel ring: ⌊p/2⌋ hops,
//                            per-rank comm ⌊p/2⌋·z/p ≈ z/2
//   summa_ata_accumulate   — 2D/2.5D SUMMA on the √(p/c)×√(p/c)×c grid:
//                            per-rank comm Θ(z/√(cp) + cn²/p)  [paper bound]
//
// All variants produce bit-identical B entries (the ring in its shares;
// enforced by tests); the communication difference is the paper's
// headline claim and is measured by bench/comm_model_validation through
// the bsp cost counters. Every panel a variant ships — ring hops, SUMMA
// transposes and broadcasts, the targeted alltoall — travels in the
// compact panel wire (panel_wire.hpp): a rank encodes its panel once per
// batch (the targeted exchange once per peer's column subset), and each
// receiver decodes straight into the CsrPanel it multiplies, bounds-
// checked against its own panel extents, so a damaged message fails as
// error::CorruptInput before a kernel indexes with it.
//
// == Kernel architecture (CSR tiles + overlapped rotation) ===============
//
// The local multiply is a Gustavson-style CSR×CSR row intersection over
// word-rows: each operand panel is converted ONCE into a CsrPanel
// (row starts over word-rows, column indices and 64-bit masks in two
// contiguous SoA arrays), then for every word-row k present in both
// panels the rank-1 update
//
//     B[Lcol(a), Ncol(b)] += popcount(Lval(a) ∧ Nval(b))
//
// is applied for all entry pairs (a, b) of that row. Three levers make
// this fast where the old triplet merge-join was not:
//
//   1. No run re-derivation. The merge-join re-scanned the triplet array
//      to find row-run boundaries on every call (p calls per batch in the
//      ring). CsrPanel indexes the OCCUPIED word-rows once per received
//      panel (sorted row_ids + compact row_ptr — a dense rows+1 array is
//      impossible in the unfiltered hypersparse regime, where the nominal
//      row space exceeds 10¹²), and the common-row list is one two-pointer
//      merge over the occupied rows, shared by all tiles.
//   2. Cache-sized output tiles. The N-side columns are processed in
//      tiles of kAtaTileCols output columns, so the touched segments of
//      the dense accumulator rows stay resident across the whole L-side
//      loop (the accumulator row stride is the full output width n —
//      untiled, large n thrashes every level of cache). Per-row cursors
//      advance monotonically through each CSR row, so tiling adds no
//      re-scan cost.
//   3. Vectorized popcount scatter. The innermost operations are the
//      dispatched popcount_and_scatter(_4) entries (util/popcount.hpp →
//      util/popcount_scatter.cpp): on AVX512 hosts each pass gathers
//      eight accumulator slots by the CSR column indices, adds eight
//      VPOPCNTQ results, and scatters them back — conflict-free because
//      CSR canonical form keeps the indices of a row segment unique —
//      and the 4-row form loads each (col, mask) pair once for four
//      output rows. Hosts without AVX512 (or with the GCC 12 VPOPCNTQ
//      mis-fold and no runtime-probe escape) fall back to the 4-way
//      unrolled scalar loops with independent POPCNT chains. The
//      crossover calibrator times the *dispatched* entry, so the
//      sparse/dense threshold below tracks whichever variant runs.
//   4. Density-adaptive dense-block path. Scatter accumulation is
//      limited by store throughput even vectorized; when the panel fill
//      product clears the measured sparse/dense crossover, both panels
//      are densified into column-major bit vectors and every output cell
//      becomes one store-free streaming popcount dot product
//      (popcount_and_sum_stream), which runs at vector popcount
//      throughput. This is the Joubert et al. (CoMet) formulation,
//      engaged exactly where it wins.
//
// The kernel runs on the calling rank's thread. Ranks are the unit of
// parallelism (each rank is a thread of the in-process runtime), so the
// kernel has no worker pool of its own and does no NUMA placement.
//
// The ring schedule is double-buffered: the send of the currently held
// panel is posted *before* the local multiply (distmat/ring.hpp, the
// symmetric rotation shared with the sketch-exchange ring), which lets the
// neighbour's receive — and hence the whole rotation hop — complete
// while this rank computes. SUMMA overlaps its stages the same way: the
// stage-k+1 transpose send is posted before the stage-k broadcasts and
// multiply, so the next stage's longest point-to-point hop hides under
// the current stage's compute.
#pragma once

#include <cstdint>
#include <span>

#include "bsp/comm.hpp"
#include "distmat/csr.hpp"
#include "distmat/dense_block.hpp"
#include "distmat/pair_mask.hpp"
#include "distmat/proc_grid.hpp"
#include "distmat/ring.hpp"
#include "distmat/sparse_block.hpp"

namespace sas::distmat {

/// Reference kernel (retained for tests/benches): for every word-row
/// present in both L and N, add popcount(L.value ∧ N.value) into out at
/// (L.col + l_col_base, N.col + n_col_base) (local coordinates of `out`).
/// Both inputs must be sorted by (row, col) and indexed against the same
/// row space. Arithmetic work is recorded into `counters` (γ term) when
/// non-null. Superseded on the hot path by csr_popcount_ata_accumulate.
void popcount_join_accumulate(std::span<const Triplet<std::uint64_t>> L,
                              std::span<const Triplet<std::uint64_t>> N,
                              std::int64_t l_col_base, std::int64_t n_col_base,
                              DenseBlock<std::int64_t>& out,
                              bsp::CostCounters* counters);

/// Tuning knobs of the CSR tile kernel.
struct CsrAtaOptions {
  /// Output-column tile width; 0 = kAtaTileCols. Tests force tiny tiles
  /// to exercise the tiling logic on small inputs.
  std::int64_t tile_cols = 0;
  /// Permit the density-adaptive dense-block path (technique 4 above).
  /// Benches disable it to measure the sparse tile kernel in isolation.
  bool allow_dense = true;
  /// Sparse/dense fill-product crossover. 0 = derive from the startup
  /// micro-calibration (distmat/crossover.hpp); a positive value pins
  /// the threshold (ablations, recorded-run reproduction).
  double dense_crossover = 0.0;
  /// Candidate-pair mask of the hybrid estimator (global sample
  /// coordinates; see pair_mask.hpp). When set, whole blocks and output-
  /// column tiles whose pair set is fully pruned are skipped, and the
  /// flop counter records only the work actually performed. Null (the
  /// default) keeps the exact all-pairs behavior bit for bit.
  const CandidateMask* prune = nullptr;
};

/// Default output-column tile width: 512 × 8-byte accumulators = 4 KiB
/// per touched output row, so a handful of active rows fit in L1 and a
/// few dozen in L2 across the whole L-side loop.
inline constexpr std::int64_t kAtaTileCols = 512;

/// Hot-path kernel: B += ("Lᵀ N" in the popcount semiring) over the
/// word-rows common to both CSR panels, accumulating into `out` at
/// (L.col + l_col_base, N.col + n_col_base). Exact same contract and
/// bit-identical results as popcount_join_accumulate, restructured as
/// described in the kernel-architecture note above.
void csr_popcount_ata_accumulate(const CsrPanel& L, const CsrPanel& N,
                                 std::int64_t l_col_base, std::int64_t n_col_base,
                                 DenseBlock<std::int64_t>& out,
                                 bsp::CostCounters* counters,
                                 const CsrAtaOptions& options = {});

/// Reference: full n×n dense AᵀA of one local block (rows = word rows).
[[nodiscard]] DenseBlock<std::int64_t> serial_ata(const SparseBlock& block);

/// 1D ring variant. Rank r owns the column panel for block_range(n, p, r)
/// (global word-row ids) and the dense output row-panel
/// rows = its column chunk × cols = [0, n). The product is symmetric, so
/// panels circulate ⌊p/2⌋ times (distmat/ring.hpp) and each rank fills
/// only its ring_share of each block (r, owner) it sees: every unordered
/// block pair is multiplied once, and the rest of the panel stays zero.
/// The caller reads B(i, j) from the share that holds it (or B(j, i)
/// from its transpose). The local CsrPanel is built once up front; each
/// received panel is decoded once on arrival, and even p's middle step
/// slices the side its share splits (the held side while decoding).
void ring_ata_accumulate(bsp::Comm& comm, std::int64_t n, const SparseBlock& my_panel,
                         DenseBlock<std::int64_t>& b_panel,
                         const CsrAtaOptions& options = {});

/// Mask-targeted 1D exchange — the hybrid estimator's rescore schedule.
/// Same data layout and output contract as ring_ata_accumulate (each
/// rank fills only its ring shares), but instead of rotating every panel
/// through every rank, each rank ships to each peer q only the panel
/// columns that lie in q's share of block (q, r) and participate in at
/// least one surviving pair with that share's rows (one alltoall_v), so
/// each crossing pair's column travels one way. Per-rank bytes are
/// therefore proportional to the surviving pair structure — never more
/// than the ring's Θ(z), and a small fraction of it on the pair-sparse
/// corpora the sketch-prune pass targets. The diagonal block is computed
/// locally from the rank's own panel.
void targeted_ata_accumulate(bsp::Comm& comm, std::int64_t n,
                             const SparseBlock& my_panel, const CandidateMask& mask,
                             DenseBlock<std::int64_t>& b_panel,
                             const CsrAtaOptions& options = {});

/// 2D/2.5D SUMMA variant over `grid`. Rank (ℓ, i, j) holds the R block of
/// word-row chunk q = ℓ·s + i (chunk-local row ids) × column chunk j.
/// Per batch, each layer computes its partial sum in s stages
/// (transpose + row broadcast + column broadcast per stage) and the layer
/// partials are reduced onto layer 0, accumulating into `b_accum`
/// (meaningful on layer-0 ranks). Collective over active grid ranks;
/// inactive ranks must not call. `b_accum` must cover column chunk
/// grid_row × column chunk grid_col of the n×n output. Each rank encodes
/// its block once per batch; transposed and broadcast panels are decoded
/// into CSR once per stage before the local multiply.
///
/// With a candidate mask (options.prune), the stage collectives are
/// mask-gated: transpose hops and row/column broadcasts that feed an
/// output block whose samples all have no surviving off-diagonal partner
/// are skipped outright, so stage traffic tracks the block structure of
/// the mask instead of visiting every grid row/col. This assumes the
/// hybrid driver's column-dropping invariant — samples with no surviving
/// pair carry no triplets (their b entries are zero and their diagonal
/// reports the J(∅, ∅) = 1 convention) — which the driver establishes
/// before redistribution.
void summa_ata_accumulate(ProcGrid& grid, const SparseBlock& my_block,
                          DenseBlock<std::int64_t>& b_accum,
                          const CsrAtaOptions& options = {});

/// â contribution: acc[col_offset + e.col] += popcount(e.value) for every
/// entry of `block`. `acc` is a full-length replicated accumulator; ranks
/// sum disjoint row chunks so a final allreduce(+) yields exact â.
void accumulate_column_popcounts(const SparseBlock& block, std::int64_t col_offset,
                                 std::span<std::int64_t> acc);

}  // namespace sas::distmat
