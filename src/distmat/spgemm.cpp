#include "distmat/spgemm.hpp"

#include <algorithm>
#include <functional>
#include <stdexcept>
#include <vector>

#include "bsp/tags.hpp"
#include "distmat/crossover.hpp"
#include "distmat/panel_wire.hpp"
#include "distmat/ring.hpp"
#include "obs/trace.hpp"
#include "util/popcount.hpp"

namespace sas::distmat {

void popcount_join_accumulate(std::span<const Triplet<std::uint64_t>> L,
                              std::span<const Triplet<std::uint64_t>> N,
                              std::int64_t l_col_base, std::int64_t n_col_base,
                              DenseBlock<std::int64_t>& out,
                              bsp::CostCounters* counters) {
  const std::int64_t stride = out.local_cols();
  std::int64_t* const values = out.values.data();
  std::uint64_t flops = 0;

  std::size_t i = 0;
  std::size_t j = 0;
  while (i < L.size() && j < N.size()) {
    const std::int64_t lr = L[i].row;
    const std::int64_t nr = N[j].row;
    if (lr < nr) {
      while (i < L.size() && L[i].row == lr) ++i;
    } else if (nr < lr) {
      while (j < N.size() && N[j].row == nr) ++j;
    } else {
      std::size_t ie = i;
      while (ie < L.size() && L[ie].row == lr) ++ie;
      std::size_t je = j;
      while (je < N.size() && N[je].row == lr) ++je;
      for (std::size_t a = i; a < ie; ++a) {
        const std::int64_t out_row = l_col_base + L[a].col;
        const std::uint64_t wa = L[a].value;
        std::int64_t* const row_values = values + out_row * stride + n_col_base;
        for (std::size_t b = j; b < je; ++b) {
          row_values[N[b].col] += popcount64(wa & N[b].value);
        }
      }
      flops += static_cast<std::uint64_t>(ie - i) * static_cast<std::uint64_t>(je - j);
      i = ie;
      j = je;
    }
  }
  if (counters != nullptr) counters->flops += flops;
}

namespace {

/// Word-rows present in both panels — a two-pointer merge over the two
/// sorted occupied-row lists, O(occupied_L + occupied_N) regardless of
/// the nominal row space (which is ~10¹² in the unfiltered hypersparse
/// regime) — plus the exact multiply work they imply (Σ nnz_L·nnz_N over
/// matches; every (a, b) pair is processed exactly once across all tiles,
/// so this is the γ contribution).
struct CommonRow {
  std::int64_t l_index;  ///< occupied-row index into L
  std::int64_t n_index;  ///< occupied-row index into N
};

struct CommonRows {
  std::vector<CommonRow> rows;
  std::uint64_t flops = 0;
};

CommonRows find_common_rows(const CsrPanel& L, const CsrPanel& N) {
  CommonRows common;
  std::int64_t kl = 0;
  std::int64_t kn = 0;
  while (kl < L.occupied() && kn < N.occupied()) {
    const std::int64_t lr = L.row_id(kl);
    const std::int64_t nr = N.row_id(kn);
    if (lr < nr) {
      ++kl;
    } else if (nr < lr) {
      ++kn;
    } else {
      common.rows.push_back({kl, kn});
      common.flops += static_cast<std::uint64_t>(L.row_nnz(kl)) *
                      static_cast<std::uint64_t>(N.row_nnz(kn));
      ++kl;
      ++kn;
    }
  }
  return common;
}

/// Accumulate the contribution of every N column into `out`, tile by
/// tile. Per-row cursors start at each common row's first N entry and
/// advance monotonically through the row, so each N entry is visited
/// exactly once regardless of the tile width.
///
/// With a candidate-pair mask (`prune`), tiles whose [out rows × tile
/// cols] pair set is fully pruned are skipped (cursors still advance so
/// later tiles stay aligned). Returns the multiply flops actually
/// performed — equal to the tile's share of CommonRows::flops when
/// nothing is skipped — plus the tile visit/skip tallies, which the
/// caller books onto the rank's observer.
struct RangeResult {
  std::uint64_t flops = 0;
  std::uint64_t tiles_visited = 0;
  std::uint64_t tiles_skipped = 0;
};

RangeResult accumulate_tiles(const CsrPanel& L, const CsrPanel& N,
                             std::span<const CommonRow> common_rows,
                             std::int64_t l_col_base, std::int64_t n_col_base,
                             std::int64_t tile_cols, DenseBlock<std::int64_t>& out,
                             const CandidateMask* prune) {
  const std::int64_t* const ncols = N.col_idx.data();
  const std::uint64_t* const nvals = N.values.data();
  const std::int64_t* const lcols = L.col_idx.data();
  const std::uint64_t* const lvals = L.values.data();
  const BlockRange out_rows{out.row_range.begin + l_col_base,
                            out.row_range.begin + l_col_base + L.cols};
  const std::int64_t gcol_base = out.col_range.begin + n_col_base;
  RangeResult result;

  std::vector<std::int64_t> cursor(common_rows.size());
  for (std::size_t idx = 0; idx < common_rows.size(); ++idx) {
    cursor[idx] = N.row_begin(common_rows[idx].n_index);
  }

  for (std::int64_t tile = 0; tile < N.cols; tile += tile_cols) {
    const std::int64_t tile_end = std::min(N.cols, tile + tile_cols);
    const bool skip_tile =
        prune != nullptr &&
        !prune->any_pair(out_rows, {gcol_base + tile, gcol_base + tile_end});
    if (skip_tile) {
      ++result.tiles_skipped;
    } else {
      ++result.tiles_visited;
    }
    for (std::size_t idx = 0; idx < common_rows.size(); ++idx) {
      const std::int64_t b = cursor[idx];
      const std::int64_t row_end = N.row_end(common_rows[idx].n_index);
      std::int64_t e = b;
      while (e < row_end && ncols[e] < tile_end) ++e;
      cursor[idx] = e;
      const auto count = static_cast<std::size_t>(e - b);
      if (count == 0 || skip_tile) continue;
      const std::int64_t la = L.row_begin(common_rows[idx].l_index);
      const std::int64_t le = L.row_end(common_rows[idx].l_index);
      result.flops +=
          static_cast<std::uint64_t>(count) * static_cast<std::uint64_t>(le - la);
      // Register-block four L entries per pass: each (col, mask) of the
      // N segment is loaded once and scattered into four output rows.
      // The _dispatch entries resolve to the AVX512 gather/scatter body
      // where the per-TU VPOPCNTQ flag is live (see popcount_scatter.cpp)
      // and to the inline scalar kernels otherwise.
      std::int64_t a = la;
      for (; a + 4 <= le; a += 4) {
        auto* const acc0 = out.row_data(l_col_base + lcols[a]) + n_col_base;
        auto* const acc1 = out.row_data(l_col_base + lcols[a + 1]) + n_col_base;
        auto* const acc2 = out.row_data(l_col_base + lcols[a + 2]) + n_col_base;
        auto* const acc3 = out.row_data(l_col_base + lcols[a + 3]) + n_col_base;
        popcount_and_scatter_4_dispatch(lvals[a], lvals[a + 1], lvals[a + 2],
                                        lvals[a + 3], ncols + b, nvals + b, count, acc0,
                                        acc1, acc2, acc3);
      }
      for (; a < le; ++a) {
        std::int64_t* const acc = out.row_data(l_col_base + lcols[a]) + n_col_base;
        popcount_and_scatter_dispatch(lvals[a], ncols + b, nvals + b, count, acc);
      }
    }
  }
  return result;
}

/// Dense path: every output cell (i, j) of the l_cols × n_cols block is
/// one streaming popcount dot product — no scatter stores, so the
/// kernel runs at vector popcount throughput instead of the one
/// store-per-madd ceiling of the scatter loop. The unpruned path runs
/// 2×2 register tiles (popcount_and_sum_stream_2x2): four output cells
/// per pass over two L and two N columns, so each mask word is loaded
/// once per TWO cells instead of once per cell — half the load traffic
/// of the scalar loop at identical (integer) results; the scalar loop
/// remains for edges and is the reference the micro_kernels bench
/// compares against. With a candidate mask, pruned cells are skipped per
/// cell (the mask test is one load against a words-long popcount
/// stream), so the pruned path stays scalar. Returns the streaming
/// word-madds actually performed (the dense path's flop unit under
/// pruning).
std::uint64_t dense_accumulate(const DenseColumnPanel& ld, std::int64_t l_cols,
                               const DenseColumnPanel& nd, std::int64_t n_cols,
                               std::int64_t l_col_base, std::int64_t n_col_base,
                               DenseBlock<std::int64_t>& out, const CandidateMask* prune) {
  const std::int64_t words = ld.words;
  const std::int64_t grow_base = out.row_range.begin + l_col_base;
  const std::int64_t gcol_base = out.col_range.begin + n_col_base;
  std::uint64_t cells = 0;
  if (prune == nullptr) {
    std::int64_t i = 0;
    for (; i + 2 <= l_cols; i += 2) {
      const std::uint64_t* const lcol0 = ld.column(i);
      const std::uint64_t* const lcol1 = ld.column(i + 1);
      std::int64_t* const row0 = out.row_data(l_col_base + i) + n_col_base;
      std::int64_t* const row1 = out.row_data(l_col_base + i + 1) + n_col_base;
      std::int64_t j = 0;
      for (; j + 2 <= n_cols; j += 2) {
        std::uint64_t sums[4];
        popcount_and_sum_stream_2x2(lcol0, lcol1, nd.column(j), nd.column(j + 1),
                                    static_cast<std::size_t>(words), sums);
        row0[j] += static_cast<std::int64_t>(sums[0]);
        row0[j + 1] += static_cast<std::int64_t>(sums[1]);
        row1[j] += static_cast<std::int64_t>(sums[2]);
        row1[j + 1] += static_cast<std::int64_t>(sums[3]);
      }
      for (; j < n_cols; ++j) {
        row0[j] += static_cast<std::int64_t>(popcount_and_sum_stream(
            lcol0, nd.column(j), static_cast<std::size_t>(words)));
        row1[j] += static_cast<std::int64_t>(popcount_and_sum_stream(
            lcol1, nd.column(j), static_cast<std::size_t>(words)));
      }
    }
    for (; i < l_cols; ++i) {
      const std::uint64_t* const lcol = ld.column(i);
      std::int64_t* const row = out.row_data(l_col_base + i) + n_col_base;
      for (std::int64_t j = 0; j < n_cols; ++j) {
        row[j] += static_cast<std::int64_t>(popcount_and_sum_stream(
            lcol, nd.column(j), static_cast<std::size_t>(words)));
      }
    }
    return static_cast<std::uint64_t>(l_cols) * static_cast<std::uint64_t>(n_cols) *
           static_cast<std::uint64_t>(words);
  }
  for (std::int64_t i = 0; i < l_cols; ++i) {
    const std::uint64_t* const lcol = ld.column(i);
    std::int64_t* const row = out.row_data(l_col_base + i) + n_col_base;
    for (std::int64_t j = 0; j < n_cols; ++j) {
      if (!prune->test(grow_base + i, gcol_base + j)) continue;
      ++cells;
      row[j] += static_cast<std::int64_t>(
          popcount_and_sum_stream(lcol, nd.column(j), static_cast<std::size_t>(words)));
    }
  }
  return cells * static_cast<std::uint64_t>(words);
}

/// Sparse/dense crossover on the product of panel fill ratios. The dense
/// path does words·colsL·colsN word-madds where the scatter path does
/// fillL·fillN·words·colsL·colsN, so dense wins when fillL·fillN exceeds
/// the (scatter rate / stream rate) ratio. The threshold is micro-
/// calibrated at startup on this machine (distmat/crossover.hpp) unless
/// the caller pins one through CsrAtaOptions::dense_crossover.
[[nodiscard]] bool dense_path_profitable(const CsrPanel& L, const CsrPanel& N,
                                         std::int64_t words, double crossover_override) {
  if (words <= 0 || L.cols <= 0 || N.cols <= 0) return false;
  // Densified panels must stay modest: 32 MiB of words at the default cap.
  if (words * (L.cols + N.cols) > (std::int64_t{1} << 22)) return false;
  const double fill_l =
      static_cast<double>(L.nnz()) / (static_cast<double>(words) * static_cast<double>(L.cols));
  const double fill_n =
      static_cast<double>(N.nnz()) / (static_cast<double>(words) * static_cast<double>(N.cols));
  const double crossover =
      crossover_override > 0.0 ? crossover_override : calibrated_dense_crossover();
  return fill_l * fill_n >= crossover;
}

/// The L side of a ring share: `whole` (built once per batch, with its
/// memoized densification) when the share keeps every row of `panel`,
/// else — the lower rank of even p's split middle block (ring_share) —
/// the panel columns `rows`, renumbered from rows.begin, in `slice`.
const CsrPanel& share_rows_panel(const CsrPanel& whole, const SparseBlock& panel,
                                 BlockRange rows, CsrPanel& slice) {
  if (rows.size() == panel.cols) return whole;
  std::vector<Triplet<std::uint64_t>> kept;
  for (const Triplet<std::uint64_t>& t : panel.entries) {
    if (rows.contains(t.col)) kept.push_back({t.row, t.col - rows.begin, t.value});
  }
  slice = CsrPanel::from_triplets(panel.rows, rows.size(),
                                  std::span<const Triplet<std::uint64_t>>(kept));
  return slice;
}

}  // namespace

void csr_popcount_ata_accumulate(const CsrPanel& L, const CsrPanel& N,
                                 std::int64_t l_col_base, std::int64_t n_col_base,
                                 DenseBlock<std::int64_t>& out,
                                 bsp::CostCounters* counters,
                                 const CsrAtaOptions& options) {
  if (L.empty() || N.empty()) return;
  // Whole-block prune probe: with a candidate mask, a block whose entire
  // [out rows × out cols] pair set is pruned never touches the CSR data.
  const CandidateMask* const prune = options.prune;
  if (prune != nullptr &&
      !prune->any_pair({out.row_range.begin + l_col_base,
                        out.row_range.begin + l_col_base + L.cols},
                       {out.col_range.begin + n_col_base,
                        out.col_range.begin + n_col_base + N.cols})) {
    if (obs::RankObserver* o = obs::current()) {
      o->add_counter("spgemm.blocks_skipped", 1);
    }
    return;
  }
  const CommonRows common = find_common_rows(L, N);
  if (common.rows.empty()) return;
  // γ accounting: without pruning every (a, b) pair of the common rows is
  // processed, so CommonRows::flops is exact and cheap. Under pruning the
  // kernels report the work actually performed (the dense path counts
  // streaming word-madds — its natural unit — instead of scatter madds).
  const std::int64_t words = std::min(L.rows, N.rows);
  if (options.allow_dense && dense_path_profitable(L, N, words, options.dense_crossover)) {
    // Memoized on the panels: the ring's loop-invariant L side densifies
    // once per batch, and L ≡ N (serial_ata, the diagonal ring step)
    // reuses one densification.
    const std::uint64_t done =
        dense_accumulate(L.dense_columns(words), L.cols, N.dense_columns(words), N.cols,
                         l_col_base, n_col_base, out, prune);
    if (counters != nullptr) counters->flops += prune != nullptr ? done : common.flops;
    return;
  }

  const std::int64_t tile_cols = options.tile_cols > 0 ? options.tile_cols : kAtaTileCols;
  const RangeResult tally =
      accumulate_tiles(L, N, common.rows, l_col_base, n_col_base, tile_cols, out, prune);
  if (obs::RankObserver* o = obs::current()) {
    o->add_counter("spgemm.tiles_visited", tally.tiles_visited);
    if (tally.tiles_skipped > 0) {
      o->add_counter("spgemm.tiles_skipped", tally.tiles_skipped);
    }
  }
  if (counters != nullptr) counters->flops += prune != nullptr ? tally.flops : common.flops;
}

DenseBlock<std::int64_t> serial_ata(const SparseBlock& block) {
  DenseBlock<std::int64_t> out(BlockRange{0, block.cols}, BlockRange{0, block.cols});
  const CsrPanel panel = CsrPanel::from_block(block);
  csr_popcount_ata_accumulate(panel, panel, 0, 0, out, nullptr);
  return out;
}

void ring_ata_accumulate(bsp::Comm& comm, std::int64_t n, const SparseBlock& my_panel,
                         DenseBlock<std::int64_t>& b_panel,
                         const CsrAtaOptions& options) {
  const int p = comm.size();
  const int r = comm.rank();
  if (b_panel.col_range.begin != 0 || b_panel.col_range.end != n) {
    throw std::invalid_argument("ring_ata_accumulate: b_panel must span all n columns");
  }

  // The L-side panel participates in every step: convert once per batch.
  // The panel travels in the compact wire, encoded once per batch and
  // forwarded verbatim; each received panel is decoded once.
  const CsrPanel lpanel = CsrPanel::from_block(my_panel);
  std::vector<std::uint8_t> wire;
  if (p > 1) wire = encode_panel(my_panel.entries, PanelOrder::kRowMajor);

  ring_rotate<std::uint8_t>(
      comm, bsp::tags::kSpgemmRing, "ring/step", std::move(wire),
      [&](int owner, std::span<const std::uint8_t> held) {
        const BlockRange owner_cols = block_range(n, p, owner);
        const RingShare share =
            ring_share(p, r, owner, my_panel.cols, owner_cols.size());
        if (share.empty()) return;
        // Only even p's middle step slices a side: the lower rank its own
        // rows, the upper rank the held columns.
        CsrPanel lslice;
        const CsrPanel& lside = share_rows_panel(lpanel, my_panel, share.rows, lslice);
        CsrPanel received;
        const CsrPanel* nside = &lpanel;
        if (owner != r) {
          received = decode_panel(held, {{0, my_panel.rows}, {0, owner_cols.size()}},
                                  share.cols);
          nside = &received;
        }
        csr_popcount_ata_accumulate(lside, *nside, share.rows.begin,
                                    owner_cols.begin + share.cols.begin, b_panel,
                                    &comm.counters(), options);
      });
}

void targeted_ata_accumulate(bsp::Comm& comm, std::int64_t n,
                             const SparseBlock& my_panel, const CandidateMask& mask,
                             DenseBlock<std::int64_t>& b_panel,
                             const CsrAtaOptions& options) {
  const int p = comm.size();
  const int r = comm.rank();
  const obs::Span stage_span("targeted-ata", "multiply", &comm.counters());
  if (b_panel.col_range.begin != 0 || b_panel.col_range.end != n) {
    throw std::invalid_argument(
        "targeted_ata_accumulate: b_panel must span all n columns");
  }
  const BlockRange my_cols = b_panel.row_range;
  const CsrPanel lpanel = CsrPanel::from_block(my_panel);

  // Diagonal block: local data, mask diagonal is always set.
  csr_popcount_ata_accumulate(lpanel, lpanel, 0, my_cols.begin, b_panel,
                              &comm.counters(), options);

  // Column-targeted exchange, one way per block pair: peer q needs this
  // rank's column j (global id my_cols.begin + j) iff j lies in q's
  // ring_share of block (q, r) and the mask pairs it with one of that
  // share's rows. Of the two ranks of a crossing pair only the one whose
  // share holds it receives a column, so total bytes track the surviving
  // pair structure instead of the ring's ⌊p/2⌋·z rotation.
  std::vector<std::vector<std::uint8_t>> outgoing(static_cast<std::size_t>(p));
  std::vector<std::uint8_t> needed(static_cast<std::size_t>(my_panel.cols));
  for (int q = 0; q < p; ++q) {
    if (q == r) continue;
    const BlockRange q_rows = block_range(n, p, q);
    const RingShare share = ring_share(p, q, r, q_rows.size(), my_panel.cols);
    if (share.empty()) continue;
    const BlockRange share_rows{q_rows.begin + share.rows.begin,
                                q_rows.begin + share.rows.end};
    bool any = false;
    std::fill(needed.begin(), needed.end(), std::uint8_t{0});
    for (std::int64_t j = share.cols.begin; j < share.cols.end; ++j) {
      const std::int64_t gj = my_cols.begin + j;
      needed[static_cast<std::size_t>(j)] = mask.any_pair(share_rows, {gj, gj + 1}) ? 1 : 0;
      any = any || needed[static_cast<std::size_t>(j)] != 0;
    }
    if (!any) continue;
    outgoing[static_cast<std::size_t>(q)] =
        encode_panel(my_panel.entries, PanelOrder::kRowMajor,
                     [&](const Triplet<std::uint64_t>& t) {
                       return needed[static_cast<std::size_t>(t.col)] != 0;
                     });
  }
  const auto incoming = comm.alltoall_v(outgoing);

  for (int q = 0; q < p; ++q) {
    if (q == r || incoming[static_cast<std::size_t>(q)].empty()) continue;
    const BlockRange q_cols = block_range(n, p, q);
    // The sender shipped only columns of this rank's share, so only the
    // share's rows multiply them.
    const RingShare share = ring_share(p, r, q, my_panel.cols, q_cols.size());
    CsrPanel lslice;
    const CsrPanel& lside = share_rows_panel(lpanel, my_panel, share.rows, lslice);
    const CsrPanel npanel = decode_panel(incoming[static_cast<std::size_t>(q)],
                                         {{0, my_panel.rows}, {0, q_cols.size()}});
    csr_popcount_ata_accumulate(lside, npanel, share.rows.begin, q_cols.begin, b_panel,
                                &comm.counters(), options);
  }
}

void summa_ata_accumulate(ProcGrid& grid, const SparseBlock& my_block,
                          DenseBlock<std::int64_t>& b_accum,
                          const CsrAtaOptions& options) {
  if (!grid.active()) {
    throw std::logic_error("summa_ata_accumulate: called by an inactive rank");
  }
  const int s = grid.side();

  // With replication (c > 1), each layer sums into a scratch partial that
  // is reduced onto layer 0 at the end of the batch (paper §III-C: "one
  // needs a reduction to sum the contributions ... for each layer").
  DenseBlock<std::int64_t> partial;
  const bool replicated = grid.layers() > 1;
  if (replicated) partial = DenseBlock<std::int64_t>(b_accum.row_range, b_accum.col_range);
  DenseBlock<std::int64_t>& target = replicated ? partial : b_accum;

  // Mask-aware stage gating: with a candidate mask, a sample block whose
  // members all have NO surviving off-diagonal partner contributes
  // nothing anywhere — its samples were column-dropped by the driver
  // (their triplets never reached the grid) and their diagonals fall
  // back to the J(∅, ∅) = 1 convention. The per-sample activity flags
  // are replicated (the mask is), so every rank reaches the same verdict
  // and the collectives stay aligned: the L-side transpose + row
  // broadcast of an inactive OUTPUT-ROW block and the N-side column
  // broadcast of an inactive OUTPUT-COLUMN block are skipped entirely —
  // the stage loop no longer visits every grid row/col when the mask is
  // block-sparse. Sender and receiver of a transpose hop evaluate the
  // same block (the sender's column chunk IS the receiver's row chunk),
  // so no message is ever posted without its matching receive.
  std::vector<std::uint8_t> active;
  if (options.prune != nullptr) active = options.prune->active_columns();
  const auto block_active = [&](BlockRange range) {
    if (options.prune == nullptr) return true;
    for (std::int64_t i = range.begin; i < range.end; ++i) {
      if (active[static_cast<std::size_t>(i)] != 0) return true;
    }
    return false;
  };
  const bool my_rows_active = block_active(b_accum.row_range);
  const bool my_cols_active = block_active(b_accum.col_range);

  // Every stage ships this rank's block in the compact panel wire, so it
  // is encoded once per batch. The stage panels are slices of chunks of
  // one block_range partition, which differ by at most one word-row, so
  // my_block.rows + 1 bounds the height of every panel received.
  const std::vector<std::uint8_t> wire = encode_panel(my_block.entries, PanelOrder::kRowMajor);
  const BlockRange chunk_rows{0, my_block.rows + 1};

  // (1) Transpose exchange: owner (ℓ, k, i) ships R(ℓ·s+k, i) to (ℓ, i, k).
  // Sends are posted one stage AHEAD of the multiply that consumes them
  // (stage 0 before the loop, stage k+1 before stage k's local work):
  // bsp sends are buffered copies and the per-stage tags keep them
  // ordered, so the stage-k+1 transpose hop completes while stage k
  // multiplies — the same overlap the ring schedule gets from double
  // buffering.
  const auto post_transpose = [&](int k) {
    // my_cols_active gates on the RECEIVER's output-row block: the
    // receiver (ℓ, grid_col, k) has grid_row == this rank's grid_col,
    // and row chunks equal column chunks on the square grid.
    if (grid.grid_row() == k && my_cols_active) {
      const int dest = grid.world_rank_of(grid.layer(), grid.grid_col(), k);
      grid.world().send<std::uint8_t>(dest, bsp::tags::summa_transpose(k),
                                      std::span<const std::uint8_t>(wire));
    }
  };
  post_transpose(0);

  for (int k = 0; k < s; ++k) {
    // Per-stage span; the inner broadcasts are Comm collectives and book
    // their own drift samples, so this span stays prediction-free.
    const obs::Span stage("summa/stage", "summa", &grid.world().counters());
    if (k + 1 < s) post_transpose(k + 1);
    std::vector<std::uint8_t> lbuf;
    if (grid.grid_col() == k && my_rows_active) {
      const int source = grid.world_rank_of(grid.layer(), k, grid.grid_row());
      lbuf = grid.world().recv<std::uint8_t>(source, bsp::tags::summa_transpose(k));
    }
    // (2) L-side broadcast along the grid row (root = grid column k).
    // All ranks of one grid row share the same output-row block, so the
    // skip verdict is uniform along the communicator.
    if (my_rows_active) grid.row_comm().broadcast(lbuf, k);
    // (3) N-side broadcast along the grid column (root = grid row k);
    // uniform verdict along the column, which shares the output-col block.
    std::vector<std::uint8_t> nbuf;
    if (my_cols_active) {
      if (grid.grid_row() == k) nbuf = wire;
      grid.col_comm().broadcast(nbuf, k);
    }
    if (!my_rows_active || !my_cols_active) continue;
    // (4) Local multiply-accumulate on CSR panels built once per stage.
    // Both buffers are slices of chunk ℓ·s+k, so they share a row space;
    // the tight per-panel row bounds are enough (the kernel intersects).
    // At k = grid_row the N side is this rank's own block, and at
    // k = grid_col too so is the L side (its transpose came from itself):
    // that panel is built from my_block rather than decoded from the wire
    // it was encoded into, and one panel serves both sides.
    const bool own_n = grid.grid_row() == k;
    const bool own_l = own_n && grid.grid_col() == k;
    CsrPanel own;
    if (own_n) {
      own = CsrPanel::from_block(my_block);
      own.rows = own.occupied_height();
    }
    const CsrPanel lpanel =
        own_l ? CsrPanel{}
              : decode_tight_panel(lbuf, {chunk_rows, {0, target.row_range.size()}});
    const CsrPanel npanel =
        own_n ? CsrPanel{}
              : decode_tight_panel(nbuf, {chunk_rows, {0, target.col_range.size()}});
    csr_popcount_ata_accumulate(own_l ? own : lpanel, own_n ? own : npanel, 0, 0, target,
                                &grid.world().counters(), options);
  }

  if (replicated) {
    grid.fiber_comm().reduce(partial.values, std::plus<std::int64_t>{}, 0);
    if (grid.layer() == 0) {
      for (std::size_t idx = 0; idx < b_accum.values.size(); ++idx) {
        b_accum.values[idx] += partial.values[idx];
      }
    }
  }
}

void accumulate_column_popcounts(const SparseBlock& block, std::int64_t col_offset,
                                 std::span<std::int64_t> acc) {
  for (const Triplet<std::uint64_t>& entry : block.entries) {
    acc[static_cast<std::size_t>(col_offset + entry.col)] += popcount64(entry.value);
  }
}

}  // namespace sas::distmat
