// test_spgemm_kernels.cpp — equivalence suite for the CSR tiled SpGEMM
// kernel (the PR-1 hot-path rewrite). The retained triplet merge-join is
// the executable specification: over varied sparsity, bit width, and tile
// width, the CSR kernel must produce bit-identical
// accumulators — and the double-buffered ring must match both the dense
// reference and SUMMA on the same input.
#include <gtest/gtest.h>

#include <algorithm>
#include <mutex>
#include <optional>
#include <span>
#include <vector>

#include "bsp/runtime.hpp"
#include "distmat/block.hpp"
#include "distmat/crossover.hpp"
#include "distmat/csr.hpp"
#include "distmat/gather.hpp"
#include "distmat/panel_wire.hpp"
#include "distmat/proc_grid.hpp"
#include "distmat/ring.hpp"
#include "distmat/spgemm.hpp"
#include "util/popcount.hpp"
#include "util/rng.hpp"

namespace sas::distmat {
namespace {

SparseBlock random_block(std::int64_t rows, std::int64_t cols, double density,
                         int bit_width, std::uint64_t seed) {
  Rng rng(seed);
  const std::uint64_t mask =
      bit_width >= 64 ? ~0ULL : ((std::uint64_t{1} << bit_width) - 1);
  std::vector<Triplet<std::uint64_t>> entries;
  for (std::int64_t r = 0; r < rows; ++r) {
    for (std::int64_t c = 0; c < cols; ++c) {
      if (rng.bernoulli(density)) entries.push_back({r, c, rng() & mask});
    }
  }
  return SparseBlock::from_triplets(rows, cols, std::move(entries));
}

/// Dense brute-force popcount-semiring LᵀN over the unpacked bit matrix.
std::vector<std::int64_t> dense_reference(const SparseBlock& l, const SparseBlock& n) {
  std::vector<std::int64_t> out(static_cast<std::size_t>(l.cols * n.cols), 0);
  for (const auto& a : l.entries) {
    for (const auto& b : n.entries) {
      if (a.row != b.row) continue;
      out[static_cast<std::size_t>(a.col * n.cols + b.col)] +=
          popcount64(a.value & b.value);
    }
  }
  return out;
}

// ---------------------------------------------------------------- panels

TEST(CsrPanel, BuildsOccupiedRowIndexFromBlock) {
  const SparseBlock block = SparseBlock::from_triplets(
      5, 4, {{0, 1, 7}, {0, 3, 9}, {2, 0, 3}, {4, 2, 5}});
  const CsrPanel panel = CsrPanel::from_block(block);
  EXPECT_EQ(panel.rows, 5);
  EXPECT_EQ(panel.cols, 4);
  EXPECT_EQ(panel.nnz(), 4);
  // Occupied rows only: word-rows 1 and 3 are absent from the index.
  ASSERT_EQ(panel.occupied(), 3);
  EXPECT_EQ(panel.row_id(0), 0);
  EXPECT_EQ(panel.row_id(1), 2);
  EXPECT_EQ(panel.row_id(2), 4);
  EXPECT_EQ(panel.row_nnz(0), 2);
  EXPECT_EQ(panel.row_nnz(1), 1);
  EXPECT_EQ(panel.row_nnz(2), 1);
  EXPECT_EQ(panel.col_idx[static_cast<std::size_t>(panel.row_begin(2))], 2);
  EXPECT_EQ(panel.values[static_cast<std::size_t>(panel.row_begin(0)) + 1], 9u);
}

TEST(CsrPanel, AstronomicalRowSpaceCostsOnlyOccupiedRows) {
  // The unfiltered hypersparse regime: nominal row space ~4^21 word-rows
  // with a handful occupied. Must build in O(nnz), not O(rows) — the old
  // dense row_ptr layout would try to allocate ~35 TB here.
  const std::int64_t huge_rows = std::int64_t{1} << 42;
  const std::vector<Triplet<std::uint64_t>> entries{
      {7, 0, 1}, {(std::int64_t{1} << 40) + 3, 1, 2}, {huge_rows - 1, 0, 4}};
  const CsrPanel panel = CsrPanel::from_triplets(
      huge_rows, 2, std::span<const Triplet<std::uint64_t>>(entries));
  EXPECT_EQ(panel.occupied(), 3);
  EXPECT_EQ(panel.row_id(2), huge_rows - 1);
  // And the kernel must intersect occupied rows without sweeping [0, rows).
  DenseBlock<std::int64_t> out(BlockRange{0, 2}, BlockRange{0, 2});
  csr_popcount_ata_accumulate(panel, panel, 0, 0, out, nullptr);
  EXPECT_EQ(out.at_local(0, 0), 2);  // rows 7 and 2^42-1, popcount(1)+popcount(4)
  EXPECT_EQ(out.at_local(1, 1), 1);
  EXPECT_EQ(out.at_local(0, 1), 0);
}

TEST(CsrPanel, SortedRowBoundIsTight) {
  // SUMMA's stage panels are decoded inside the chunk height and then cut
  // to their last occupied word-row + 1, which sizes the densified operand
  // and the dense-path decision.
  const std::vector<Triplet<std::uint64_t>> entries{{11, 0, 1}, {17, 2, 1}};
  const std::vector<std::uint8_t> wire = encode_panel(entries, PanelOrder::kRowMajor);
  const PanelExtents chunk{{10, 110}, {0, 3}};
  EXPECT_EQ(decode_panel(wire, chunk).rows, 100);
  const CsrPanel tight = decode_tight_panel(wire, chunk);
  EXPECT_EQ(tight.rows, 8);
  EXPECT_EQ(tight.row_ids, (std::vector<std::int64_t>{1, 7}));
  EXPECT_EQ(decode_tight_panel({}, chunk).rows, 0);
}

// ------------------------------------------------- kernel property tests

struct KernelCase {
  double density;
  int bit_width;
  std::int64_t tile_cols;  // 0 = default
};

void PrintTo(const KernelCase& c, std::ostream* os) {
  *os << "density=" << c.density << " bits=" << c.bit_width
      << " tile=" << c.tile_cols;
}

class CsrKernelProperty : public ::testing::TestWithParam<KernelCase> {};

TEST_P(CsrKernelProperty, MatchesTripletJoinAndBruteForce) {
  const KernelCase kc = GetParam();
  const std::int64_t h = 43;
  const SparseBlock l = random_block(h, 21, kc.density, kc.bit_width, 77);
  const SparseBlock n = random_block(h, 17, kc.density, kc.bit_width, 78);

  DenseBlock<std::int64_t> expected(BlockRange{0, l.cols}, BlockRange{0, n.cols});
  bsp::CostCounters ref_counters;
  popcount_join_accumulate(l.entries, n.entries, 0, 0, expected, &ref_counters);
  EXPECT_EQ(expected.values, dense_reference(l, n));

  DenseBlock<std::int64_t> got(BlockRange{0, l.cols}, BlockRange{0, n.cols});
  bsp::CostCounters csr_counters;
  const CsrPanel lp = CsrPanel::from_block(l);
  const CsrPanel np = CsrPanel::from_block(n);
  CsrAtaOptions options;
  options.tile_cols = kc.tile_cols;
  csr_popcount_ata_accumulate(lp, np, 0, 0, got, &csr_counters, options);
  EXPECT_EQ(got.values, expected.values);
  EXPECT_EQ(csr_counters.flops, ref_counters.flops);
}

INSTANTIATE_TEST_SUITE_P(
    SparsityBitsTiles, CsrKernelProperty,
    ::testing::Values(KernelCase{0.02, 64, 0}, KernelCase{0.15, 64, 0},
                      KernelCase{0.5, 64, 0}, KernelCase{0.85, 64, 0},
                      KernelCase{0.3, 1, 0}, KernelCase{0.3, 7, 0},
                      KernelCase{0.3, 23, 0}, KernelCase{0.5, 64, 4},
                      KernelCase{0.5, 64, 1}, KernelCase{0.85, 64, 8},
                      KernelCase{0.15, 64, 16}));

TEST(CsrKernel, RespectsColumnBasesIntoLargerOutput) {
  const SparseBlock l = random_block(31, 9, 0.4, 64, 5);
  const SparseBlock n = random_block(31, 11, 0.4, 64, 6);
  // Output block covering [0, 25) × [0, 30); land L at row 13, N at col 8.
  DenseBlock<std::int64_t> expected(BlockRange{0, 25}, BlockRange{0, 30});
  DenseBlock<std::int64_t> got(BlockRange{0, 25}, BlockRange{0, 30});
  popcount_join_accumulate(l.entries, n.entries, 13, 8, expected, nullptr);
  CsrAtaOptions options;
  options.tile_cols = 4;
  csr_popcount_ata_accumulate(CsrPanel::from_block(l), CsrPanel::from_block(n), 13, 8,
                              got, nullptr, options);
  EXPECT_EQ(got.values, expected.values);
}

TEST(CsrKernel, EmptyPanelsAreNoOps) {
  const SparseBlock empty{10, 4, {}};
  const SparseBlock some = random_block(10, 4, 0.5, 64, 9);
  DenseBlock<std::int64_t> out(BlockRange{0, 4}, BlockRange{0, 4});
  csr_popcount_ata_accumulate(CsrPanel::from_block(empty), CsrPanel::from_block(some),
                              0, 0, out, nullptr);
  csr_popcount_ata_accumulate(CsrPanel::from_block(some), CsrPanel::from_block(empty),
                              0, 0, out, nullptr);
  for (auto v : out.values) EXPECT_EQ(v, 0);
}

TEST(CsrKernel, DisjointRowSpansProduceZero) {
  const SparseBlock l = SparseBlock::from_triplets(10, 4, {{0, 0, ~0ULL}, {2, 1, ~0ULL}});
  const SparseBlock n = SparseBlock::from_triplets(10, 4, {{1, 0, ~0ULL}, {3, 2, ~0ULL}});
  DenseBlock<std::int64_t> out(BlockRange{0, 4}, BlockRange{0, 4});
  csr_popcount_ata_accumulate(CsrPanel::from_block(l), CsrPanel::from_block(n), 0, 0,
                              out, nullptr);
  for (auto v : out.values) EXPECT_EQ(v, 0);
}

// ------------------------------------------------ crossover calibration

TEST(Crossover, CalibratedValueIsSaneAndMemoized) {
  const double value = calibrated_dense_crossover();
  EXPECT_GE(value, kMinDenseCrossover);
  EXPECT_LE(value, kMaxDenseCrossover);
  EXPECT_EQ(calibrated_dense_crossover(), value);  // one-shot, memoized
  // Fallback tiers: scalar build 0.60, vector stream only 0.30, vector
  // stream + vector scatter 0.45 (sparse path got faster too).
  const double fallback = fallback_dense_crossover();
  EXPECT_TRUE(fallback == 0.30 || fallback == 0.45 || fallback == 0.60);
}

TEST(Crossover, ForcedThresholdsSelectEitherPathIdentically) {
  // Mid-density input sits between the extreme thresholds, so pinning
  // the crossover at the clamp bounds drives the dense and the sparse
  // path respectively — both must match the reference bit-for-bit.
  const SparseBlock block = random_block(64, 48, 0.55, 64, 99);
  const CsrPanel panel = CsrPanel::from_block(block);
  DenseBlock<std::int64_t> expected(BlockRange{0, 48}, BlockRange{0, 48});
  popcount_join_accumulate(block.entries, block.entries, 0, 0, expected, nullptr);
  for (double crossover : {kMinDenseCrossover, kMaxDenseCrossover}) {
    DenseBlock<std::int64_t> got(BlockRange{0, 48}, BlockRange{0, 48});
    CsrAtaOptions options;
    options.dense_crossover = crossover;
    csr_popcount_ata_accumulate(panel, panel, 0, 0, got, nullptr, options);
    EXPECT_EQ(got.values, expected.values) << "crossover=" << crossover;
  }
}

TEST(DenseStream2x2, MatchesFourScalarStreams) {
  // The dense path's 2×2 register tile must be bit-identical to four
  // scalar streaming dot products on every length (including the odd
  // tails the kernel handles with scalar edges).
  Rng rng(321);
  for (const std::size_t words : {0u, 1u, 3u, 4u, 7u, 64u, 257u}) {
    std::vector<std::uint64_t> x0(words);
    std::vector<std::uint64_t> x1(words);
    std::vector<std::uint64_t> y0(words);
    std::vector<std::uint64_t> y1(words);
    for (std::size_t w = 0; w < words; ++w) {
      x0[w] = rng();
      x1[w] = rng();
      y0[w] = rng();
      y1[w] = rng();
    }
    std::uint64_t sums[4];
    popcount_and_sum_stream_2x2(x0.data(), x1.data(), y0.data(), y1.data(), words,
                                sums);
    EXPECT_EQ(sums[0], popcount_and_sum_stream(x0.data(), y0.data(), words));
    EXPECT_EQ(sums[1], popcount_and_sum_stream(x0.data(), y1.data(), words));
    EXPECT_EQ(sums[2], popcount_and_sum_stream(x1.data(), y0.data(), words));
    EXPECT_EQ(sums[3], popcount_and_sum_stream(x1.data(), y1.data(), words));
  }
}

TEST(DenseStream2x2, DensePathStillMatchesReferenceOnOddShapes) {
  // Odd column counts exercise the 2×2 tiling's row/column remainders
  // inside the dense kernel path; the result must stay bit-identical to
  // the triplet reference.
  for (const std::int64_t cols : {1, 2, 5, 31, 33}) {
    const SparseBlock block = random_block(48, cols, 0.7, 64, 1000 + cols);
    const CsrPanel panel = CsrPanel::from_block(block);
    DenseBlock<std::int64_t> expected(BlockRange{0, cols}, BlockRange{0, cols});
    popcount_join_accumulate(block.entries, block.entries, 0, 0, expected, nullptr);
    DenseBlock<std::int64_t> got(BlockRange{0, cols}, BlockRange{0, cols});
    CsrAtaOptions options;
    options.dense_crossover = kMinDenseCrossover;  // force the dense path
    csr_popcount_ata_accumulate(panel, panel, 0, 0, got, nullptr, options);
    EXPECT_EQ(got.values, expected.values) << "cols=" << cols;
  }
}

// ------------------------------------------------- ring and SUMMA parity

/// Run the symmetric 1D ring over column panels of `full` and assemble
/// the n×n result on rank 0: each rank ships its ring shares, and the
/// root mirrors them.
std::vector<std::int64_t> run_ring(const SparseBlock& full, int p) {
  const std::int64_t n = full.cols;
  std::vector<std::int64_t> assembled(static_cast<std::size_t>(n * n), 0);
  std::mutex mutex;
  bsp::Runtime::run(p, [&](bsp::Comm& comm) {
    const BlockRange my_cols = block_range(n, p, comm.rank());
    std::vector<Triplet<std::uint64_t>> mine;
    for (const auto& t : full.entries) {
      if (my_cols.contains(t.col)) mine.push_back({t.row, t.col - my_cols.begin, t.value});
    }
    SparseBlock panel{full.rows, my_cols.size(), std::move(mine)};
    DenseBlock<std::int64_t> b_panel(my_cols, BlockRange{0, n});
    ring_ata_accumulate(comm, n, panel, b_panel);
    std::vector<GatherBlock<std::int64_t>> shares;
    for (int owner = 0; owner < p; ++owner) {
      const BlockRange owner_cols = block_range(n, p, owner);
      const RingShare share =
          ring_share(p, comm.rank(), owner, my_cols.size(), owner_cols.size());
      if (share.empty()) continue;
      shares.emplace_back(
          b_panel, BlockRange{my_cols.begin + share.rows.begin, my_cols.begin + share.rows.end},
          BlockRange{owner_cols.begin + share.cols.begin, owner_cols.begin + share.cols.end});
    }
    std::vector<std::int64_t> full_rows = gather_blocks_to_root(
        comm, std::span<const GatherBlock<std::int64_t>>(shares), n, n, /*mirror=*/true);
    if (comm.rank() == 0) {
      std::lock_guard<std::mutex> lock(mutex);
      assembled = std::move(full_rows);
    }
  });
  return assembled;
}

/// Run SUMMA over a p-rank grid on blocks of `full` and assemble on rank 0.
std::vector<std::int64_t> run_summa(const SparseBlock& full, int p, int layers) {
  const std::int64_t n = full.cols;
  const std::int64_t h = full.rows;
  std::vector<std::int64_t> assembled(static_cast<std::size_t>(n * n), 0);
  std::mutex mutex;
  bsp::Runtime::run(p, [&](bsp::Comm& comm) {
    ProcGrid grid(comm, layers);
    const int s = grid.side();
    const int c = grid.layers();
    std::optional<DenseBlock<std::int64_t>> b_block;
    if (grid.active()) {
      const int q = grid.layer() * s + grid.grid_row();
      const BlockRange chunk = block_range(h, s * c, q);
      const BlockRange cols = block_range(n, s, grid.grid_col());
      std::vector<Triplet<std::uint64_t>> mine;
      for (const auto& t : full.entries) {
        if (chunk.contains(t.row) && cols.contains(t.col)) {
          mine.push_back({t.row - chunk.begin, t.col - cols.begin, t.value});
        }
      }
      SparseBlock block{chunk.size(), cols.size(), std::move(mine)};
      b_block.emplace(block_range(n, s, grid.grid_row()), cols);
      summa_ata_accumulate(grid, block, *b_block);
    }
    std::vector<GatherBlock<std::int64_t>> counts;
    if (grid.active() && grid.layer() == 0) counts.emplace_back(*b_block);
    std::vector<std::int64_t> full_rows = gather_blocks_to_root(
        comm, std::span<const GatherBlock<std::int64_t>>(counts), n, n, /*mirror=*/false);
    if (comm.rank() == 0) {
      std::lock_guard<std::mutex> lock(mutex);
      assembled = std::move(full_rows);
    }
  });
  return assembled;
}

struct RingCase {
  int ranks;
  int samples;
};

class RingAta : public ::testing::TestWithParam<RingCase> {};

TEST_P(RingAta, MatchesReference) {
  const RingCase c = GetParam();
  const SparseBlock full = random_block(37, c.samples, 0.35, 64, 1234);
  EXPECT_EQ(run_ring(full, c.ranks), dense_reference(full, full));
}

// Odd and even p (even p splits the middle block), and p > n, where some
// ranks hold no samples.
INSTANTIATE_TEST_SUITE_P(RankCounts, RingAta,
                         ::testing::Values(RingCase{1, 19}, RingCase{2, 19}, RingCase{3, 19},
                                           RingCase{4, 19}, RingCase{5, 19}, RingCase{6, 19},
                                           RingCase{8, 19}, RingCase{9, 5}));

TEST(RingSummaParity, DoubleBufferedRingMatchesSummaOnSameInput) {
  const SparseBlock full = random_block(41, 23, 0.3, 64, 4321);
  const auto ring = run_ring(full, 4);
  EXPECT_EQ(ring, run_summa(full, 4, 1));
  EXPECT_EQ(ring, run_summa(full, 9, 1));
  EXPECT_EQ(ring, run_summa(full, 8, 2));  // 2.5D replicated grid
}

}  // namespace
}  // namespace sas::distmat
