// test_distmat.cpp — the mini-Cyclops layer: block partitioning, triplet
// normalization, the distributed filter, processor grids, redistribution,
// SUMMA against a brute-force dense reference, and the ring's triangle
// rule (ring_share).
#include <gtest/gtest.h>

#include <algorithm>
#include <mutex>
#include <set>
#include <span>
#include <vector>

#include "bsp/runtime.hpp"
#include "distmat/block.hpp"
#include "distmat/csr.hpp"
#include "distmat/dist_filter.hpp"
#include "distmat/gather.hpp"
#include "distmat/proc_grid.hpp"
#include "distmat/redistribute.hpp"
#include "distmat/ring.hpp"
#include "distmat/spgemm.hpp"
#include "util/error.hpp"
#include "util/popcount.hpp"
#include "util/rng.hpp"

namespace sas::distmat {
namespace {

// ---------------------------------------------------------------- blocks

TEST(BlockRange, PartitionCoversExactlyAndEvenly) {
  for (std::int64_t total : {0LL, 1LL, 7LL, 64LL, 1000LL}) {
    for (int nblocks : {1, 2, 3, 7, 16}) {
      std::int64_t covered = 0;
      std::int64_t prev_end = 0;
      for (int b = 0; b < nblocks; ++b) {
        const BlockRange range = block_range(total, nblocks, b);
        EXPECT_EQ(range.begin, prev_end);
        EXPECT_GE(range.size(), total / nblocks);
        EXPECT_LE(range.size(), total / nblocks + 1);
        covered += range.size();
        prev_end = range.end;
      }
      EXPECT_EQ(covered, total);
    }
  }
}

TEST(BlockRange, OwnerAgreesWithRanges) {
  for (std::int64_t total : {1LL, 9LL, 100LL, 1023LL}) {
    for (int nblocks : {1, 2, 5, 8}) {
      for (std::int64_t i = 0; i < total; ++i) {
        const int owner = block_owner(total, nblocks, i);
        EXPECT_TRUE(block_range(total, nblocks, owner).contains(i))
            << "total=" << total << " nblocks=" << nblocks << " i=" << i;
      }
    }
  }
}

TEST(BlockRange, RejectsInvalidIndices) {
  EXPECT_THROW((void)block_range(10, 0, 0), std::invalid_argument);
  EXPECT_THROW((void)block_range(10, 3, 3), std::invalid_argument);
  EXPECT_THROW((void)block_range(10, 3, -1), std::invalid_argument);
}

// --------------------------------------------------------------- triplets

TEST(Triplets, NormalizeSortsAndCombines) {
  std::vector<Triplet<std::uint64_t>> entries{
      {2, 1, 0b001}, {0, 0, 0b100}, {2, 1, 0b010}, {1, 5, 0b111}, {0, 0, 0b100}};
  normalize_triplets(entries, [](std::uint64_t a, std::uint64_t b) { return a | b; });
  ASSERT_EQ(entries.size(), 3u);
  EXPECT_EQ(entries[0], (Triplet<std::uint64_t>{0, 0, 0b100}));
  EXPECT_EQ(entries[1], (Triplet<std::uint64_t>{1, 5, 0b111}));
  EXPECT_EQ(entries[2], (Triplet<std::uint64_t>{2, 1, 0b011}));
}

TEST(Triplets, NormalizeWithAdditionCounts) {
  std::vector<Triplet<std::uint64_t>> entries{{0, 0, 2}, {0, 0, 3}, {1, 1, 1}};
  normalize_triplets(entries, [](std::uint64_t a, std::uint64_t b) { return a + b; });
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_EQ(entries[0].value, 5u);
}

// -------------------------------------------------------------------- CSR

TEST(Csr, RoundTripsCanonicalTriplets) {
  std::vector<Triplet<std::uint64_t>> entries{
      {0, 2, 5}, {0, 7, 9}, {2, 0, 1}, {4, 3, 8}};
  const auto csr = CsrMatrix<std::uint64_t>::from_triplets(5, 8, entries);
  EXPECT_EQ(csr.rows(), 5);
  EXPECT_EQ(csr.cols(), 8);
  EXPECT_EQ(csr.nnz(), 4);
  EXPECT_EQ(csr.to_triplets(), entries);
  // Row access.
  ASSERT_EQ(csr.row_columns(0).size(), 2u);
  EXPECT_EQ(csr.row_columns(0)[1], 7);
  EXPECT_EQ(csr.row_values(0)[1], 9u);
  EXPECT_TRUE(csr.row_columns(1).empty());
  EXPECT_TRUE(csr.row_columns(3).empty());
}

TEST(Csr, StorageAccountsRowStartsSeparately) {
  // The §III-B claim: row-start bytes scale with rows, not nnz.
  std::vector<Triplet<std::uint64_t>> entries{{0, 0, 1}, {63, 1, 2}};
  const auto tall = CsrMatrix<std::uint64_t>::from_triplets(64, 2, entries);
  std::vector<Triplet<std::uint64_t>> packed_entries{{0, 0, 1}, {0, 1, 2}};
  const auto packed = CsrMatrix<std::uint64_t>::from_triplets(1, 2, packed_entries);
  EXPECT_EQ(tall.storage().row_starts, 65u * 8u);
  EXPECT_EQ(packed.storage().row_starts, 2u * 8u);
  EXPECT_EQ(tall.storage().col_indices, packed.storage().col_indices);
  EXPECT_EQ(tall.storage().values, packed.storage().values);
  EXPECT_GT(tall.storage().total(), packed.storage().total());
}

TEST(Csr, EmptyMatrix) {
  const auto csr = CsrMatrix<std::uint64_t>::from_triplets(0, 0, {});
  EXPECT_EQ(csr.nnz(), 0);
  EXPECT_EQ(csr.storage().row_starts, 8u);  // the single sentinel row start
}

// ----------------------------------------------------------------- filter

class FilterTest : public ::testing::TestWithParam<int> {};

TEST_P(FilterTest, UnionMatchesSerialSetUnion) {
  const int p = GetParam();
  const std::int64_t universe = 500;
  // Rank r contributes multiples of (r+2) < universe, with duplicates.
  std::set<std::int64_t> expected;
  std::set<std::uint64_t> pair_set;
  for (int r = 0; r < p; ++r) {
    for (std::int64_t v = 0; v < universe; v += r + 2) expected.insert(v);
    for (std::int64_t v = 0; v < universe; v += r + 3) pair_set.insert(v);
  }
  pair_set.insert(expected.begin(), expected.end());
  const std::vector<std::uint64_t> pair_keys(pair_set.begin(), pair_set.end());
  bsp::Runtime::run(p, [&](bsp::Comm& comm) {
    std::vector<std::int64_t> mine;
    for (std::int64_t v = 0; v < universe; v += comm.rank() + 2) {
      mine.push_back(v);
      mine.push_back(v);  // duplicates must be tolerated
    }
    const auto got = distributed_index_union(comm, mine, universe);
    const std::vector<std::int64_t> want(expected.begin(), expected.end());
    EXPECT_EQ(got, want);
    // The candidate-pair union takes the same inputs as unsorted packed
    // keys: each rank's list overlaps its neighbours' and repeats keys.
    std::vector<std::uint64_t> keys(mine.rbegin(), mine.rend());
    for (std::int64_t v = 0; v < universe; v += comm.rank() + 3) {
      keys.push_back(static_cast<std::uint64_t>(v));
    }
    const auto pairs = allreduce_pair_union(comm, std::move(keys));
    EXPECT_EQ(pairs, pair_keys);
  });
}

TEST_P(FilterTest, CompactRowIdIsThePrefixSum) {
  const int p = GetParam();
  bsp::Runtime::run(p, [](bsp::Comm& comm) {
    std::vector<std::int64_t> mine;
    if (comm.rank() == 0) mine = {10, 40, 70, 200};
    const auto filter = distributed_index_union(comm, mine, 1000);
    ASSERT_EQ(filter.size(), 4u);
    EXPECT_EQ(compact_row_id(filter, 10), 0);
    EXPECT_EQ(compact_row_id(filter, 40), 1);
    EXPECT_EQ(compact_row_id(filter, 200), 3);
    EXPECT_THROW((void)compact_row_id(filter, 11), std::logic_error);
  });
}

INSTANTIATE_TEST_SUITE_P(RankCounts, FilterTest, ::testing::Values(1, 2, 3, 5, 8));

TEST(FilterEncoding, RoundTripsEveryShape) {
  struct Shape {
    const char* name;
    std::vector<std::int64_t> indices;
    std::int64_t extent;
  };
  std::vector<Shape> shapes = {
      {"empty", {}, 100},
      {"single", {0}, 1},
      {"last", {999}, 1000},
      {"dense run", {}, 500},
      {"every other", {}, 512},
      {"isolated huge gaps", {3, 1000000, 123456789, 999999999}, std::int64_t{1} << 30},
      {"word boundary", {62, 63, 64, 65, 127, 128}, 200},
      {"one-word gap inlined", {10, 140}, 4096},
  };
  for (std::int64_t v = 0; v < 500; ++v) shapes[3].indices.push_back(v);
  for (std::int64_t v = 0; v < 512; v += 2) shapes[4].indices.push_back(v);
  Rng rng(404);
  Shape random{"random", {}, 1 << 20};
  for (std::int64_t v = 0; v < (1 << 20); ++v) {
    if (rng.bernoulli(0.001)) random.indices.push_back(v);
  }
  shapes.push_back(std::move(random));

  for (const Shape& shape : shapes) {
    const auto encoded =
        encode_index_set(std::span<const std::int64_t>(shape.indices), shape.extent);
    const auto decoded =
        decode_index_set(std::span<const std::uint64_t>(encoded), shape.extent);
    EXPECT_EQ(decoded, shape.indices) << shape.name;
    // Never more than one mode word above the raw cost.
    EXPECT_LE(encoded.size(), shape.indices.size() + 1) << shape.name;
  }

  // Compression wins where it should: ~1 bit/row on dense runs (RLE),
  // about half the raw words on huge-gap hypersparse sets (delta-varint).
  const auto dense_encoded =
      encode_index_set(std::span<const std::int64_t>(shapes[3].indices), 500);
  EXPECT_LE(dense_encoded.size(), shapes[3].indices.size() / 32 + 2);
  std::vector<std::int64_t> hypersparse;
  for (std::int64_t v = 0; v < 1000; ++v) hypersparse.push_back(v * 33554432);
  const auto sparse_encoded = encode_index_set(
      std::span<const std::int64_t>(hypersparse), std::int64_t{1} << 45);
  EXPECT_LE(sparse_encoded.size(), hypersparse.size() / 2 + 2);

  // Malformed inputs throw.
  const std::vector<std::int64_t> unsorted = {5, 3};
  EXPECT_THROW((void)encode_index_set(std::span<const std::int64_t>(unsorted), 10),
               std::invalid_argument);
  const std::vector<std::int64_t> beyond = {12};
  EXPECT_THROW((void)encode_index_set(std::span<const std::int64_t>(beyond), 10),
               std::invalid_argument);
  const std::vector<std::uint64_t> bad_mode = {99, 1, 2};
  EXPECT_THROW((void)decode_index_set(std::span<const std::uint64_t>(bad_mode), 10),
               sas::error::CorruptInput);
  // Hostile delta streams must throw, never yield negative or
  // out-of-extent indices: a complete 10-byte varint encoding gap = 2^63
  // (the sign bit — nine 0x80 continuation bytes, then 0x01) and a gap
  // one past the extent.
  const std::vector<std::uint64_t> sign_bit_gap = {2, 0x8080808080808080ULL, 0x0180ULL};
  EXPECT_THROW((void)decode_index_set(std::span<const std::uint64_t>(sign_bit_gap),
                                      std::int64_t{1} << 40),
               sas::error::CorruptInput);
  const std::vector<std::uint64_t> gap_past_extent = {2, 11};  // gap 11, extent 10
  EXPECT_THROW((void)decode_index_set(std::span<const std::uint64_t>(gap_past_extent),
                                      10),
               sas::error::CorruptInput);
  // Hostile RLE skip headers chained past the extent must throw before
  // pos * 64 can overflow.
  const std::uint64_t skip_only = 0xffffffffULL << 32;  // skip 2^32-1, 0 literals
  const std::vector<std::uint64_t> runaway_skip = {
      0, skip_only, skip_only, skip_only, (1ULL << 32) | 1, 1};
  EXPECT_THROW((void)decode_index_set(std::span<const std::uint64_t>(runaway_skip), 64),
               sas::error::CorruptInput);
}

TEST_P(FilterTest, CompressedUnionMatchesRawBitForBit) {
  const int p = GetParam();
  // Two regimes per run: a dense-ish range (RLE territory) and an
  // isolated hypersparse tail (delta/list territory).
  bsp::Runtime::run(p, [&](bsp::Comm& comm) {
    const std::int64_t universe = 1 << 16;
    Rng rng(static_cast<std::uint64_t>(900 + comm.rank()));
    std::vector<std::int64_t> mine;
    for (std::int64_t v = 0; v < 2000; ++v) {
      if (rng.bernoulli(0.6)) mine.push_back(v);
    }
    for (std::int64_t v = 2000; v < universe; ++v) {
      if (rng.bernoulli(0.0005)) mine.push_back(v);
    }
    const auto raw = distributed_index_union(
        comm, std::span<const std::int64_t>(mine), universe, /*compress=*/false);
    const auto compressed = distributed_index_union(
        comm, std::span<const std::int64_t>(mine), universe, /*compress=*/true);
    EXPECT_EQ(compressed, raw);
  });
}

// ------------------------------------------------------------------- grid

TEST(ProcGrid, SquareGridCoordinates) {
  bsp::Runtime::run(4, [](bsp::Comm& comm) {
    ProcGrid grid(comm, 1);
    EXPECT_EQ(grid.side(), 2);
    EXPECT_EQ(grid.layers(), 1);
    EXPECT_EQ(grid.active_ranks(), 4);
    EXPECT_TRUE(grid.active());
    EXPECT_EQ(grid.grid_row(), comm.rank() / 2);
    EXPECT_EQ(grid.grid_col(), comm.rank() % 2);
    EXPECT_EQ(grid.row_comm().size(), 2);
    EXPECT_EQ(grid.col_comm().size(), 2);
    EXPECT_EQ(grid.fiber_comm().size(), 1);
  });
}

TEST(ProcGrid, NonSquareLeavesRanksIdle) {
  bsp::Runtime::run(6, [](bsp::Comm& comm) {
    ProcGrid grid(comm, 1);
    EXPECT_EQ(grid.side(), 2);
    EXPECT_EQ(grid.active_ranks(), 4);
    EXPECT_EQ(grid.active(), comm.rank() < 4);
  });
}

TEST(ProcGrid, ReplicatedGridSplitsLayers) {
  bsp::Runtime::run(8, [](bsp::Comm& comm) {
    ProcGrid grid(comm, 2);
    EXPECT_EQ(grid.side(), 2);
    EXPECT_EQ(grid.layers(), 2);
    EXPECT_EQ(grid.active_ranks(), 8);
    EXPECT_EQ(grid.layer(), comm.rank() / 4);
    EXPECT_EQ(grid.fiber_comm().size(), 2);
    // fiber rank must equal the layer (reduction root is layer 0).
    EXPECT_EQ(grid.fiber_comm().rank(), grid.layer());
  });
}

TEST(ProcGrid, RejectsTooFewRanksForLayers) {
  bsp::Runtime::run(1, [](bsp::Comm& comm) {
    EXPECT_THROW(ProcGrid(comm, 2), std::invalid_argument);
  });
}

// --------------------------------------------------------- redistribution

class RedistributeTest : public ::testing::TestWithParam<int> {};

TEST_P(RedistributeTest, EveryEntryArrivesOnceAndMerges) {
  const int p = GetParam();
  const std::int64_t rows = 40;
  const std::int64_t cols = 30;
  bsp::Runtime::run(p, [&](bsp::Comm& comm) {
    // Every rank emits the full grid with value 1<<rank; owner = row block.
    std::vector<Triplet<std::uint64_t>> mine;
    for (std::int64_t r = 0; r < rows; ++r) {
      for (std::int64_t c = 0; c < cols; ++c) {
        mine.push_back({r, c, std::uint64_t{1} << comm.rank()});
      }
    }
    auto merged = redistribute_triplets(
        comm, std::move(mine),
        [&](std::int64_t row, std::int64_t) { return block_owner(rows, p, row); },
        [](std::uint64_t a, std::uint64_t b) { return a | b; });
    const BlockRange my_rows = block_range(rows, p, comm.rank());
    ASSERT_EQ(static_cast<std::int64_t>(merged.size()), my_rows.size() * cols);
    const std::uint64_t all_ranks_mask = (p == 64) ? ~0ULL : ((1ULL << p) - 1);
    for (const auto& t : merged) {
      EXPECT_TRUE(my_rows.contains(t.row));
      EXPECT_EQ(t.value, all_ranks_mask);  // contributions from every rank merged
    }
    EXPECT_TRUE(std::is_sorted(merged.begin(), merged.end(), triplet_order<std::uint64_t>));
  });
}

INSTANTIATE_TEST_SUITE_P(RankCounts, RedistributeTest, ::testing::Values(1, 2, 4, 7));

// ----------------------------------------------------------------- spgemm

/// Dense brute-force AᵀA over the unpacked bit matrix.
std::vector<std::int64_t> dense_reference(const SparseBlock& block) {
  std::vector<std::int64_t> out(static_cast<std::size_t>(block.cols * block.cols), 0);
  for (const auto& a : block.entries) {
    for (const auto& b : block.entries) {
      if (a.row != b.row) continue;
      out[static_cast<std::size_t>(a.col * block.cols + b.col)] +=
          popcount64(a.value & b.value);
    }
  }
  return out;
}

SparseBlock random_block(std::int64_t rows, std::int64_t cols, double density,
                         std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Triplet<std::uint64_t>> entries;
  for (std::int64_t r = 0; r < rows; ++r) {
    for (std::int64_t c = 0; c < cols; ++c) {
      if (rng.bernoulli(density)) entries.push_back({r, c, rng()});
    }
  }
  return SparseBlock::from_triplets(rows, cols, std::move(entries));
}

TEST(Spgemm, KernelMatchesBruteForce) {
  const SparseBlock block = random_block(25, 13, 0.3, 99);
  const auto expected = dense_reference(block);
  const DenseBlock<std::int64_t> out = serial_ata(block);
  EXPECT_EQ(out.values, expected);
}

TEST(Spgemm, KernelHandlesDisjointRows) {
  // L and N share no rows -> zero output.
  SparseBlock l = SparseBlock::from_triplets(10, 4, {{0, 0, ~0ULL}, {2, 1, ~0ULL}});
  SparseBlock n = SparseBlock::from_triplets(10, 4, {{1, 0, ~0ULL}, {3, 2, ~0ULL}});
  DenseBlock<std::int64_t> out(BlockRange{0, 4}, BlockRange{0, 4});
  popcount_join_accumulate(l.entries, n.entries, 0, 0, out, nullptr);
  for (auto v : out.values) EXPECT_EQ(v, 0);
}

TEST(Spgemm, KernelRecordsFlops) {
  const SparseBlock block = random_block(16, 8, 0.5, 5);
  DenseBlock<std::int64_t> out(BlockRange{0, 8}, BlockRange{0, 8});
  bsp::CostCounters counters;
  popcount_join_accumulate(block.entries, block.entries, 0, 0, out, &counters);
  // Flops = Σ_rows nnz(row)², at least nnz when every row has one entry.
  EXPECT_GE(counters.flops, static_cast<std::uint64_t>(block.nnz()));
}

TEST(Spgemm, ColumnPopcountsSumBits) {
  SparseBlock block = SparseBlock::from_triplets(4, 3, {{0, 0, 0b111}, {1, 0, 0b1},
                                                        {2, 2, 0b1010}});
  std::vector<std::int64_t> acc(5, 0);
  accumulate_column_popcounts(block, 1, acc);  // offset 1
  EXPECT_EQ(acc[1], 4);  // col 0: 3 + 1 bits
  EXPECT_EQ(acc[2], 0);
  EXPECT_EQ(acc[3], 2);  // col 2
}

struct ParallelCase {
  int ranks;
  int layers;
};

class ParallelSpgemm : public ::testing::TestWithParam<ParallelCase> {};

// SUMMA against the serial reference; the ring's cases are RingAta's
// (test_spgemm_kernels.cpp).
TEST_P(ParallelSpgemm, MatchesSerialReference) {
  const ParallelCase pc = GetParam();
  const std::int64_t h = 37;   // word rows
  const std::int64_t n = 19;   // samples
  const SparseBlock full = random_block(h, n, 0.35, 1234);
  const auto expected = dense_reference(full);

  std::vector<std::int64_t> got(static_cast<std::size_t>(n * n), 0);
  std::mutex got_mutex;
  bsp::Runtime::run(pc.ranks, [&](bsp::Comm& comm) {
    ProcGrid grid(comm, pc.layers);
    const int s = grid.side();
    const int c = grid.layers();
    std::optional<DenseBlock<std::int64_t>> b_block;
    std::optional<SparseBlock> my_block;
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
      my_block = SparseBlock{chunk.size(), cols.size(), std::move(mine)};
      b_block.emplace(block_range(n, s, grid.grid_row()), cols);
      summa_ata_accumulate(grid, *my_block, *b_block);
    }
    std::vector<DenseBlock<double>> s_blocks;
    if (grid.active() && grid.layer() == 0) {
      DenseBlock<double>& s_block = s_blocks.emplace_back(b_block->row_range, b_block->col_range);
      for (std::size_t i = 0; i < s_block.values.size(); ++i) {
        s_block.values[i] = static_cast<double>(b_block->values[i]);
      }
    }
    const std::vector<double> assembled = gather_blocks_to_root(
        comm, std::span<const DenseBlock<double>>(s_blocks), n, n, /*mirror=*/false);
    if (comm.rank() == 0) {
      std::lock_guard<std::mutex> lock(got_mutex);
      for (std::size_t i = 0; i < assembled.size(); ++i) {
        got[i] = static_cast<std::int64_t>(assembled[i]);
      }
    }
  });
  EXPECT_EQ(got, expected);
}

INSTANTIATE_TEST_SUITE_P(
    Variants, ParallelSpgemm,
    ::testing::Values(ParallelCase{1, 1}, ParallelCase{4, 1}, ParallelCase{9, 1},
                      ParallelCase{8, 2}, ParallelCase{12, 3}, ParallelCase{7, 1}));

TEST(RingShare, CoversEachBlockPairOnce) {
  // Uneven blocks (n mod p != 0), empty blocks (p > n) and n = 0.
  for (const std::int64_t n : {0, 1, 2, 5, 19}) {
    for (int p = 1; p <= 9; ++p) {
      // cover[i·n + j]: how many shares (or transposes of shares) hold
      // cell (i, j).
      std::vector<int> cover(static_cast<std::size_t>(n * n), 0);
      for (int r = 0; r < p; ++r) {
        const BlockRange rows = block_range(n, p, r);
        for (int owner = 0; owner < p; ++owner) {
          const BlockRange cols = block_range(n, p, owner);
          const RingShare share = ring_share(p, r, owner, rows.size(), cols.size());
          const int step = (r - owner + p) % p;
          if (2 * step > p) {
            EXPECT_TRUE(share.empty()) << "p=" << p << " r=" << r << " owner=" << owner
                                       << ": the rotation never reaches this step";
          }
          if (owner == r) {
            EXPECT_EQ(share.rows.begin, 0);
            EXPECT_EQ(share.rows.end, rows.size());
            EXPECT_EQ(share.cols.begin, 0);
            EXPECT_EQ(share.cols.end, cols.size());
          }
          if (share.empty()) continue;
          EXPECT_GE(share.rows.begin, 0);
          EXPECT_LE(share.rows.end, rows.size());
          EXPECT_GE(share.cols.begin, 0);
          EXPECT_LE(share.cols.end, cols.size());
          for (std::int64_t a = share.rows.begin; a < share.rows.end; ++a) {
            for (std::int64_t b = share.cols.begin; b < share.cols.end; ++b) {
              const std::int64_t i = rows.begin + a;
              const std::int64_t j = cols.begin + b;
              ++cover[static_cast<std::size_t>(i * n + j)];
              // A diagonal block is its owner's alone: no transpose.
              if (owner != r) ++cover[static_cast<std::size_t>(j * n + i)];
            }
          }
        }
      }
      for (std::int64_t i = 0; i < n; ++i) {
        for (std::int64_t j = 0; j < n; ++j) {
          EXPECT_EQ(cover[static_cast<std::size_t>(i * n + j)], 1)
              << "n=" << n << " p=" << p << " cell (" << i << ", " << j << ")";
        }
      }
    }
  }
}

TEST(GatherDense, AssemblesBlocksOnRoot) {
  bsp::Runtime::run(4, [](bsp::Comm& comm) {
    ProcGrid grid(comm, 1);
    DenseBlock<double> block(block_range(6, 2, grid.grid_row()),
                             block_range(6, 2, grid.grid_col()));
    for (std::int64_t i = 0; i < block.local_rows(); ++i) {
      for (std::int64_t j = 0; j < block.local_cols(); ++j) {
        block.at_local(i, j) = static_cast<double>((block.row_range.begin + i) * 6 +
                                                   block.col_range.begin + j);
      }
    }
    const auto full = gather_blocks_to_root(comm, std::span<const DenseBlock<double>>(&block, 1),
                                            6, 6, /*mirror=*/false);
    if (comm.rank() == 0) {
      ASSERT_EQ(full.size(), 36u);
      for (std::size_t i = 0; i < 36; ++i) EXPECT_DOUBLE_EQ(full[i], static_cast<double>(i));
    } else {
      EXPECT_TRUE(full.empty());
    }
  });
}

}  // namespace
}  // namespace sas::distmat
