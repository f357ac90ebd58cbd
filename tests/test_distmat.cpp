// test_distmat.cpp — the mini-Cyclops layer: block partitioning, triplet
// normalization, the distributed filter, processor grids, redistribution,
// SUMMA against a brute-force dense reference, the triangle rules of the
// ring (ring_share) and of SUMMA (summa_share), and the output gathers.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdlib>
#include <limits>
#include <mutex>
#include <set>
#include <span>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "bsp/runtime.hpp"
#include "distmat/block.hpp"
#include "distmat/csr.hpp"
#include "distmat/dist_filter.hpp"
#include "distmat/gather.hpp"
#include "distmat/panel_wire.hpp"
#include "distmat/proc_grid.hpp"
#include "distmat/redistribute.hpp"
#include "distmat/ring.hpp"
#include "distmat/spgemm.hpp"
#include "util/error.hpp"
#include "util/leb128.hpp"
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
  normalize_triplets(entries, 3, 6, [](std::uint64_t a, std::uint64_t b) { return a | b; });
  ASSERT_EQ(entries.size(), 3u);
  EXPECT_EQ(entries[0], (Triplet<std::uint64_t>{0, 0, 0b100}));
  EXPECT_EQ(entries[1], (Triplet<std::uint64_t>{1, 5, 0b111}));
  EXPECT_EQ(entries[2], (Triplet<std::uint64_t>{2, 1, 0b011}));
}

TEST(Triplets, NormalizeWithAdditionCounts) {
  std::vector<Triplet<std::uint64_t>> entries{{0, 0, 2}, {0, 0, 3}, {1, 1, 1}};
  normalize_triplets(entries, 2, 2, [](std::uint64_t a, std::uint64_t b) { return a + b; });
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_EQ(entries[0].value, 5u);
}

/// The comparison-sort reference normalize_triplets must match.
template <typename Combine>
std::vector<Triplet<std::uint64_t>> normalized_by_std_sort(
    std::vector<Triplet<std::uint64_t>> entries, Combine combine) {
  std::sort(entries.begin(), entries.end(), triplet_order<std::uint64_t>);
  std::vector<Triplet<std::uint64_t>> out;
  for (const Triplet<std::uint64_t>& t : entries) {
    if (!out.empty() && out.back().row == t.row && out.back().col == t.col) {
      out.back().value = combine(out.back().value, t.value);
    } else {
      out.push_back(t);
    }
  }
  return out;
}

TEST(Triplets, NormalizeMatchesAComparisonSort) {
  const auto bit_or = [](std::uint64_t a, std::uint64_t b) { return a | b; };
  const auto plus = [](std::uint64_t a, std::uint64_t b) { return a + b; };
  const std::int64_t huge = std::int64_t{1} << 62;  // six 11-bit passes
  struct Shape {
    std::int64_t rows;
    std::int64_t cols;
  };
  Rng rng(20201);
  for (const Shape shape : {Shape{1, 1}, Shape{1, 40}, Shape{37, 1}, Shape{300, 97},
                            Shape{huge, 7}, Shape{huge, huge}}) {
    for (const std::size_t count : {std::size_t{0}, std::size_t{1}, std::size_t{2000}}) {
      for (const bool pack_order : {false, true}) {
        // Coordinates drawn from small pools, so duplicates are common
        // whatever the extents.
        std::vector<std::int64_t> row_pool(24);
        std::vector<std::int64_t> col_pool(24);
        for (auto& r : row_pool) {
          r = static_cast<std::int64_t>(rng.uniform(static_cast<std::uint64_t>(shape.rows)));
        }
        for (auto& c : col_pool) {
          c = static_cast<std::int64_t>(rng.uniform(static_cast<std::uint64_t>(shape.cols)));
        }
        std::vector<Triplet<std::uint64_t>> raw(count);
        for (auto& t : raw) {
          t = {row_pool[rng.uniform(row_pool.size())], col_pool[rng.uniform(col_pool.size())],
               rng()};
        }
        // Column-ascending input with rows unsorted within a column: the
        // column pass is skipped, the row pass still sorts.
        if (pack_order) {
          std::stable_sort(raw.begin(), raw.end(),
                           [](const auto& a, const auto& b) { return a.col < b.col; });
        }
        std::vector<Triplet<std::uint64_t>> ored = raw;
        normalize_triplets(ored, shape.rows, shape.cols, bit_or);
        EXPECT_EQ(ored, normalized_by_std_sort(raw, bit_or))
            << shape.rows << " x " << shape.cols << ", " << count << " entries";
        std::vector<Triplet<std::uint64_t>> summed = raw;
        normalize_triplets(summed, shape.rows, shape.cols, plus);
        EXPECT_EQ(summed, normalized_by_std_sort(raw, plus))
            << shape.rows << " x " << shape.cols << ", " << count << " entries";
      }
    }
  }
}

TEST(Triplets, NormalizeRejectsCoordinatesOutsideTheExtents) {
  const auto bit_or = [](std::uint64_t a, std::uint64_t b) { return a | b; };
  for (const Triplet<std::uint64_t> bad : {Triplet<std::uint64_t>{4, 0, 1},
                                           Triplet<std::uint64_t>{0, 3, 1},
                                           Triplet<std::uint64_t>{-1, 0, 1},
                                           Triplet<std::uint64_t>{0, -1, 1}}) {
    std::vector<Triplet<std::uint64_t>> entries{{0, 0, 1}, {3, 2, 1}, bad};
    EXPECT_THROW(normalize_triplets(entries, 4, 3, bit_or), std::invalid_argument)
        << bad.row << ", " << bad.col;
    EXPECT_THROW((void)SparseBlock::from_triplets(4, 3, {bad}), std::invalid_argument);
  }
}

// ----------------------------------------------------------------- filter

class FilterTest : public ::testing::TestWithParam<int> {};

/// Run compact_filter_rows at p ranks, rank r contributing rows_of(r),
/// and check each rank's ids against its rows' positions in the std::set
/// union of every rank's rows. Returns each rank's ids.
template <typename RowsOf>
std::vector<std::vector<std::int64_t>> expect_union_positions(int p, std::int64_t universe,
                                                              RowsOf rows_of,
                                                              bool compress = true) {
  std::set<std::int64_t> all;
  for (int r = 0; r < p; ++r) {
    const std::vector<std::int64_t> rows = rows_of(r);
    all.insert(rows.begin(), rows.end());
  }
  const std::vector<std::int64_t> want(all.begin(), all.end());
  std::vector<std::vector<std::int64_t>> ids(static_cast<std::size_t>(p));
  bsp::Runtime::run(p, [&](bsp::Comm& comm) {
    const std::vector<std::int64_t> rows = rows_of(comm.rank());
    CompactedRows got = compact_filter_rows(comm, rows, universe, compress);
    EXPECT_EQ(got.filtered_rows, static_cast<std::int64_t>(want.size()));
    ASSERT_EQ(got.ids.size(), rows.size()) << "rank " << comm.rank();
    for (std::size_t i = 0; i < rows.size(); ++i) {
      EXPECT_EQ(got.ids[i], std::lower_bound(want.begin(), want.end(), rows[i]) - want.begin())
          << "rank " << comm.rank() << " row " << rows[i];
    }
    ids[static_cast<std::size_t>(comm.rank())] = std::move(got.ids);
  });
  return ids;
}

TEST_P(FilterTest, IdsArePositionsInTheSetUnion) {
  const int p = GetParam();
  const std::int64_t universe = 500;
  // Rank r contributes the multiples of r + 2, so ranks repeat each
  // other's rows; at p > 1 the last rank contributes none.
  const auto rows_of = [&](int r) {
    std::vector<std::int64_t> rows;
    if (p > 1 && r == p - 1) return rows;
    for (std::int64_t v = 0; v < universe; v += r + 2) rows.push_back(v);
    return rows;
  };
  (void)expect_union_positions(p, universe, rows_of);

  // The candidate-pair union takes the same inputs as unsorted packed
  // keys: each rank's list overlaps its neighbours' and repeats keys.
  std::set<std::uint64_t> pair_set;
  for (int r = 0; r < p; ++r) {
    for (const std::int64_t v : rows_of(r)) pair_set.insert(static_cast<std::uint64_t>(v));
    for (std::int64_t v = 0; v < universe; v += r + 3) {
      pair_set.insert(static_cast<std::uint64_t>(v));
    }
  }
  const std::vector<std::uint64_t> pair_keys(pair_set.begin(), pair_set.end());
  bsp::Runtime::run(p, [&](bsp::Comm& comm) {
    const std::vector<std::int64_t> rows = rows_of(comm.rank());
    std::vector<std::uint64_t> keys(rows.rbegin(), rows.rend());
    for (std::int64_t v = 0; v < universe; v += comm.rank() + 3) {
      keys.push_back(static_cast<std::uint64_t>(v));
      keys.push_back(static_cast<std::uint64_t>(v));
    }
    EXPECT_EQ(allreduce_pair_union(comm, std::move(keys)), pair_keys);
  });
}

TEST_P(FilterTest, IdsAreThePrefixSumAcrossOwners) {
  const int p = GetParam();
  // Rows 10, 40, 70 and 200 lie in two owners' blocks at p = 8, and the
  // last rank's 999 in the last block: at p > 1 the union is {10, 40, 70,
  // 200, 999}, and ranks between the first and the last send nothing.
  const auto ids = expect_union_positions(p, 1000, [&](int r) {
    if (r == 0) return std::vector<std::int64_t>{10, 40, 70, 200};
    if (r == p - 1) return std::vector<std::int64_t>{70, 999};
    return std::vector<std::int64_t>{};
  });
  EXPECT_EQ(ids.front(), (std::vector<std::int64_t>{0, 1, 2, 3}));
  if (p > 1) {
    EXPECT_EQ(ids.back(), (std::vector<std::int64_t>{2, 4}));
  }
}

TEST_P(FilterTest, EmptyBatchHasNoRows) {
  const int p = GetParam();
  const auto none = [](int) { return std::vector<std::int64_t>{}; };
  for (const std::int64_t universe : {0, 1000}) {
    for (const bool compress : {true, false}) {
      (void)expect_union_positions(p, universe, none, compress);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(RankCounts, FilterTest, ::testing::Values(1, 2, 3, 5, 8));

TEST_P(FilterTest, RawAndCompressedRepliesGiveIdenticalIds) {
  const int p = GetParam();
  // Two regimes per rank: a dense-ish range (word-run territory) and an
  // isolated hypersparse tail (gap territory).
  const std::int64_t universe = 1 << 16;
  const auto rows_of = [&](int r) {
    Rng rng(static_cast<std::uint64_t>(900 + r));
    std::vector<std::int64_t> rows;
    for (std::int64_t v = 0; v < 2000; ++v) {
      if (rng.bernoulli(0.6)) rows.push_back(v);
    }
    for (std::int64_t v = 2000; v < universe; ++v) {
      if (rng.bernoulli(0.0005)) rows.push_back(v);
    }
    return rows;
  };
  EXPECT_EQ(expect_union_positions(p, universe, rows_of, /*compress=*/true),
            expect_union_positions(p, universe, rows_of, /*compress=*/false));
}

TEST(FilterReply, RoundTripsInBothForms) {
  for (const bool compress : {true, false}) {
    for (const std::vector<std::int64_t>& positions :
         {std::vector<std::int64_t>{}, std::vector<std::int64_t>{0, 3, 9},
          std::vector<std::int64_t>{299}}) {
      const auto bytes = encode_filter_reply(300, positions, compress);
      EXPECT_FALSE(bytes.empty());  // the count always travels
      const FilterReply reply = decode_filter_reply(bytes, 400, positions.size(), compress);
      EXPECT_EQ(reply.count, 300);
      EXPECT_EQ(reply.positions, positions);
    }
  }
  // An owner with no rows still answers with its count.
  EXPECT_EQ(encode_filter_reply(0, {}), std::vector<std::uint8_t>{0});
}

TEST(FilterReply, DamagedRepliesAreCorruptInput) {
  const std::vector<std::int64_t> positions{2, 5};
  for (const bool compress : {true, false}) {
    // A count past the owner's row block (50 rows).
    const auto too_many = encode_filter_reply(51, positions, compress);
    EXPECT_THROW((void)decode_filter_reply(too_many, 50, 2, compress), error::CorruptInput);
    // A position at the count: position 5 of a 5-row block, coded by hand
    // as a 6-row reply whose count was then set to 5.
    auto at_count = encode_filter_reply(6, positions, compress);
    at_count[0] = 5;
    EXPECT_THROW((void)decode_filter_reply(at_count, 50, 2, compress), error::CorruptInput);
    // Two positions for the three rows the rank sent.
    const auto short_reply = encode_filter_reply(10, positions, compress);
    EXPECT_THROW((void)decode_filter_reply(short_reply, 50, 3, compress), error::CorruptInput);
    EXPECT_THROW((void)decode_filter_reply({}, 50, 0, compress), error::CorruptInput);
  }
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
    // Every rank emits the full grid, column-major as pack_batch does,
    // with value 1<<rank; owner = row block.
    std::vector<Triplet<std::uint64_t>> mine;
    for (std::int64_t c = 0; c < cols; ++c) {
      for (std::int64_t r = 0; r < rows; ++r) {
        mine.push_back({r, c, std::uint64_t{1} << comm.rank()});
      }
    }
    const BlockRange my_rows = block_range(rows, p, comm.rank());
    const SparseBlock merged = redistribute_panel(
        comm, std::move(mine),
        [&](std::int64_t row, std::int64_t) { return block_owner(rows, p, row); },
        {my_rows, {0, cols}});
    EXPECT_EQ(merged.rows, my_rows.size());
    EXPECT_EQ(merged.cols, cols);
    ASSERT_EQ(merged.nnz(), my_rows.size() * cols);
    const std::uint64_t all_ranks_mask = (p == 64) ? ~0ULL : ((1ULL << p) - 1);
    for (const auto& t : merged.entries) {
      EXPECT_GE(t.row, 0);  // rows arrive relative to the block
      EXPECT_LT(t.row, my_rows.size());
      EXPECT_EQ(t.value, all_ranks_mask);  // contributions from every rank merged
    }
    // Strictly ascending: each coordinate exactly once.
    EXPECT_EQ(std::adjacent_find(merged.entries.begin(), merged.entries.end(),
                                 [](const auto& a, const auto& b) {
                                   return !triplet_order<std::uint64_t>(a, b);
                                 }),
              merged.entries.end());
  });
}

TEST(Redistribute, EntryOutsideTheReceiversBlockIsCorruptInput) {
  // An owner function that disagrees with the receiver's extents is what
  // a damaged coordinate looks like to the receiver: a typed rejection.
  try {
    bsp::Runtime::run(2, [](bsp::Comm& comm) {
      std::vector<Triplet<std::uint64_t>> mine{{5, 0, 1}};
      (void)redistribute_panel(
          comm, std::move(mine), [](std::int64_t, std::int64_t) { return 1; },
          {{0, 4}, {0, 1}});
    });
    FAIL() << "expected the receiver to reject row 5 of a 4-row block";
  } catch (const error::Error& e) {
    EXPECT_EQ(e.code(), error::Code::kCorruptInput) << e.what();
  }
}

// ------------------------------------------------------------- panel wire

/// A random panel with `nnz`-ish entries over rows × cols whose masks use
/// the low `bits` bits, sorted in `order` with unique coordinates.
std::vector<Triplet<std::uint64_t>> random_panel(std::int64_t rows, std::int64_t cols,
                                                 int bits, double density,
                                                 PanelOrder order, std::uint64_t seed) {
  Rng rng(seed);
  const std::uint64_t low = bits == 64 ? ~0ULL : (std::uint64_t{1} << bits) - 1;
  std::vector<Triplet<std::uint64_t>> entries;
  for (std::int64_t r = 0; r < rows; ++r) {
    for (std::int64_t c = 0; c < cols; ++c) {
      if (!rng.bernoulli(density)) continue;
      std::uint64_t mask = rng() & low;
      if (mask == 0) mask = 1;
      entries.push_back({r, c, mask});
    }
  }
  if (order == PanelOrder::kColMajor) {
    std::sort(entries.begin(), entries.end(), [](const auto& a, const auto& b) {
      return a.col != b.col ? a.col < b.col : a.row < b.row;
    });
  }
  return entries;
}

std::vector<Triplet<std::uint64_t>> round_trip(std::span<const Triplet<std::uint64_t>> entries,
                                               PanelOrder order, PanelExtents extents) {
  const std::vector<std::uint8_t> wire = encode_panel(entries, order);
  EXPECT_LE(wire.size(), 24 * entries.size() + 1);
  std::vector<Triplet<std::uint64_t>> decoded;
  decode_panel_append(wire, order, extents, decoded);
  return decoded;
}

void expect_same_csr(const CsrPanel& got, const CsrPanel& want) {
  EXPECT_EQ(got.rows, want.rows);
  EXPECT_EQ(got.cols, want.cols);
  EXPECT_EQ(got.row_ids, want.row_ids);
  EXPECT_EQ(got.row_ptr, want.row_ptr);
  EXPECT_EQ(got.col_idx, want.col_idx);
  EXPECT_EQ(got.values, want.values);
}

TEST(PanelWire, RoundTripsInBothOrdersAtEveryBitWidth) {
  const std::int64_t rows = 37;
  const std::int64_t cols = 23;
  const PanelExtents box{{0, rows}, {0, cols}};
  for (const int bits : {1, 2, 7, 32, 64}) {
    for (const PanelOrder order : {PanelOrder::kRowMajor, PanelOrder::kColMajor}) {
      for (const double density : {0.0, 0.05, 0.4}) {
        const auto entries = random_panel(rows, cols, bits, density, order,
                                          static_cast<std::uint64_t>(bits * 100) +
                                              static_cast<std::uint64_t>(density * 10));
        const std::span<const Triplet<std::uint64_t>> span(entries);
        EXPECT_EQ(round_trip(span, order, box), entries) << "b=" << bits;
        if (order != PanelOrder::kRowMajor) continue;
        // Straight into the kernel's operand, whole and column-sliced.
        const std::vector<std::uint8_t> wire = encode_panel(span, order);
        expect_same_csr(decode_panel(wire, box), CsrPanel::from_triplets(rows, cols, span));
        std::vector<Triplet<std::uint64_t>> sliced;
        for (const auto& t : entries) {
          if (t.col >= 5 && t.col < 17) sliced.push_back({t.row, t.col - 5, t.value});
        }
        expect_same_csr(decode_panel(wire, box, {5, 17}),
                        CsrPanel::from_triplets(rows, 12, sliced));
      }
    }
  }
  // Empty and single-entry panels.
  EXPECT_TRUE(encode_panel({}, PanelOrder::kRowMajor).empty());
  EXPECT_EQ(decode_panel({}, box).row_ptr, std::vector<std::int64_t>{0});
  const std::vector<Triplet<std::uint64_t>> one{{36, 22, std::uint64_t{1} << 63}};
  for (const PanelOrder order : {PanelOrder::kRowMajor, PanelOrder::kColMajor}) {
    EXPECT_EQ(round_trip(one, order, box), one);
  }
}

TEST(PanelWire, DenseMasksTravelAsWordRuns) {
  // A full mask costs 64 gap bytes but 8 as a word run, plus a count and
  // a skip per run: the mode byte, then row 0 (gap 0; a run at column 0,
  // skip 0; a run at column 3, skip 2; 0), then row 2 (gap 1; a run at
  // column 1, skip 1; 0).
  const std::vector<Triplet<std::uint64_t>> dense{{0, 0, ~0ULL}, {0, 3, ~0ULL}, {2, 1, ~0ULL}};
  const std::vector<std::uint8_t> wire = encode_panel(dense, PanelOrder::kRowMajor);
  EXPECT_EQ(wire.size(), 1 + (1 + 2 + 8 + 2 + 8 + 1) + (1 + 2 + 8 + 1));
  EXPECT_LT(wire.size(), 24 * dense.size() + 1);
  EXPECT_EQ(round_trip(dense, PanelOrder::kRowMajor, {{0, 3}, {0, 4}}), dense);
  // Consecutive columns share one run, whatever their masks.
  const std::vector<Triplet<std::uint64_t>> run{{1, 4, ~0ULL}, {1, 5, 6}, {1, 6, ~0ULL}};
  EXPECT_EQ(encode_panel(run, PanelOrder::kRowMajor).size(), 1 + (1 + 2 + 3 * 8 + 1));
  EXPECT_EQ(round_trip(run, PanelOrder::kRowMajor, {{0, 2}, {0, 7}}), run);
  // The form is chosen per message: a sparse entry beside a full mask
  // travels as a word run too, as that is smaller in total.
  const std::vector<Triplet<std::uint64_t>> mixed{{0, 0, ~0ULL}, {3, 1, 1}};
  EXPECT_EQ(encode_panel(mixed, PanelOrder::kRowMajor).size(),
            1 + (1 + 2 + 8 + 1) + (1 + 2 + 8 + 1));
  EXPECT_EQ(round_trip(mixed, PanelOrder::kRowMajor, {{0, 4}, {0, 2}}), mixed);
  // An empty mask has no set bit to code, and the pipeline ships none.
  const std::vector<Triplet<std::uint64_t>> with_empty{{0, 1, 5}, {1, 0, 0}, {4, 2, 9}};
  EXPECT_THROW((void)encode_panel(with_empty, PanelOrder::kRowMajor), std::invalid_argument);
  // A sparse panel keeps its gaps, well below the raw Triplets.
  const std::vector<Triplet<std::uint64_t>> sparse{{0, 0, 1}, {0, 3, 2}, {2, 1, 4}};
  EXPECT_LT(encode_panel(sparse, PanelOrder::kRowMajor).size(), 24 * sparse.size() / 3);
}

TEST(PanelWire, WordIdsNearFourToThe31RoundTripColumnMajor) {
  // b = 1 with no row filter at k = 31: a batch spans up to 4^31 word
  // ids, where minor · 64 overflows int64.
  const std::int64_t m = std::int64_t{1} << 62;
  const std::vector<Triplet<std::uint64_t>> entries{
      {0, 0, 1}, {m - 2, 0, 1}, {m - 1, 0, 1}, {5, 3, 1}, {m - 1, 3, 1}};
  EXPECT_EQ(round_trip(entries, PanelOrder::kColMajor, {{0, m}, {0, 4}}), entries);
  // The largest coordinates an extent admits, up to bit 63 of a mask.
  const std::int64_t top = std::numeric_limits<std::int64_t>::max();
  const std::vector<Triplet<std::uint64_t>> extreme{{top - 1, 0, 1ULL << 63},
                                                    {top - 1, top - 1, 3}};
  EXPECT_EQ(round_trip(extreme, PanelOrder::kRowMajor, {{0, top}, {0, top}}), extreme);
  // One word-row past the receiver's extent is rejected, not wrapped.
  const std::vector<std::uint8_t> wire = encode_panel(entries, PanelOrder::kColMajor);
  std::vector<Triplet<std::uint64_t>> out;
  EXPECT_THROW(decode_panel_append(wire, PanelOrder::kColMajor, {{0, m - 1}, {0, 4}}, out),
               error::CorruptInput);
  // Full masks there travel as word runs, whose skips take 9 bytes:
  // column 1 is one run of 3 from row m − 3, column 2 a run at row 0 and
  // one at m − 1.
  const std::vector<Triplet<std::uint64_t>> dense{
      {m - 3, 1, ~0ULL}, {m - 2, 1, ~0ULL}, {m - 1, 1, 5}, {0, 2, ~0ULL}, {m - 1, 2, ~0ULL}};
  const std::vector<std::uint8_t> runs = encode_panel(dense, PanelOrder::kColMajor);
  EXPECT_EQ(runs.size(), 1 + (1 + 1 + 9 + 3 * 8 + 1) + (1 + 2 + 8 + 1 + 9 + 8 + 1));
  EXPECT_EQ(round_trip(dense, PanelOrder::kColMajor, {{0, m}, {0, 3}}), dense);
  EXPECT_THROW(decode_panel_append(runs, PanelOrder::kColMajor, {{0, m - 1}, {0, 3}}, out),
               error::CorruptInput);
}

TEST(PanelWire, DecoderChecksTheReceiversExtents) {
  const std::vector<Triplet<std::uint64_t>> entries{{1, 2, 6}, {3, 9, 1}};
  const std::vector<std::uint8_t> wire = encode_panel(entries, PanelOrder::kRowMajor);
  EXPECT_NO_THROW((void)decode_panel(wire, {{0, 4}, {0, 10}}));
  EXPECT_THROW((void)decode_panel(wire, {{0, 4}, {0, 9}}), error::CorruptInput);
  EXPECT_THROW((void)decode_panel(wire, {{0, 3}, {0, 10}}), error::CorruptInput);
  EXPECT_THROW((void)decode_panel(wire, {{2, 4}, {0, 10}}), error::CorruptInput);
  // Extents with a nonzero origin localize the coordinates.
  std::vector<Triplet<std::uint64_t>> out;
  decode_panel_append(wire, PanelOrder::kRowMajor, {{1, 4}, {2, 10}}, out);
  EXPECT_EQ(out, (std::vector<Triplet<std::uint64_t>>{{0, 0, 6}, {2, 7, 1}}));
  // A gap past 2^64 saturates and lands outside the extents; an eleventh
  // varint byte is a runaway.
  std::vector<std::uint8_t> huge{wire[0], 0x00};
  huge.insert(huge.end(), 9, 0xff);
  huge.insert(huge.end(), {0x7f, 0x00});
  EXPECT_THROW((void)decode_panel(huge, {{0, 4}, {0, 10}}), error::CorruptInput);
  std::vector<std::uint8_t> runaway{wire[0], 0x00};
  runaway.insert(runaway.end(), 10, 0xff);
  runaway.push_back(0x01);
  EXPECT_THROW((void)decode_panel(runaway, {{0, 4}, {0, 10}}), error::CorruptInput);
  // An unknown mode byte.
  const std::vector<std::uint8_t> unknown_mode{7, 0x00, 0x01, 0x00};
  EXPECT_THROW((void)decode_panel(unknown_mode, {{0, 4}, {0, 10}}), error::CorruptInput);
  // Word runs: row 0 holds one run of count 1 at skip 0 with a full mask.
  // Damage its count, skip or mask and the decoder rejects it.
  const std::vector<std::uint8_t> full = encode_panel(
      std::vector<Triplet<std::uint64_t>>{{0, 0, ~0ULL}}, PanelOrder::kRowMajor);
  const auto run_message = [&](std::uint64_t count, std::uint64_t skip, std::uint64_t mask) {
    std::vector<std::uint8_t> bytes{full[0], 0x00};
    util::put_leb128(bytes, count);
    util::put_leb128(bytes, skip);
    for (int b = 0; b < 8; ++b) bytes.push_back(static_cast<std::uint8_t>(mask >> (8 * b)));
    bytes.push_back(0x00);
    return bytes;
  };
  EXPECT_EQ(run_message(1, 0, ~0ULL), full);
  EXPECT_EQ(decode_panel(run_message(1, 9, 1), {{0, 4}, {0, 10}}).col_idx,
            std::vector<std::int64_t>{9});
  EXPECT_THROW((void)decode_panel(run_message(1, 10, 1), {{0, 4}, {0, 10}}),
               error::CorruptInput);  // skip past the extent
  EXPECT_THROW((void)decode_panel(run_message(2, 9, 1), {{0, 4}, {0, 10}}),
               error::CorruptInput);  // run past the extent
  EXPECT_THROW((void)decode_panel(run_message(1, 0, 0), {{0, 4}, {0, 10}}),
               error::CorruptInput);  // empty mask
  EXPECT_THROW((void)decode_panel(run_message(0, 0, 1), {{0, 4}, {0, 10}}),
               error::CorruptInput);  // a row with no run
  // A count whose masks would run past the message, even one whose byte
  // length overflows 64 bits, is truncation.
  const std::int64_t top = std::numeric_limits<std::int64_t>::max();
  EXPECT_THROW(decode_panel_append(run_message(2, 0, 1), PanelOrder::kColMajor,
                                   {{0, top}, {0, 1}}, out),
               error::CorruptInput);
  EXPECT_THROW(decode_panel_append(run_message(std::uint64_t{1} << 61, 0, 1),
                                   PanelOrder::kColMajor, {{0, top}, {0, 1}}, out),
               error::CorruptInput);
  // The encoder takes canonical input only.
  const std::vector<Triplet<std::uint64_t>> unsorted{{3, 0, 1}, {1, 0, 1}};
  EXPECT_THROW((void)encode_panel(unsorted, PanelOrder::kRowMajor), std::invalid_argument);
}

TEST(PanelWire, IndexSetsRoundTripEveryShape) {
  // The zero-row filter's index sets are one-row messages: index i is bit
  // i & 63 of the mask at column i >> 6.
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
      {"one-word gap", {10, 140}, 4096},
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
    const auto encoded = encode_index_set(shape.indices, shape.extent);
    EXPECT_EQ(decode_index_set(encoded, shape.extent), shape.indices) << shape.name;
    // Never above the raw list and its mode word (every gap here is below
    // 2^56 rows).
    EXPECT_LE(encoded.size(), 8 * (shape.indices.size() + 1)) << shape.name;
  }
  EXPECT_TRUE(encode_index_set(shapes[0].indices, 100).empty());

  // Compression wins where it should: about a bit per row on dense runs
  // (word runs), and 4 bytes an index on gaps of 2^25 rows.
  EXPECT_LE(encode_index_set(shapes[3].indices, 500).size(), 500 / 8 + 8);
  std::vector<std::int64_t> hypersparse;
  for (std::int64_t v = 0; v < 1000; ++v) hypersparse.push_back(v * 33554432);
  EXPECT_LE(encode_index_set(hypersparse, std::int64_t{1} << 45).size(),
            4 * hypersparse.size() + 4);

  // Malformed inputs throw.
  const std::vector<std::int64_t> unsorted = {5, 3};
  EXPECT_THROW((void)encode_index_set(unsorted, 10), std::invalid_argument);
  const std::vector<std::int64_t> beyond = {12};
  EXPECT_THROW((void)encode_index_set(beyond, 10), std::invalid_argument);
  const std::vector<std::int64_t> negative = {-1, 3};
  EXPECT_THROW((void)encode_index_set(negative, 10), std::invalid_argument);
  EXPECT_THROW((void)decode_index_set(std::vector<std::uint8_t>{99, 0, 1, 0}, 10),
               error::CorruptInput);
  // Hostile gap streams must throw, never yield negative or out-of-extent
  // indices: a complete 10-byte varint coding gap = 2^63 (the sign bit:
  // nine 0x80 continuation bytes, then 0x01), and a gap to index 10 of a
  // 10-row set, inside its one mask word.
  const std::uint8_t gaps = encode_index_set(std::vector<std::int64_t>{5}, 10)[0];
  std::vector<std::uint8_t> sign_bit_gap{gaps, 0x00};
  sign_bit_gap.insert(sign_bit_gap.end(), 9, 0x80);
  sign_bit_gap.insert(sign_bit_gap.end(), {0x01, 0x00});
  EXPECT_THROW((void)decode_index_set(sign_bit_gap, std::int64_t{1} << 40),
               error::CorruptInput);
  EXPECT_EQ(decode_index_set(std::vector<std::uint8_t>{gaps, 0x00, 10, 0x00}, 10),
            std::vector<std::int64_t>{9});
  EXPECT_THROW((void)decode_index_set(std::vector<std::uint8_t>{gaps, 0x00, 11, 0x00}, 10),
               error::CorruptInput);
  // A word-run skip past the extent must throw before minor · 64 can
  // overflow.
  const std::uint8_t runs = encode_index_set(shapes[3].indices, 500)[0];
  std::vector<std::uint8_t> runaway_skip{runs, 0x00, 0x01};
  util::put_leb128(runaway_skip, std::uint64_t{1} << 62);
  runaway_skip.insert(runaway_skip.end(), 8, 0xff);
  runaway_skip.push_back(0x00);
  EXPECT_THROW((void)decode_index_set(runaway_skip, 64), error::CorruptInput);
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
      const SummaShare share = summa_share(n, s, grid.grid_row(), grid.grid_col());
      b_block.emplace(share.rows, share.cols);
      summa_ata_accumulate(grid, n, *my_block, *b_block);
    }
    std::vector<GatherBlock<std::int64_t>> counts;
    if (grid.active() && grid.layer() == 0) counts.emplace_back(*b_block);
    std::vector<std::int64_t> assembled =
        gather_blocks_to_root(comm, std::span<const GatherBlock<std::int64_t>>(counts), n);
    if (comm.rank() == 0) {
      std::lock_guard<std::mutex> lock(got_mutex);
      got = std::move(assembled);
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

TEST(SummaShare, CoversEachCellOnce) {
  // Uneven chunks, odd ones (n = 5 at s = 2 splits a chunk of 3, n = 19
  // at s = 4 chunks of 5), empty chunks (s > n) and n = 0.
  for (const std::int64_t n : {0, 1, 2, 5, 19}) {
    for (int s = 1; s <= 4; ++s) {
      std::vector<int> cover(static_cast<std::size_t>(n * n), 0);
      for (int r = 0; r < s; ++r) {
        for (int c = 0; c < s; ++c) {
          const SummaShare share = summa_share(n, s, r, c);
          const BlockRange lo = block_range(n, s, std::min(r, c));
          const BlockRange hi = block_range(n, s, std::max(r, c));
          const std::string label =
              "n=" + std::to_string(n) + " s=" + std::to_string(s) + " rank (" +
              std::to_string(r) + ", " + std::to_string(c) + ")";
          EXPECT_GE(share.rows.begin, lo.begin) << label;
          EXPECT_LE(share.rows.begin, share.rows.end) << label;
          EXPECT_LE(share.rows.end, lo.end) << label;
          EXPECT_EQ(share.cols.begin, hi.begin) << label;
          EXPECT_EQ(share.cols.end, hi.end) << label;
          const SummaShare partner = summa_share(n, s, c, r);
          EXPECT_LE(std::abs(share.rows.size() - partner.rows.size()), 1) << label;
          for (std::int64_t i = share.rows.begin; i < share.rows.end; ++i) {
            for (std::int64_t j = share.cols.begin; j < share.cols.end; ++j) {
              // A diagonal rank's block reaches below the diagonal; its
              // SYRK and the mirrored gather use only the upper triangle.
              if (r == c && j < i) continue;
              EXPECT_LE(i, j) << label << " reaches below the diagonal";
              ++cover[static_cast<std::size_t>(i * n + j)];
            }
          }
        }
      }
      for (std::int64_t i = 0; i < n; ++i) {
        for (std::int64_t j = 0; j < n; ++j) {
          EXPECT_EQ(cover[static_cast<std::size_t>(i * n + j)], i <= j ? 1 : 0)
              << "n=" << n << " s=" << s << " cell (" << i << ", " << j << ")";
        }
      }
    }
  }
}

TEST(GatherDense, AssemblesBlocksOnRoot) {
  // The 2×2 grid's blocks of a symmetric 6×6 matrix on or above the block
  // diagonal, one per rank; rank (1, 0) ships none.
  bsp::Runtime::run(4, [](bsp::Comm& comm) {
    ProcGrid grid(comm, 1);
    DenseBlock<std::int64_t> block(block_range(6, 2, grid.grid_row()),
                                   block_range(6, 2, grid.grid_col()));
    for (std::int64_t i = block.row_range.begin; i < block.row_range.end; ++i) {
      for (std::int64_t j = block.col_range.begin; j < block.col_range.end; ++j) {
        block.at_global(i, j) = std::min(i, j) * 6 + std::max(i, j);
      }
    }
    std::vector<GatherBlock<std::int64_t>> mine;
    if (grid.grid_row() <= grid.grid_col()) mine.emplace_back(block);
    const auto full =
        gather_blocks_to_root(comm, std::span<const GatherBlock<std::int64_t>>(mine), 6);
    if (comm.rank() == 0) {
      ASSERT_EQ(full.size(), 36u);
      for (std::int64_t i = 0; i < 6; ++i) {
        for (std::int64_t j = 0; j < 6; ++j) {
          EXPECT_EQ(full[static_cast<std::size_t>(i * 6 + j)],
                    std::min(i, j) * 6 + std::max(i, j));
        }
      }
    } else {
      EXPECT_TRUE(full.empty());
    }
  });
}

/// The blocks rank r of p contributes to an n×n gather: its ring shares
/// (one triangle, distmat/ring.hpp) and an empty block.
std::vector<std::pair<BlockRange, BlockRange>> gather_layout(std::int64_t n, int p, int r) {
  const BlockRange rows = block_range(n, p, r);
  std::vector<std::pair<BlockRange, BlockRange>> blocks{
      {{rows.begin, rows.begin}, {0, n}}};
  for (int owner = 0; owner < p; ++owner) {
    const BlockRange cols = block_range(n, p, owner);
    const RingShare share = ring_share(p, r, owner, rows.size(), cols.size());
    if (share.empty()) continue;
    blocks.push_back({{rows.begin + share.rows.begin, rows.begin + share.rows.end},
                      {cols.begin + share.cols.begin, cols.begin + share.cols.end}});
  }
  return blocks;
}

/// Symmetric cell values with runs of zeros, row 0 all zero and row 1 all
/// nonzero. Integers include negatives and values past 2^56; doubles
/// include −0.0, NaN payloads and subnormals, whose bit patterns are
/// nonzero.
template <typename T>
std::vector<T> gather_truth(std::int64_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<T> truth(static_cast<std::size_t>(n * n), T{});
  for (std::int64_t i = 0; i < n; ++i) {
    for (std::int64_t j = i; j < n; ++j) {
      T value{};
      if (i == 1 || j == 1 || (i != 0 && j != 0 && rng.bernoulli(0.5))) {
        const std::uint64_t pick = rng.uniform(4);
        if constexpr (std::is_integral_v<T>) {
          const std::int64_t choices[] = {1, 300, -107, std::int64_t{1} << 60};
          value = choices[pick] + static_cast<std::int64_t>(rng.uniform(100));
        } else {
          const double choices[] = {-0.0, std::bit_cast<double>(0x7ff80000deadbeefULL),
                                    std::numeric_limits<double>::denorm_min(),
                                    rng.uniform_real()};
          value = choices[pick];
        }
        if (i == 0 || j == 0) value = T{};
      }
      truth[static_cast<std::size_t>(i * n + j)] = value;
      truth[static_cast<std::size_t>(j * n + i)] = value;
    }
  }
  return truth;
}

/// Gather `truth`'s blocks (gather_layout) from p ranks with `finalize`
/// and check the root's matrix bit for bit against a plain assembly.
template <typename T, typename Finalize>
void expect_gather_matches_reference(std::int64_t n, int p, Finalize finalize) {
  const std::vector<T> truth = gather_truth<T>(n, 1000 * n + p);
  using Out = std::invoke_result_t<Finalize&, std::int64_t, std::int64_t, T>;
  std::vector<Out> expected(static_cast<std::size_t>(n * n), Out{});
  for (int r = 0; r < p; ++r) {
    for (const auto& [rows, cols] : gather_layout(n, p, r)) {
      // A diagonal block ships its upper triangle, and each cell of every
      // block lands at (i, j) and (j, i).
      const bool triangle = rows.begin == cols.begin && rows.end == cols.end;
      for (std::int64_t i = rows.begin; i < rows.end; ++i) {
        for (std::int64_t j = triangle ? i : cols.begin; j < cols.end; ++j) {
          const Out value = finalize(i, j, truth[static_cast<std::size_t>(i * n + j)]);
          expected[static_cast<std::size_t>(i * n + j)] = value;
          expected[static_cast<std::size_t>(j * n + i)] = value;
        }
      }
    }
  }
  std::vector<Out> got;
  bsp::Runtime::run(p, [&](bsp::Comm& comm) {
    const BlockRange rows = block_range(n, p, comm.rank());
    DenseBlock<T> panel(rows, {0, n});
    for (std::int64_t i = rows.begin; i < rows.end; ++i) {
      for (std::int64_t j = 0; j < n; ++j) {
        panel.at_global(i, j) = truth[static_cast<std::size_t>(i * n + j)];
      }
    }
    std::vector<GatherBlock<T>> blocks;
    for (const auto& [block_rows, block_cols] : gather_layout(n, p, comm.rank())) {
      blocks.emplace_back(panel, block_rows, block_cols);
    }
    std::vector<Out> full =
        gather_blocks_to_root(comm, std::span<const GatherBlock<T>>(blocks), n, finalize);
    if (comm.rank() == 0) {
      got = std::move(full);
    } else {
      EXPECT_TRUE(full.empty());
    }
  });
  ASSERT_EQ(got.size(), expected.size());
  for (std::size_t c = 0; c < got.size(); ++c) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got[c]), std::bit_cast<std::uint64_t>(expected[c]))
        << "n=" << n << " p=" << p << " cell " << c;
  }
}

TEST(GatherDense, RoundTripMatchesReferenceAssembly) {
  // Counts finalized on the root, as the exact pipeline does (a finalize
  // that reads both coordinates, so a misplaced cell shows), and doubles
  // kept as shipped, as the sketch ring does. 1×1 blocks (n = 1, and
  // p ≥ n), uneven ring shares (n = 7 at p = 4 splits a block of 2 and
  // one of 1), and ranks with no rows (p > n).
  const auto counts_to_double = [](std::int64_t i, std::int64_t j, std::int64_t count) {
    return static_cast<double>(count) + 0.5 * static_cast<double>(i) -
           0.25 * static_cast<double>(j);
  };
  for (const std::int64_t n : {1, 5, 7}) {
    for (const int p : {1, 2, 3, 4, 8}) {
      expect_gather_matches_reference<std::int64_t>(n, p, counts_to_double);
      expect_gather_matches_reference<std::int64_t>(n, p, KeepValue{});
      expect_gather_matches_reference<double>(n, p, KeepValue{});
    }
  }
}

TEST(GatherDense, ZeroRunsCostBytesOnlyForNonzeroCells) {
  // A symmetric 64×64 block of counts with 3 nonzero cells in its upper
  // triangle: the ranges and three runs, not 8 bytes a cell.
  DenseBlock<std::int64_t> block({0, 64}, {0, 64});
  block.at_global(0, 5) = block.at_global(5, 0) = 1;
  block.at_global(17, 17) = 2;
  block.at_global(63, 63) = 300;
  const GatherBlock<std::int64_t> whole(block);
  const std::vector<std::uint8_t> message =
      encode_block_message(std::span<const GatherBlock<std::int64_t>>(&whole, 1));
  EXPECT_LE(message.size(), 30u);
  std::vector<std::int64_t> out(64 * 64, -1);
  decode_block_message<std::int64_t>(message, 64, KeepValue{}, std::span<std::int64_t>(out));
  EXPECT_EQ(out, block.values);
}

/// A 5×5 block at (1, 1) of a 7×7 matrix: symmetric counts (zeros
/// among them) in its upper triangle and the diagonal, and in its lower
/// triangle values no symmetric product has, which the block message
/// must not read.
DenseBlock<std::int64_t> diagonal_block_with_stray_lower_cells() {
  DenseBlock<std::int64_t> block({1, 6}, {1, 6});
  Rng rng(5);
  for (std::int64_t i = 1; i < 6; ++i) {
    for (std::int64_t j = 1; j < 6; ++j) {
      block.at_global(i, j) = i <= j ? static_cast<std::int64_t>(rng.uniform(3) * 150)
                                     : -(10 * i + j);
    }
  }
  return block;
}

TEST(GatherDense, MirroredDiagonalBlockShipsItsUpperTriangle) {
  const DenseBlock<std::int64_t> block = diagonal_block_with_stray_lower_cells();
  const GatherBlock<std::int64_t> whole(block);
  const std::vector<std::uint8_t> triangle =
      encode_block_message(std::span<const GatherBlock<std::int64_t>>(&whole, 1));
  // Both triangles come from the upper one.
  std::vector<std::int64_t> out(49, -1);
  decode_block_message<std::int64_t>(triangle, 7, KeepValue{}, std::span<std::int64_t>(out));
  for (std::int64_t i = 0; i < 7; ++i) {
    for (std::int64_t j = 0; j < 7; ++j) {
      const bool inside = block.row_range.contains(i) && block.col_range.contains(j);
      const std::int64_t want =
          !inside ? -1 : block.at_global(std::min(i, j), std::max(i, j));
      EXPECT_EQ(out[static_cast<std::size_t>(i * 7 + j)], want) << "cell " << i << ", " << j;
    }
  }
}

TEST(GatherDense, RunPastTheTriangleIsCorruptInput) {
  // One 3×3 diagonal block whose one run holds all 9 cells of the square,
  // 3 past the triangle's 6.
  std::vector<std::uint8_t> message{1, 0, 3, 0, 3, 0, 9};
  for (std::uint8_t v = 1; v <= 9; ++v) message.push_back(v);
  std::vector<std::int64_t> out(9, 0);
  try {
    decode_block_message<std::int64_t>(message, 3, KeepValue{}, std::span<std::int64_t>(out));
    ADD_FAILURE() << "a run past the triangle decoded";
  } catch (const error::Error& e) {
    EXPECT_EQ(e.code(), error::Code::kCorruptInput) << e.what();
  }
}

TEST(GatherTriplets, PairsOutsideTheTriangleOrRepeatedAreCorruptInput) {
  // The triplets cross the wire: a pair below the diagonal, past n, or
  // sent twice is damage, not a caller's bug.
  const std::vector<std::vector<Triplet<double>>> bad{
      {{2, 1, 0.5}}, {{1, 1, 0.5}}, {{0, 4, 0.5}}, {{-1, 2, 0.5}}, {{0, 1, 0.5}, {0, 1, 0.5}}};
  for (const auto& from_rank_1 : bad) {
    try {
      bsp::Runtime::run(2, [&](bsp::Comm& comm) {
        std::vector<Triplet<double>> mine;
        if (comm.rank() == 1) mine = from_rank_1;
        (void)gather_triplets_to_root(comm, std::move(mine), 4);
      });
      ADD_FAILURE() << "expected rank 0 to reject (" << from_rank_1[0].row << ", "
                    << from_rank_1[0].col << ")";
    } catch (const error::Error& e) {
      EXPECT_EQ(e.code(), error::Code::kCorruptInput) << e.what();
    }
  }
}

}  // namespace
}  // namespace sas::distmat
