// test_raw_speed.cpp — invariants of the raw-speed layer: the vectorized
// scatter kernels must be bit-identical to the scalar inline kernels on
// every alignment and segment length, the hierarchical two-tier
// collectives must be bitwise-indistinguishable from the flat ones (the
// driver result cannot depend on the simulated node topology), the
// two-tier cost model must reduce to the flat formula when no intra
// traffic exists.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <numeric>
#include <vector>

#include "bsp/cost_model.hpp"
#include "bsp/runtime.hpp"
#include "core/driver.hpp"
#include "core/sample_source.hpp"
#include "distmat/dist_filter.hpp"
#include "util/popcount.hpp"
#include "util/rng.hpp"

namespace sas {
namespace {

// ---- vectorized scatter vs the scalar inline kernels ---------------------

/// Random scatter problem: `count` unique accumulator slots (the CSR
/// contract — one entry per (word_row, sample) — is what makes the
/// AVX512 scatter conflict-free, so the generator must honour it).
struct ScatterProblem {
  std::vector<std::int64_t> cols;
  std::vector<std::uint64_t> vals;
  std::vector<std::int64_t> acc;
};

ScatterProblem make_problem(std::size_t count, std::size_t acc_n, Rng& rng) {
  ScatterProblem p;
  std::vector<std::int64_t> slots(acc_n);
  std::iota(slots.begin(), slots.end(), 0);
  for (std::size_t i = acc_n; i > 1; --i) {  // Fisher–Yates off our Rng
    std::swap(slots[i - 1], slots[rng.uniform(i)]);
  }
  p.cols.assign(slots.begin(), slots.begin() + static_cast<std::ptrdiff_t>(count));
  for (std::size_t i = 0; i < count; ++i) p.vals.push_back(rng());
  for (std::size_t i = 0; i < acc_n; ++i) {
    p.acc.push_back(static_cast<std::int64_t>(rng.uniform(1000)));
  }
  return p;
}

TEST(ScatterDispatch, MatchesScalarAcrossLengthsAndOffsets) {
  Rng rng(2026);
  // Lengths straddle the 8-lane width (tails of every size) and offsets
  // misalign the cols/vals pointers relative to the allocation.
  const std::size_t lengths[] = {0, 1, 2, 3, 5, 7, 8, 9, 15, 16, 17, 24, 31, 63, 100};
  for (const std::size_t count : lengths) {
    for (const std::size_t offset : {std::size_t{0}, std::size_t{1}, std::size_t{3}}) {
      ScatterProblem p = make_problem(count + offset, /*acc_n=*/256, rng);
      const std::uint64_t words[] = {~0ULL, 0x5555555555555555ULL, rng()};
      for (const std::uint64_t word : words) {
        std::vector<std::int64_t> scalar_acc = p.acc;
        std::vector<std::int64_t> vector_acc = p.acc;
        popcount_and_scatter(word, p.cols.data() + offset, p.vals.data() + offset,
                             count, scalar_acc.data());
        popcount_and_scatter_dispatch(word, p.cols.data() + offset,
                                      p.vals.data() + offset, count,
                                      vector_acc.data());
        EXPECT_EQ(scalar_acc, vector_acc)
            << "count=" << count << " offset=" << offset << " word=" << word;
      }
    }
  }
}

TEST(ScatterDispatch, FourRowVariantMatchesScalar) {
  Rng rng(77);
  for (const std::size_t count : {std::size_t{0}, std::size_t{3}, std::size_t{8},
                                  std::size_t{13}, std::size_t{32}, std::size_t{50}}) {
    ScatterProblem p = make_problem(count, /*acc_n=*/128, rng);
    const std::uint64_t w0 = rng();
    const std::uint64_t w1 = rng();
    const std::uint64_t w2 = 0;  // all-zero row must be a no-op on acc2
    const std::uint64_t w3 = ~0ULL;
    std::vector<std::int64_t> s0 = p.acc, s1 = p.acc, s2 = p.acc, s3 = p.acc;
    std::vector<std::int64_t> v0 = p.acc, v1 = p.acc, v2 = p.acc, v3 = p.acc;
    popcount_and_scatter_4(w0, w1, w2, w3, p.cols.data(), p.vals.data(), count,
                           s0.data(), s1.data(), s2.data(), s3.data());
    popcount_and_scatter_4_dispatch(w0, w1, w2, w3, p.cols.data(), p.vals.data(),
                                    count, v0.data(), v1.data(), v2.data(), v3.data());
    EXPECT_EQ(s0, v0) << "count=" << count;
    EXPECT_EQ(s1, v1) << "count=" << count;
    EXPECT_EQ(s2, v2) << "count=" << count;
    EXPECT_EQ(s3, v3) << "count=" << count;
  }
}

TEST(ScatterDispatch, VectorizedProbeIsStable) {
  // Whatever the host supports, the answer must be consistent — the
  // crossover calibrator memoizes against it.
  EXPECT_EQ(popcount_scatter_vectorized(), popcount_scatter_vectorized());
}

// ---- hierarchical collectives: bitwise parity with flat ------------------

struct HierCase {
  int ranks;
  int nodes;
};

class HierCollectives : public ::testing::TestWithParam<HierCase> {};

TEST_P(HierCollectives, BroadcastFromEveryRoot) {
  const auto [p, nodes] = GetParam();
  bsp::RuntimeOptions opt;
  opt.nodes = nodes;
  bsp::Runtime::run(
      p,
      [p](bsp::Comm& comm) {
        for (int root = 0; root < p; ++root) {
          std::vector<std::int64_t> data;
          if (comm.rank() == root) data = {root * 10LL, root * 10LL + 1, 42};
          comm.broadcast(data, root);
          ASSERT_EQ(data.size(), 3u);
          EXPECT_EQ(data[0], root * 10LL);
          EXPECT_EQ(data[1], root * 10LL + 1);
          EXPECT_EQ(data[2], 42);
        }
      },
      opt);
}

TEST_P(HierCollectives, AllreduceMatchesSerialReference) {
  const auto [p, nodes] = GetParam();
  bsp::RuntimeOptions opt;
  opt.nodes = nodes;
  bsp::Runtime::run(
      p,
      [p](bsp::Comm& comm) {
        std::vector<std::int64_t> data{comm.rank(), 2 * comm.rank(), 1};
        comm.allreduce(data, std::plus<std::int64_t>{});
        const std::int64_t ranks_sum = static_cast<std::int64_t>(p) * (p - 1) / 2;
        EXPECT_EQ(data[0], ranks_sum);
        EXPECT_EQ(data[1], 2 * ranks_sum);
        EXPECT_EQ(data[2], p);
        // Bit-or is the mask-union op of the pipelines; exercise it too.
        std::vector<std::uint64_t> mask{1ULL << (comm.rank() % 64)};
        comm.allreduce(mask, [](std::uint64_t a, std::uint64_t b) { return a | b; });
        std::uint64_t expect = 0;
        for (int r = 0; r < p; ++r) expect |= 1ULL << (r % 64);
        EXPECT_EQ(mask[0], expect);
      },
      opt);
}

TEST_P(HierCollectives, AllgatherVKeepsRankOrderAndSizes) {
  const auto [p, nodes] = GetParam();
  bsp::RuntimeOptions opt;
  opt.nodes = nodes;
  bsp::Runtime::run(
      p,
      [p](bsp::Comm& comm) {
        std::vector<std::int64_t> mine(static_cast<std::size_t>(comm.rank() % 3),
                                       comm.rank());
        auto blocks = comm.allgather_v<std::int64_t>(mine);
        ASSERT_EQ(blocks.size(), static_cast<std::size_t>(p));
        for (int r = 0; r < p; ++r) {
          ASSERT_EQ(blocks[static_cast<std::size_t>(r)].size(),
                    static_cast<std::size_t>(r % 3));
          for (auto v : blocks[static_cast<std::size_t>(r)]) EXPECT_EQ(v, r);
        }
      },
      opt);
}

TEST_P(HierCollectives, AlltoallVRoutesEveryBlock) {
  const auto [p, nodes] = GetParam();
  bsp::RuntimeOptions opt;
  opt.nodes = nodes;
  bsp::Runtime::run(
      p,
      [p](bsp::Comm& comm) {
        // Variable block sizes: the (src, dst) block holds src%3+1 copies
        // of 1000·src + dst, so both routing and framing are checked.
        std::vector<std::vector<std::int64_t>> outgoing(static_cast<std::size_t>(p));
        for (int d = 0; d < p; ++d) {
          outgoing[static_cast<std::size_t>(d)].assign(
              static_cast<std::size_t>(comm.rank() % 3 + 1), 1000LL * comm.rank() + d);
        }
        const auto incoming = comm.alltoall_v(outgoing);
        ASSERT_EQ(incoming.size(), static_cast<std::size_t>(p));
        for (int src = 0; src < p; ++src) {
          const auto& block = incoming[static_cast<std::size_t>(src)];
          ASSERT_EQ(block.size(), static_cast<std::size_t>(src % 3 + 1));
          for (auto v : block) EXPECT_EQ(v, 1000LL * src + comm.rank());
        }
      },
      opt);
}

INSTANTIATE_TEST_SUITE_P(NodeTopologies, HierCollectives,
                         ::testing::Values(HierCase{2, 2}, HierCase{3, 2},
                                           HierCase{4, 2}, HierCase{5, 2},
                                           HierCase{8, 2}, HierCase{8, 3},
                                           HierCase{8, 4}, HierCase{8, 8},
                                           HierCase{4, 1}));

TEST(HierTopology, AccessorsDescribeContiguousBlocks) {
  bsp::RuntimeOptions opt;
  opt.nodes = 2;
  bsp::Runtime::run(
      4,
      [](bsp::Comm& comm) {
        EXPECT_TRUE(comm.hierarchical());
        EXPECT_EQ(comm.node_count(), 2);
        EXPECT_EQ(comm.node_of(0), 0);
        EXPECT_EQ(comm.node_of(1), 0);
        EXPECT_EQ(comm.node_of(2), 1);
        EXPECT_EQ(comm.node_of(3), 1);
        EXPECT_EQ(comm.my_node(), comm.rank() / 2);
        const auto members = comm.node_ranks(comm.my_node());
        ASSERT_EQ(members.size(), 2u);
        EXPECT_EQ(comm.is_node_leader(), comm.rank() % 2 == 0);
      },
      opt);
}

TEST(HierTopology, FlatCommReportsOneNode) {
  bsp::Runtime::run(2, [](bsp::Comm& comm) {
    EXPECT_FALSE(comm.hierarchical());
    EXPECT_EQ(comm.node_count(), 1);
    EXPECT_EQ(comm.node_of(comm.rank()), 0);
    EXPECT_TRUE(comm.is_node_leader());
  });
}

TEST(HierTopology, SplitChildrenInheritNodeMap) {
  bsp::RuntimeOptions opt;
  opt.nodes = 2;
  bsp::Runtime::run(
      4,
      [](bsp::Comm& comm) {
        // Column-style split {0,2} / {1,3}: each child spans both nodes,
        // so it stays hierarchical and its collectives must still agree
        // with the serial reference.
        bsp::Comm col = comm.split(comm.rank() % 2, comm.rank());
        EXPECT_TRUE(col.hierarchical());
        EXPECT_EQ(col.node_count(), 2);
        const auto got = col.allgather<int>(std::vector<int>{comm.rank()});
        ASSERT_EQ(got.size(), 2u);
        EXPECT_EQ(got[0] % 2, got[1] % 2);
        EXPECT_LT(got[0], got[1]);
        // Row-style split {0,1} / {2,3}: each child sits inside one node;
        // the topology collapses to flat (no leader indirection needed).
        bsp::Comm row = comm.split(comm.rank() / 2, comm.rank());
        EXPECT_FALSE(row.hierarchical());
        const auto sum = row.allreduce_value<int>(1, std::plus<int>{});
        EXPECT_EQ(sum, 2);
      },
      opt);
}

TEST(HierTopology, IntraTrafficIsCountedSeparately) {
  bsp::RuntimeOptions opt;
  opt.nodes = 2;
  auto counters = bsp::Runtime::run(
      4,
      [](bsp::Comm& comm) {
        std::vector<std::int64_t> data{1, 2, 3, 4};
        comm.broadcast(data, 0);
        comm.barrier();
      },
      opt);
  const auto summary = bsp::CostSummary::aggregate(counters);
  // 4 ranks on 2 nodes: the root→peer-leader hop crosses nodes, the
  // member fan-outs stay inside them — both tiers must be populated, and
  // intra is a subset of the total.
  EXPECT_GT(summary.total_bytes_intra, 0u);
  EXPECT_LT(summary.total_bytes_intra, summary.total_bytes);
  for (const auto& c : counters) {
    EXPECT_LE(c.bytes_intra, c.bytes_sent);
    EXPECT_LE(c.messages_intra, c.messages_sent);
  }
}

// ---- hierarchical pair union: identical to the flat exchange -------------

TEST(HierPairUnion, MatchesFlatUnionAcrossTopologies) {
  constexpr int kRanks = 8;
  const auto contribute = [](int rank) {
    // Overlapping lists (every rank shares keys with its neighbours) so
    // the leader-side dedupe actually has duplicates to remove.
    std::vector<std::uint64_t> mine;
    Rng rng(900 + static_cast<std::uint64_t>(rank) / 2);  // pairs share streams
    for (int i = 0; i < 40; ++i) mine.push_back(rng.uniform(512));
    return mine;
  };
  std::vector<std::uint64_t> expected;
  for (int r = 0; r < kRanks; ++r) {
    const auto mine = contribute(r);
    expected.insert(expected.end(), mine.begin(), mine.end());
  }
  std::sort(expected.begin(), expected.end());
  expected.erase(std::unique(expected.begin(), expected.end()), expected.end());

  for (const int nodes : {1, 2, 4}) {
    bsp::RuntimeOptions opt;
    opt.nodes = nodes;
    bsp::Runtime::run(
        kRanks,
        [&](bsp::Comm& comm) {
          const auto got = distmat::allreduce_pair_union(comm, contribute(comm.rank()));
          EXPECT_EQ(got, expected) << "nodes=" << nodes << " rank=" << comm.rank();
        },
        opt);
  }
}

// ---- two-tier cost model -------------------------------------------------

TEST(TwoTierCostModel, ReducesToFlatWhenNoIntraTraffic) {
  const bsp::BspMachine m{5e-6, 5e-10, 1e-9};
  EXPECT_DOUBLE_EQ(m.predicted_seconds(10, 4096, 0, 0), m.predicted_seconds(10, 4096));
  EXPECT_DOUBLE_EQ(m.predicted_seconds(0, 0, 0, 0), m.predicted_seconds(0, 0));
}

TEST(TwoTierCostModel, IntraTierIsCheaperAndClamped) {
  const bsp::BspMachine m{5e-6, 5e-10, 1e-9};
  // Moving a message to the intra tier must never make the prediction
  // more expensive (alpha_intra < alpha, beta_intra < beta).
  EXPECT_LT(m.predicted_seconds(10, 4096, 5, 2048), m.predicted_seconds(10, 4096, 0, 0));
  // An intra subset larger than the total clamps rather than producing a
  // negative inter term.
  EXPECT_GT(m.predicted_seconds(4, 100, 400, 100000), 0.0);
}

// ---- driver: node topology cannot change any result ----------------------

core::VectorSampleSource driver_source() {
  Rng rng(404);
  std::vector<std::vector<std::int64_t>> samples(16);
  for (auto& s : samples) {
    for (std::int64_t v = 0; v < 500; ++v) {
      if (rng.bernoulli(0.06)) s.push_back(v);
    }
  }
  return core::VectorSampleSource(500, std::move(samples));
}

struct DriverHierCase {
  int ranks;
  core::Estimator estimator;
  core::Algorithm algorithm;
};

class DriverHierParity : public ::testing::TestWithParam<DriverHierCase> {};

TEST_P(DriverHierParity, HierarchicalRunIsBitwiseIdenticalToFlat) {
  const DriverHierCase c = GetParam();
  const auto src = driver_source();
  core::Config cfg;
  cfg.algorithm = c.algorithm;
  cfg.estimator = c.estimator;
  cfg.batch_count = 2;
  if (c.estimator == core::Estimator::kHybrid) cfg.prune_threshold = 0.1;

  core::Config flat_cfg = cfg;
  flat_cfg.nodes = 1;
  core::Config hier_cfg = cfg;
  hier_cfg.nodes = 2;

  const core::Result flat = core::similarity_at_scale_threaded(c.ranks, src, flat_cfg);
  const core::Result hier = core::similarity_at_scale_threaded(c.ranks, src, hier_cfg);

  const std::int64_t n = src.sample_count();
  for (std::int64_t i = 0; i < n; ++i) {
    for (std::int64_t j = 0; j < n; ++j) {
      if (c.estimator == core::Estimator::kHybrid) {
        ASSERT_EQ(flat.candidates.test(i, j), hier.candidates.test(i, j))
            << "pair " << i << "," << j;
      }
      // Bitwise (==, not NEAR): the node topology only reroutes verbatim
      // payloads and exactly-associative integer reductions.
      ASSERT_EQ(flat.similarity_at(i, j), hier.similarity_at(i, j))
          << "pair " << i << "," << j;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    RanksAndEstimators, DriverHierParity,
    ::testing::Values(
        DriverHierCase{1, core::Estimator::kExact, core::Algorithm::kRing1D},
        DriverHierCase{2, core::Estimator::kExact, core::Algorithm::kRing1D},
        DriverHierCase{4, core::Estimator::kExact, core::Algorithm::kRing1D},
        DriverHierCase{8, core::Estimator::kExact, core::Algorithm::kRing1D},
        DriverHierCase{4, core::Estimator::kExact, core::Algorithm::kSumma},
        DriverHierCase{4, core::Estimator::kMinhash, core::Algorithm::kRing1D},
        DriverHierCase{4, core::Estimator::kHll, core::Algorithm::kRing1D},
        DriverHierCase{8, core::Estimator::kHybrid, core::Algorithm::kRing1D}));

}  // namespace
}  // namespace sas
