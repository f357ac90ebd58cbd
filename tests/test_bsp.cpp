// test_bsp.cpp — the message-passing substrate: point-to-point ordering,
// every collective against a serial reference, sub-communicator splits,
// and BSP cost accounting. Parameterized over rank counts, including
// non-powers of two (the tree/dissemination algorithms must handle them).
#include <gtest/gtest.h>

#include <functional>
#include <numeric>
#include <vector>

#include "bsp/runtime.hpp"
#include "util/rng.hpp"

namespace sas::bsp {
namespace {

class Collectives : public ::testing::TestWithParam<int> {};

TEST_P(Collectives, SendRecvPreservesFifoOrderPerPair) {
  const int p = GetParam();
  Runtime::run(p, [](Comm& comm) {
    const int next = (comm.rank() + 1) % comm.size();
    const int prev = (comm.rank() + comm.size() - 1) % comm.size();
    for (int msg = 0; msg < 5; ++msg) {
      comm.send_value<int>(next, 7, comm.rank() * 100 + msg);
    }
    for (int msg = 0; msg < 5; ++msg) {
      EXPECT_EQ(comm.recv_value<int>(prev, 7), prev * 100 + msg);
    }
  });
}

TEST_P(Collectives, SendToSelfWorks) {
  Runtime::run(GetParam(), [](Comm& comm) {
    comm.send_value<double>(comm.rank(), 3, 2.5 + comm.rank());
    EXPECT_DOUBLE_EQ(comm.recv_value<double>(comm.rank(), 3), 2.5 + comm.rank());
  });
}

TEST_P(Collectives, BroadcastFromEveryRoot) {
  const int p = GetParam();
  Runtime::run(p, [p](Comm& comm) {
    for (int root = 0; root < p; ++root) {
      std::vector<std::int64_t> data;
      if (comm.rank() == root) data = {root * 10LL, root * 10LL + 1, 42};
      comm.broadcast(data, root);
      ASSERT_EQ(data.size(), 3u);
      EXPECT_EQ(data[0], root * 10LL);
      EXPECT_EQ(data[2], 42);
    }
  });
}

TEST_P(Collectives, AllreduceSumAndMax) {
  const int p = GetParam();
  Runtime::run(p, [p](Comm& comm) {
    const auto sum = comm.allreduce_value<std::int64_t>(comm.rank() + 1,
                                                        std::plus<std::int64_t>{});
    EXPECT_EQ(sum, static_cast<std::int64_t>(p) * (p + 1) / 2);
    const auto mx = comm.allreduce_value<int>(
        comm.rank(), [](int a, int b) { return a > b ? a : b; });
    EXPECT_EQ(mx, p - 1);
  });
}

TEST_P(Collectives, AllreduceVectorElementwise) {
  const int p = GetParam();
  Runtime::run(p, [p](Comm& comm) {
    std::vector<std::int64_t> data{comm.rank(), 2 * comm.rank(), 1};
    comm.allreduce(data, std::plus<std::int64_t>{});
    const std::int64_t ranks_sum = static_cast<std::int64_t>(p) * (p - 1) / 2;
    EXPECT_EQ(data[0], ranks_sum);
    EXPECT_EQ(data[1], 2 * ranks_sum);
    EXPECT_EQ(data[2], p);
  });
}

TEST_P(Collectives, ReduceToEveryRoot) {
  const int p = GetParam();
  Runtime::run(p, [p](Comm& comm) {
    for (int root = 0; root < p; ++root) {
      std::vector<std::int64_t> data{1, static_cast<std::int64_t>(comm.rank())};
      comm.reduce(data, std::plus<std::int64_t>{}, root);
      if (comm.rank() == root) {
        EXPECT_EQ(data[0], p);
        EXPECT_EQ(data[1], static_cast<std::int64_t>(p) * (p - 1) / 2);
      }
      comm.barrier();
    }
  });
}

TEST_P(Collectives, GatherVCollectsVariableBlocks) {
  const int p = GetParam();
  Runtime::run(p, [p](Comm& comm) {
    // Rank r contributes r+1 values, all equal to r.
    std::vector<int> mine(static_cast<std::size_t>(comm.rank() + 1), comm.rank());
    auto blocks = comm.gather_v<int>(mine, 0);
    if (comm.rank() == 0) {
      ASSERT_EQ(blocks.size(), static_cast<std::size_t>(p));
      for (int r = 0; r < p; ++r) {
        ASSERT_EQ(blocks[static_cast<std::size_t>(r)].size(),
                  static_cast<std::size_t>(r + 1));
        for (int v : blocks[static_cast<std::size_t>(r)]) EXPECT_EQ(v, r);
      }
    } else {
      EXPECT_TRUE(blocks.empty());
    }
  });
}

TEST_P(Collectives, AllgatherConcatenatesInRankOrder) {
  const int p = GetParam();
  Runtime::run(p, [p](Comm& comm) {
    std::vector<int> mine{comm.rank() * 2, comm.rank() * 2 + 1};
    const auto all = comm.allgather<int>(mine);
    ASSERT_EQ(all.size(), static_cast<std::size_t>(2 * p));
    for (int i = 0; i < 2 * p; ++i) EXPECT_EQ(all[static_cast<std::size_t>(i)], i);
  });
}

TEST_P(Collectives, AllgatherVariableSizes) {
  const int p = GetParam();
  Runtime::run(p, [p](Comm& comm) {
    std::vector<std::int64_t> mine(static_cast<std::size_t>(comm.rank() % 3),
                                   comm.rank());
    auto blocks = comm.allgather_v<std::int64_t>(mine);
    ASSERT_EQ(blocks.size(), static_cast<std::size_t>(p));
    for (int r = 0; r < p; ++r) {
      ASSERT_EQ(blocks[static_cast<std::size_t>(r)].size(),
                static_cast<std::size_t>(r % 3));
      for (auto v : blocks[static_cast<std::size_t>(r)]) EXPECT_EQ(v, r);
    }
  });
}

TEST_P(Collectives, AlltoallvRoutesEveryBlock) {
  const int p = GetParam();
  Runtime::run(p, [p](Comm& comm) {
    // Block for rank d holds the single value 1000*src + d.
    std::vector<std::vector<std::int64_t>> outgoing(static_cast<std::size_t>(p));
    for (int d = 0; d < p; ++d) {
      outgoing[static_cast<std::size_t>(d)] = {1000LL * comm.rank() + d};
    }
    const auto incoming = comm.alltoall_v(outgoing);
    ASSERT_EQ(incoming.size(), static_cast<std::size_t>(p));
    for (int src = 0; src < p; ++src) {
      ASSERT_EQ(incoming[static_cast<std::size_t>(src)].size(), 1u);
      EXPECT_EQ(incoming[static_cast<std::size_t>(src)][0], 1000LL * src + comm.rank());
    }
  });
}

TEST_P(Collectives, BarrierCountsSupersteps) {
  const int p = GetParam();
  auto counters = Runtime::run(p, [](Comm& comm) {
    comm.barrier();
    comm.barrier();
    comm.barrier();
  });
  for (const auto& c : counters) EXPECT_EQ(c.supersteps, 3u);
}

TEST_P(Collectives, CostCountersTrackBytes) {
  const int p = GetParam();
  auto counters = Runtime::run(p, [p](Comm& comm) {
    if (p == 1) return;
    const std::vector<std::int64_t> payload(10, 1);  // 80 bytes
    comm.send<std::int64_t>((comm.rank() + 1) % p, 1, payload);
    (void)comm.recv<std::int64_t>((comm.rank() + p - 1) % p, 1);
  });
  if (p > 1) {
    for (const auto& c : counters) {
      EXPECT_EQ(c.messages_sent, 1u);
      EXPECT_EQ(c.bytes_sent, 80u);
    }
  }
  const auto summary = CostSummary::aggregate(counters);
  EXPECT_EQ(summary.total_messages, p > 1 ? static_cast<std::uint64_t>(p) : 0u);
}

TEST_P(Collectives, SplitGroupsByColorAndOrdersByKey) {
  const int p = GetParam();
  Runtime::run(p, [p](Comm& comm) {
    // Even/odd split, keyed by descending world rank.
    const int color = comm.rank() % 2;
    Comm sub = comm.split(color, -comm.rank());
    const int expected_size = p / 2 + ((p % 2) && color == 0 ? 1 : 0);
    EXPECT_EQ(sub.size(), expected_size);
    // Keys are -world_rank, so sub-ranks order world ranks descending.
    const auto got = sub.allgather<int>(std::vector<int>{comm.rank()});
    for (std::size_t i = 1; i < got.size(); ++i) EXPECT_GT(got[i - 1], got[i]);
    // Collectives work on the sub-communicator.
    const auto sum =
        sub.allreduce_value<int>(1, std::plus<int>{});
    EXPECT_EQ(sum, expected_size);
  });
}

TEST_P(Collectives, SequentialSplitsAreIndependent) {
  const int p = GetParam();
  Runtime::run(p, [](Comm& comm) {
    Comm a = comm.split(0, comm.rank());
    Comm b = comm.split(comm.rank() % 2, comm.rank());
    EXPECT_EQ(a.size(), comm.size());
    const auto sum_a = a.allreduce_value<int>(1, std::plus<int>{});
    EXPECT_EQ(sum_a, comm.size());
    const auto sum_b = b.allreduce_value<int>(1, std::plus<int>{});
    EXPECT_EQ(sum_b, b.size());
  });
}

INSTANTIATE_TEST_SUITE_P(RankCounts, Collectives,
                         ::testing::Values(1, 2, 3, 4, 5, 7, 8, 12, 16));

TEST(Runtime, PropagatesExceptionsFromRanks) {
  EXPECT_THROW(Runtime::run(1, [](Comm&) { throw std::runtime_error("boom"); }),
               std::runtime_error);
}

TEST(Runtime, RejectsNonPositiveRankCounts) {
  EXPECT_THROW(Runtime::run(0, [](Comm&) {}), std::invalid_argument);
  EXPECT_THROW(Runtime::run(-2, [](Comm&) {}), std::invalid_argument);
}

TEST(Runtime, ReturnsPerRankCounters) {
  auto counters = Runtime::run(4, [](Comm& comm) {
    comm.add_flops(static_cast<std::uint64_t>(comm.rank()) + 1);
  });
  ASSERT_EQ(counters.size(), 4u);
  for (int r = 0; r < 4; ++r) {
    EXPECT_EQ(counters[static_cast<std::size_t>(r)].flops,
              static_cast<std::uint64_t>(r) + 1);
  }
}

}  // namespace
}  // namespace sas::bsp
