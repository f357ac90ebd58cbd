// test_bsp.cpp — the message-passing substrate: point-to-point ordering,
// every collective against a serial reference, sub-communicator splits,
// BSP cost accounting, and the transport's CRC-32 on every message.
// Parameterized over rank counts, including non-powers of two (the
// tree/dissemination algorithms must handle them).
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <numeric>
#include <regex>
#include <string>
#include <vector>

#include "bsp/runtime.hpp"
#include "util/error.hpp"
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
    // Block (src, d) holds (src + d) % 3 copies of 1000*src + d: sizes
    // vary per pair and a third of the blocks are empty, so both routing
    // and block framing are checked.
    const auto block_size = [](int src, int d) {
      return static_cast<std::size_t>((src + d) % 3);
    };
    std::vector<std::vector<std::int64_t>> outgoing(static_cast<std::size_t>(p));
    for (int d = 0; d < p; ++d) {
      outgoing[static_cast<std::size_t>(d)].assign(block_size(comm.rank(), d),
                                                   1000LL * comm.rank() + d);
    }
    const auto incoming = comm.alltoall_v(outgoing);
    ASSERT_EQ(incoming.size(), static_cast<std::size_t>(p));
    for (int src = 0; src < p; ++src) {
      const auto& block = incoming[static_cast<std::size_t>(src)];
      ASSERT_EQ(block.size(), block_size(src, comm.rank()));
      for (auto v : block) EXPECT_EQ(v, 1000LL * src + comm.rank());
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
    const std::vector<std::int64_t> payload(10, 1);  // 80 bytes, 84 with the CRC
    comm.send<std::int64_t>((comm.rank() + 1) % p, 1, payload);
    (void)comm.recv<std::int64_t>((comm.rank() + p - 1) % p, 1);
  });
  if (p > 1) {
    for (const auto& c : counters) {
      EXPECT_EQ(c.messages_sent, 1u);
      EXPECT_EQ(c.bytes_sent, 84u);
    }
  }
  const auto summary = CostSummary::aggregate(counters);
  EXPECT_EQ(summary.total_messages, p > 1 ? static_cast<std::uint64_t>(p) : 0u);
  // The α-β price of what one rank moved: m·α + b·β, and a rank that
  // sent nothing (p = 1) still pays one α of synchronization.
  const BspMachine machine{5e-6, 5e-10, 1e-9};
  const CostCounters& c = counters.front();
  EXPECT_DOUBLE_EQ(machine.predicted_seconds(c.messages_sent, c.bytes_sent),
                   p > 1 ? 5e-6 + 84 * 5e-10 : 5e-6);
  EXPECT_DOUBLE_EQ(machine.predicted_seconds(10, 4096), 10 * 5e-6 + 4096 * 5e-10);
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

// ---------------------------------------------------- the sealed transport

/// Rank r's 24-byte payload.
std::vector<std::int64_t> words_of(int rank) { return {rank, 10 + rank, 20 + rank}; }

/// One way of moving messages: `run` sends `body_bytes`-byte payloads on
/// `tags` and checks what arrives.
struct Primitive {
  const char* name;
  std::size_t body_bytes;
  std::vector<int> tags;
  std::function<void(Comm&)> run;
};

std::vector<Primitive> primitives() {
  const auto summed = [](int p) {
    std::vector<std::int64_t> sum(3, 0);
    for (int r = 0; r < p; ++r) {
      for (std::size_t k = 0; k < 3; ++k) sum[k] += words_of(r)[k];
    }
    return sum;
  };
  return {
      {"send/recv", 24, {7},
       [](Comm& comm) {
         const int p = comm.size();
         const int prev = (comm.rank() + p - 1) % p;
         comm.send<std::int64_t>((comm.rank() + 1) % p, 7, words_of(comm.rank()));
         EXPECT_EQ(comm.recv<std::int64_t>(prev, 7), words_of(prev));
       }},
      {"self-send", 24, {7},
       [](Comm& comm) {
         comm.send<std::int64_t>(comm.rank(), 7, words_of(comm.rank()));
         EXPECT_EQ(comm.recv<std::int64_t>(comm.rank(), 7), words_of(comm.rank()));
       }},
      {"broadcast", 24, {kTagBcast},
       [](Comm& comm) {
         std::vector<std::int64_t> data = words_of(comm.rank());
         comm.broadcast(data, 0);
         EXPECT_EQ(data, words_of(0));
       }},
      {"reduce", 24, {kTagReduce},
       [summed](Comm& comm) {
         std::vector<std::int64_t> data = words_of(comm.rank());
         comm.reduce(data, std::plus<>{}, 0);
         if (comm.rank() == 0) {
           EXPECT_EQ(data, summed(comm.size()));
         }
       }},
      {"allreduce", 24, {kTagReduce, kTagBcast},
       [summed](Comm& comm) {
         std::vector<std::int64_t> data = words_of(comm.rank());
         comm.allreduce(data, std::plus<>{});
         EXPECT_EQ(data, summed(comm.size()));
       }},
      {"gather_v", 24, {kTagGather},
       [](Comm& comm) {
         const auto blocks = comm.gather_v<std::int64_t>(words_of(comm.rank()), 0);
         for (std::size_t r = 0; r < blocks.size(); ++r) {
           EXPECT_EQ(blocks[r], words_of(static_cast<int>(r)));
         }
       }},
      {"allgather_v", 24, {kTagAllgather},
       [](Comm& comm) {
         const auto blocks = comm.allgather_v<std::int64_t>(words_of(comm.rank()));
         for (std::size_t r = 0; r < blocks.size(); ++r) {
           EXPECT_EQ(blocks[r], words_of(static_cast<int>(r)));
         }
       }},
      {"alltoall_v", 24, {kTagAlltoall},
       [](Comm& comm) {
         const std::vector<std::vector<std::int64_t>> outgoing(
             static_cast<std::size_t>(comm.size()), words_of(comm.rank()));
         const auto incoming = comm.alltoall_v(outgoing);
         for (std::size_t r = 0; r < incoming.size(); ++r) {
           EXPECT_EQ(incoming[r], words_of(static_cast<int>(r)));
         }
       }},
      // split exchanges each rank's (color, key, rank) triple of ints.
      {"split", 12, {kTagAllgather},
       [](Comm& comm) {
         const Comm sub = comm.split(comm.rank() % 2, comm.rank());
         EXPECT_EQ(sub.size(), comm.size() / 2);
         EXPECT_EQ(sub.rank(), comm.rank() / 2);
       }},
  };
}

TEST(Transport, EveryFlippedByteIsCorruptInputNamingSourceAndTag) {
  // Comm::send appends a CRC-32 to every nonempty payload and Comm::recv
  // checks it, so a byte flipped in flight, on the sending or the
  // receiving side (fault.hpp), fails as corrupt input naming the
  // message's source and tag, whichever primitive carried it: in the
  // payload as much as in the trailer. Rank 1's ops are swept until the
  // flip no longer fires, and that run must deliver every message intact.
  constexpr std::uint64_t kMaxOps = 16;  // rank 1 makes at most 6 here
  const std::regex named(
      R"(^rank (\d+)[^:]*: bsp::Comm::recv: checksum mismatch from rank (\d+) \(tag (-?\d+)\)$)");
  for (const Primitive& primitive : primitives()) {
    for (const int p : {2, 4}) {
      for (const std::size_t byte : {std::size_t{0}, primitive.body_bytes + 1}) {
        std::uint64_t op = 0;
        for (; op < kMaxOps; ++op) {
          const std::string plan =
              "rank=1:op=" + std::to_string(op) + ":flip=" + std::to_string(byte);
          const std::string label = std::string(primitive.name) + " p=" + std::to_string(p) +
                                    " " + plan;
          RuntimeOptions options;
          options.fault_plan = std::make_shared<const FaultPlan>(FaultPlan::parse(plan));
          try {
            Runtime::run(p, primitive.run, options);
            break;  // past rank 1's last op: the flip never fired
          } catch (const error::Error& e) {
            ASSERT_EQ(e.code(), error::Code::kCorruptInput) << label << ": " << e.what();
            const std::string what = e.what();
            std::smatch match;
            ASSERT_TRUE(std::regex_search(what, match, named)) << label << ": " << what;
            // The damaged message is one that rank 1 sent or received.
            EXPECT_TRUE(match[1] == "1" || match[2] == "1") << label << ": " << what;
            const int tag = std::stoi(match[3]);
            EXPECT_NE(std::find(primitive.tags.begin(), primitive.tags.end(), tag),
                      primitive.tags.end())
                << label << ": " << what;
          }
        }
        EXPECT_GT(op, 0u) << primitive.name << " p=" << p << ": rank 1 moved no message";
        EXPECT_LT(op, kMaxOps) << primitive.name << " p=" << p << ": every op threw";
      }
    }
  }
}

TEST(Transport, SplitMessagesNameTheSendersWorldRank) {
  // World ranks 1 and 3 are ranks 0 and 1 of the odd split. A byte that
  // world rank 1 receives damaged from its split peer is named as coming
  // from rank 3, the sender's world rank, as the `rank R` prefix names the
  // receiver's. Rank 1's ops are swept until the flip lands on that
  // message; the ops before it are the split's own allgather.
  const std::regex named(
      R"(^rank 1[^:]*: bsp::Comm::recv: checksum mismatch from rank (\d+) \(tag 5\)$)");
  bool landed = false;
  for (std::uint64_t op = 0; op < 16 && !landed; ++op) {
    RuntimeOptions options;
    options.fault_plan = std::make_shared<const FaultPlan>(
        FaultPlan::parse("rank=1:op=" + std::to_string(op) + ":flip=0"));
    try {
      Runtime::run(
          4,
          [](Comm& comm) {
            Comm half = comm.split(comm.rank() % 2, comm.rank());
            if (half.rank() == 1) {
              half.send<std::int64_t>(0, 5, words_of(comm.rank()));
            } else {
              EXPECT_EQ(half.recv<std::int64_t>(1, 5), words_of(comm.rank() + 2));
            }
          },
          options);
    } catch (const error::Error& e) {
      ASSERT_EQ(e.code(), error::Code::kCorruptInput) << e.what();
      const std::string what = e.what();
      std::smatch match;
      if (!std::regex_search(what, match, named)) continue;
      EXPECT_EQ(match[1], "3") << "op " << op << ": " << what;
      landed = true;
    }
  }
  EXPECT_TRUE(landed) << "no flip landed on the split's message";
}

TEST(Transport, EmptyPayloadTravelsAsZeroBytes) {
  // An empty payload has nothing to check: it travels as 0 bytes, with no
  // trailer, and a flip aimed at it holds fire for the next op that
  // carries bytes (here none, so the run finishes clean).
  RuntimeOptions options;
  options.fault_plan = std::make_shared<const FaultPlan>(FaultPlan::parse("rank=0:op=0:flip=0"));
  const auto counters = Runtime::run(
      2,
      [](Comm& comm) {
        if (comm.rank() == 0) {
          comm.send<std::int64_t>(1, 3, std::span<const std::int64_t>());
        } else {
          EXPECT_TRUE(comm.recv<std::int64_t>(0, 3).empty());
        }
      },
      options);
  EXPECT_EQ(counters[0].messages_sent, 1u);
  EXPECT_EQ(counters[0].bytes_sent, 0u);
  EXPECT_EQ(counters[1].bytes_received, 0u);
}

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
