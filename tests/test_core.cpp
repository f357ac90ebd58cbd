// test_core.cpp — the SimilarityAtScale core: packing (filter + bitmask),
// driver edge cases and conventions, batching/parameter invariance, the
// d_J metric property, and the synthetic Bernoulli source's consistency.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <set>
#include <string>
#include <vector>

#include <sstream>

#include "bsp/runtime.hpp"
#include "core/driver.hpp"
#include "core/matrix_io.hpp"
#include "core/packing.hpp"
#include "core/sample_source.hpp"
#include "distmat/panel_wire.hpp"
#include "util/error.hpp"
#include "util/popcount.hpp"
#include "util/rng.hpp"

namespace sas::core {
namespace {

// ---------------------------------------------------------------- packing

/// Unpack a rank's packed triplets back into (compact_row, col) bit
/// positions for cross-checking.
std::set<std::pair<std::int64_t, std::int64_t>> unpack(
    const std::vector<distmat::Triplet<std::uint64_t>>& triplets, int bit_width) {
  std::set<std::pair<std::int64_t, std::int64_t>> bits;
  for (const auto& t : triplets) {
    for (int b = 0; b < 64; ++b) {
      if ((t.value >> b) & 1ULL) {
        EXPECT_LT(b, bit_width);  // no bit outside the configured width
        bits.insert({t.row * bit_width + b, t.col});
      }
    }
  }
  return bits;
}

class PackingTest : public ::testing::TestWithParam<std::tuple<int, int, bool>> {};

TEST_P(PackingTest, RoundTripsEveryBit) {
  const auto [nranks, bit_width, use_filter] = GetParam();
  const std::int64_t m = 300;
  VectorSampleSource src(m, {{5, 17, 100, 299},
                             {5, 6, 7, 8, 9, 150},
                             {},
                             {0, 299},
                             {17, 100}});

  // Expected (compact_row, col) pairs, built serially.
  std::set<std::int64_t> nonzero_rows;
  for (std::int64_t i = 0; i < src.sample_count(); ++i) {
    for (std::int64_t v : src.sample(i)) nonzero_rows.insert(v);
  }
  std::vector<std::int64_t> sorted_rows(nonzero_rows.begin(), nonzero_rows.end());
  auto compact = [&](std::int64_t v) -> std::int64_t {
    if (!use_filter) return v;
    return static_cast<std::int64_t>(
        std::lower_bound(sorted_rows.begin(), sorted_rows.end(), v) -
        sorted_rows.begin());
  };
  std::set<std::pair<std::int64_t, std::int64_t>> expected;
  for (std::int64_t i = 0; i < src.sample_count(); ++i) {
    for (std::int64_t v : src.sample(i)) expected.insert({compact(v), i});
  }

  std::mutex mutex;
  std::set<std::pair<std::int64_t, std::int64_t>> got;
  std::int64_t word_rows = -1;
  std::int64_t filtered_rows = -1;
  bsp::Runtime::run(nranks, [&](bsp::Comm& comm) {
    PackedBatch packed =
        pack_batch(comm, src, distmat::BlockRange{0, m}, bit_width, use_filter);
    // Raw 8-byte filter messages carry the same ids.
    const PackedBatch raw = pack_batch(comm, src, distmat::BlockRange{0, m}, bit_width,
                                       use_filter, /*compress_filter=*/false);
    EXPECT_EQ(raw.triplets, packed.triplets);
    EXPECT_EQ(raw.filtered_rows, packed.filtered_rows);
    const auto bits = unpack(packed.triplets, bit_width);
    std::lock_guard<std::mutex> lock(mutex);
    got.insert(bits.begin(), bits.end());
    word_rows = packed.word_rows;
    filtered_rows = packed.filtered_rows;
  });

  EXPECT_EQ(got, expected);
  const std::int64_t rows = use_filter ? static_cast<std::int64_t>(sorted_rows.size()) : m;
  EXPECT_EQ(filtered_rows, rows);
  EXPECT_EQ(word_rows, (rows + bit_width - 1) / bit_width);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, PackingTest,
    ::testing::Combine(::testing::Values(1, 2, 5), ::testing::Values(1, 8, 64),
                      ::testing::Values(true, false)));

TEST(Packing, RejectsBadBitWidth) {
  VectorSampleSource src(10, {{1}});
  bsp::Runtime::run(1, [&](bsp::Comm& comm) {
    EXPECT_THROW(pack_batch(comm, src, distmat::BlockRange{0, 10}, 0, true),
                 std::invalid_argument);
    EXPECT_THROW(pack_batch(comm, src, distmat::BlockRange{0, 10}, 65, true),
                 std::invalid_argument);
  });
}

TEST(Packing, ReadBatchReadsOnlyActiveSamples) {
  // Rank 1 of 2 reads its block of the 5 samples, {3, 4}; one rank reads
  // them all, in order. The hybrid's mask-first ingest: a sample the
  // candidate mask pruned is never read, so it never reaches the filter
  // union or the packer.
  VectorSampleSource src(10, {{1}, {2, 3}, {4}, {5, 9}, {6}});
  EXPECT_EQ(read_batch(0, 1, src, distmat::BlockRange{0, 8}).samples,
            (std::vector<std::int64_t>{0, 1, 2, 3, 4}));
  const BatchReads all = read_batch(1, 2, src, distmat::BlockRange{0, 8});
  EXPECT_EQ(all.samples, (std::vector<std::int64_t>{3, 4}));
  const std::vector<std::uint8_t> active{1, 0, 1, 1, 0};
  const BatchReads kept = read_batch(1, 2, src, distmat::BlockRange{0, 8}, active);
  EXPECT_EQ(kept.samples, (std::vector<std::int64_t>{3}));
  EXPECT_EQ(kept.values, (std::vector<std::vector<std::int64_t>>{{5}}));
}

// ------------------------------------------------------------ conventions

TEST(Driver, EmptySamplesHaveSimilarityOne) {
  VectorSampleSource src(100, {{}, {}, {1, 2, 3}});
  Config cfg;
  cfg.algorithm = Algorithm::kSerial;
  const Result result = similarity_at_scale_threaded(1, src, cfg);
  EXPECT_DOUBLE_EQ(result.similarity.similarity(0, 1), 1.0);  // J(∅,∅) = 1
  EXPECT_DOUBLE_EQ(result.similarity.similarity(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(result.similarity.similarity(0, 2), 0.0);  // ∅ vs nonempty
  EXPECT_DOUBLE_EQ(result.similarity.similarity(2, 2), 1.0);
}

TEST(Driver, EmptyPairReachesTheRootThroughAZeroRun) {
  // Samples 4 and 5 are empty. At 4 ranks the ring's rank 3 holds cell
  // (5, 4) and SUMMA's grid rank (1, 1) holds (4, 5): a zero count, which
  // travels in a zero run and which the root finalizes to J(∅, ∅) = 1,
  // bit for bit what the serial run computes.
  VectorSampleSource src(100, {{1, 2, 3}, {2, 3, 4}, {50, 60}, {1, 60}, {}, {}});
  Config cfg;
  cfg.algorithm = Algorithm::kSerial;
  const Result serial = similarity_at_scale_threaded(1, src, cfg);
  for (const Algorithm algorithm : {Algorithm::kRing1D, Algorithm::kSumma}) {
    cfg.algorithm = algorithm;
    const Result result = similarity_at_scale_threaded(4, src, cfg);
    EXPECT_EQ(result.similarity.similarity(4, 5), 1.0);
    EXPECT_EQ(result.similarity.similarity(5, 4), 1.0);
    EXPECT_EQ(result.similarity.similarity(5, 5), 1.0);
    EXPECT_EQ(result.similarity.similarity(0, 4), 0.0);
    EXPECT_EQ(result.similarity.values(), serial.similarity.values())
        << "algorithm " << static_cast<int>(algorithm);
  }
}

TEST(Driver, IdenticalAndDisjointSamples) {
  VectorSampleSource src(50, {{1, 5, 9}, {1, 5, 9}, {20, 30}});
  Config cfg;
  const Result result = similarity_at_scale_threaded(4, src, cfg);
  EXPECT_DOUBLE_EQ(result.similarity.similarity(0, 1), 1.0);
  EXPECT_DOUBLE_EQ(result.similarity.similarity(0, 2), 0.0);
  EXPECT_DOUBLE_EQ(result.similarity.distance(0, 1), 0.0);
  EXPECT_DOUBLE_EQ(result.similarity.distance(0, 2), 1.0);
}

TEST(Driver, KnownOverlapValue) {
  // |A∩B| = 2, |A∪B| = 4 -> J = 0.5.
  VectorSampleSource src(64, {{1, 2, 3}, {2, 3, 4}});
  const Result result = similarity_at_scale_threaded(2, src, Config{});
  EXPECT_DOUBLE_EQ(result.similarity.similarity(0, 1), 0.5);
}

TEST(Driver, SingleSample) {
  VectorSampleSource src(32, {{0, 31}});
  const Result result = similarity_at_scale_threaded(3, src, Config{});
  ASSERT_EQ(result.n, 1);
  EXPECT_DOUBLE_EQ(result.similarity.similarity(0, 0), 1.0);
}

TEST(Driver, MoreRanksThanSamples) {
  // The Fig. 2a regime where MPI processes exceed matrix columns.
  VectorSampleSource src(40, {{1, 2}, {2, 3}, {30}});
  Config cfg;
  cfg.algorithm = Algorithm::kRing1D;
  const Result result = similarity_at_scale_threaded(8, src, cfg);
  EXPECT_NEAR(result.similarity.similarity(0, 1), 1.0 / 3.0, 1e-12);
}

TEST(Driver, RingExchangeSendsOnlyItsHops) {
  // Each rank reads the block of samples it multiplies, so no round
  // redistributes them: the exact ring's exchange stage is its ⌊p/2⌋
  // panel hops per rank and batch, and nothing else.
  const BernoulliSampleSource src(5000, 20, 0.01, 11);
  Config cfg;
  cfg.algorithm = Algorithm::kRing1D;
  cfg.batch_count = 3;
  for (const int p : {4, 5}) {
    const Result result = similarity_at_scale_threaded(p, src, cfg);
    EXPECT_EQ(result.stages[Stage::kExchange].messages,
              static_cast<std::uint64_t>(cfg.batch_count * p * (p / 2)))
        << p << " ranks";
  }
}

TEST(Driver, FilterOwnersReplyInsteadOfReplicatingTheFilter) {
  // Hypersparse: 16 samples of 200 rows each from 2^30, so nearly every
  // row is distinct. The pack stage ships the contributions to the row
  // owners and the owners' replies, which carry positions, not rows: less
  // than one copy of the encoded filter on top of the contributions.
  // Replicating the filter would ship p − 1 copies.
  const std::int64_t universe = std::int64_t{1} << 30;
  Rng rng(31);
  std::vector<std::vector<std::int64_t>> samples(16);
  for (auto& s : samples) {
    for (int i = 0; i < 200; ++i) {
      s.push_back(static_cast<std::int64_t>(rng.uniform(static_cast<std::uint64_t>(universe))));
    }
  }
  const VectorSampleSource src(universe, std::move(samples));
  Config cfg;
  cfg.algorithm = Algorithm::kRing1D;
  cfg.batch_count = 2;
  const int p = 4;
  const Result result = similarity_at_scale_threaded(p, src, cfg);

  // Each nonempty message carries the transport's 4-byte CRC trailer.
  const auto message = [](const std::vector<std::uint8_t>& bytes) -> std::uint64_t {
    return bytes.empty() ? 0 : bytes.size() + 4;
  };
  std::uint64_t contributions = 0;
  std::uint64_t one_copy = 0;
  for (int l = 0; l < cfg.batch_count; ++l) {
    const distmat::BlockRange rows = distmat::block_range(universe, cfg.batch_count, l);
    std::vector<std::set<std::int64_t>> owned(p);
    for (int r = 0; r < p; ++r) {
      std::vector<std::set<std::int64_t>> sent(p);
      for (const auto& values : read_batch(r, p, src, rows).values) {
        for (const std::int64_t v : values) {
          const int q = distmat::block_owner(rows.size(), p, v - rows.begin);
          const std::int64_t local = v - rows.begin - distmat::block_range(rows.size(), p, q).begin;
          sent[q].insert(local);
          owned[q].insert(local);
        }
      }
      for (int q = 0; q < p; ++q) {
        if (q == r) continue;
        contributions += message(distmat::encode_index_set(
            std::vector<std::int64_t>(sent[q].begin(), sent[q].end()),
            distmat::block_range(rows.size(), p, q).size()));
      }
    }
    for (int q = 0; q < p; ++q) {
      one_copy += message(distmat::encode_index_set(
          std::vector<std::int64_t>(owned[q].begin(), owned[q].end()),
          distmat::block_range(rows.size(), p, q).size()));
    }
  }
  const std::uint64_t shipped = result.stages[Stage::kPackSketch].bytes_sent;
  EXPECT_GT(shipped, contributions);
  EXPECT_LT(shipped, contributions + one_copy)
      << "contributions " << contributions << " B, one copy of the filter " << one_copy << " B";
}

TEST(Driver, RejectsInvalidConfigs) {
  VectorSampleSource src(10, {{1}});
  Config bad;
  bad.batch_count = 0;
  EXPECT_THROW((void)similarity_at_scale_threaded(1, src, bad), error::ConfigError);
  bad.batch_count = 11;  // more batches than rows
  EXPECT_THROW((void)similarity_at_scale_threaded(1, src, bad), error::ConfigError);
  // A hybrid prune threshold outside [0, 1], NaN included, fails before
  // the ranks spawn.
  bad.batch_count = 1;
  bad.estimator = Estimator::kHybrid;
  for (const double threshold : {-0.1, 1.5, std::nan("")}) {
    bad.prune_threshold = threshold;
    EXPECT_THROW((void)similarity_at_scale_threaded(1, src, bad), error::ConfigError)
        << threshold;
  }

  // The longest retry backoff, 2⁶ · 1.5 times the base, must fit int64
  // milliseconds: a base above 2⁵⁶ − 1 fails before the ranks spawn.
  Config backoff;
  backoff.retry_backoff_ms = std::numeric_limits<std::int64_t>::max();
  EXPECT_THROW((void)similarity_at_scale_threaded(1, src, backoff), error::ConfigError);
  backoff.retry_backoff_ms = (std::numeric_limits<std::int64_t>::max() >> 7) + 1;
  EXPECT_THROW((void)similarity_at_scale_threaded(1, src, backoff), error::ConfigError);
  backoff.retry_backoff_ms = std::numeric_limits<std::int64_t>::max() >> 7;
  EXPECT_NO_THROW((void)similarity_at_scale_threaded(1, src, backoff));

  // Batch indices are ints: a batch count above INT_MAX is refused even
  // when the universe has that many rows.
  VectorSampleSource huge(std::int64_t{1} << 32, {{1}, {2}});
  Config many;
  many.batch_count = std::int64_t{1} << 31;
  for (const Estimator e : {Estimator::kExact, Estimator::kMinhash, Estimator::kHybrid}) {
    many.estimator = e;
    EXPECT_THROW((void)similarity_at_scale_threaded(2, huge, many), error::ConfigError)
        << static_cast<int>(e);
  }

  // Bad sketch parameters fail before the ranks spawn, not as a rank
  // failure inside the sketch constructors.
  const auto sketch_config = [](Estimator e, auto&& set) {
    Config c;
    c.estimator = e;
    set(c);
    return c;
  };
  for (const Config& c :
       {sketch_config(Estimator::kMinhash, [](Config& c) { c.sketch_size = 0; }),
        sketch_config(Estimator::kMinhash, [](Config& c) { c.minhash_bits = 3; }),
        sketch_config(Estimator::kBottomK, [](Config& c) { c.minhash_bits = 0; }),
        sketch_config(Estimator::kBottomK, [](Config& c) { c.sketch_size = 0; }),
        sketch_config(Estimator::kHybrid, [](Config& c) { c.sketch_size = -5; }),
        sketch_config(Estimator::kHybrid, [](Config& c) { c.minhash_bits = 40; })}) {
    EXPECT_THROW((void)similarity_at_scale_threaded(2, src, c), error::ConfigError)
        << static_cast<int>(c.estimator);
  }
}

TEST(Driver, ReportsBatchStats) {
  VectorSampleSource src(128, {{1, 2, 3, 64, 127}, {2, 3, 90}});
  Config cfg;
  cfg.batch_count = 4;
  const Result result = similarity_at_scale_threaded(2, src, cfg);
  ASSERT_EQ(result.batches.size(), 4u);
  std::int64_t filtered = 0;
  for (const auto& b : result.batches) {
    EXPECT_GE(b.seconds, 0.0);
    filtered += b.filtered_rows;
  }
  EXPECT_EQ(filtered, 6);  // distinct attributes: {1,2,3,64,90,127}
}

// ------------------------------------------------------------- invariance

/// All knob settings must give bit-identical similarity matrices — the
/// paper's correctness contract for batching (Eq. 4), compression
/// (Eq. 7), and the parallel schedule (§III-C).
TEST(DriverInvariance, ResultIndependentOfAllKnobs) {
  Rng rng(2024);
  std::vector<std::vector<std::int64_t>> samples(12);
  for (auto& s : samples) {
    const std::int64_t count = 5 + static_cast<std::int64_t>(rng.uniform(40));
    for (std::int64_t i = 0; i < count; ++i) {
      s.push_back(static_cast<std::int64_t>(rng.uniform(900)));
    }
  }
  VectorSampleSource src(900, std::move(samples));

  Config base;
  base.algorithm = Algorithm::kSerial;
  const Result reference = similarity_at_scale_threaded(1, src, base);

  struct Knobs {
    Algorithm alg;
    int ranks;
    int batches;
    int bits;
    int c;
    bool filter;
  };
  const std::vector<Knobs> settings{
      {Algorithm::kSerial, 4, 9, 32, 1, true},
      {Algorithm::kRing1D, 3, 2, 64, 1, true},
      {Algorithm::kRing1D, 6, 13, 64, 1, false},
      {Algorithm::kSumma, 4, 1, 64, 1, true},
      {Algorithm::kSumma, 9, 6, 8, 1, true},
      {Algorithm::kSumma, 8, 3, 64, 2, true},
      {Algorithm::kSumma, 12, 4, 64, 3, false},
  };
  for (const Knobs& k : settings) {
    Config cfg;
    cfg.algorithm = k.alg;
    cfg.batch_count = k.batches;
    cfg.bit_width = k.bits;
    cfg.replication = k.c;
    cfg.use_zero_row_filter = k.filter;
    const Result got = similarity_at_scale_threaded(k.ranks, src, cfg);
    EXPECT_EQ(got.similarity.max_abs_diff(reference.similarity), 0.0)
        << "ranks=" << k.ranks << " batches=" << k.batches << " bits=" << k.bits
        << " c=" << k.c;
  }
}

// ---------------------------------------------------------------- metric

TEST(DistanceMetric, TriangleInequalityOnRandomFamilies) {
  // d_J is a proper metric (paper §II-A); check on random set families.
  Rng rng(7);
  for (int trial = 0; trial < 5; ++trial) {
    std::vector<std::vector<std::int64_t>> samples(9);
    for (auto& s : samples) {
      const std::int64_t count = 1 + static_cast<std::int64_t>(rng.uniform(30));
      for (std::int64_t i = 0; i < count; ++i) {
        s.push_back(static_cast<std::int64_t>(rng.uniform(120)));
      }
    }
    VectorSampleSource src(120, std::move(samples));
    const Result result = similarity_at_scale_threaded(2, src, Config{});
    const std::int64_t n = result.n;
    for (std::int64_t a = 0; a < n; ++a) {
      EXPECT_DOUBLE_EQ(result.similarity.distance(a, a), 0.0);
      for (std::int64_t b = 0; b < n; ++b) {
        EXPECT_DOUBLE_EQ(result.similarity.distance(a, b),
                         result.similarity.distance(b, a));
        for (std::int64_t c = 0; c < n; ++c) {
          EXPECT_LE(result.similarity.distance(a, c),
                    result.similarity.distance(a, b) +
                        result.similarity.distance(b, c) + 1e-12);
        }
      }
    }
  }
}

// --------------------------------------------------------------- sources

TEST(BernoulliSource, MembershipConsistentAcrossPartitions) {
  const BernoulliSampleSource src(/*universe=*/20000, /*samples=*/4, /*density=*/0.01,
                                  /*seed=*/11);
  // The union over any batch partition must equal the full-range query.
  for (std::int64_t sample = 0; sample < 4; ++sample) {
    const auto whole = src.values_in_range(sample, {0, 20000});
    for (int batches : {2, 3, 7}) {
      std::vector<std::int64_t> stitched;
      for (int b = 0; b < batches; ++b) {
        const auto part =
            src.values_in_range(sample, distmat::block_range(20000, batches, b));
        stitched.insert(stitched.end(), part.begin(), part.end());
      }
      EXPECT_EQ(stitched, whole) << "sample " << sample << " batches " << batches;
    }
  }
}

TEST(BernoulliSource, DensityHoldsInExpectation) {
  const double density = 0.02;
  const BernoulliSampleSource src(100000, 8, density, 3);
  std::int64_t total = 0;
  for (std::int64_t s = 0; s < 8; ++s) {
    total += static_cast<std::int64_t>(src.values_in_range(s, {0, 100000}).size());
  }
  const double observed = static_cast<double>(total) / (8.0 * 100000.0);
  EXPECT_NEAR(observed, density, density * 0.15);
}

TEST(BernoulliSource, ValuesSortedUniqueAndInRange) {
  const BernoulliSampleSource src(5000, 2, 0.05, 99);
  const auto values = src.values_in_range(0, {1000, 3000});
  EXPECT_TRUE(std::is_sorted(values.begin(), values.end()));
  EXPECT_TRUE(std::adjacent_find(values.begin(), values.end()) == values.end());
  for (std::int64_t v : values) {
    EXPECT_GE(v, 1000);
    EXPECT_LT(v, 3000);
  }
}

TEST(VectorSource, SortsDeduplicatesAndValidates) {
  VectorSampleSource src(100, {{9, 3, 3, 7}});
  EXPECT_EQ(src.sample(0), (std::vector<std::int64_t>{3, 7, 9}));
  EXPECT_THROW(VectorSampleSource(10, {{10}}), std::out_of_range);
  EXPECT_THROW(VectorSampleSource(10, {{-1}}), std::out_of_range);
}

TEST(VectorSource, RangeQueriesAreHalfOpen) {
  VectorSampleSource src(100, {{10, 20, 30}});
  EXPECT_EQ(src.values_in_range(0, {10, 30}), (std::vector<std::int64_t>{10, 20}));
  EXPECT_EQ(src.values_in_range(0, {0, 10}), (std::vector<std::int64_t>{}));
  EXPECT_EQ(src.values_in_range(0, {30, 100}), (std::vector<std::int64_t>{30}));
}

TEST(BernoulliSource, DensitySpreadVariesColumns) {
  const BernoulliSampleSource src(200000, 32, 1e-3, 5, /*density_spread=*/8.0);
  std::int64_t smallest = INT64_MAX;
  std::int64_t largest = 0;
  for (std::int64_t s = 0; s < 32; ++s) {
    const auto count = static_cast<std::int64_t>(src.values_in_range(s, {0, 200000}).size());
    smallest = std::min(smallest, count);
    largest = std::max(largest, count);
  }
  // Log-uniform spread over [1/8, 8] must produce clearly uneven columns.
  EXPECT_GT(largest, 4 * std::max<std::int64_t>(smallest, 1));
  EXPECT_THROW(BernoulliSampleSource(10, 1, 0.1, 1, 0.5), std::invalid_argument);
}

// -------------------------------------------------------------- matrix I/O

TEST(MatrixIo, BinaryRoundTrip) {
  const SimilarityMatrix matrix(3, {1.0, 0.25, 0.5, 0.25, 1.0, 0.125, 0.5, 0.125, 1.0});
  const std::vector<std::string> names{"alpha", "beta", "gamma"};
  std::stringstream buffer;
  write_similarity_binary(buffer, names, matrix);
  const NamedSimilarity parsed = read_similarity_binary(buffer);
  EXPECT_EQ(parsed.names, names);
  EXPECT_EQ(parsed.matrix.max_abs_diff(matrix), 0.0);
}

TEST(MatrixIo, BinaryRejectsCorruption) {
  const SimilarityMatrix matrix(1, {1.0});
  std::stringstream buffer;
  write_similarity_binary(buffer, {"only"}, matrix);
  std::string bytes = buffer.str();
  bytes[0] = 'X';  // break the magic
  std::istringstream bad(bytes);
  EXPECT_THROW((void)read_similarity_binary(bad), std::runtime_error);
  std::istringstream truncated(buffer.str().substr(0, 10));
  EXPECT_THROW((void)read_similarity_binary(truncated), std::runtime_error);
}

TEST(MatrixIo, ValidatesNames) {
  const SimilarityMatrix matrix(2, {1.0, 0.5, 0.5, 1.0});
  std::stringstream buffer;
  EXPECT_THROW(write_similarity_binary(buffer, {"one"}, matrix), std::invalid_argument);
  EXPECT_THROW(write_similarity_binary(buffer, {"a\nb", "c"}, matrix),
               std::invalid_argument);
}

TEST(MatrixIo, TsvHasHeaderAndFullPrecision) {
  const SimilarityMatrix matrix(2, {1.0, 1.0 / 3.0, 1.0 / 3.0, 1.0});
  std::ostringstream out;
  write_similarity_tsv(out, {"s1", "s2"}, matrix);
  const std::string tsv = out.str();
  EXPECT_NE(tsv.find("sample\ts1\ts2"), std::string::npos);
  EXPECT_NE(tsv.find("0.3333333333333333"), std::string::npos);
}

// ------------------------------------------------- randomized invariance

/// Seeded sweep: SUMMA, the ring (with more ranks than samples too) and
/// the hybrid must match the serial reference on synthetic inputs
/// (complements the hand-built cases above).
class RandomizedInvariance : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RandomizedInvariance, SummaMatchesSerialOnBernoulliInputs) {
  const std::uint64_t seed = GetParam();
  const BernoulliSampleSource src(5000, 20, 0.01, seed, /*density_spread=*/4.0);

  Config serial_cfg;
  serial_cfg.algorithm = Algorithm::kSerial;
  const Result reference = similarity_at_scale_threaded(1, src, serial_cfg);

  Config cfg;
  cfg.batch_count = 3;
  cfg.replication = 1;
  const Result summa = similarity_at_scale_threaded(9, src, cfg);
  EXPECT_EQ(summa.similarity.max_abs_diff(reference.similarity), 0.0);

  cfg.algorithm = Algorithm::kRing1D;
  const Result ring = similarity_at_scale_threaded(5, src, cfg);
  EXPECT_EQ(ring.similarity.max_abs_diff(reference.similarity), 0.0);
  // More ranks than samples: ranks past the last sample read, hold and
  // multiply empty blocks.
  const Result wide = similarity_at_scale_threaded(24, src, cfg);
  EXPECT_EQ(wide.similarity.max_abs_diff(reference.similarity), 0.0);
}

/// Seeded clusters of related samples, interleaved (sample i is in
/// cluster i mod 3): each keeps about 90% of its cluster's base set and
/// adds a little noise, so within-cluster pairs clear a 0.3 prune
/// threshold and cross-cluster pairs do not.
VectorSampleSource clustered_source(std::uint64_t seed) {
  const std::int64_t m = 3000;
  Rng rng(seed);
  std::vector<std::vector<std::int64_t>> bases(3);
  for (auto& base : bases) {
    for (std::int64_t v = 0; v < m; ++v) {
      if (rng.bernoulli(0.05)) base.push_back(v);
    }
  }
  std::vector<std::vector<std::int64_t>> samples;
  for (std::size_t i = 0; i < 15; ++i) {
    std::vector<std::int64_t> sample;
    for (std::int64_t v : bases[i % bases.size()]) {
      if (!rng.bernoulli(0.1)) sample.push_back(v);
    }
    for (std::int64_t v = 0; v < m; ++v) {
      if (rng.bernoulli(0.005)) sample.push_back(v);
    }
    samples.push_back(std::move(sample));
  }
  return VectorSampleSource(m, std::move(samples));
}

TEST_P(RandomizedInvariance, HybridSurvivorsMatchSerialOnRingAndSumma) {
  // The hybrid sketches, reads and multiplies each rank's block of
  // samples; every pair it keeps must come out bitwise equal to the
  // serial exact run, on the ring and on SUMMA (one active rank at p = 3).
  const VectorSampleSource src = clustered_source(GetParam());
  const std::int64_t n = src.sample_count();
  Config serial_cfg;
  serial_cfg.algorithm = Algorithm::kSerial;
  const Result reference = similarity_at_scale_threaded(1, src, serial_cfg);

  Config cfg;
  cfg.estimator = Estimator::kHybrid;
  cfg.prune_threshold = 0.3;
  cfg.batch_count = 2;
  for (const Algorithm algorithm : {Algorithm::kRing1D, Algorithm::kSumma}) {
    cfg.algorithm = algorithm;
    for (const int p : {3, 4}) {
      SCOPED_TRACE(std::string(algorithm == Algorithm::kRing1D ? "ring" : "summa") +
                   ", " + std::to_string(p) + " ranks");
      const Result hybrid = similarity_at_scale_threaded(p, src, cfg);
      std::int64_t survivors = 0;
      for (std::int64_t i = 0; i < n; ++i) {
        for (std::int64_t j = i + 1; j < n; ++j) {
          if (!hybrid.sparse_similarity.is_survivor(i, j)) continue;
          ++survivors;
          EXPECT_EQ(hybrid.similarity_at(i, j), reference.similarity.similarity(i, j))
              << "survivor (" << i << ", " << j << ")";
        }
      }
      EXPECT_EQ(survivors, hybrid.sparse_similarity.survivor_count());
      EXPECT_GT(survivors, 0) << "within-cluster pairs must survive";
      EXPECT_LT(survivors, n * (n - 1) / 2) << "cross-cluster pairs must be pruned";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomizedInvariance,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u));

}  // namespace
}  // namespace sas::core
