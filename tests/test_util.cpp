// test_util.cpp — unit tests for the util substrate: hashing, popcount,
// RNG, statistics, text tables, CLI parsing and the LEB128 varints.
#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <string>
#include <vector>

#include "util/args.hpp"
#include "util/crc32.hpp"
#include "util/error.hpp"
#include "util/hashing.hpp"
#include "util/leb128.hpp"
#include "util/popcount.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

namespace sas {
namespace {

TEST(Hashing, Splitmix64IsDeterministicAndDispersive) {
  EXPECT_EQ(splitmix64(1), splitmix64(1));
  std::set<std::uint64_t> seen;
  for (std::uint64_t i = 0; i < 1000; ++i) seen.insert(splitmix64(i));
  EXPECT_EQ(seen.size(), 1000u);  // invertible mixer: no collisions
}

TEST(Hashing, HashBytesDistinguishesStrings) {
  EXPECT_NE(hash_bytes("ACGT"), hash_bytes("TGCA"));
  EXPECT_EQ(hash_bytes(""), hash_bytes(""));
  EXPECT_NE(hash_bytes("a"), hash_bytes("b"));
}

TEST(Hashing, FamilyMembersDecorrelate) {
  const HashFamily h1(1);
  const HashFamily h2(2);
  int agreements = 0;
  for (std::uint64_t x = 0; x < 512; ++x) {
    if ((h1(x) & 0xff) == (h2(x) & 0xff)) ++agreements;
  }
  // Chance agreement on the low byte is ~1/256; allow generous slack.
  EXPECT_LT(agreements, 20);
}

TEST(Hashing, HashCombineOrderDependent) {
  EXPECT_NE(hash_combine(hash_combine(0, 1), 2), hash_combine(hash_combine(0, 2), 1));
}

TEST(Popcount, WordAndSpanSums) {
  EXPECT_EQ(popcount64(0), 0);
  EXPECT_EQ(popcount64(~0ULL), 64);
  EXPECT_EQ(popcount64(0b1011), 3);
  // The constant pattern GCC 12 folds to 256 under -mavx512vpopcntdq
  // (the CMakeLists probe guards the build against it).
  const std::vector<std::uint64_t> words{0xffULL, 0x1ULL, 0x0ULL};
  std::uint64_t total = 0;
  for (std::uint64_t w : words) total += static_cast<std::uint64_t>(popcount64(w));
  EXPECT_EQ(total, 9u);
}

TEST(Popcount, AndSumBlockMatchesScalarAcrossLengthsAndTails) {
  Rng rng(17);
  for (std::size_t len : {0u, 1u, 2u, 3u, 4u, 5u, 7u, 8u, 64u, 129u}) {
    std::vector<std::uint64_t> x(len);
    std::vector<std::uint64_t> y(len);
    for (std::size_t i = 0; i < len; ++i) {
      x[i] = rng();
      y[i] = rng();
    }
    std::uint64_t expect = 0;
    for (std::size_t i = 0; i < len; ++i) {
      expect += static_cast<std::uint64_t>(popcount64(x[i] & y[i]));
    }
    EXPECT_EQ(popcount_and_sum_block(x.data(), y.data(), len), expect) << "len=" << len;
  }
}

TEST(Popcount, AndScatterMatchesScalarAcrossCountsAndTails) {
  Rng rng(23);
  for (std::size_t count : {0u, 1u, 3u, 4u, 5u, 8u, 33u}) {
    std::vector<std::int64_t> cols(count);
    std::vector<std::uint64_t> vals(count);
    for (std::size_t k = 0; k < count; ++k) {
      cols[k] = static_cast<std::int64_t>(2 * k);  // unique, strided slots
      vals[k] = rng();
    }
    const std::uint64_t word = rng();
    std::vector<std::int64_t> expect(2 * count + 1, 5);
    std::vector<std::int64_t> got = expect;
    for (std::size_t k = 0; k < count; ++k) {
      expect[static_cast<std::size_t>(cols[k])] += popcount64(word & vals[k]);
    }
    popcount_and_scatter(word, cols.data(), vals.data(), count, got.data());
    EXPECT_EQ(got, expect) << "count=" << count;
  }
}

TEST(Leb128, RoundTripsAndRejectsDamage) {
  using u128 = unsigned __int128;
  const std::vector<std::uint64_t> values{0, 1, 127, 128, 16383, 16384, 1ULL << 63, ~0ULL};
  std::vector<std::uint8_t> bytes;
  for (std::uint64_t v : values) {
    const std::size_t before = bytes.size();
    util::put_leb128(bytes, v);
    EXPECT_EQ(util::leb128_bytes(v), bytes.size() - before) << v;
  }
  const u128 wide = (u128{1} << 69) + 5;  // the panel wire's widest position gap
  util::put_leb128(bytes, wide);
  EXPECT_EQ(bytes.size(), 1 + 1 + 1 + 2 + 2 + 3 + 10 + 10 + 10u);
  util::Leb128Reader in(bytes, "test");
  for (std::uint64_t v : values) EXPECT_EQ(in.read<std::uint64_t>(), v);
  EXPECT_TRUE(in.read<u128>() == wide);
  EXPECT_TRUE(in.done());
  EXPECT_THROW((void)in.read<std::uint64_t>(), error::CorruptInput);  // truncated

  // A value past 2^64 saturates instead of wrapping to a small one.
  const std::vector<std::uint8_t> past64{0x85, 0x80, 0x80, 0x80, 0x80,
                                         0x80, 0x80, 0x80, 0x80, 0x02};
  util::Leb128Reader saturating(past64, "test");
  EXPECT_EQ(saturating.read<std::uint64_t>(), ~0ULL);
  // An eleventh byte is a runaway; a cut-off varint is truncated.
  const std::vector<std::uint8_t> runaway(11, 0x80);
  util::Leb128Reader eleven(runaway, "test");
  EXPECT_THROW((void)eleven.read<u128>(), error::CorruptInput);
  const std::vector<std::uint8_t> cut{0xff, 0xff};
  util::Leb128Reader short_read(cut, "test");
  EXPECT_THROW((void)short_read.read<std::uint64_t>(), error::CorruptInput);
  // Raw bytes between varints: take hands out exactly what is left, and
  // no more, even for a count whose byte length overflows 64 bits.
  util::Leb128Reader raw(cut, "test");
  EXPECT_THROW((void)raw.take(3, 1), error::CorruptInput);
  EXPECT_THROW((void)raw.take(std::uint64_t{1} << 61, 8), error::CorruptInput);
  EXPECT_EQ(raw.take(1, 2).size(), 2u);
  EXPECT_TRUE(raw.done());
}

TEST(Crc32, MatchesTheBytewiseDefinitionAtEveryLengthAndOffset) {
  // The standard check value, then the sixteen-bytes-a-step loop against
  // the polynomial applied a bit at a time, across tails and alignments.
  EXPECT_EQ(crc32("123456789", 9), 0xCBF43926U);
  EXPECT_EQ(crc32(nullptr, 0), 0U);
  std::vector<unsigned char> bytes(80);
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    bytes[i] = static_cast<unsigned char>(i * 151 + 7);
  }
  const auto bitwise = [](const unsigned char* data, std::size_t size) {
    std::uint32_t crc = ~0U;
    for (std::size_t i = 0; i < size; ++i) {
      crc ^= data[i];
      for (int bit = 0; bit < 8; ++bit) crc = (crc & 1U) != 0 ? (crc >> 1) ^ 0xEDB88320U : crc >> 1;
    }
    return ~crc;
  };
  for (std::size_t offset = 0; offset < 8; ++offset) {
    for (std::size_t size = 0; size + offset <= bytes.size(); ++size) {
      EXPECT_EQ(crc32(bytes.data() + offset, size), bitwise(bytes.data() + offset, size))
          << "offset " << offset << " size " << size;
    }
  }
}

TEST(Rng, DeterministicPerSeed) {
  Rng a(7);
  Rng b(7);
  Rng c(8);
  bool all_equal = true;
  bool any_diff_c = false;
  for (int i = 0; i < 100; ++i) {
    const auto va = a();
    all_equal = all_equal && (va == b());
    any_diff_c = any_diff_c || (va != c());
  }
  EXPECT_TRUE(all_equal);
  EXPECT_TRUE(any_diff_c);
}

TEST(Rng, UniformRespectsBound) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.uniform(17), 17u);
  }
}

TEST(Rng, UniformRealInUnitInterval) {
  Rng rng(4);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform_real();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Rng, BernoulliMatchesProbability) {
  Rng rng(5);
  int hits = 0;
  for (int i = 0; i < 20000; ++i) hits += rng.bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(hits / 20000.0, 0.3, 0.02);
}

TEST(Rng, ForkedStreamsDiffer) {
  Rng rng(6);
  Rng f1 = rng.fork(1);
  Rng f2 = rng.fork(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (f1() == f2()) ? 1 : 0;
  EXPECT_EQ(same, 0);
}

TEST(Stats, MeanStdDevCi) {
  StatAccumulator acc;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) acc.add(v);
  EXPECT_EQ(acc.count(), 8u);
  EXPECT_DOUBLE_EQ(acc.mean(), 5.0);
  EXPECT_NEAR(acc.stddev(), 2.138, 1e-3);
  EXPECT_NEAR(acc.ci95_halfwidth(), 1.96 * acc.stddev() / std::sqrt(8.0), 1e-12);
  EXPECT_DOUBLE_EQ(acc.min(), 2.0);
  EXPECT_DOUBLE_EQ(acc.max(), 9.0);
}

TEST(Stats, EmptyAndSingle) {
  StatAccumulator acc;
  EXPECT_TRUE(acc.empty());
  EXPECT_DOUBLE_EQ(acc.mean(), 0.0);
  acc.add(3.5);
  EXPECT_DOUBLE_EQ(acc.mean(), 3.5);
  EXPECT_DOUBLE_EQ(acc.stddev(), 0.0);
  EXPECT_DOUBLE_EQ(acc.ci95_halfwidth(), 0.0);
}

TEST(Table, AlignsColumnsAndValidatesArity) {
  TextTable table({"name", "value"});
  table.add_row({"alpha", "1"});
  table.add_row({"b", "22222"});
  const std::string rendered = table.str();
  EXPECT_NE(rendered.find("name"), std::string::npos);
  EXPECT_NE(rendered.find("22222"), std::string::npos);
  EXPECT_THROW(table.add_row({"only-one"}), std::invalid_argument);
}

TEST(Table, Formatters) {
  EXPECT_EQ(fmt_fixed(3.14159, 2), "3.14");
  EXPECT_EQ(fmt_count(446506), "446,506");
  EXPECT_EQ(fmt_count(7), "7");
  EXPECT_EQ(fmt_count(1000), "1,000");
  EXPECT_NE(fmt_bytes(1.8e12).find("TB"), std::string::npos);
  EXPECT_NE(fmt_duration(42.14).find("s"), std::string::npos);
  EXPECT_NE(fmt_duration(24.95 * 3600).find("h"), std::string::npos);
  EXPECT_NE(fmt_duration(3.0 * 86400).find("d"), std::string::npos);
}

TEST(Args, ParsesNamedPositionalAndFlags) {
  const char* argv[] = {"prog",   "--ranks", "32",   "input.fa", "--batches=64",
                        "--verbose", "--ratio", "0.5"};
  const ArgParser args(8, argv);
  EXPECT_EQ(args.get_int("ranks", 0), 32);
  EXPECT_EQ(args.get_int("batches", 0), 64);
  EXPECT_TRUE(args.get_bool("verbose", false));
  EXPECT_DOUBLE_EQ(args.get_double("ratio", 0.0), 0.5);
  EXPECT_EQ(args.get_string("missing", "fallback"), "fallback");
  ASSERT_EQ(args.positional().size(), 1u);
  EXPECT_EQ(args.positional()[0], "input.fa");
  EXPECT_EQ(args.program_name(), "prog");
}

TEST(Args, NumericGettersRejectJunk) {
  const char* argv[] = {"prog",         "--threshold", "abc",  "--batches", "3x",
                        "--seed",       "0x5a5",       "--big", "99999999999999999999",
                        "--slack",      "0.5e",        "--seconds", "8.000000",
                        "--neg",        "-5",          "--ranks", "4294967297",
                        "--under",      "-2147483649", "--max", "2147483647",
                        "--min",        "-2147483648", "--bare"};
  const ArgParser args(24, argv);
  EXPECT_THROW((void)args.get_double("threshold", 0.1), error::ConfigError);
  EXPECT_THROW((void)args.get_int("batches", 16), error::ConfigError);
  EXPECT_THROW((void)args.get_int("seed", 1), error::ConfigError);
  EXPECT_THROW((void)args.get_int("big", 0), error::ConfigError);
  EXPECT_THROW((void)args.get_double("slack", 0.0), error::ConfigError);
  EXPECT_THROW((void)args.get_int("seconds", 0), error::ConfigError);
  // Whole values still parse; absent and bare flags keep the fallback.
  EXPECT_DOUBLE_EQ(args.get_double("seconds", 0.0), 8.0);
  EXPECT_EQ(args.get_int("neg", 0), -5);
  EXPECT_EQ(args.get_int("bare", 7), 7);
  EXPECT_EQ(args.get_int("missing", 9), 9);
  try {
    (void)args.get_int("batches", 16);
  } catch (const error::ConfigError& e) {
    EXPECT_NE(std::string(e.what()).find("--batches"), std::string::npos) << e.what();
  }
  // An int setting refuses what does not fit instead of wrapping mod 2³²
  // (--ranks 4294967297 used to run one rank); int64 still reads it.
  for (const char* name : {"ranks", "under", "big", "batches"}) {
    EXPECT_THROW((void)args.get_int32(name, 1), error::ConfigError) << name;
  }
  try {
    (void)args.get_int32("ranks", 8);
    ADD_FAILURE() << "4294967297 accepted";
  } catch (const error::ConfigError& e) {
    EXPECT_NE(std::string(e.what()).find("--ranks"), std::string::npos) << e.what();
  }
  EXPECT_EQ(args.get_int32("max", 0), 2147483647);
  EXPECT_EQ(args.get_int32("min", 0), -2147483647 - 1);
  EXPECT_EQ(args.get_int32("neg", 0), -5);
  EXPECT_EQ(args.get_int32("bare", 7), 7);
  EXPECT_EQ(args.get_int("ranks", 0), 4294967297);
}

TEST(Args, DoubleGetterRejectsNonFiniteValues) {
  // std::from_chars reads these as numbers, and NaN compares false with
  // everything, so each would slip past a `v < lo || v > hi` check.
  const char* argv[] = {"prog",       "--a", "nan",  "--b",      "inf",
                        "--c",        "-inf", "--d", "infinity", "--e",
                        "NAN",        "--f", "1e999", "--g",      "-0.0"};
  const ArgParser args(15, argv);
  for (const char* name : {"a", "b", "c", "d", "e", "f"}) {
    EXPECT_THROW((void)args.get_double(name, 0.5), error::ConfigError) << name;
  }
  try {
    (void)args.get_double("a", 0.5);
    ADD_FAILURE() << "nan accepted";
  } catch (const error::ConfigError& e) {
    EXPECT_NE(std::string(e.what()).find("--a"), std::string::npos) << e.what();
    EXPECT_NE(std::string(e.what()).find("nan"), std::string::npos) << e.what();
  }
  EXPECT_EQ(args.get_double("g", 0.5), 0.0);
}

TEST(Args, BoolGetterRejectsNonBooleanValues) {
  const char* argv[] = {"prog",   "--no-filter", "s0.kmers", "s1.kmers", "--resume",
                        "0",      "--quarantine=off", "--fastq", "yes",  "--bare"};
  const ArgParser args(10, argv);
  // A bare flag written before a path reads the path as its value: that
  // must fail loudly, not turn the flag off and drop the path.
  EXPECT_THROW((void)args.get_bool("no-filter", false), error::ConfigError);
  try {
    (void)args.get_bool("no-filter", false);
  } catch (const error::ConfigError& e) {
    EXPECT_NE(std::string(e.what()).find("--no-filter"), std::string::npos) << e.what();
    EXPECT_NE(std::string(e.what()).find("s0.kmers"), std::string::npos) << e.what();
  }
  EXPECT_FALSE(args.get_bool("resume", true));
  EXPECT_FALSE(args.get_bool("quarantine", true));
  EXPECT_TRUE(args.get_bool("fastq", false));
  EXPECT_TRUE(args.get_bool("bare", false));
  EXPECT_TRUE(args.get_bool("missing", true));
  EXPECT_FALSE(args.get_bool("missing", false));
}

TEST(Args, UnknownListsFlagsOutsideTheAcceptedSet) {
  const char* argv[] = {"prog", "--batchs", "3", "--k", "21", "x.kmers", "--nodes=2"};
  const ArgParser args(7, argv);
  EXPECT_EQ(args.unknown({"k", "batches"}),
            (std::vector<std::string>{"batchs", "nodes"}));
  EXPECT_TRUE(args.unknown({"k", "batchs", "nodes"}).empty());
}

TEST(Timer, MeasuresElapsedTime) {
  Timer timer;
  double sink = 0;
  for (int i = 0; i < 100000; ++i) sink += i;
  EXPECT_GE(timer.seconds(), 0.0);
  EXPECT_GE(sink, 0.0);  // keeps the timed loop observable
  EXPECT_GE(timer.milliseconds(), timer.seconds());
}

}  // namespace
}  // namespace sas
