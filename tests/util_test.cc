#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <set>
#include <span>
#include <sstream>
#include <vector>

#include "util/bytes.h"
#include "util/flags.h"
#include "util/random.h"
#include "util/stats.h"
#include "util/table.h"
#include "util/timer.h"

namespace diverse {
namespace {

TEST(RngTest, UniformStaysInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.Uniform(1.0, 2.0);
    EXPECT_GE(x, 1.0);
    EXPECT_LT(x, 2.0);
  }
}

TEST(RngTest, UniformIntCoversEndpoints) {
  Rng rng(7);
  std::set<int> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.UniformInt(3, 5));
  EXPECT_EQ(seen, (std::set<int>{3, 4, 5}));
}

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_DOUBLE_EQ(a.Uniform(), b.Uniform());
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.Uniform() == b.Uniform()) ++equal;
  }
  EXPECT_LT(equal, 5);
}

TEST(RngTest, BernoulliExtremes) {
  Rng rng(3);
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(rng.Bernoulli(0.0));
    EXPECT_TRUE(rng.Bernoulli(1.0));
  }
}

TEST(RngTest, GaussianRoughMoments) {
  Rng rng(11);
  OnlineStats stats;
  for (int i = 0; i < 20000; ++i) stats.Add(rng.Gaussian(5.0, 2.0));
  EXPECT_NEAR(stats.mean(), 5.0, 0.1);
  EXPECT_NEAR(stats.stddev(), 2.0, 0.1);
}

TEST(RngTest, SampleWithoutReplacementDistinct) {
  Rng rng(5);
  for (int trial = 0; trial < 20; ++trial) {
    const auto sample = rng.SampleWithoutReplacement(10, 6);
    ASSERT_EQ(sample.size(), 6u);
    std::set<int> unique(sample.begin(), sample.end());
    EXPECT_EQ(unique.size(), 6u);
    for (int x : sample) {
      EXPECT_GE(x, 0);
      EXPECT_LT(x, 10);
    }
  }
}

TEST(RngTest, SampleWithoutReplacementFullSet) {
  Rng rng(5);
  const auto sample = rng.SampleWithoutReplacement(5, 5);
  std::set<int> unique(sample.begin(), sample.end());
  EXPECT_EQ(unique.size(), 5u);
}

TEST(RngTest, SampleWithoutReplacementEmpty) {
  Rng rng(5);
  EXPECT_TRUE(rng.SampleWithoutReplacement(5, 0).empty());
}

TEST(RngTest, ShufflePreservesMultiset) {
  Rng rng(9);
  std::vector<int> v = {1, 2, 3, 4, 5, 6};
  std::vector<int> shuffled = v;
  rng.Shuffle(&shuffled);
  std::multiset<int> a(v.begin(), v.end());
  std::multiset<int> b(shuffled.begin(), shuffled.end());
  EXPECT_EQ(a, b);
}

TEST(OnlineStatsTest, EmptyIsZero) {
  OnlineStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
}

TEST(OnlineStatsTest, KnownValues) {
  OnlineStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.Add(x);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(StatsTest, VectorHelpers) {
  const std::vector<double> xs = {1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(Mean(xs), 2.5);
  EXPECT_DOUBLE_EQ(Min(xs), 1.0);
  EXPECT_DOUBLE_EQ(Max(xs), 4.0);
  EXPECT_DOUBLE_EQ(Median(xs), 2.5);
  EXPECT_DOUBLE_EQ(Percentile(xs, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(Percentile(xs, 1.0), 4.0);
  EXPECT_NEAR(StdDev(xs), std::sqrt(5.0 / 3.0), 1e-12);
}

TEST(StatsTest, MeanOfEmptyIsZero) {
  EXPECT_DOUBLE_EQ(Mean({}), 0.0);
}

TEST(TableTest, AlignsAndPrints) {
  TextTable table({"p", "OPT", "AF"});
  table.NewRow().AddInt(3).AddDouble(4.87).AddDouble(1.018);
  table.NewRow().AddInt(4).AddDouble(7.822).AddDouble(1.027);
  std::ostringstream os;
  table.Print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("OPT"), std::string::npos);
  EXPECT_NE(out.find("4.870"), std::string::npos);
  EXPECT_NE(out.find("1.027"), std::string::npos);
  EXPECT_EQ(table.num_rows(), 2u);
}

TEST(TableTest, CsvOutput) {
  TextTable table({"a", "b"});
  table.NewRow().AddInt(1).AddCell("x");
  std::ostringstream os;
  table.PrintCsv(os);
  EXPECT_EQ(os.str(), "a,b\n1,x\n");
}

TEST(TableTest, FormatDouble) {
  EXPECT_EQ(FormatDouble(3.14159, 2), "3.14");
  EXPECT_EQ(FormatDouble(1.0, 0), "1");
}

TEST(FlagsTest, ParsesAllTypes) {
  int i = 1;
  double d = 0.5;
  bool b = false;
  std::string s = "x";
  FlagSet flags("test");
  flags.AddInt("count", &i, "");
  flags.AddDouble("lam", &d, "");
  flags.AddBool("verbose", &b, "");
  flags.AddString("name", &s, "");
  const char* argv[] = {"prog", "--count=7", "--lam", "0.25", "--verbose",
                        "--name=foo"};
  ASSERT_TRUE(flags.Parse(6, const_cast<char**>(argv)));
  EXPECT_EQ(i, 7);
  EXPECT_DOUBLE_EQ(d, 0.25);
  EXPECT_TRUE(b);
  EXPECT_EQ(s, "foo");
}

TEST(FlagsTest, RejectsUnknownFlag) {
  FlagSet flags;
  const char* argv[] = {"prog", "--nope=1"};
  EXPECT_FALSE(flags.Parse(2, const_cast<char**>(argv)));
}

TEST(FlagsTest, RejectsBadInt) {
  int i = 0;
  FlagSet flags;
  flags.AddInt("n", &i, "");
  const char* argv[] = {"prog", "--n=abc"};
  EXPECT_FALSE(flags.Parse(2, const_cast<char**>(argv)));
}

TEST(FlagsTest, DefaultsSurviveWhenUnset) {
  int i = 42;
  FlagSet flags;
  flags.AddInt("n", &i, "");
  const char* argv[] = {"prog"};
  ASSERT_TRUE(flags.Parse(1, const_cast<char**>(argv)));
  EXPECT_EQ(i, 42);
}

TEST(TimerTest, MeasuresNonNegativeTime) {
  WallTimer timer;
  volatile double sink = 0.0;
  for (int i = 0; i < 100000; ++i) sink = sink + i;
  EXPECT_GE(timer.Seconds(), 0.0);
  EXPECT_GE(timer.Milliseconds(), timer.Seconds());  // ms >= s for t >= 0
}

TEST(ByteReaderTest, ByteOrderMatchesHandWrittenLittleEndian) {
  const std::vector<std::uint8_t> bytes = {
      0xAB,                                            // u8
      0x34, 0x12,                                      // u16 0x1234
      0x78, 0x56, 0x34, 0x12,                          // u32 0x12345678
      0xEF, 0xCD, 0xAB, 0x89, 0x67, 0x45, 0x23, 0x01,  // u64
      0xFE, 0xFF, 0xFF, 0xFF,                          // i32 -2
      0xFD, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF,  // i64 -3
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xF0, 0x3F,  // f64 1.0
  };
  ByteReader reader(bytes);
  std::uint8_t u8;
  std::uint16_t u16;
  std::uint32_t u32;
  std::uint64_t u64;
  std::int32_t i32;
  std::int64_t i64;
  double f64;
  ASSERT_TRUE(reader.ReadU8(&u8) && reader.ReadU16(&u16) &&
              reader.ReadU32(&u32) && reader.ReadU64(&u64) &&
              reader.ReadI32(&i32) && reader.ReadI64(&i64) &&
              reader.ReadF64(&f64));
  EXPECT_TRUE(reader.Done());
  EXPECT_EQ(u8, 0xAB);
  EXPECT_EQ(u16, 0x1234);
  EXPECT_EQ(u32, 0x12345678u);
  EXPECT_EQ(u64, 0x0123456789ABCDEFull);
  EXPECT_EQ(i32, -2);
  EXPECT_EQ(i64, -3);
  EXPECT_EQ(f64, 1.0);

  // The writers produce exactly these bytes.
  std::vector<std::uint8_t> written;
  AppendU8(&written, u8);
  AppendU16(&written, u16);
  AppendU32(&written, u32);
  AppendU64(&written, u64);
  AppendI32(&written, i32);
  AppendI64(&written, i64);
  AppendF64(&written, f64);
  EXPECT_EQ(written, bytes);
}

TEST(ByteReaderTest, ReadsPastTheEndFail) {
  const std::vector<std::uint8_t> bytes(7, 0x11);
  ByteReader reader(bytes);
  std::uint64_t u64;
  EXPECT_FALSE(reader.ReadU64(&u64));  // 7 < 8 bytes
  EXPECT_EQ(reader.remaining(), 7u);   // a failed read consumes nothing
  std::uint32_t u32;
  ASSERT_TRUE(reader.ReadU32(&u32));
  std::uint16_t u16;
  ASSERT_TRUE(reader.ReadU16(&u16));
  std::uint8_t u8;
  ASSERT_TRUE(reader.ReadU8(&u8));
  EXPECT_TRUE(reader.Done());
  double f64;
  EXPECT_FALSE(reader.ReadU8(&u8));
  EXPECT_FALSE(reader.ReadU16(&u16));
  EXPECT_FALSE(reader.ReadU32(&u32));
  EXPECT_FALSE(reader.ReadF64(&f64));
  std::uint8_t byte;
  EXPECT_FALSE(reader.ReadBytes(&byte, 1));
  EXPECT_TRUE(reader.ReadBytes(nullptr, 0));
  std::vector<double> one(1);
  EXPECT_FALSE(reader.ReadF64s(one));

  const std::vector<std::uint8_t> fifteen(15, 0);
  ByteReader short_array(fifteen);
  std::vector<double> two(2);
  EXPECT_FALSE(short_array.ReadF64s(two));  // 15 < 16 bytes
  EXPECT_EQ(short_array.remaining(), 15u);
}

TEST(ByteReaderTest, ReadCountRejectsCountsLargerThanTheBytesLeft) {
  std::vector<std::uint8_t> bytes;
  AppendU32(&bytes, 3);
  bytes.resize(bytes.size() + 24, 0);  // exactly three 8-byte entries
  std::size_t count = 0;
  {
    ByteReader reader(bytes);
    ASSERT_TRUE(reader.ReadCount(8, &count));
    EXPECT_EQ(count, 3u);
  }
  {
    ByteReader reader(bytes);  // 3 x 9 = 27 > 24
    EXPECT_FALSE(reader.ReadCount(9, &count));
  }
  bytes.pop_back();  // 3 x 8 = 24 > 23
  {
    ByteReader reader(bytes);
    EXPECT_FALSE(reader.ReadCount(8, &count));
  }
  // A corrupt count near 2^32 cannot pass for any positive stride.
  std::vector<std::uint8_t> huge;
  AppendU32(&huge, 0xFFFFFFFFu);
  huge.resize(huge.size() + 64, 0);
  ByteReader reader(huge);
  EXPECT_FALSE(reader.ReadCount(1, &count));
}

TEST(ByteReaderTest, BulkF64RoundTripIsBitExact) {
  const std::vector<double> values = {
      -0.0,
      std::bit_cast<double>(std::uint64_t{0x7FF8000000000123}),  // qNaN
      std::bit_cast<double>(std::uint64_t{0xFFF0000000000001}),  // sNaN
      std::numeric_limits<double>::denorm_min(),
      -std::numeric_limits<double>::denorm_min() * 12345,
      std::numeric_limits<double>::infinity(),
      1.0 / 3.0,
  };
  std::vector<std::uint8_t> bulk;
  AppendF64s(&bulk, values);
  // Byte-identical to one AppendF64 per value.
  std::vector<std::uint8_t> one_by_one;
  for (double v : values) AppendF64(&one_by_one, v);
  EXPECT_EQ(bulk, one_by_one);

  std::vector<double> read(values.size());
  ByteReader reader(bulk);
  ASSERT_TRUE(reader.ReadF64s(read));
  EXPECT_TRUE(reader.Done());
  for (std::size_t i = 0; i < values.size(); ++i) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(read[i]),
              std::bit_cast<std::uint64_t>(values[i]))
        << i;
  }
}

TEST(ByteReaderTest, EmptyArraysWorkWithNullData) {
  const std::span<const double> none(static_cast<const double*>(nullptr), 0);
  std::vector<std::uint8_t> out = {7};
  AppendF64s(&out, none);
  AppendF64s(&out, std::vector<double>());
  EXPECT_EQ(out, std::vector<std::uint8_t>{7});

  ByteReader reader(std::span<const std::uint8_t>{});
  EXPECT_TRUE(reader.ReadF64s(std::span<double>()));
  EXPECT_TRUE(reader.ReadBytes(nullptr, 0));
  EXPECT_TRUE(reader.Done());
  std::size_t count = 1;
  EXPECT_FALSE(reader.ReadCount(8, &count));  // no bytes for the count
}

}  // namespace
}  // namespace diverse
