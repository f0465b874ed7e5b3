// Tests for the common utilities: Status/Result, RNG + Zipf distribution,
// histogram quantiles, unit formatting, and the bench argument parser.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <map>
#include <vector>

#include "common/arg_parser.h"
#include "common/histogram.h"
#include "common/random.h"
#include "common/status.h"
#include "common/units.h"

namespace namtree {
namespace {

TEST(StatusTest, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorsCarryCodeAndMessage) {
  Status s = Status::NotFound("key 42");
  EXPECT_FALSE(s.ok());
  EXPECT_TRUE(s.IsNotFound());
  EXPECT_EQ(s.code(), StatusCode::kNotFound);
  EXPECT_EQ(s.ToString(), "NotFound: key 42");
}

TEST(StatusTest, AllCodesHaveNames) {
  for (int c = 0; c <= static_cast<int>(StatusCode::kUnsupported); ++c) {
    EXPECT_STRNE(StatusCodeName(static_cast<StatusCode>(c)), "Unknown");
  }
}

TEST(ResultTest, ValueAndError) {
  Result<int> ok(7);
  EXPECT_TRUE(ok.ok());
  EXPECT_EQ(ok.value(), 7);
  EXPECT_EQ(ok.value_or(9), 7);

  Result<int> err(Status::NotFound());
  EXPECT_FALSE(err.ok());
  EXPECT_EQ(err.value_or(9), 9);
  EXPECT_TRUE(err.status().IsNotFound());
}

TEST(RngTest, DeterministicForSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
  Rng c(124);
  EXPECT_NE(a.Next(), c.Next());
}

TEST(RngTest, NextBelowIsInRangeAndRoughlyUniform) {
  Rng rng(7);
  std::vector<uint64_t> counts(10, 0);
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    const uint64_t v = rng.NextBelow(10);
    ASSERT_LT(v, 10u);
    counts[v]++;
  }
  for (uint64_t c : counts) {
    EXPECT_NEAR(static_cast<double>(c), n / 10.0, n / 10.0 * 0.1);
  }
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(9);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    const double d = rng.NextDouble();
    ASSERT_GE(d, 0.0);
    ASSERT_LT(d, 1.0);
    sum += d;
  }
  EXPECT_NEAR(sum / 10000, 0.5, 0.02);
}

TEST(ZipfTest, RankZeroDominates) {
  ZipfGenerator zipf(1000, 0.99);
  Rng rng(11);
  std::map<uint64_t, uint64_t> counts;
  const int n = 200000;
  for (int i = 0; i < n; ++i) counts[zipf.Next(rng)]++;
  // With theta=0.99 and n=1000, rank 0 draws 1/zeta(1000, 0.99) ~ 13% of
  // all requests, and frequencies are non-increasing at the head.
  EXPECT_NEAR(static_cast<double>(counts[0]), 0.13 * n, 0.02 * n);
  EXPECT_GT(counts[0], counts[1]);
  EXPECT_GT(counts[1], counts[5]);
  EXPECT_GT(counts[5], counts[50]);
}

TEST(ZipfTest, AllRanksWithinDomain) {
  ZipfGenerator zipf(50, 0.5);
  Rng rng(13);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(zipf.Next(rng), 50u);
  }
}

TEST(HistogramTest, BasicStats) {
  Histogram h;
  for (uint64_t v = 1; v <= 100; ++v) h.Add(v * 100);
  EXPECT_EQ(h.count(), 100u);
  EXPECT_EQ(h.min(), 100u);
  EXPECT_EQ(h.max(), 10000u);
  EXPECT_NEAR(h.mean(), 5050 * 100 / 100.0, 1.0);
  // p50 within a bucket of the true median.
  EXPECT_NEAR(h.Quantile(0.5), 5000, 700);
  EXPECT_NEAR(h.Quantile(0.99), 9900, 1300);
  EXPECT_GE(h.Quantile(1.0), h.Quantile(0.5));
}

TEST(HistogramTest, MergeAndReset) {
  Histogram a;
  Histogram b;
  a.Add(10);
  b.Add(1000);
  a.Merge(b);
  EXPECT_EQ(a.count(), 2u);
  EXPECT_EQ(a.min(), 10u);
  EXPECT_EQ(a.max(), 1000u);
  a.Reset();
  EXPECT_EQ(a.count(), 0u);
  EXPECT_EQ(a.Quantile(0.5), 0.0);
}

TEST(HistogramTest, SingleValueQuantilesCollapse) {
  Histogram h;
  for (int i = 0; i < 10; ++i) h.Add(42);
  EXPECT_NEAR(h.Quantile(0.01), 42, 1);
  EXPECT_NEAR(h.Quantile(0.99), 42, 1);
}

// BucketFor's table must reproduce the log10 formula: on both sides of
// every bucket boundary (found here from the formula alone), and on random
// values of every bit width.
TEST(HistogramTest, BucketTableMatchesFormula) {
  const int top = Histogram::FormulaBucket(UINT64_MAX);
  uint64_t boundary = 0;
  for (int bucket = 1; bucket <= top; ++bucket) {
    uint64_t lo = boundary;
    uint64_t hi = UINT64_MAX;
    while (lo < hi) {
      const uint64_t mid = lo + (hi - lo) / 2;
      if (Histogram::FormulaBucket(mid) >= bucket) {
        hi = mid;
      } else {
        lo = mid + 1;
      }
    }
    boundary = lo;
    for (const uint64_t v : {boundary - 1, boundary, boundary + 1}) {
      ASSERT_EQ(Histogram::BucketFor(v), Histogram::FormulaBucket(v))
          << "value " << v << " near the start of bucket " << bucket;
    }
  }
  for (const uint64_t v : {uint64_t{0}, uint64_t{1}, uint64_t{2}, UINT64_MAX}) {
    EXPECT_EQ(Histogram::BucketFor(v), Histogram::FormulaBucket(v)) << v;
  }
  Rng rng(2025);
  for (int i = 0; i < 1000000; ++i) {
    // Half raw 64-bit values, half with a uniformly drawn bit width, so
    // small latencies are sampled as densely as huge ones.
    uint64_t v = rng.Next();
    if (i % 2 == 1) v >>= rng.NextBelow(64);
    ASSERT_EQ(Histogram::BucketFor(v), Histogram::FormulaBucket(v)) << v;
  }
}

TEST(UnitsTest, Formatting) {
  EXPECT_EQ(FormatCount(1234567), "1.23M");
  EXPECT_EQ(FormatCount(999), "999");
  EXPECT_EQ(FormatCount(2.5e9), "2.50B");
  EXPECT_EQ(FormatDuration(2500), "2.50us");
  EXPECT_EQ(FormatDuration(3 * kSecond), "3.000s");
  EXPECT_EQ(FormatBandwidth(6.8e9), "6.80 GB/s");
}

TEST(ArgParserTest, ParsesFlagsAndValues) {
  const char* argv[] = {"prog", "--keys=5000", "--skew", "--rate=1.5",
                        "--name=test"};
  ArgParser args(5, const_cast<char**>(argv));
  EXPECT_EQ(args.GetInt("keys", 0), 5000);
  EXPECT_TRUE(args.GetBool("skew", false));
  EXPECT_FALSE(args.GetBool("other", false));
  EXPECT_DOUBLE_EQ(args.GetDouble("rate", 0), 1.5);
  EXPECT_EQ(args.GetString("name", ""), "test");
  EXPECT_EQ(args.GetInt("missing", 7), 7);
}

TEST(ArgParserTest, ParsesSpaceSeparatedValues) {
  const char* argv[] = {"prog", "--json", "out.json", "--skew", "--keys", "7"};
  ArgParser args(6, const_cast<char**>(argv));
  EXPECT_EQ(args.GetString("json", ""), "out.json");
  EXPECT_TRUE(args.GetBool("skew", false));  // followed by a flag: boolean
  EXPECT_EQ(args.GetInt("keys", 0), 7);      // last pair still consumed
}

TEST(ArgParserTest, EnvironmentFallback) {
  ::setenv("NAMTREE_TEST_KNOB", "99", 1);
  const char* argv[] = {"prog"};
  ArgParser args(1, const_cast<char**>(argv));
  EXPECT_EQ(args.GetInt("test-knob", 0), 99);
  ::unsetenv("NAMTREE_TEST_KNOB");
}

TEST(ArgParserTest, CommandLineBeatsEnvironment) {
  ::setenv("NAMTREE_KEYS", "1", 1);
  const char* argv[] = {"prog", "--keys=2"};
  ArgParser args(2, const_cast<char**>(argv));
  EXPECT_EQ(args.GetInt("keys", 0), 2);
  ::unsetenv("NAMTREE_KEYS");
}

}  // namespace
}  // namespace namtree
