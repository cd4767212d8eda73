#include "common/time_util.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "common/random.h"

namespace sdps {
namespace {

TEST(TimeUtilTest, Conversions) {
  EXPECT_EQ(Seconds(1), 1000000);
  EXPECT_EQ(Seconds(8), 8000000);
  EXPECT_EQ(Seconds(0.5), 500000);
  EXPECT_EQ(Millis(250), 250000);
  EXPECT_EQ(Minutes(1), 60000000);
  EXPECT_DOUBLE_EQ(ToSeconds(Seconds(4)), 4.0);
  EXPECT_DOUBLE_EQ(ToMillis(Millis(12)), 12.0);
}

TEST(TimeUtilTest, RoundTripFractional) {
  EXPECT_DOUBLE_EQ(ToSeconds(Seconds(2.25)), 2.25);
}

// RoundMicros replaces std::llround on the hot paths, so it must agree on
// every value: exact halves, the doubles just below them, negatives, and
// magnitudes where doubles are integers.
TEST(TimeUtilTest, RoundMicrosMatchesLlround) {
  std::vector<double> values = {0.0,  -0.0,  0.5,  -0.5, 1.5,  2.5,   -2.5,
                                0.49999999999999994, -0.49999999999999994,
                                4503599627370495.5, 4503599627370497.0,
                                9007199254740993.0, -9007199254740993.0, 1e18};
  Rng rng(7);
  for (int i = 0; i < 100000; ++i) {
    const double magnitude = std::ldexp(1.0, static_cast<int>(rng.NextUint64() % 62));
    values.push_back(rng.Uniform(-0.5, 0.5) * magnitude);
    values.push_back(std::floor(rng.Uniform(0.0, 1e6)) + 0.5);
  }
  for (const double v : values) {
    EXPECT_EQ(RoundMicros(v), static_cast<SimTime>(std::llround(v))) << v;
  }
}

TEST(TimeUtilTest, FormatDuration) {
  EXPECT_EQ(FormatDuration(500), "500us");
  EXPECT_EQ(FormatDuration(Millis(2.5)), "2.500ms");
  EXPECT_EQ(FormatDuration(Seconds(1.5)), "1.500s");
  EXPECT_EQ(FormatDuration(-Seconds(1.5)), "-1.500s");
}

}  // namespace
}  // namespace sdps
