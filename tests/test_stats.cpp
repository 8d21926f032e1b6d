#include "common/stats.hpp"

#include <gtest/gtest.h>

namespace tarr {
namespace {

TEST(StatAccumulator, EmptyIsZero) {
  StatAccumulator s;
  EXPECT_EQ(s.count(), 0);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.min(), 0.0);
  EXPECT_EQ(s.max(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
}

TEST(StatAccumulator, SingleSample) {
  StatAccumulator s;
  s.add(3.5);
  EXPECT_EQ(s.count(), 1);
  EXPECT_DOUBLE_EQ(s.mean(), 3.5);
  EXPECT_DOUBLE_EQ(s.min(), 3.5);
  EXPECT_DOUBLE_EQ(s.max(), 3.5);
  EXPECT_EQ(s.variance(), 0.0);
}

TEST(StatAccumulator, KnownMoments) {
  StatAccumulator s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  // Population variance is 4; sample variance = 32/7.
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);
}

TEST(StatAccumulator, NegativeValues) {
  StatAccumulator s;
  s.add(-2.0);
  s.add(2.0);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.min(), -2.0);
  EXPECT_DOUBLE_EQ(s.max(), 2.0);
}

TEST(StatAccumulator, StreamingMatchesBatchMean) {
  StatAccumulator s;
  double sum = 0;
  for (int i = 1; i <= 1000; ++i) {
    s.add(static_cast<double>(i));
    sum += i;
  }
  EXPECT_NEAR(s.mean(), sum / 1000.0, 1e-9);
  EXPECT_EQ(s.count(), 1000);
}

}  // namespace
}  // namespace tarr
