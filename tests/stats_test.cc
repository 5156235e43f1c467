#include "common/stats.h"

#include <gtest/gtest.h>

#include "common/sim_clock.h"

namespace neurodb {
namespace {

TEST(TimerTest, MeasuresElapsedTime) {
  Timer t;
  volatile uint64_t sink = 0;
  for (uint64_t i = 0; i < 100000; ++i) sink = sink + i;
  EXPECT_GT(t.ElapsedNanos(), 0u);
  EXPECT_GE(t.ElapsedMillis(), 0.0);
}

TEST(SimClockTest, StartsAtZeroAndAdvances) {
  SimClock c;
  EXPECT_EQ(c.NowMicros(), 0u);
  c.Advance(100);
  EXPECT_EQ(c.NowMicros(), 100u);
}

TEST(SimClockTest, AdvanceToIsMonotone) {
  SimClock c;
  c.Advance(50);
  EXPECT_EQ(c.AdvanceTo(80), 30u);
  EXPECT_EQ(c.NowMicros(), 80u);
  EXPECT_EQ(c.AdvanceTo(10), 0u);  // past: no-op
  EXPECT_EQ(c.NowMicros(), 80u);
}

TEST(SimClockTest, ResetReturnsToZero) {
  SimClock c;
  c.Advance(5);
  c.Reset();
  EXPECT_EQ(c.NowMicros(), 0u);
}

}  // namespace
}  // namespace neurodb
