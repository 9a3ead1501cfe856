#include "baseband/bt_clock.hpp"

#include <gtest/gtest.h>

#include <iterator>
#include <utility>
#include <vector>

#include "sim/environment.hpp"
#include "sim/snapshot.hpp"

namespace btsc::baseband {
namespace {

using namespace btsc::sim::literals;
using btsc::sim::Environment;
using btsc::sim::SimTime;

/// A subscriber with a fixed answer -- 0 sleeps after every delivered
/// tick, n > 0 asks for every n-th tick -- that records (time, clkn) for
/// every delivered tick and, when asked to, wakes the clock from it.
struct TickLog final : TickSubscriber {
  TickLog(Environment& env, NativeClock& clk, std::uint32_t ahead)
      : env(env), clk(clk), ahead(ahead) {
    clk.set_subscriber(this);
  }
  std::uint32_t ticks_until_needed(std::uint32_t) const override {
    return ahead;
  }
  void on_tick() override {
    seen.emplace_back(env.now(), clk.clkn());
    if (wake_on_tick) clk.wake();
  }
  Environment& env;
  NativeClock& clk;
  std::uint32_t ahead;
  bool wake_on_tick = false;
  std::vector<std::pair<SimTime, std::uint32_t>> seen;
};

/// The i-th grid instant of a clock whose first tick is at `phase`.
SimTime grid(SimTime phase, std::uint64_t i) { return phase + kTickPeriod * i; }

TEST(NativeClockTest, TickPeriodIsHalfSlot) {
  EXPECT_EQ(kTickPeriod * 2, kSlotDuration);
  EXPECT_EQ(kTickPeriod.as_ns(), 312'500u);
}

TEST(NativeClockTest, CountsTicks) {
  Environment env;
  NativeClock clk(env, "clkn");
  env.run_until(SimTime::ms(10));
  // 10 ms / 312.5 us = 32 ticks.
  EXPECT_EQ(clk.ticks(), 32u);
  EXPECT_EQ(clk.clkn(), 32u);
}

TEST(NativeClockTest, InitialValueRespected) {
  Environment env;
  NativeClock clk(env, "clkn", 100);
  EXPECT_EQ(clk.clkn(), 100u);
  env.run_until(kTickPeriod);
  EXPECT_EQ(clk.clkn(), 101u);
}

TEST(NativeClockTest, WrapsAt28Bits) {
  Environment env;
  NativeClock clk(env, "clkn", kClockMask);  // max value
  env.run_until(kTickPeriod);
  EXPECT_EQ(clk.clkn(), 0u);
}

TEST(NativeClockTest, PhaseOffsetShiftsTickGrid) {
  Environment env;
  NativeClock early(env, "early", 0, SimTime::us(100));
  NativeClock late(env, "late", 0, SimTime::us(200));
  env.run_until(SimTime::us(150));
  EXPECT_EQ(early.clkn(), 1u);
  EXPECT_EQ(late.clkn(), 0u);
}

TEST(NativeClockTest, TickEventFiresAfterIncrement) {
  Environment env;
  NativeClock clk(env, "clkn", 7);
  TickLog log(env, clk, 1);
  env.run_until(kTickPeriod * 3);
  ASSERT_EQ(log.seen.size(), 3u);
  EXPECT_EQ(log.seen[0].second, 8u);
  EXPECT_EQ(log.seen[2].second, 10u);
}

TEST(NativeClockTest, BitAccessor) {
  Environment env;
  NativeClock clk(env, "clkn", 0b1010);
  EXPECT_FALSE(clk.bit(0));
  EXPECT_TRUE(clk.bit(1));
  EXPECT_FALSE(clk.bit(2));
  EXPECT_TRUE(clk.bit(3));
}

TEST(NativeClockTest, LastTickTime) {
  Environment env;
  NativeClock clk(env, "clkn", 0, SimTime::us(50));
  // Ticks at 50us, 362.5us, 675us, 987.5us: the fourth lands exactly at
  // 987.5 us.
  env.run_until(SimTime::ns(987'499));
  EXPECT_EQ(clk.clkn(), 3u);
  env.run_until(SimTime::ns(987'500));
  EXPECT_EQ(clk.clkn(), 4u);
  env.run_until(SimTime::ms(1));
  EXPECT_EQ(clk.clkn(), 4u);
}

// ---- demand-driven delivery ------------------------------------------------

TEST(NativeClockTest, ClknCountsElidedTicksDuringSleep) {
  Environment env;
  const SimTime phase = SimTime::us(50);
  NativeClock clk(env, "clkn", kClockMask - 5, phase);
  TickLog sleep(env, clk, 0);
  // The first tick is delivered (its demand answer puts the clock to
  // sleep); every later one is elided but still counted by clkn().
  for (std::uint64_t i = 0; i < 40; ++i) {
    const auto before = static_cast<std::uint32_t>(kClockMask - 5 + i);
    env.run_until(grid(phase, i) - SimTime::ns(1));
    EXPECT_EQ(clk.clkn(), before & kClockMask) << "just before tick " << i;
    // Exactly on the (elided) grid instant the tick counts as passed.
    env.run_until(grid(phase, i));
    EXPECT_EQ(clk.clkn(), (before + 1) & kClockMask) << "on tick " << i;
    env.run_until(grid(phase, i) + SimTime::ns(156'250));
    EXPECT_EQ(clk.clkn(), (before + 1) & kClockMask) << "mid tick " << i;
  }
  EXPECT_EQ(clk.ticks(), 1u);
  EXPECT_TRUE(env.idle());  // asleep: no delivery timer pending
}

TEST(NativeClockTest, ClknReadInsideDispatchOnElidedInstantCountsIt) {
  Environment env;
  NativeClock clk(env, "clkn", 0);
  TickLog sleep(env, clk, 0);
  std::uint32_t read = 0;
  env.schedule(kTickPeriod * 9, [&] { read = clk.clkn(); });
  env.run_until(SimTime::ms(10));
  EXPECT_EQ(read, 9u);
  EXPECT_EQ(clk.ticks(), 1u);
}

TEST(NativeClockTest, WakeOnGridInstantDeliversThatTickInSameInstant) {
  Environment env;
  const SimTime phase = SimTime::us(120);
  NativeClock clk(env, "clkn", 100, phase);
  TickLog log(env, clk, 0);
  // A timed callback exactly on the elided instant 10 wakes the clock:
  // that instant's tick runs in the same instant, after the callback.
  env.schedule(grid(phase, 10), [&] { clk.wake(); });
  env.run_until(grid(phase, 20));
  ASSERT_EQ(log.seen.size(), 2u);
  EXPECT_EQ(log.seen[0], std::make_pair(grid(phase, 0), 101u));
  EXPECT_EQ(log.seen[1], std::make_pair(grid(phase, 10), 111u));

  // Off the grid, the wake delivers the next instant.
  env.schedule(SimTime::us(400), [&] { clk.wake(); });
  env.run_until(grid(phase, 30));
  ASSERT_EQ(log.seen.size(), 3u);
  EXPECT_EQ(log.seen[2], std::make_pair(grid(phase, 22), 123u));

  // Between runs an on-grid now() is finished: its round has run, so a
  // wake there delivers the following instant.
  clk.wake();
  env.run_until(grid(phase, 40));
  ASSERT_EQ(log.seen.size(), 4u);
  EXPECT_EQ(log.seen[3], std::make_pair(grid(phase, 31), 132u));
}

TEST(NativeClockTest, WakeInsideDeliveredTickTakesTheNextInstantOnce) {
  Environment env;
  NativeClock clk(env, "clkn", 0);
  TickLog log(env, clk, 4);
  log.wake_on_tick = true;
  // A wake from the delivered tick's own on_tick pulls the pending
  // delivery (four ticks out) back to the next instant -- never the
  // same instant again.
  env.run_until(kTickPeriod * 3);
  ASSERT_EQ(log.seen.size(), 3u);
  for (std::uint32_t i = 0; i < 3; ++i) {
    EXPECT_EQ(log.seen[i], std::make_pair(kTickPeriod * (i + 1), i + 1));
  }
  EXPECT_EQ(env.scheduler_stats().canceled, 3u);

  // With the next instant already pending, a wake keeps that timer:
  // delivery every tick costs no cancel-and-re-arm.
  log.ahead = 1;
  env.run_until(kTickPeriod * 20);
  EXPECT_EQ(log.seen.size(), 20u);
  EXPECT_EQ(env.scheduler_stats().canceled, 3u);

  log.wake_on_tick = false;
  log.ahead = 4;
  env.run_until(kTickPeriod * 40);
  EXPECT_EQ(log.seen.size(), 25u);
  EXPECT_EQ(env.scheduler_stats().canceled, 3u);
}

TEST(NativeClockTest, EveryNthTickDelivered) {
  Environment env;
  NativeClock clk(env, "clkn", 2);
  TickLog log(env, clk, 4);
  env.run_until(kTickPeriod * 17);
  ASSERT_EQ(log.seen.size(), 5u);
  for (std::size_t i = 0; i < log.seen.size(); ++i) {
    EXPECT_EQ(log.seen[i].first, kTickPeriod * (1 + 4 * i));
    EXPECT_EQ(log.seen[i].second, 3u + 4u * static_cast<std::uint32_t>(i));
  }
  EXPECT_EQ(clk.clkn(), 19u);
}

TEST(NativeClockTest, ResetPhaseDuringSleep) {
  Environment env;
  NativeClock clk(env, "clkn", 40, SimTime::us(10));
  TickLog log(env, clk, 0);
  env.run_until(SimTime::ms(3) + SimTime::us(7));
  EXPECT_EQ(clk.clkn(), 50u);
  clk.reset_phase(500, SimTime::us(200));
  EXPECT_EQ(clk.ticks(), 0u);
  EXPECT_EQ(clk.clkn(), 500u);
  const SimTime first = SimTime::ms(3) + SimTime::us(207);
  env.run_until(first - SimTime::ns(1));
  EXPECT_EQ(clk.clkn(), 500u);
  env.run_until(first + kTickPeriod * 7);
  // Like a fresh construction: the first tick on the new grid is
  // delivered, then the clock sleeps and counts from the new phase.
  ASSERT_EQ(log.seen.size(), 2u);
  EXPECT_EQ(log.seen[1], std::make_pair(first, 501u));
  EXPECT_EQ(clk.ticks(), 1u);
  EXPECT_EQ(clk.clkn(), 508u);
}

/// A clock that sleeps between scheduled wakes (as a scanning link
/// controller does), with every wake a tagged timer so the schedule
/// survives a checkpoint.
struct WakeBench final : sim::RearmHandler {
  static constexpr SimTime kPhase = SimTime::us(333);
  // Grid instants are 333 us + i * 312.5 us: wakes off the grid and on
  // elided instants 17 and 65.
  static constexpr SimTime kWakes[] = {
      SimTime::us(2000), kPhase + kTickPeriod * 17, SimTime::us(9000),
      kPhase + kTickPeriod * 65};

  WakeBench(std::uint64_t seed, std::uint32_t ahead)
      : env(seed),
        clk(env, "clkn", 0x0FFFFF00u, kPhase),
        log(env, clk, ahead) {
    env.register_rearm("bench", this, this);
    for (std::uint64_t i = 0; i < std::size(kWakes); ++i) wake_at(i);
  }
  void wake_at(std::uint64_t i) {
    env.schedule_tagged(kWakes[i] - env.now(), 1, i, [this] { clk.wake(); },
                        this);
  }
  void rearm_timer(std::uint16_t, std::uint64_t payload, SimTime) override {
    wake_at(payload);
  }

  Environment env;
  NativeClock clk;
  TickLog log;
};

class NativeClockSleepCheckpoint
    : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(NativeClockSleepCheckpoint, RestoredMidSleepMatchesUninterrupted) {
  const SimTime end = SimTime::ms(30);
  WakeBench whole(7, GetParam());
  whole.env.run_until(end);
  ASSERT_GE(whole.log.seen.size(), 5u);

  // Checkpoint mid-sleep (7 ms lies between the second and third wake),
  // restore into a twin built with another seed, and continue there.
  WakeBench before(7, GetParam());
  before.env.run_until(SimTime::ms(7));
  sim::SnapshotWriter w;
  before.clk.save_state(w);
  before.env.save_state(w);
  const auto bytes = w.take();
  WakeBench after(99, GetParam());
  sim::SnapshotReader r(bytes);
  after.clk.restore_state(r);
  after.env.restore_state(r);
  EXPECT_EQ(after.clk.clkn(), before.clk.clkn());
  after.log.seen = before.log.seen;
  after.env.run_until(end);

  EXPECT_EQ(after.log.seen, whole.log.seen);
  EXPECT_EQ(after.clk.ticks(), whole.clk.ticks());
  EXPECT_EQ(after.clk.clkn(), whole.clk.clkn());
}

// 0: asleep with nothing pending; 5: a delivery pending four ticks out.
INSTANTIATE_TEST_SUITE_P(Demand, NativeClockSleepCheckpoint,
                         ::testing::Values(0u, 5u));

TEST(ClockOffsetTest, OffsetArithmetic) {
  EXPECT_EQ(clock_offset(10, 15), 5u);
  EXPECT_EQ(clock_offset(15, 10), (kClockMask - 4) & kClockMask);
  const std::uint32_t clkn = 0x0FFFFFF0u;
  const std::uint32_t target = 0x00000010u;
  EXPECT_EQ((clkn + clock_offset(clkn, target)) & kClockMask, target);
}

TEST(NativeClockTest, TwoClocksDriftFree) {
  // Same nominal rate: two clocks stay at a constant counter distance.
  Environment env;
  NativeClock a(env, "a", 0, SimTime::us(10));
  NativeClock b(env, "b", 1000, SimTime::us(10));
  env.run_until(SimTime::sec(1));
  EXPECT_EQ(b.clkn() - a.clkn(), 1000u);
}

}  // namespace
}  // namespace btsc::baseband
