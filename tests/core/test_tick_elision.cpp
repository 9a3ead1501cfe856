// Tick elision on assembled systems: the native clock delivers only the
// ticks a link controller can act on, and a checkpoint taken while a
// clock sleeps restores transparently.
//  * budgets -- an idle connected piconet costs the master one tick per
//    even slot and the slave none; a creation inquiry ticks its scanners
//    only around scan windows and in the post-backoff listen. These pin
//    the elision itself: a clock that quietly went back to ticking every
//    half slot would still pass every byte-compare;
//  * mid-sleep forks -- a snapshot with a scanner in backoff or a
//    connected master between even slots restores and runs on
//    byte-identically to the uninterrupted run.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "baseband/bt_clock.hpp"
#include "core/system.hpp"
#include "sim/snapshot.hpp"

namespace btsc::core {
namespace {

using baseband::Device;
using baseband::LcState;
using baseband::kSlotDuration;
using baseband::kTickPeriod;
using sim::SimTime;

SystemConfig piconet_config(std::uint64_t seed, int slaves) {
  SystemConfig sc;
  sc.num_slaves = slaves;
  sc.seed = seed;
  // Long timeouts: these tests need a piconet, not the paper's odds.
  sc.lc.inquiry_timeout_slots = 32768;
  sc.lc.page_timeout_slots = 16384;
  return sc;
}

/// A checkpoint is only legal when no transmission with a completion
/// callback is in flight; nudge forward in 25 us steps until it is.
std::vector<std::uint8_t> snapshot_when_legal(BluetoothSystem& sys) {
  for (int step = 0; step < 64; ++step) {
    try {
      return sys.save_snapshot();
    } catch (const sim::SnapshotError&) {
      sys.run(SimTime::us(25));
    }
  }
  return sys.save_snapshot();
}

std::unique_ptr<BluetoothSystem> twin_of(const SystemConfig& sc) {
  return std::make_unique<BluetoothSystem>(sc);
}

/// One delivered tick as the device saw it (after its controller ran).
struct TickRecord {
  std::uint32_t clkn;
  LcState state;
};

/// Records every delivered tick of one device: stands in as the clock's
/// subscriber, forwards both calls to the link controller and logs each
/// tick's outcome.
struct TickLog final : baseband::TickSubscriber {
  explicit TickLog(Device& dev) : dev(dev) {
    dev.clock().set_subscriber(this);
  }
  std::uint32_t ticks_until_needed(std::uint32_t clkn) const override {
    return dev.lc().ticks_until_needed(clkn);
  }
  void on_tick() override {
    dev.lc().on_tick();
    ticks.push_back({dev.clock().clkn(), dev.lc().state()});
  }
  Device& dev;
  std::vector<TickRecord> ticks;
};

// ---- budgets ---------------------------------------------------------------

TEST(TickElision, IdleConnectedPiconetTicksMasterPerEvenSlotSlaveNever) {
  BluetoothSystem sys(piconet_config(31, 1));
  ASSERT_TRUE(sys.create_piconet());
  sys.run(kSlotDuration * 16);  // let the first polls settle
  const std::uint64_t master0 = sys.master().clock().ticks();
  const std::uint64_t slave0 = sys.slave(0).clock().ticks();

  constexpr std::uint64_t kSlots = 4000;
  sys.run(kSlotDuration * kSlots);
  const std::uint64_t master_ticks = sys.master().clock().ticks() - master0;
  const std::uint64_t slave_ticks = sys.slave(0).clock().ticks() - slave0;
  EXPECT_LE(master_ticks, kSlots / 2 + 2);
  EXPECT_GE(master_ticks, kSlots / 2 - 2);  // still polls every even slot
  EXPECT_LE(slave_ticks, 2u);
  EXPECT_EQ(sys.master().lc().state(), LcState::kConnectionMaster);
  EXPECT_EQ(sys.slave(0).lc().state(), LcState::kConnectionSlave);
}

TEST(TickElision, InquiryScannerTicksOnlyAroundWindowsAndSecondIdListen) {
  const SystemConfig sc = piconet_config(11, 2);
  const std::uint32_t interval_ticks = 2 * sc.lc.inquiry_scan_interval_slots;
  // Interlaced scanning: two back-to-back windows, then the closing tick.
  const std::uint32_t scan_ticks = 2 * 2 * sc.lc.inquiry_scan_window_slots;
  std::uint64_t backoffs = 0;
  std::uint64_t scanner_ticks = 0;
  for (std::uint64_t seed = 11; seed < 14; ++seed) {
    SystemConfig s = sc;
    s.seed = seed;
    BluetoothSystem sys(s);
    std::vector<std::unique_ptr<TickLog>> logs;
    for (int i = 0; i < sys.num_slaves(); ++i) {
      logs.push_back(std::make_unique<TickLog>(sys.slave(i)));
    }
    ASSERT_TRUE(sys.run_inquiry().success) << "seed " << seed;
    for (int i = 0; i < sys.num_slaves(); ++i) {
      std::uint64_t stray_scan = 0;
      std::uint64_t response = 0;
      const TickLog& log = *logs[static_cast<std::size_t>(i)];
      for (const TickRecord& t : log.ticks) {
        if (t.state == LcState::kInquiryScan &&
            t.clkn % interval_ticks > scan_ticks + 1) {
          ++stray_scan;  // neither in a window nor on its closing edge
        }
        if (t.state == LcState::kInquiryResponse) ++response;
      }
      const std::uint64_t b = sys.slave(i).lc().stats().backoffs;
      // A few wake ticks land anywhere (the scan command, the return to
      // scanning after the FHS); none may tick its way through a gap.
      EXPECT_LE(stray_scan, 2 + 2 * b) << "seed " << seed << " slave " << i;
      // Per backoff: its entry tick, the listen for the second ID once
      // RX is on, and the FHS turnaround -- but no tick of the backoff
      // itself (up to 2046 of them).
      EXPECT_LE(response, 12 * b) << "seed " << seed << " slave " << i;
      backoffs += b;
      scanner_ticks += log.ticks.size();
    }
  }
  EXPECT_GT(backoffs, 0u);
  EXPECT_GT(scanner_ticks, 0u);
}

// ---- mid-sleep forks -------------------------------------------------------

/// Runs `a` and the restored `b` over the same window and byte-compares.
void expect_runs_on_identically(BluetoothSystem& a, BluetoothSystem& b,
                                SimTime window) {
  a.run(window);
  b.run(window);
  EXPECT_EQ(snapshot_when_legal(a), snapshot_when_legal(b));
  for (int i = 0; i < a.num_slaves(); ++i) {
    EXPECT_EQ(a.slave(i).lc().state(), b.slave(i).lc().state());
  }
  EXPECT_EQ(a.master().lc().state(), b.master().lc().state());
}

TEST(TickElision, SnapshotDuringScannerBackoffRestoresIdentically) {
  const SystemConfig sc = piconet_config(20260807, 2);
  auto a = twin_of(sc);
  a->slave(0).lc().enable_inquiry_scan();
  a->slave(1).lc().enable_inquiry_scan();
  a->master().lc().enable_inquiry();
  // Step until slave 0 hears its first ID and goes silent for the
  // backoff (kBackoffEnd pending, RX off, its clock asleep).
  Device& scanner = a->slave(0);
  for (int step = 0; step < 40000 && scanner.lc().stats().backoffs == 0;
       ++step) {
    a->run(SimTime::us(250));
  }
  ASSERT_EQ(scanner.lc().stats().backoffs, 1u);
  ASSERT_EQ(scanner.lc().state(), LcState::kInquiryResponse);
  ASSERT_FALSE(scanner.radio().rx_enabled());
  const auto snap = snapshot_when_legal(*a);
  ASSERT_EQ(scanner.lc().state(), LcState::kInquiryResponse);
  ASSERT_FALSE(scanner.radio().rx_enabled());

  auto b = twin_of(sc);
  b->restore_snapshot(snap);
  EXPECT_EQ(b->save_snapshot(), snap);
  // The clock really sleeps: no tick while the backoff runs on.
  const std::uint64_t asleep = scanner.clock().ticks();
  a->run(kTickPeriod * 2);
  b->run(kTickPeriod * 2);
  EXPECT_EQ(scanner.clock().ticks(), asleep);
  EXPECT_EQ(b->slave(0).clock().ticks(), asleep);
  expect_runs_on_identically(*a, *b, kSlotDuration * 3000);
  EXPECT_GT(scanner.clock().ticks(), asleep);
}

TEST(TickElision, SnapshotBetweenMasterEvenSlotsRestoresIdentically) {
  const SystemConfig sc = piconet_config(31, 1);
  auto a = twin_of(sc);
  ASSERT_TRUE(a->create_piconet());
  a->run(kSlotDuration * 40);
  // Land a quarter slot past a master tick that is not an even-slot
  // start, so the pending delivery is one to three ticks out.
  while ((a->master().clock().clkn() & 3u) == 0) a->run(kTickPeriod);
  a->run(SimTime::ns(156'250));
  const auto snap = snapshot_when_legal(*a);
  ASSERT_NE(a->master().clock().clkn() & 3u, 0u);

  auto b = twin_of(sc);
  b->restore_snapshot(snap);
  EXPECT_EQ(b->save_snapshot(), snap);
  expect_runs_on_identically(*a, *b, kSlotDuration * 500);
  EXPECT_EQ(a->master().clock().ticks(), b->master().clock().ticks());
  EXPECT_EQ(a->slave(0).clock().ticks(), b->slave(0).clock().ticks());
}

}  // namespace
}  // namespace btsc::core
