#include "phy/radio.hpp"

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "phy/channel.hpp"
#include "sim/environment.hpp"
#include "sim/tracer.hpp"

namespace btsc::phy {
namespace {

using namespace btsc::sim::literals;
using btsc::sim::BitVector;
using btsc::sim::Environment;
using btsc::sim::SimTime;

struct Rig {
  Environment env;
  NoisyChannel ch{env, "ch"};
  Radio tx{env, "tx", ch};
  Radio rx{env, "rx", ch};
};

TEST(RadioTest, TransmitDrivesBitsAtOneMicrosecondEach) {
  Rig rig;
  std::vector<Logic4> seen;
  rig.rx.set_rx_sink([&](Logic4 v) { seen.push_back(v); });
  rig.rx.enable_rx(7);
  rig.tx.transmit(7, BitVector::from_string("1011"));
  rig.env.run(10_us);
  // Samples at 0.5, 1.5, 2.5, 3.5 us hit the four bits; later samples Z.
  ASSERT_GE(seen.size(), 5u);
  EXPECT_EQ(seen[0], Logic4::kOne);
  EXPECT_EQ(seen[1], Logic4::kZero);
  EXPECT_EQ(seen[2], Logic4::kOne);
  EXPECT_EQ(seen[3], Logic4::kOne);
  EXPECT_EQ(seen[4], Logic4::kZ);
}

TEST(RadioTest, DoneCallbackAfterLastBit) {
  Rig rig;
  SimTime done_at = SimTime::max();
  rig.tx.transmit(0, BitVector(68), [&] { done_at = rig.env.now(); });
  rig.env.run(100_us);
  EXPECT_EQ(done_at, 68_us);  // ID packet: 68 bits -> 68 us
  EXPECT_FALSE(rig.tx.tx_busy());
}

TEST(RadioTest, TransmitWhileBusyThrows) {
  Rig rig;
  rig.tx.transmit(0, BitVector(10));
  EXPECT_TRUE(rig.tx.tx_busy());
  EXPECT_THROW(rig.tx.transmit(0, BitVector(10)), std::logic_error);
}

TEST(RadioTest, EmptyTransmitCompletesImmediately) {
  Rig rig;
  bool done = false;
  rig.tx.transmit(0, BitVector(), [&] { done = true; });
  EXPECT_TRUE(done);
  EXPECT_FALSE(rig.tx.tx_busy());
}

TEST(RadioTest, AbortReleasesMedium) {
  Rig rig;
  rig.tx.transmit(3, BitVector(100, true));
  rig.env.run(5_us);
  EXPECT_TRUE(rig.tx.tx_busy());
  rig.tx.abort_tx();
  EXPECT_FALSE(rig.tx.tx_busy());
  EXPECT_EQ(rig.ch.sense(3), Logic4::kZ);
  // No further bits are driven.
  const auto sent = rig.tx.bits_sent();
  rig.env.run(10_us);
  EXPECT_EQ(rig.tx.bits_sent(), sent);
}

TEST(RadioTest, RxOnlySeesTunedFrequency) {
  Rig rig;
  std::vector<Logic4> seen;
  rig.rx.set_rx_sink([&](Logic4 v) { seen.push_back(v); });
  rig.rx.enable_rx(10);
  rig.tx.transmit(40, BitVector(4, true));  // different RF channel
  rig.env.run(6_us);
  for (Logic4 v : seen) EXPECT_EQ(v, Logic4::kZ);
}

TEST(RadioTest, RetuneSwitchesFrequency) {
  Rig rig;
  std::vector<Logic4> seen;
  rig.rx.set_rx_sink([&](Logic4 v) { seen.push_back(v); });
  rig.rx.enable_rx(10);
  rig.tx.transmit(40, BitVector(20, true));
  rig.env.run(5_us);
  rig.rx.retune_rx(40);
  rig.env.run(5_us);
  EXPECT_EQ(seen.front(), Logic4::kZ);
  EXPECT_EQ(seen.back(), Logic4::kOne);
}

TEST(RadioTest, EnableLinesFollowTxRx) {
  // The traced RF enable lines are TX busy and RX on.
  const std::string path = ::testing::TempDir() + "btsc_radio_enable_" +
                           std::to_string(::getpid()) + ".vcd";
  {
    Environment env;
    sim::VcdTracer tracer(env, path);
    env.set_tracer(&tracer);
    NoisyChannel ch(env, "ch");
    Radio tx(env, "tx", ch);
    Radio rx(env, "rx", ch);
    env.run(1_us);
    tx.transmit(0, BitVector(10));
    rx.enable_rx(0);
    EXPECT_TRUE(tx.tx_busy());
    EXPECT_TRUE(rx.rx_enabled());
    env.run(15_us);
    EXPECT_FALSE(tx.tx_busy());
    rx.disable_rx();
    EXPECT_FALSE(rx.rx_enabled());
    env.run(1_us);
    tracer.close();
    env.set_tracer(nullptr);
  }
  std::ifstream in(path);
  std::ostringstream os;
  os << in.rdbuf();
  const std::string vcd = os.str();
  std::remove(path.c_str());
  // Ids in declaration order: ch.bus !, tx.enable_tx_RF ", tx.enable_rx_RF
  // #, rx.enable_tx_RF $, rx.enable_rx_RF %.
  EXPECT_NE(vcd.find("$var wire 1 \" tx.enable_tx_RF $end"), std::string::npos);
  EXPECT_NE(vcd.find("$var wire 1 % rx.enable_rx_RF $end"), std::string::npos);
  EXPECT_NE(vcd.find("#1000\n0!\n1\"\n1%\n#11000\nz!\n0\"\n#16000\n0%\n"),
            std::string::npos)
      << vcd;
}

TEST(RadioTest, ActivityAccountingMatchesEnabledTime) {
  Rig rig;
  rig.tx.transmit(0, BitVector(100));  // 100 us of TX
  rig.env.run(200_us);
  EXPECT_EQ(rig.tx.tx_on_time(), 100_us);
  EXPECT_EQ(rig.tx.rx_on_time(), SimTime::zero());

  rig.rx.enable_rx(0);
  rig.env.run(50_us);
  rig.rx.disable_rx();
  rig.env.run(50_us);
  EXPECT_EQ(rig.rx.rx_on_time(), 50_us);
}

TEST(RadioTest, ActivityIncludesOngoingInterval) {
  Rig rig;
  rig.rx.enable_rx(0);
  rig.env.run(30_us);
  EXPECT_EQ(rig.rx.rx_on_time(), 30_us);  // still enabled
}

TEST(RadioTest, ResetActivityStartsFreshWindow) {
  Rig rig;
  rig.rx.enable_rx(0);
  rig.env.run(40_us);
  rig.rx.reset_activity();
  rig.env.run(10_us);
  EXPECT_EQ(rig.rx.rx_on_time(), 10_us);
  rig.rx.disable_rx();
  EXPECT_EQ(rig.rx.rx_on_time(), 10_us);
}

TEST(RadioTest, CollisionVisibleAsX) {
  Environment env;
  NoisyChannel ch(env, "ch");
  Radio t1(env, "t1", ch), t2(env, "t2", ch), rx(env, "rx", ch);
  std::vector<Logic4> seen;
  rx.set_rx_sink([&](Logic4 v) { seen.push_back(v); });
  rx.enable_rx(0);
  t1.transmit(0, BitVector(10, true));
  t2.transmit(0, BitVector(10, false));
  env.run(5_us);
  ASSERT_FALSE(seen.empty());
  for (Logic4 v : seen) EXPECT_EQ(v, Logic4::kX);
}

TEST(RadioTest, BitsSampledCountsWhileEnabled) {
  Rig rig;
  rig.rx.enable_rx(0);
  rig.env.run(10_us);
  rig.rx.disable_rx();
  rig.env.run(10_us);
  EXPECT_EQ(rig.rx.bits_sampled(), 10u);
}

TEST(RadioTest, BackToBackTransmissionsFromDoneCallback) {
  Rig rig;
  int sent_packets = 0;
  std::function<void()> send_next = [&] {
    ++sent_packets;
    if (sent_packets < 3) {
      rig.tx.transmit(0, BitVector(10, true), send_next);
    }
  };
  rig.tx.transmit(0, BitVector(10, true), send_next);
  rig.env.run(100_us);
  EXPECT_EQ(sent_packets, 3);
  EXPECT_EQ(rig.tx.bits_sent(), 30u);
}

}  // namespace
}  // namespace btsc::phy
