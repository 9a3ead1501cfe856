#include "core/system.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

namespace btsc::core {
namespace {

using namespace btsc::sim::literals;

SystemConfig reliable(int slaves = 1, std::uint64_t seed = 11) {
  SystemConfig sc;
  sc.num_slaves = slaves;
  sc.seed = seed;
  sc.lc.inquiry_timeout_slots = 32768;
  sc.lc.page_timeout_slots = 16384;
  return sc;
}

TEST(BluetoothSystemTest, RejectsBadSlaveCount) {
  SystemConfig sc;
  sc.num_slaves = 0;
  EXPECT_THROW(BluetoothSystem{sc}, std::invalid_argument);
  sc.num_slaves = 8;
  EXPECT_THROW(BluetoothSystem{sc}, std::invalid_argument);
}

TEST(BluetoothSystemTest, DevicesHaveDistinctAddresses) {
  BluetoothSystem sys(reliable(3));
  EXPECT_NE(sys.master().address(), sys.slave(0).address());
  EXPECT_NE(sys.slave(0).address(), sys.slave(1).address());
  EXPECT_NE(sys.slave(1).address(), sys.slave(2).address());
  EXPECT_EQ(sys.num_slaves(), 3);
}

TEST(BluetoothSystemTest, InquiryThenPageConnects) {
  BluetoothSystem sys(reliable());
  const PhaseResult inq = sys.run_inquiry();
  ASSERT_TRUE(inq.success);
  EXPECT_GT(inq.slots, 0u);
  const PhaseResult page = sys.run_page(0);
  ASSERT_TRUE(page.success);
  EXPECT_LT(page.slots, 200u);
  EXPECT_EQ(sys.lt_addr_of(0), 1);
}

TEST(BluetoothSystemTest, PageWithoutDiscoveryFails) {
  BluetoothSystem sys(reliable());
  const PhaseResult page = sys.run_page(0);  // no inquiry ran
  EXPECT_FALSE(page.success);
}

TEST(BluetoothSystemTest, CreatePiconetTwoSlaves) {
  BluetoothSystem sys(reliable(2, 5));
  ASSERT_TRUE(sys.create_piconet());
  EXPECT_EQ(sys.master().lc().piconet().slaves().size(), 2u);
  EXPECT_NE(sys.lt_addr_of(0), 0);
  EXPECT_NE(sys.lt_addr_of(1), 0);
}

TEST(BluetoothSystemTest, VcdTraceWritten) {
  const std::string path = ::testing::TempDir() + "btsc_system_trace.vcd";
  {
    SystemConfig sc = reliable();
    sc.vcd_path = path;
    BluetoothSystem sys(sc);
    sys.run(10_ms);
    sys.finish_trace();
  }
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::ostringstream os;
  os << in.rdbuf();
  const std::string vcd = os.str();
  EXPECT_NE(vcd.find("enable_rx_RF"), std::string::npos);
  EXPECT_NE(vcd.find("$enddefinitions"), std::string::npos);
  std::remove(path.c_str());
}

TEST(BluetoothSystemTest, DeterministicAcrossRuns) {
  auto run_once = [](std::uint64_t seed) {
    BluetoothSystem sys(reliable(1, seed));
    const PhaseResult inq = sys.run_inquiry();
    return std::pair<bool, std::uint64_t>(inq.success, inq.slots);
  };
  EXPECT_EQ(run_once(77), run_once(77));
  EXPECT_NE(run_once(77), run_once(78));  // different seeds differ
}

TEST(BluetoothSystemTest, ReseedRestartsBothStreams) {
  // A replication's randomness is a function of its seed alone: after
  // reseed(s), the environment stream and the channel noise stand where
  // a fresh system reseeded with s puts them, whatever ran before.
  SystemConfig sc = reliable();
  sc.ber = 1.0 / 50;
  BluetoothSystem used(sc);
  (void)used.run_inquiry();
  used.reseed(5);
  sc.seed = 99;
  BluetoothSystem fresh(sc);
  fresh.reseed(5);
  EXPECT_EQ(used.env().rng().state(), fresh.env().rng().state());
  EXPECT_EQ(used.channel().noise().state(), fresh.channel().noise().state());
  fresh.reseed(6);
  EXPECT_NE(used.env().rng().state(), fresh.env().rng().state());
  EXPECT_NE(used.channel().noise().state(), fresh.channel().noise().state());
}

TEST(BluetoothSystemTest, NoiseStreamIsDerivedFromTheSeed) {
  // Construction seeds the noise from the system seed without a draw
  // from the environment stream, so noiseless runs see the stream they
  // would without a channel.
  SystemConfig sc = reliable();
  sc.ber = 1.0 / 50;
  BluetoothSystem a(sc), b(sc);
  EXPECT_EQ(a.channel().noise().state(), b.channel().noise().state());
  sc.seed += 1;
  BluetoothSystem c(sc);
  EXPECT_NE(a.channel().noise().state(), c.channel().noise().state());
  sim::Rng bare(reliable().seed);
  for (int i = 0; i < 2; ++i) {  // the slave's clock value and phase
    (void)bare.next();
  }
  EXPECT_EQ(a.env().rng().state(), bare.state());
}

}  // namespace
}  // namespace btsc::core
