#include "sim/tracer.hpp"

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "sim/environment.hpp"

namespace btsc::sim {
namespace {

using namespace btsc::sim::literals;

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

class VcdTracerTest : public ::testing::Test {
 protected:
  // Unique per process: ctest runs each TEST_F as its own process, in
  // parallel, and they must not clobber each other's VCD file.
  std::string path_ = ::testing::TempDir() + "btsc_tracer_test_" +
                      std::to_string(::getpid()) + ".vcd";
  void TearDown() override { std::remove(path_.c_str()); }
};

TEST_F(VcdTracerTest, WritesWellFormedHeaderAndChanges) {
  Environment env;
  {
    VcdTracer tracer(env, path_);
    const TraceId id = tracer.declare("dev.enable_rx_RF", '0');
    env.schedule(625_us, [&] { tracer.change(id, '1'); });
    env.schedule(1250_us, [&] { tracer.change(id, '0'); });
    env.run_until(2_ms);
    tracer.close();
  }
  const std::string vcd = slurp(path_);
  EXPECT_NE(vcd.find("$timescale 1ns $end"), std::string::npos);
  EXPECT_NE(vcd.find("$var wire 1 ! dev.enable_rx_RF $end"), std::string::npos);
  EXPECT_NE(vcd.find("$enddefinitions $end"), std::string::npos);
  EXPECT_NE(vcd.find("$dumpvars\n0!\n$end"), std::string::npos);
  EXPECT_NE(vcd.find("#625000\n1!"), std::string::npos);
  EXPECT_NE(vcd.find("#1250000\n0!"), std::string::npos);
}

TEST_F(VcdTracerTest, DuplicateValueSuppressed) {
  // Among the changes of one var at one instant only the last counts,
  // and it is emitted only when it differs from the last emitted value.
  Environment env;
  {
    VcdTracer tracer(env, path_);
    const TraceId x = tracer.declare("x", '0');
    const TraceId y = tracer.declare("y", '0');
    env.schedule(1_us, [&] {
      tracer.change(x, '1');
      tracer.change(y, '1');
      tracer.change(x, '0');
      tracer.change(x, '1');  // x: last of three, emitted
    });
    env.schedule(2_us, [&] {
      tracer.change(x, '1');  // same as emitted: suppressed
      tracer.change(y, 'z');
      tracer.change(y, 'x');  // y: only the last one
    });
    env.run_until(10_us);
    tracer.close();
  }
  const std::string vcd = slurp(path_);
  const std::string body = vcd.substr(vcd.find("$end\n#") + 5);
  EXPECT_EQ(body, "#1000\n1!\n1\"\n#2000\nx\"\n");
}

TEST_F(VcdTracerTest, RoundTripWithinOneInstantEmitsNothing) {
  Environment env;
  {
    VcdTracer tracer(env, path_);
    const TraceId x = tracer.declare("x", '0');
    env.schedule(1_us, [&] {
      tracer.change(x, '1');
      tracer.change(x, '0');
    });
    // The round trip may also span a zero-delay timer at the instant.
    env.schedule(2_us, [&] {
      tracer.change(x, 'z');
      env.schedule(0_ns, [&] { tracer.change(x, '0'); });
    });
    env.run_until(10_us);
    tracer.close();
  }
  const std::string vcd = slurp(path_);
  EXPECT_EQ(vcd.find('#'), std::string::npos) << vcd;
}

TEST_F(VcdTracerTest, DeclareAfterStartThrows) {
  Environment env;
  VcdTracer tracer(env, path_);
  const TraceId id = tracer.declare("x", '0');
  tracer.change(id, '1');
  EXPECT_THROW(tracer.declare("y", '0'), std::logic_error);
}

TEST_F(VcdTracerTest, UnopenablePathThrows) {
  Environment env;
  EXPECT_THROW(VcdTracer(env, "/nonexistent_dir_btsc/file.vcd"),
               std::runtime_error);
}

TEST_F(VcdTracerTest, CanceledTimersDoNotPerturbWaveform) {
  // Regression for the old kernel: dead queue entries made run_until
  // advance now_ through canceled instants. The waveform written while a
  // schedule/cancel storm runs alongside must be byte-identical to one
  // with no canceled timers at all.
  auto run = [](Environment& env, const std::string& path,
                bool with_canceled_storm) {
    VcdTracer tracer(env, path);
    const TraceId s = tracer.declare("dev.enable_rx_RF", '0');
    std::vector<TimerId> dead;
    if (with_canceled_storm) {
      for (int i = 0; i < 16; ++i) {
        dead.push_back(env.schedule(SimTime::us(100 + 10 * i), [] {}));
      }
    }
    env.schedule(625_us, [&] { tracer.change(s, '1'); });
    env.schedule(1250_us, [&] { tracer.change(s, '0'); });
    for (TimerId id : dead) env.cancel(id);
    env.run_until(2_ms);
    tracer.close();
  };
  const std::string churn_path = ::testing::TempDir() + "btsc_churn.vcd";
  std::string clean, churned;
  {
    Environment env;
    run(env, path_, false);
    clean = slurp(path_);
  }
  {
    Environment env;
    run(env, churn_path, true);
    churned = slurp(churn_path);
    std::remove(churn_path.c_str());
  }
  EXPECT_FALSE(clean.empty());
  EXPECT_EQ(clean, churned);
}

}  // namespace
}  // namespace btsc::sim
