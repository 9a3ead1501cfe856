// End-to-end determinism of the sweep engine: a reduced Fig. 8 sweep
// must produce bitwise-identical rows — and byte-identical JSON — at 1,
// 2 and 8 worker threads. This is the contract that makes parallel
// reproduction of the paper's figures trustworthy, and it is the test
// scripts/ci.sh runs under ASan+UBSan as a threaded data-race smoke.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <sstream>
#include <thread>
#include <vector>

#include "core/report.hpp"
#include "runner/scenarios.hpp"

namespace btsc::runner {
namespace {

ScenarioRequest reduced_fig08_request(int threads) {
  ScenarioRequest req;
  req.threads = threads;
  req.quick = true;
  req.replications = 4;
  req.max_points = 3;
  return req;
}

std::string to_json(const SweepResult& result) {
  std::ostringstream os;
  core::JsonReporter reporter(os);
  write_result(result, reporter);
  return os.str();
}

TEST(SweepDeterminismTest, Fig08RowsBitwiseIdenticalAcrossThreadCounts) {
  const SweepResult base = run_scenario("fig08", reduced_fig08_request(1));
  ASSERT_EQ(base.rows.size(), 3u);
  for (int threads : {2, 8}) {
    const SweepResult other =
        run_scenario("fig08", reduced_fig08_request(threads));
    ASSERT_EQ(other.rows.size(), base.rows.size());
    for (std::size_t r = 0; r < base.rows.size(); ++r) {
      ASSERT_EQ(other.rows[r].size(), base.rows[r].size());
      for (std::size_t c = 0; c < base.rows[r].size(); ++c) {
        // Compare bit patterns, not values: even a last-ulp difference
        // between thread counts would break reproducibility.
        EXPECT_EQ(std::bit_cast<std::uint64_t>(other.rows[r][c]),
                  std::bit_cast<std::uint64_t>(base.rows[r][c]))
            << "row " << r << " col " << c << " at " << threads
            << " threads";
      }
    }
  }
}

TEST(SweepDeterminismTest, Fig08JsonByteIdenticalAcrossThreadCounts) {
  const std::string json1 = to_json(run_scenario("fig08", reduced_fig08_request(1)));
  const std::string json8 = to_json(run_scenario("fig08", reduced_fig08_request(8)));
  EXPECT_EQ(json1, json8);
  // Sanity: the reduced sweep actually produced data.
  EXPECT_NE(json1.find("\"rows\""), std::string::npos);
  EXPECT_NE(json1.find("\"base_seed\": \"1000\""), std::string::npos);
}

TEST(SweepDeterminismTest, RepeatedRunsAreIdentical) {
  // Same request twice on the same thread count: the engine must be free
  // of any hidden global state (static RNGs, caches...).
  const std::string a = to_json(run_scenario("fig08", reduced_fig08_request(2)));
  const std::string b = to_json(run_scenario("fig08", reduced_fig08_request(2)));
  EXPECT_EQ(a, b);
}

TEST(SweepDeterminismTest, BaseSeedChangesResults) {
  // Different seed universes must give different samples. Fig. 6's
  // noiseless mean inquiry time is a continuous statistic over the
  // 0..1023-slot random backoff, so a collision between two 4-seed means
  // is practically impossible.
  ScenarioRequest req;
  req.threads = 2;
  req.quick = true;
  req.replications = 4;
  req.max_points = 1;  // BER 0 only
  const SweepResult base = run_scenario("fig06", req);
  req.base_seed = 424242;
  const SweepResult reseeded = run_scenario("fig06", req);
  ASSERT_EQ(base.rows.size(), 1u);
  ASSERT_EQ(reseeded.rows.size(), 1u);
  EXPECT_NE(base.rows[0][1], reseeded.rows[0][1]);  // mean_TS column
}

ScenarioRequest small_request() {
  ScenarioRequest req;
  req.threads = 1;
  req.quick = true;
  req.replications = 2;
  req.max_points = 2;
  return req;
}

void expect_same_kernel(const SweepResult::KernelDiag& a,
                        const SweepResult::KernelDiag& b,
                        const std::string& id) {
  EXPECT_EQ(a.timers_scheduled, b.timers_scheduled) << id;
  EXPECT_EQ(a.timers_fired, b.timers_fired) << id;
  EXPECT_EQ(a.timers_canceled, b.timers_canceled) << id;
  EXPECT_EQ(a.cancels_after_fire, b.cancels_after_fire) << id;
  EXPECT_EQ(a.live_at_exit, b.live_at_exit) << id;
  EXPECT_EQ(a.peak_heap, b.peak_heap) << id;
  EXPECT_EQ(a.peak_depth, b.peak_depth) << id;
}

TEST(SweepDeterminismTest, ConcurrentSweepsReportOwnKernelCounters) {
  // Two sweeps sharing one process (btsc-sweepd with several workers)
  // must each report only their own kernel traffic: the kernel block of
  // a concurrent run equals the one it reports alone.
  const SweepResult fig08_solo = run_scenario("fig08", small_request());
  const SweepResult fig10_solo = run_scenario("fig10", small_request());
  ASSERT_GT(fig08_solo.kernel.timers_scheduled, 0u);
  ASSERT_GT(fig10_solo.kernel.timers_scheduled, 0u);
  SweepResult fig08, fig10;
  std::thread other([&fig10] { fig10 = run_scenario("fig10", small_request()); });
  fig08 = run_scenario("fig08", small_request());
  other.join();
  EXPECT_EQ(fig08.rows, fig08_solo.rows);
  EXPECT_EQ(fig10.rows, fig10_solo.rows);
  expect_same_kernel(fig08.kernel, fig08_solo.kernel, "fig08");
  expect_same_kernel(fig10.kernel, fig10_solo.kernel, "fig10");
}

}  // namespace
}  // namespace btsc::runner
