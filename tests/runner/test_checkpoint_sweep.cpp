// The checkpoint-warmup sweep contract: a forked sweep (every
// replication restored from its point's warm-up snapshot) must be
// bitwise identical to the cold staged sweep (warm-up re-run per
// replication), row for row and byte for byte in the JSON artifact --
// and must stay thread-count invariant like every other sweep. The
// legacy mode (warm-up on the replication seed, no reseed) must remain
// the default.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "artifact_json.hpp"
#include "core/coexistence.hpp"
#include "core/experiments.hpp"
#include "runner/scenarios.hpp"
#include "sim/rng.hpp"

namespace btsc::runner {
namespace {

ScenarioRequest staged_request(WarmupMode mode, int threads = 1) {
  ScenarioRequest req;
  req.threads = threads;
  req.quick = true;
  req.replications = 3;
  req.max_points = 2;
  req.warmup = mode;
  return req;
}

void expect_rows_bitwise_equal(const SweepResult& a, const SweepResult& b) {
  ASSERT_EQ(a.rows.size(), b.rows.size());
  for (std::size_t r = 0; r < a.rows.size(); ++r) {
    ASSERT_EQ(a.rows[r].size(), b.rows[r].size());
    for (std::size_t c = 0; c < a.rows[r].size(); ++c) {
      EXPECT_EQ(std::bit_cast<std::uint64_t>(a.rows[r][c]),
                std::bit_cast<std::uint64_t>(b.rows[r][c]))
          << "row " << r << " col " << c;
    }
  }
}

TEST(CheckpointSweep, LegacyModeIsTheDefault) {
  const ScenarioRequest req;
  EXPECT_EQ(req.warmup, WarmupMode::kLegacy);
  // And a default run reports itself as legacy (the result-defining
  // staging flag in the artifact metadata).
  ScenarioRequest quick;
  quick.quick = true;
  quick.replications = 1;
  quick.max_points = 1;
  EXPECT_FALSE(run_scenario("fig08", quick).staged_warmup);
}

TEST(CheckpointSweep, LegacyWarmsUpOnReplicationSeedWithoutReseed) {
  // A legacy replication is the study's warm-up on the replication seed
  // followed by its measure stage, with no reseed at the boundary.
  // Coexistence's measured window draws from the environment RNG
  // (collided samples), so a reseed changes its rows; with one
  // replication it shows at the heaviest neighbour load (period 2, the
  // last point). The study golden pin alone does not see the reseed.
  ScenarioRequest req = staged_request(WarmupMode::kLegacy);
  req.replications = 1;
  req.max_points = 0;
  const SweepResult legacy = run_scenario("coexistence", req);
  ASSERT_EQ(legacy.rows.size(), 6u);
  // Common random numbers: every point runs on stream 0.
  const std::uint64_t seed =
      sim::Rng::derive_stream_seed(legacy.base_seed, 0, 0);
  core::CoexistenceRunConfig cfg;
  cfg.measure_slots = 8000;  // the study's --quick window
  for (const auto& row : legacy.rows) {
    const auto period = static_cast<std::uint32_t>(row[0]);
    const core::CoexistenceRow expect = core::measure_coexistence(
        *core::coexistence_warmup(seed), period, cfg);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(row[1]),
              std::bit_cast<std::uint64_t>(expect.goodput_kbps))
        << "period " << period;
    EXPECT_EQ(row[2], static_cast<double>(expect.retransmissions))
        << "period " << period;
    EXPECT_EQ(row[3], static_cast<double>(expect.collision_samples))
        << "period " << period;
  }
}

TEST(CheckpointSweep, Fig08ForkMatchesColdByteForByte) {
  const SweepResult cold =
      run_scenario("fig08", staged_request(WarmupMode::kCold));
  const SweepResult fork =
      run_scenario("fig08", staged_request(WarmupMode::kFork));
  ASSERT_EQ(cold.rows.size(), 2u);
  expect_rows_bitwise_equal(cold, fork);
  EXPECT_EQ(to_json_sans_kernel_meta(cold), to_json_sans_kernel_meta(fork));
}

TEST(CheckpointSweep, Fig10ForkMatchesCold) {
  const SweepResult cold =
      run_scenario("fig10", staged_request(WarmupMode::kCold));
  const SweepResult fork =
      run_scenario("fig10", staged_request(WarmupMode::kFork));
  expect_rows_bitwise_equal(cold, fork);
  EXPECT_EQ(to_json_sans_kernel_meta(cold), to_json_sans_kernel_meta(fork));
}

TEST(CheckpointSweep, CoexistenceForkMatchesCold) {
  ScenarioRequest req = staged_request(WarmupMode::kCold);
  req.replications = 2;
  const SweepResult cold = run_scenario("coexistence", req);
  req.warmup = WarmupMode::kFork;
  const SweepResult fork = run_scenario("coexistence", req);
  expect_rows_bitwise_equal(cold, fork);
  EXPECT_EQ(to_json_sans_kernel_meta(cold), to_json_sans_kernel_meta(fork));
}

/// Every registered study: the forked sweep equals the cold staged one
/// byte for byte, and each mode stamps the artifact as staged exactly
/// when it is not legacy.
class StudyForkMatchesCold : public ::testing::TestWithParam<std::string> {};

TEST_P(StudyForkMatchesCold, ByteForByte) {
  ScenarioRequest req = staged_request(WarmupMode::kLegacy);
  req.replications = 2;
  req.max_points = small_max_points(GetParam());
  EXPECT_FALSE(run_scenario(GetParam(), req).staged_warmup);
  req.warmup = WarmupMode::kCold;
  const SweepResult cold = run_scenario(GetParam(), req);
  req.warmup = WarmupMode::kFork;
  const SweepResult fork = run_scenario(GetParam(), req);
  EXPECT_TRUE(cold.staged_warmup);
  EXPECT_TRUE(fork.staged_warmup);
  ASSERT_FALSE(cold.rows.empty());
  expect_rows_bitwise_equal(cold, fork);
  EXPECT_EQ(to_json_sans_kernel_meta(cold), to_json_sans_kernel_meta(fork));
}

INSTANTIATE_TEST_SUITE_P(
    AllStudies, StudyForkMatchesCold, ::testing::ValuesIn(study_ids()),
    [](const ::testing::TestParamInfo<std::string>& info) {
      return info.param;
    });

TEST(CheckpointSweep, ForkedSweepThreadCountInvariant) {
  const SweepResult serial =
      run_scenario("fig08", staged_request(WarmupMode::kFork, 1));
  for (int threads : {2, 8}) {
    const SweepResult pooled =
        run_scenario("fig08", staged_request(WarmupMode::kFork, threads));
    expect_rows_bitwise_equal(serial, pooled);
    EXPECT_EQ(to_json_sans_kernel_meta(serial), to_json_sans_kernel_meta(pooled));
  }
}

TEST(CheckpointSweep, StagedStreamsDifferFromLegacy) {
  // The staged split changes which stream drives construction, so staged
  // samples are NOT expected to reproduce legacy ones -- the metadata
  // must make the difference visible.
  const SweepResult legacy =
      run_scenario("fig08", staged_request(WarmupMode::kLegacy));
  const SweepResult cold =
      run_scenario("fig08", staged_request(WarmupMode::kCold));
  EXPECT_FALSE(legacy.staged_warmup);
  EXPECT_TRUE(cold.staged_warmup);
  EXPECT_NE(to_json_sans_kernel_meta(legacy), to_json_sans_kernel_meta(cold));
}

}  // namespace
}  // namespace btsc::runner
