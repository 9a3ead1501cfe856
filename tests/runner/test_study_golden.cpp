// Golden pin of every study's artifact: each registered scenario, run
// quick with 2 replications over its first points (small_max_points) on
// 1 thread, in the legacy and the cold staged mode, must hash to the
// constant recorded below. The hash is FNV-1a 64 over the JSON artifact with the kernel_*
// telemetry stripped, so kernel work that leaves the results alone (tick
// elision, timer-wheel changes) does not disturb the pin, while any
// change to a sample stream, a row or a result-defining metadata line
// does. Fork mode is pinned transitively: it must equal cold
// (StudyForkMatchesCold in test_checkpoint_sweep.cpp).
//
// A deliberate artifact shift updates these constants in the same
// change, and says why.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <string>
#include <utility>

#include "artifact_json.hpp"
#include "runner/scenarios.hpp"
#include "sim/snapshot.hpp"

namespace btsc::runner {
namespace {

/// id -> {legacy hash, cold hash}.
const std::map<std::string, std::pair<std::uint64_t, std::uint64_t>>&
golden() {
  static const std::map<std::string, std::pair<std::uint64_t, std::uint64_t>>
      table = {
          {"fig06", {0x2b506bd954cf7fc1ull, 0x19e96d30d5de484aull}},
          {"fig07", {0x3b15fb49f1eb3fe9ull, 0xd4f2e30a7ef49ff4ull}},
          {"fig08", {0x876b172aeef13e07ull, 0x671ae1091299e360ull}},
          {"fig10", {0xf6b8150af3fd35c9ull, 0xcad69c35a9029588ull}},
          {"fig11", {0xcb55ed48ce7f5200ull, 0x3b56e698684bbc5bull}},
          {"fig12", {0xa6969bd44f0b81cbull, 0x4ec6a386d38addb8ull}},
          {"throughput", {0xcad336530aa3b860ull, 0xaa0527361834bad3ull}},
          {"coexistence", {0xefa79717fa7880adull, 0x318725fce5c0020cull}},
          {"backoff", {0x74d5f0f439383c81ull, 0x48e688c0190eeb86ull}},
      };
  return table;
}

std::uint64_t artifact_hash(const std::string& id, WarmupMode mode) {
  ScenarioRequest req;
  req.threads = 1;
  req.quick = true;
  req.replications = 2;
  req.max_points = small_max_points(id);
  req.warmup = mode;
  const std::string json = to_json_sans_kernel_meta(run_scenario(id, req));
  return sim::snapshot_checksum(
      reinterpret_cast<const std::uint8_t*>(json.data()), json.size());
}

class StudyGolden : public ::testing::TestWithParam<std::string> {};

TEST_P(StudyGolden, ArtifactHashMatchesPin) {
  const std::string& id = GetParam();
  const auto it = golden().find(id);
  ASSERT_NE(it, golden().end()) << "no golden pin for study " << id;
  const std::uint64_t legacy = artifact_hash(id, WarmupMode::kLegacy);
  EXPECT_EQ(legacy, it->second.first)
      << "legacy artifact of " << id << " hashes to 0x" << std::hex << legacy;
  const std::uint64_t cold = artifact_hash(id, WarmupMode::kCold);
  EXPECT_EQ(cold, it->second.second)
      << "cold artifact of " << id << " hashes to 0x" << std::hex << cold;
}

TEST(StudyGoldenTable, PinsCoverExactlyTheRegistry) {
  EXPECT_EQ(golden().size(), scenarios().size());
}

INSTANTIATE_TEST_SUITE_P(
    AllStudies, StudyGolden, ::testing::ValuesIn(study_ids()),
    [](const ::testing::TestParamInfo<std::string>& info) {
      return info.param;
    });

}  // namespace
}  // namespace btsc::runner
