// Test helper: a sweep's JSON artifact with the kernel_* telemetry
// removed. The timed-queue counters legitimately differ between runs
// that produce identical results (a fork schedules fewer timers than a
// re-run warm-up; tick elision changes them outright), so byte-identity
// checks cover the results and the result-defining metadata only --
// exactly what the ci.sh gates compare after strip_kernel_meta.
#pragma once

#include <sstream>
#include <string>
#include <vector>

#include "core/report.hpp"
#include "runner/scenarios.hpp"

namespace btsc::runner {

inline std::string to_json_sans_kernel_meta(const SweepResult& result) {
  std::ostringstream os;
  core::JsonReporter reporter(os);
  write_result(result, reporter);
  std::string s = os.str();
  std::size_t pos;
  while ((pos = s.find("\"kernel_")) != std::string::npos) {
    const std::size_t start = s.rfind(", ", pos);         // preceding comma
    const std::size_t colon = s.find(": \"", pos);        // value opener
    const std::size_t end = s.find('"', colon + 3);       // value closer
    s.erase(start, end + 1 - start);
  }
  return s;
}

/// The --max-points of a reduced test sweep that still emits a complete
/// row: 2 points, except throughput, whose rows are 6 packet-type cells
/// wide (a cut mid-row drops the partial row).
inline int small_max_points(const std::string& id) {
  return id == "throughput" ? 6 : 2;
}

/// Every registered study id, in registry order (test parameters).
inline std::vector<std::string> study_ids() {
  std::vector<std::string> ids;
  for (const ScenarioInfo& s : scenarios()) ids.push_back(s.id);
  return ids;
}

}  // namespace btsc::runner
