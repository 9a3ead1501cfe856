// Shared plumbing of the btsc benchmark: timing, order statistics, result
// digests and the one-line JSON result the runner prints last.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "runner/scenarios.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Host seconds elapsed since `t0`.
double since(Clock::time_point t0);

/// Median of `v` (mean of the two middle values for an even count); 0 for
/// an empty vector.
double median(std::vector<double> v);

/// The highest percentile with at least ten samples beyond it: the
/// (n-10)-th order statistic. With ten samples or fewer there is no such
/// percentile and the maximum stands in (percentile 100).
struct Tail {
  double value = 0.0;
  double percentile = 100.0;
  std::size_t samples = 0;
};
Tail tail(std::vector<double> v);

/// "p75.0 of 41 samples" -- names the percentile a Tail reports.
std::string describe(const Tail& t);

/// FNV-1a over raw bytes, chained through `h`.
std::uint64_t fnv1a(const void* data, std::size_t n,
                    std::uint64_t h = 0xcbf29ce484222325ull);

/// Digest of a sweep's result rows plus its deterministic kernel
/// counters. Row doubles are hashed bit for bit; the process-lifetime
/// high-water marks (peak_heap, peak_depth) are left out because they
/// depend on what ran earlier in the process.
std::uint64_t digest(const btsc::runner::SweepResult& r);

/// Row-for-row bitwise equality of two tables.
bool same_rows(const std::vector<std::vector<double>>& a,
               const std::vector<std::vector<double>>& b);

/// Replications a sweep ran: points x replications per point.
std::uint64_t replications_of(const btsc::runner::SweepResult& r);

/// Peak resident set of this process, in MiB.
double peak_rss_mb();

/// CPUs this process may run on (what `nproc` prints).
int usable_cpus();

/// Machine-wide CPU time from /proc/stat, to tell how much of a timed
/// phase the hypervisor stole from this host (printed, not a metric).
struct CpuTicks {
  std::uint64_t steal = 0;
  std::uint64_t total = 0;
  static CpuTicks now();
};
/// Share of all CPU time since `t0` that was stolen (0 when unknown).
double steal_share_since(const CpuTicks& t0);

/// One reported metric.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What a run reports: the correctness verdict, the operation counts and
/// the metrics, printed by print_result() as the last line of stdout.
struct Outcome {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;

  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
};

/// Prints the human-readable metric table and then the single-line JSON
/// result object (always the last line of stdout).
void print_result(const Outcome& out);

}  // namespace perfbench
