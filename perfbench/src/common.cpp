#include "common.hpp"

#include <sched.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <stdexcept>
#include <string>
#include <thread>

namespace perfbench {

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

Tail tail(std::vector<double> v) {
  Tail t;
  t.samples = v.size();
  if (v.empty()) return t;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  if (n <= 10) {
    t.value = v.back();
    return t;
  }
  t.value = v[n - 11];
  t.percentile = 100.0 * static_cast<double>(n - 10) / static_cast<double>(n);
  return t;
}

std::string describe(const Tail& t) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "p%.1f of %zu samples", t.percentile,
                t.samples);
  return buf;
}

std::uint64_t fnv1a(const void* data, std::size_t n, std::uint64_t h) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ull;
  }
  return h;
}

std::uint64_t digest(const btsc::runner::SweepResult& r) {
  std::uint64_t h = fnv1a(r.id.data(), r.id.size());
  for (const auto& row : r.rows) {
    h = fnv1a(row.data(), row.size() * sizeof(double), h);
  }
  const std::uint64_t kernel[] = {
      r.kernel.timers_scheduled, r.kernel.timers_fired,
      r.kernel.timers_canceled, r.kernel.cancels_after_fire,
      r.kernel.live_at_exit};
  return fnv1a(kernel, sizeof(kernel), h);
}

bool same_rows(const std::vector<std::vector<double>>& a,
               const std::vector<std::vector<double>>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].size() != b[i].size()) return false;
    if (std::memcmp(a[i].data(), b[i].data(), a[i].size() * sizeof(double)) !=
        0) {
      return false;
    }
  }
  return true;
}

std::uint64_t replications_of(const btsc::runner::SweepResult& r) {
  // Figs. 11/12 fold an active-mode baseline point into every row, so
  // their point count is one more than the row count.
  const bool baseline = r.id == "fig11" || r.id == "fig12";
  return (r.rows.size() + (baseline ? 1 : 0)) *
         static_cast<std::uint64_t>(r.replications);
}

double peak_rss_mb() {
  // VmHWM, not getrusage's ru_maxrss: Linux carries ru_maxrss across
  // exec, so a child of a large parent would report the parent's peak.
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // the line is in kB
    }
  }
  throw std::runtime_error("peak_rss_mb: no VmHWM in /proc/self/status");
}

CpuTicks CpuTicks::now() {
  // First line: "cpu user nice system idle iowait irq softirq steal ...".
  std::ifstream stat("/proc/stat");
  std::string cpu;
  stat >> cpu;
  CpuTicks t;
  for (int field = 0; field < 8; ++field) {
    std::uint64_t v = 0;
    if (!(stat >> v)) return CpuTicks{};
    t.total += v;
    if (field == 7) t.steal = v;
  }
  return t;
}

double steal_share_since(const CpuTicks& t0) {
  const CpuTicks t1 = CpuTicks::now();
  if (t1.total <= t0.total) return 0.0;
  return static_cast<double>(t1.steal - t0.steal) /
         static_cast<double>(t1.total - t0.total);
}

int usable_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    return std::max(1, CPU_COUNT(&set));
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

void print_result(const Outcome& out) {
  std::printf("%-34s %22s  %s\n", "metric", "value", "unit");
  for (const Metric& m : out.metrics) {
    std::printf("%-34s %22.6f  %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("correct=%s attempted=%llu failed=%llu fail_ratio=%.6g\n",
              out.correct ? "true" : "false",
              static_cast<unsigned long long>(out.attempted),
              static_cast<unsigned long long>(out.failed),
              out.attempted ? static_cast<double>(out.failed) /
                                  static_cast<double>(out.attempted)
                            : 0.0);
  std::string json = std::string("{\"correct\": ") +
                     (out.correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(out.attempted) +
                     ", \"failed\": " + std::to_string(out.failed) +
                     ", \"metrics\": {";
  char buf[64];
  for (std::size_t i = 0; i < out.metrics.size(); ++i) {
    const Metric& m = out.metrics[i];
    // Non-finite values are not JSON; a metric that could not be measured
    // reads 0 and the correctness verdict carries the failure.
    const double v = std::isfinite(m.value) ? m.value : 0.0;
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    json += (i ? ", \"" : "\"") + m.name + "\": {\"value\": " + buf +
            ", \"unit\": \"" + m.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

}  // namespace perfbench
