// In-memory span recorder for the traced run.
//
// Spans are opened and closed around calls into the simulator's public
// entry points from the benchmark's own code; nothing inside the library
// is instrumented. Each span records its name, start, end, parent span
// and the trace id shared by every span of one replication or job. The
// recorder is single-threaded by design: the traced replay runs at one
// thread so that spans nest and self times are exact.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common.hpp"

namespace perfbench {

class Tracer {
 public:
  static constexpr std::uint32_t kNoParent = 0xFFFFFFFFu;

  struct Span {
    const char* name = "";
    std::uint64_t trace = 0;
    std::uint32_t parent = kNoParent;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = -1;  // -1 while open
  };

  /// Closes the span it opened when it leaves scope.
  class Scope {
   public:
    Scope(Tracer& t, const char* name) : t_(t), id_(t.begin(name)) {}
    ~Scope() { t_.end(id_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& t_;
    std::uint32_t id_;
  };

  Tracer();

  /// Every span opened from now on carries this trace id.
  void set_trace(std::uint64_t id) { trace_ = id; }

  /// Durations (seconds) of every closed span with this name.
  std::vector<double> durations(const std::string& name) const;
  /// Summed self time (duration minus the part its children cover) and
  /// span count per span name.
  struct SelfTime {
    double self_s = 0.0;
    double total_s = 0.0;
    std::uint64_t count = 0;
  };
  std::map<std::string, SelfTime> self_times() const;

  /// Writes every span as one JSON object per line.
  bool write(const std::string& path) const;

 private:
  // Only Scope opens and closes spans, so they always nest.
  std::uint32_t begin(const char* name);
  void end(std::uint32_t id);
  std::int64_t now_ns() const;

  Clock::time_point origin_;
  std::uint64_t trace_ = 0;
  std::vector<Span> spans_;
  std::vector<std::uint32_t> open_;
};

}  // namespace perfbench
