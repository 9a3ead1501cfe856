#include "trace.hpp"

#include <cstdio>

namespace perfbench {

Tracer::Tracer() : origin_(Clock::now()) { spans_.reserve(1 << 16); }

std::int64_t Tracer::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              origin_)
      .count();
}

std::uint32_t Tracer::begin(const char* name) {
  Span s;
  s.name = name;
  s.trace = trace_;
  s.parent = open_.empty() ? kNoParent : open_.back();
  s.start_ns = now_ns();
  const auto id = static_cast<std::uint32_t>(spans_.size());
  spans_.push_back(s);
  open_.push_back(id);
  return id;
}

void Tracer::end(std::uint32_t id) {
  spans_[id].end_ns = now_ns();
  open_.pop_back();
}

std::vector<double> Tracer::durations(const std::string& name) const {
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (s.end_ns >= 0 && name == s.name) {
      out.push_back(static_cast<double>(s.end_ns - s.start_ns) * 1e-9);
    }
  }
  return out;
}

std::map<std::string, Tracer::SelfTime> Tracer::self_times() const {
  // Children of one span never overlap (single thread, strict nesting),
  // so the part of a span they cover is the sum of their durations.
  std::vector<std::int64_t> child_ns(spans_.size(), 0);
  for (const Span& s : spans_) {
    if (s.end_ns >= 0 && s.parent != kNoParent) {
      child_ns[s.parent] += s.end_ns - s.start_ns;
    }
  }
  std::map<std::string, SelfTime> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.end_ns < 0) continue;
    SelfTime& t = out[s.name];
    const std::int64_t d = s.end_ns - s.start_ns;
    t.total_s += static_cast<double>(d) * 1e-9;
    t.self_s += static_cast<double>(d - child_ns[i]) * 1e-9;
    ++t.count;
  }
  return out;
}

bool Tracer::write(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "{\"id\": %zu, \"name\": \"%s\", \"trace\": %llu, "
                 "\"parent\": %lld, \"start_ns\": %lld, \"end_ns\": %lld}\n",
                 i, s.name, static_cast<unsigned long long>(s.trace),
                 s.parent == kNoParent ? -1LL
                                       : static_cast<long long>(s.parent),
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns));
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
