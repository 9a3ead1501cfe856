#include "sim/tracer.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>

#include "sim/environment.hpp"

namespace btsc::sim {

VcdTracer::VcdTracer(Environment& env, const std::string& path)
    : env_(env), out_(path) {
  if (!out_) throw std::runtime_error("VcdTracer: cannot open " + path);
}

VcdTracer::~VcdTracer() { close(); }

void VcdTracer::close() {
  if (out_.is_open()) {
    flush_before(~0ull);
    if (!header_written_) write_header();
    out_.flush();
    out_.close();
  }
}

std::string VcdTracer::vcd_id(TraceId id) {
  // Printable-ASCII base-94 identifier, as customary in VCD files.
  std::string s;
  do {
    s.push_back(static_cast<char>('!' + id % 94));
    id /= 94;
  } while (id != 0);
  return s;
}

TraceId VcdTracer::declare(const std::string& name, char initial) {
  if (started_) {
    throw std::logic_error(
        "VcdTracer: declare() after tracing started (construct all modules "
        "before running)");
  }
  vars_.push_back({name, initial});
  return static_cast<TraceId>(vars_.size() - 1);
}

void VcdTracer::write_header() {
  out_ << "$date btsc simulation $end\n"
       << "$version btsc bluetooth system-level model $end\n"
       << "$timescale 1ns $end\n"
       << "$scope module top $end\n";
  for (TraceId i = 0; i < vars_.size(); ++i) {
    // Flatten hierarchical names: GTKWave accepts '.' inside identifiers.
    out_ << "$var wire 1 " << vcd_id(i) << ' ' << vars_[i].name
         << " $end\n";
  }
  out_ << "$upscope $end\n$enddefinitions $end\n";
  // Time-zero values.
  out_ << "$dumpvars\n";
  for (TraceId i = 0; i < vars_.size(); ++i) {
    out_ << vars_[i].last << vcd_id(i) << '\n';
  }
  out_ << "$end\n";
  header_written_ = true;
}

void VcdTracer::flush_before(std::uint64_t limit_ns) {
  if (pending_.empty()) return;
  // Canonical emission order: (time, id), insertion-stable within a
  // pair. Both the per-bit path and the backfilled burst path produce
  // the same (time, id, value) changes, so sorting makes the two files
  // byte-identical regardless of which order the changes arrived in.
  // The explicit seq tie-break makes the order total so plain sort
  // suffices; stable_sort's temporary buffer pairs operator new with
  // free under some allocator interpositions, which ASan rejects.
  std::sort(pending_.begin(), pending_.end(),
            [](const Pending& a, const Pending& b) {
              if (a.time_ns != b.time_ns) return a.time_ns < b.time_ns;
              if (a.id != b.id) return a.id < b.id;
              return a.seq < b.seq;
            });
  std::size_t n = 0;
  while (n < pending_.size() && pending_[n].time_ns < limit_ns) ++n;
  if (n == 0) return;
  if (!header_written_) write_header();
  for (std::size_t i = 0; i < n; ++i) {
    const Pending& p = pending_[i];
    // Only the last change of a var at an instant counts. A (time, id)
    // group never straddles the limit, so its last entry is in range.
    if (i + 1 < n && pending_[i + 1].time_ns == p.time_ns &&
        pending_[i + 1].id == p.id) {
      continue;
    }
    Var& var = vars_[p.id];
    if (var.last == p.value) continue;
    var.last = p.value;
    if (p.time_ns != last_ts_) {
      out_ << '#' << p.time_ns << '\n';
      last_ts_ = p.time_ns;
    }
    out_ << p.value << vcd_id(p.id) << '\n';
  }
  pending_.erase(pending_.begin(),
                 pending_.begin() + static_cast<std::ptrdiff_t>(n));
}

void VcdTracer::change(TraceId id, char value) {
  assert(id < vars_.size() && "VcdTracer: change on undeclared id");
  started_ = true;
  pending_.push_back({env_.now().as_ns(), id, value, pending_seq_++});
  // Entries strictly before the current instant are final (no hold is
  // open, so no backfill can still land among them); stream them out.
  if (holds_ == 0) flush_before(env_.now().as_ns());
}

void VcdTracer::change_at(TraceId id, char value, std::uint64_t time_ns) {
  assert(id < vars_.size() && "VcdTracer: change_at on undeclared id");
  assert(time_ns <= env_.now().as_ns() && "VcdTracer: backfill in the future");
  started_ = true;
  pending_.push_back({time_ns, id, value, pending_seq_++});
}

void VcdTracer::begin_hold() { ++holds_; }

void VcdTracer::end_hold() {
  assert(holds_ > 0 && "VcdTracer: unbalanced end_hold");
  if (--holds_ == 0) flush_before(env_.now().as_ns());
}

}  // namespace btsc::sim
