// Waveform tracing (VCD).
//
// Models that trace a value (the radios' RF enable lines, the channel's
// bus) declare it once and report every change with the current
// simulation time. The output is a standard IEEE 1364 VCD file loadable
// in GTKWave -- this is how the repository reproduces the waveform
// figures (Fig. 5 and Fig. 9) of the paper. Every traced value is a VCD
// scalar, so a value is one character from {0, 1, z, x}.
//
// Buffering and canonical order
// -----------------------------
// VcdTracer buffers changes and emits them in a canonical order --
// sorted by (time, id) -- once simulation time has moved past them.
// Among the changes of one var at one instant only the last counts, and
// it is emitted only if it differs from the var's previous emitted
// value: a value that is toggled and toggled back within an instant
// leaves no trace.
//
// Backfill
// --------
// The burst transport (phy::NoisyChannel) drives a whole packet as one
// run instead of one event per bit, so the traced bus transitions for
// the run's bits are generated after the fact, time-stamped from the
// run's geometry (change_at). A producer with backfill pending opens a
// *hold* (begin_hold/end_hold) so nothing at or after the run's start
// flushes before the backfill lands; the canonical order then makes the
// file byte-identical to the per-bit reference.
#pragma once

#include <cstdint>
#include <fstream>
#include <string>
#include <vector>

namespace btsc::sim {

class Environment;

/// Identifier assigned to each traced value.
using TraceId = std::uint32_t;

/// VCD file writer. Declarations must all happen before the first change
/// (i.e. construct all modules before running the simulation), which is
/// the natural elaboration-then-simulate order.
class VcdTracer {
 public:
  /// `env` provides timestamps; `path` is the output file. Throws
  /// std::runtime_error if the file cannot be opened.
  VcdTracer(Environment& env, const std::string& path);
  ~VcdTracer();

  VcdTracer(const VcdTracer&) = delete;
  VcdTracer& operator=(const VcdTracer&) = delete;

  /// Declares a scalar whose time-zero value is `initial`. Hierarchical
  /// names use '.' separators (e.g. "master.enable_rx_RF").
  TraceId declare(const std::string& name, char initial);

  /// Records a change to `value` at the current simulation time.
  void change(TraceId id, char value);

  /// Records a change at an explicit past instant. Only meaningful while
  /// a hold opened at or before `time_ns` is in effect.
  void change_at(TraceId id, char value, std::uint64_t time_ns);

  /// Brackets a window whose past instants may still receive change_at
  /// backfill. Holds nest (refcounted); nothing time-stamped inside an
  /// open hold window is emitted until the hold ends.
  void begin_hold();
  void end_hold();

  /// Flushes every buffered change (holds notwithstanding) and closes
  /// the file (also done by the destructor). Producers with backfill
  /// pending must materialise it before closing (see
  /// NoisyChannel::flush_trace_backfill).
  void close();

 private:
  struct Pending {
    std::uint64_t time_ns;
    TraceId id;
    char value;
    std::uint64_t seq;  // insertion order; makes the flush order total
  };

  struct Var {
    std::string name;
    char last;  // last emitted value
  };

  void write_header();
  /// Sorts the buffer and emits every entry with time < `limit_ns`.
  void flush_before(std::uint64_t limit_ns);
  static std::string vcd_id(TraceId id);

  Environment& env_;
  std::ofstream out_;
  std::vector<Var> vars_;
  std::vector<Pending> pending_;
  std::uint64_t pending_seq_ = 0;
  int holds_ = 0;
  bool started_ = false;  // a change has been recorded; declare() closed
  bool header_written_ = false;
  std::uint64_t last_ts_ = ~0ull;
};

}  // namespace btsc::sim
