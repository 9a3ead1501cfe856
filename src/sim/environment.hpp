// The simulation environment: timed queue, end-of-instant round and
// kernel services.
//
// Scheduling
// ----------
// The kernel has one scheduling primitive, the timed one-shot callback,
// plus one narrow hook. run_until() claims the earliest pending instant
// t, then:
//
//   1. timers : pops and runs every timer due at t in (when, seq) order,
//               including zero-delay timers those callbacks schedule;
//   2. round  : runs the end-of-instant round -- every InstantEnd queued
//               at t (queue_end_of_instant), in queue order;
//   3. repeat : if the round scheduled zero-delay timers, they run next
//               (step 1 again at the same t); otherwise time advances.
//
// The round is how the native clocks deliver their ticks (see
// baseband/bt_clock.hpp): a tick's subscriber runs after every timer
// due at its instant, so it observes the instant's settled state. Both
// steps run with dispatching() true.
//
// Timed queue
// -----------
// All timed work lives in a sim::TimerQueue (sim/timer_queue.hpp): a
// 4-ary min-heap over a slot/generation slab. Dispatch follows the
// (when, seq) total order -- seq is a global schedule counter, so
// same-time entries fire in FIFO order, the determinism tiebreak every
// model relies on. Cancellation is true removal: a canceled timer leaves
// no dead entry behind, so idle() is exact, run_until() never visits the
// timestamp of a fully-canceled instant, and queue memory is reclaimed
// immediately. TimerId handles encode (slot, generation); a stale handle
// -- cancel after fire -- is recognised and ignored.
//
// Callbacks are sim::UniqueFunction (sim/unique_function.hpp): move-only
// with a 48-byte inline buffer, so steady-state scheduling performs zero
// heap allocations end to end -- no std::function capture allocation, no
// queue-node allocation (slab free list), no control-structure growth.
//
// Timers may carry an owner tag (see schedule()); cancel_owned() removes
// every live timer of one owner in a single call, which is how module
// state machines drop all their pending deferred actions on a state
// change without epoch-counter workarounds.
//
// The environment also owns the tracer (optional VCD output) and the root
// random stream, so a whole simulation is reproducible from one seed.
// Model code draws from rng() directly; the channel noise runs on its own
// stream derived from seed() (see phy::NoisyChannel).
#pragma once

#include <atomic>
#include <cassert>
#include <cstdint>
#include <string>
#include <vector>

#include "sim/rng.hpp"
#include "sim/time.hpp"
#include "sim/timer_queue.hpp"
#include "sim/unique_function.hpp"

namespace btsc::sim {

class RearmHandler;
class SnapshotReader;
class SnapshotWriter;
class VcdTracer;

/// Work queued for the end-of-instant round (see the header comment and
/// Environment::queue_end_of_instant).
class InstantEnd {
 public:
  virtual void end_of_instant() = 0;

 protected:
  ~InstantEnd() = default;
};

class Environment {
 public:
  explicit Environment(std::uint64_t seed = 1);
  ~Environment();

  Environment(const Environment&) = delete;
  Environment& operator=(const Environment&) = delete;

  // ---- time ----
  SimTime now() const { return now_; }

  /// Runs until the timed queue is exhausted or `until` is reached
  /// (whichever comes first). Time ends up at min(until, last event).
  /// Every instant it claims is finished -- timers and round -- before
  /// it returns, so nothing is ever pending at now() between runs
  /// except timers scheduled there since.
  void run_until(SimTime until);

  /// Runs for `duration` from the current time.
  void run(SimTime duration) { run_until(now_ + duration); }

  /// True if nothing remains to execute. Canceled timers are physically
  /// removed from the queue, so they never hold this false.
  bool idle() const { return queue_.empty(); }

  /// Queues `w` for the end-of-instant round at now(): its
  /// end_of_instant() runs after every timer due at this instant has
  /// fired, in queue order. Only valid while dispatching (a timer
  /// callback queues it); `w` must stay alive until it has run.
  void queue_end_of_instant(InstantEnd& w) {
    assert(dispatching_);
    round_.push_back(&w);
  }

  /// Schedules a one-shot callback at now()+delay.
  /// Returns a TimerId that can be passed to cancel(). `owner` is an
  /// optional tag for bulk cancellation via cancel_owned(); it is never
  /// dereferenced. The callback becomes a move-only UniqueFunction,
  /// constructed directly in the timer slab: captures up to 48 bytes
  /// are stored inline, so scheduling performs no heap allocation.
  template <typename F>
  TimerId schedule(SimTime delay, F&& fn, const void* owner = nullptr) {
    return queue_.schedule_callback(now_ + delay, std::forward<F>(fn), owner);
  }

  /// Schedules a re-armable one-shot callback at now()+delay. Identical
  /// dispatch semantics to schedule(), but the timer additionally
  /// carries a (kind, payload) descriptor (kind != 0) under an owner
  /// that has a RearmHandler registered (register_rearm): save_state()
  /// serializes the timer as that descriptor instead of its closure,
  /// and restore_state() re-creates it through the handler. Every timer
  /// that can be live at a checkpoint boundary must be scheduled
  /// through this path -- save_state() throws on plain schedule()d
  /// timers.
  template <typename F>
  TimerId schedule_tagged(SimTime delay, std::uint16_t kind,
                          std::uint64_t payload, F&& fn, const void* owner) {
    assert(owner != nullptr);
    assert(kind != 0);
    return queue_.schedule_callback(now_ + delay, std::forward<F>(fn), owner,
                                    kind, payload);
  }

  /// Cancels a previously scheduled callback: removes its queue entry in
  /// O(log n). Safe (and a no-op) after the callback fired or for
  /// kInvalidTimer -- slot generations make stale handles inert even
  /// when the slot has been reused by a later timer.
  void cancel(TimerId id) { queue_.cancel(id); }

  /// Cancels every live timer scheduled with this owner tag. O(n) scan of
  /// the timer slab plus O(log n) per removal; nullptr is a no-op.
  void cancel_owned(const void* owner) { queue_.cancel_owned(owner); }

  /// True while the timer is scheduled and has neither fired nor been
  /// canceled.
  bool pending(TimerId id) const { return queue_.pending(id); }

  // ---- services ----
  Rng& rng() { return rng_; }
  /// The construction seed, root of private streams (the channel noise).
  std::uint64_t seed() const { return seed_; }

  /// Attaches a VCD tracer (nullptr detaches). The environment does not
  /// own the tracer; it must outlive the simulation.
  void set_tracer(VcdTracer* t) { tracer_ = t; }
  VcdTracer* tracer() const { return tracer_; }

  /// True while the kernel is dispatching an instant: running its timed
  /// callbacks or its end-of-instant round. Model code uses this to decide
  /// whether an instant that equals now() has already been claimed by
  /// the queue: outside dispatch (between run() calls) every entry at
  /// <= now() has fired; inside dispatch, same-instant entries may still
  /// be pending. The burst transport's lazy catch-up boundaries depend
  /// on this distinction.
  bool dispatching() const { return dispatching_; }

  // ---- checkpoint / fork ----

  /// Registers `owner` as a re-armable timer source under a stable
  /// hierarchical name (its module name). The name -- not the pointer --
  /// is what snapshots carry, so a restored twin of the scenario maps
  /// saved descriptors back to its own instances. Throws SnapshotError
  /// on a duplicate name or owner. The handler must stay valid until
  /// unregister_rearm(owner).
  void register_rearm(std::string name, const void* owner,
                      RearmHandler* handler);
  void unregister_rearm(const void* owner);

  /// Serializes the kernel state: now, the RNG stream, and every
  /// pending timer as a re-armable (owner-name, kind, payload, when,
  /// seq) descriptor, in seq order, plus the seq allocator. Must be
  /// called between run() calls; throws SnapshotError from inside
  /// dispatch, or if any live timer is untagged (kind 0) or has no
  /// registered owner.
  void save_state(SnapshotWriter& w) const;

  /// Counterpart of save_state() into a freshly constructed twin:
  /// restores now and the RNG, drops every construction-time timer, and
  /// replays the saved descriptors through their owners' RearmHandlers
  /// in saved-seq order, reproducing the exact (when, seq) dispatch
  /// total order of the checkpointed run. Module state must already be
  /// restored when this runs (handlers read it to rebuild callbacks).
  void restore_state(SnapshotReader& r);

  // ---- diagnostics ----
  /// End-of-instant rounds run, and InstantEnd calls made in them.
  std::uint64_t delta_count() const { return delta_count_; }
  std::uint64_t process_activations() const { return activations_; }

  /// Timed-queue health counters. With true cancellation the queue holds
  /// live entries only, so `live` is the exact amount of pending timed
  /// work (the old kernel's dead-entry population is structurally zero;
  /// `canceled` counts the entries that would have rotted there).
  struct SchedulerStats {
    /// Timed-queue inserts.
    std::uint64_t scheduled = 0;
    /// Entries popped and dispatched at their instant.
    std::uint64_t fired = 0;
    /// Live entries physically removed by cancel()/cancel_owned().
    std::uint64_t canceled = 0;
    /// cancel() calls that found nothing (already fired / stale handle).
    std::uint64_t cancels_after_fire = 0;
    /// Always 0: the slot-grid timing wheel it counted is gone. Kept only
    /// because perfbench/src/layers.cpp still reads it for
    /// sim.wheel_hit_ratio; it goes with the next benchmark revision.
    std::uint64_t wheel_hits = 0;
    /// Current live timed entries (for the global aggregate: entries
    /// still live when their environment was destroyed).
    std::uint64_t live = 0;
    /// High-water live-entry count.
    std::uint64_t peak_live = 0;
    /// Levels the 4-ary heap spans at peak_live entries.
    std::uint64_t peak_depth = 0;
  };
  SchedulerStats scheduler_stats() const;

  /// Running aggregate of destroyed environments' scheduler counters:
  /// counters are summed, peak_live is the maximum (so the aggregate is
  /// independent of destruction order and thread interleaving).
  /// Thread-safe.
  class SchedulerTally {
   public:
    void add(const SchedulerStats& s);
    SchedulerStats total() const;

   private:
    std::atomic<std::uint64_t> scheduled_{0};
    std::atomic<std::uint64_t> fired_{0};
    std::atomic<std::uint64_t> canceled_{0};
    std::atomic<std::uint64_t> cancels_after_fire_{0};
    std::atomic<std::uint64_t> live_{0};
    std::atomic<std::uint64_t> peak_live_{0};
  };

  /// Process-wide aggregate over all destroyed environments.
  static SchedulerStats global_scheduler_stats();

  /// While in scope, every Environment destroyed on this thread also
  /// folds its counters into `tally` (besides the process-wide
  /// aggregate). The sweep engine installs one per replication so that
  /// concurrent sweeps in one process each count only their own kernels.
  /// Scopes nest; the tally must outlive the scope.
  class TallyScope {
   public:
    explicit TallyScope(SchedulerTally* tally);
    ~TallyScope();
    TallyScope(const TallyScope&) = delete;
    TallyScope& operator=(const TallyScope&) = delete;

   private:
    SchedulerTally* prev_;
  };

 private:
  void run_round();
  static std::uint64_t heap_depth(std::uint64_t n);
  void require_settled(const char* verb) const;

  struct RearmEntry {
    std::string name;
    const void* owner;
    RearmHandler* handler;
  };
  const RearmEntry* find_rearm(const void* owner) const;
  const RearmEntry* find_rearm(const std::string& name) const;

  SimTime now_ = SimTime::zero();
  TimerQueue queue_;
  /// The end-of-instant round queued at now_; empty between instants.
  std::vector<InstantEnd*> round_;
  std::vector<RearmEntry> rearm_entries_;
  std::uint64_t seed_;
  Rng rng_;
  VcdTracer* tracer_ = nullptr;
  bool dispatching_ = false;
  std::uint64_t delta_count_ = 0;
  std::uint64_t activations_ = 0;
};

}  // namespace btsc::sim
