// The Bluetooth native clock (CLKN).
//
// A free-running 28-bit counter ticking at 3.2 kHz (every 312.5 us), i.e.
// twice per 625 us time slot: bit 0 distinguishes the two half slots, bit
// 1 the master-to-slave vs slave-to-master slot, and the counter wraps
// roughly once a day. Every device owns an independent CLKN with its own
// start value; the piconet clock CLK of a slave is CLKN plus an offset
// learned during paging.
//
// The counter is demand-driven: clkn() is computed from the value the
// last delivered tick set, the next grid instant and now(), and the
// subscriber (a TickSubscriber) is called only at the grid instants it
// asks for, in the kernel's end-of-instant round. At most one delivery
// timer is pending; a sleeping clock has none. See docs/ARCHITECTURE.md
// "Demand-driven clock".
#pragma once

#include <cstdint>
#include <string>

#include "sim/module.hpp"
#include "sim/snapshot.hpp"
#include "sim/time.hpp"
#include "sim/timer_queue.hpp"

namespace btsc::baseband {

inline constexpr std::uint32_t kClockMask = 0x0FFFFFFFu;  // 28 bits
/// Native clock tick period: 312.5 us (half a time slot).
inline constexpr sim::SimTime kTickPeriod = sim::SimTime::ns(312'500);
/// One time slot: 625 us.
inline constexpr sim::SimTime kSlotDuration = sim::SimTime::us(625);

/// The clock's subscriber: decides which ticks are worth delivering and
/// runs on each delivered one.
class TickSubscriber {
 public:
  /// Asked while the tick that set CLKN to `clkn` is delivered, at its
  /// timer (before on_tick runs): how many ticks ahead the next tick it
  /// needs is (1 = the very next one), or 0 to sleep until
  /// NativeClock::wake(). Answering 1 is always safe; a larger answer
  /// promises that the ticks in between would do nothing.
  virtual std::uint32_t ticks_until_needed(std::uint32_t clkn) const = 0;

  /// Runs in the end-of-instant round of a delivered tick's instant,
  /// after every timer due there, with clkn() counting the tick.
  virtual void on_tick() = 0;

 protected:
  ~TickSubscriber() = default;
};

class NativeClock final : public sim::Module,
                          public sim::Snapshotable,
                          public sim::RearmHandler,
                          private sim::InstantEnd {
 public:
  /// The counter starts at `initial`; the first increment happens
  /// `first_tick_delay` from now (use a random phase to model
  /// unsynchronised devices), and that first tick is delivered.
  NativeClock(sim::Environment& env, std::string name,
              std::uint32_t initial = 0,
              sim::SimTime first_tick_delay = kTickPeriod);
  ~NativeClock() override;

  /// Current native clock value: counts every grid instant up to and
  /// including now(), delivered or not.
  std::uint32_t clkn() const;

  /// Value of CLKN bit `i`.
  bool bit(int i) const { return (clkn() >> i) & 1u; }

  /// Installs the subscriber (nullptr: none, and every tick is
  /// delivered to nobody). Not owned; must outlive its installation.
  void set_subscriber(TickSubscriber* s) { subscriber_ = s; }

  /// Re-arms delivery at the first grid instant whose tick has not yet
  /// run: now() itself when it is on the grid and the kernel is still
  /// dispatching that instant (its tick then runs in a later round of
  /// the same instant), otherwise the next one. A later pending delivery
  /// is pulled back; an earlier or equal one is kept.
  void wake();

  /// Ticks delivered so far (elided ticks are not counted).
  std::uint64_t ticks() const { return tick_count_; }

  /// Re-randomisation hook for forked replications: drops the pending
  /// delivery, restarts the counter at `initial` and the phase at
  /// `first_tick_delay` from the current time -- the same state a fresh
  /// construction with these arguments would have.
  void reset_phase(std::uint32_t initial, sim::SimTime first_tick_delay);

  // Snapshotable
  void save_state(sim::SnapshotWriter& w) const override;
  void restore_state(sim::SnapshotReader& r) override;

  // RearmHandler
  void rearm_timer(std::uint16_t kind, std::uint64_t payload,
                   sim::SimTime when) override;

 private:
  /// Timer descriptor kinds (see schedule_tagged).
  enum Kind : std::uint16_t { kTick = 1 };

  void arm(sim::SimTime at);
  void tick();
  // InstantEnd: hands the delivered tick to the subscriber.
  void end_of_instant() override { subscriber_->on_tick(); }

  /// CLKN as set by the tick at next_ - kTickPeriod.
  std::uint32_t clkn_;
  /// First grid instant whose tick has not been delivered.
  sim::SimTime next_;
  /// The one pending delivery (kInvalidTimer while asleep) and its instant.
  sim::TimerId timer_ = sim::kInvalidTimer;
  sim::SimTime armed_at_ = sim::SimTime::zero();
  TickSubscriber* subscriber_ = nullptr;
  std::uint64_t tick_count_ = 0;
};

/// Signed clock arithmetic helper: offset such that
/// (clkn + offset) & mask == target.
constexpr std::uint32_t clock_offset(std::uint32_t clkn,
                                     std::uint32_t target) {
  return (target - clkn) & kClockMask;
}

}  // namespace btsc::baseband
