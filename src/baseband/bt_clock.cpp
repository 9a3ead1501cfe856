#include "baseband/bt_clock.hpp"

namespace btsc::baseband {

NativeClock::NativeClock(sim::Environment& env, std::string name,
                         std::uint32_t initial,
                         sim::SimTime first_tick_delay)
    : Module(env, std::move(name)),
      clkn_(initial & kClockMask),
      next_(env.now() + first_tick_delay) {
  env.register_rearm(this->name(), this, this);
  arm(next_);
}

NativeClock::~NativeClock() { env().unregister_rearm(this); }

std::uint32_t NativeClock::clkn() const {
  const sim::SimTime now = env().now();
  if (now < next_) return clkn_;
  const auto passed = static_cast<std::uint32_t>((now - next_) / kTickPeriod);
  return (clkn_ + 1u + passed) & kClockMask;
}

void NativeClock::arm(sim::SimTime at) {
  armed_at_ = at;
  timer_ = env().schedule_tagged(at - env().now(), kTick, 0,
                                 [this] { tick(); }, this);
}

void NativeClock::wake() {
  const sim::SimTime now = env().now();
  sim::SimTime at = next_;
  if (now >= next_) {
    // Grid instants from next_ on are next_ + k * kTickPeriod. Once the
    // kernel has finished an instant (outside dispatch), its tick has
    // run, so an on-grid now() is already in the past.
    const sim::SimTime since = now - next_;
    std::uint64_t k = since / kTickPeriod;
    if (since % kTickPeriod != sim::SimTime::zero() ||
        !env().dispatching()) {
      ++k;
    }
    at = next_ + kTickPeriod * k;
  }
  if (timer_ != sim::kInvalidTimer) {
    if (armed_at_ <= at) return;
    env().cancel(timer_);
  }
  arm(at);
}

void NativeClock::tick() {
  timer_ = sim::kInvalidTimer;
  clkn_ = clkn();
  next_ = env().now() + kTickPeriod;
  ++tick_count_;
  std::uint32_t ahead = 1;
  if (subscriber_ != nullptr) {
    env().queue_end_of_instant(*this);
    ahead = subscriber_->ticks_until_needed(clkn_);
  }
  if (ahead != 0) arm(env().now() + kTickPeriod * ahead);
}

void NativeClock::reset_phase(std::uint32_t initial,
                              sim::SimTime first_tick_delay) {
  env().cancel(timer_);
  clkn_ = initial & kClockMask;
  next_ = env().now() + first_tick_delay;
  tick_count_ = 0;
  arm(next_);
}

void NativeClock::save_state(sim::SnapshotWriter& w) const {
  // The pending delivery, if any, is a kTick timer descriptor saved by
  // the kernel; a sleeping clock has none.
  w.begin_section(sim::snapshot_tag("CLKN"));
  w.u32(clkn_);
  w.time(next_);
  w.u64(tick_count_);
  w.end_section();
}

void NativeClock::restore_state(sim::SnapshotReader& r) {
  r.enter_section(sim::snapshot_tag("CLKN"));
  clkn_ = r.u32() & kClockMask;
  next_ = r.time();
  tick_count_ = r.u64();
  r.leave_section();
  // The kernel restore drops every construction-time timer and replays
  // the saved delivery (if any) through rearm_timer().
  timer_ = sim::kInvalidTimer;
}

void NativeClock::rearm_timer(std::uint16_t kind, std::uint64_t /*payload*/,
                              sim::SimTime when) {
  if (kind != kTick) throw sim::SnapshotError("NativeClock: unknown timer");
  arm(when);
}

}  // namespace btsc::baseband
