#include "sim/environment.hpp"

#include <algorithm>
#include <cassert>

#include "sim/snapshot.hpp"

namespace btsc::sim {

namespace {

/// Process-wide scheduler counters, folded in by ~Environment.
Environment::SchedulerTally& global_tally() {
  static Environment::SchedulerTally g;
  return g;
}

/// The tally of the innermost TallyScope on this thread, if any.
thread_local Environment::SchedulerTally* t_scope_tally = nullptr;

}  // namespace

Environment::Environment(std::uint64_t seed) : rng_(seed) {}

Environment::~Environment() {
  const SchedulerStats s = scheduler_stats();
  global_tally().add(s);
  if (t_scope_tally != nullptr) t_scope_tally->add(s);
}

void Environment::run_until(SimTime until) {
  UniqueFunction fn;
  while (!queue_.empty()) {
    const SimTime t = queue_.next_time();
    if (t > until) break;
    now_ = t;
    dispatching_ = true;
    // Pop-and-dispatch every entry due at this instant in (when, seq)
    // order. Callbacks may schedule more work at the same instant (their
    // seqs are larger than every live one, so they pop last) and may
    // cancel same-instant siblings (a canceled entry leaves the queue
    // before its turn). pop_due moves the callback out and releases the
    // slot before dispatch: the callback may schedule more timers, and
    // its slot must be reusable (and its id stale) while it runs.
    while (queue_.pop_due(t, fn)) {
      fn();
      fn.reset();
    }
    // The end-of-instant round; zero-delay timers it schedules bring the
    // loop back to this instant.
    if (!round_.empty()) run_round();
    dispatching_ = false;
  }
  if (now_ < until) now_ = until;
}

void Environment::run_round() {
  ++delta_count_;
  // Indexing (not iterators): work queued by the round itself joins it.
  for (std::size_t i = 0; i < round_.size(); ++i) {
    ++activations_;
    round_[i]->end_of_instant();
  }
  round_.clear();
}

// ---------------------------------------------------------------------------
// Checkpoint / fork
// ---------------------------------------------------------------------------

void Environment::require_settled(const char* verb) const {
  if (dispatching_) {
    throw SnapshotError(std::string("environment: cannot ") + verb +
                        " inside dispatch");
  }
}

const Environment::RearmEntry* Environment::find_rearm(
    const void* owner) const {
  for (const RearmEntry& e : rearm_entries_) {
    if (e.owner == owner) return &e;
  }
  return nullptr;
}

const Environment::RearmEntry* Environment::find_rearm(
    const std::string& name) const {
  for (const RearmEntry& e : rearm_entries_) {
    if (e.name == name) return &e;
  }
  return nullptr;
}

void Environment::register_rearm(std::string name, const void* owner,
                                 RearmHandler* handler) {
  assert(owner != nullptr && handler != nullptr);
  if (find_rearm(owner) != nullptr || find_rearm(name) != nullptr) {
    throw SnapshotError("environment: duplicate rearm registration: " + name);
  }
  rearm_entries_.push_back({std::move(name), owner, handler});
}

void Environment::unregister_rearm(const void* owner) {
  std::erase_if(rearm_entries_,
                [owner](const RearmEntry& e) { return e.owner == owner; });
}

void Environment::save_state(SnapshotWriter& w) const {
  require_settled("checkpoint");
  struct Desc {
    const std::string* name;
    std::uint16_t kind;
    std::uint64_t payload;
    SimTime when;
    std::uint64_t seq;
  };
  std::vector<Desc> descs;
  descs.reserve(queue_.live());
  queue_.for_each_live([&](const void* owner, std::uint16_t kind,
                           std::uint64_t payload, SimTime when,
                           std::uint64_t seq) {
    if (kind == 0) {
      throw SnapshotError(
          "environment: opaque (untagged) timer live at checkpoint");
    }
    const RearmEntry* e = find_rearm(owner);
    if (e == nullptr) {
      throw SnapshotError(
          "environment: live timer owner has no rearm registration");
    }
    descs.push_back({&e->name, kind, payload, when, seq});
  });
  std::sort(descs.begin(), descs.end(),
            [](const Desc& a, const Desc& b) { return a.seq < b.seq; });
  w.begin_section(snapshot_tag("ENV "));
  w.time(now_);
  for (const std::uint64_t word : rng_.state()) w.u64(word);
  w.u32(static_cast<std::uint32_t>(descs.size()));
  for (const Desc& d : descs) {
    w.str(*d.name);
    w.u16(d.kind);
    w.u64(d.payload);
    w.time(d.when);
    w.u64(d.seq);
  }
  w.u64(queue_.next_seq());
  w.end_section();
}

void Environment::restore_state(SnapshotReader& r) {
  require_settled("restore");
  r.enter_section(snapshot_tag("ENV "));
  now_ = r.time();
  std::array<std::uint64_t, 4> s;
  for (std::uint64_t& word : s) word = r.u64();
  rng_.set_state(s);
  // Construction-time timers of the fresh scaffold are superseded by the
  // saved descriptors; replaying each at its saved seq reproduces the
  // checkpointed (when, seq) dispatch total order exactly.
  queue_.clear();
  const std::uint32_t n = r.u32();
  for (std::uint32_t i = 0; i < n; ++i) {
    const std::string name = r.str();
    const std::uint16_t kind = r.u16();
    const std::uint64_t payload = r.u64();
    const SimTime when = r.time();
    const std::uint64_t seq = r.u64();
    if (when < now_) throw SnapshotError("environment: timer in the past");
    const RearmEntry* e = find_rearm(name);
    if (e == nullptr) {
      throw SnapshotError("environment: no rearm registration for \"" + name +
                          "\" in the restored scenario");
    }
    queue_.set_next_seq(seq);
    e->handler->rearm_timer(kind, payload, when);
    if (queue_.next_seq() != seq + 1) {
      throw SnapshotError(
          "environment: rearm handler for \"" + name +
          "\" did not schedule exactly one timer (kind " +
          std::to_string(kind) + ")");
    }
  }
  queue_.set_next_seq(r.u64());
  r.leave_section();
}

// ---------------------------------------------------------------------------
// Diagnostics
// ---------------------------------------------------------------------------

std::uint64_t Environment::heap_depth(std::uint64_t n) {
  std::uint64_t depth = 0, capacity = 0, level = 1;
  while (capacity < n) {
    capacity += level;
    level *= TimerQueue::kArity;
    ++depth;
  }
  return depth;
}

Environment::SchedulerStats Environment::scheduler_stats() const {
  const TimerQueue::Stats q = queue_.stats();
  SchedulerStats s;
  s.scheduled = q.scheduled;
  s.fired = q.fired;
  s.canceled = q.canceled;
  s.cancels_after_fire = q.cancels_after_fire;
  s.live = q.live;
  s.peak_live = q.peak_live;
  s.peak_depth = heap_depth(q.peak_live);
  return s;
}

void Environment::SchedulerTally::add(const SchedulerStats& s) {
  scheduled_.fetch_add(s.scheduled, std::memory_order_relaxed);
  fired_.fetch_add(s.fired, std::memory_order_relaxed);
  canceled_.fetch_add(s.canceled, std::memory_order_relaxed);
  cancels_after_fire_.fetch_add(s.cancels_after_fire,
                                std::memory_order_relaxed);
  live_.fetch_add(s.live, std::memory_order_relaxed);
  std::uint64_t cur = peak_live_.load(std::memory_order_relaxed);
  while (cur < s.peak_live &&
         !peak_live_.compare_exchange_weak(cur, s.peak_live,
                                           std::memory_order_relaxed)) {
  }
}

Environment::SchedulerStats Environment::SchedulerTally::total() const {
  SchedulerStats s;
  s.scheduled = scheduled_.load(std::memory_order_relaxed);
  s.fired = fired_.load(std::memory_order_relaxed);
  s.canceled = canceled_.load(std::memory_order_relaxed);
  s.cancels_after_fire = cancels_after_fire_.load(std::memory_order_relaxed);
  s.live = live_.load(std::memory_order_relaxed);
  s.peak_live = peak_live_.load(std::memory_order_relaxed);
  s.peak_depth = heap_depth(s.peak_live);
  return s;
}

Environment::SchedulerStats Environment::global_scheduler_stats() {
  return global_tally().total();
}

Environment::TallyScope::TallyScope(SchedulerTally* tally)
    : prev_(t_scope_tally) {
  t_scope_tally = tally;
}

Environment::TallyScope::~TallyScope() { t_scope_tally = prev_; }

}  // namespace btsc::sim
