// The timed queue: an index-tracked 4-ary min-heap ordered by
// (when, seq) over a generation-checked slab of timer nodes.
//
// Ordering
// --------
// seq is the global schedule counter, so same-time entries fire in FIFO
// order -- the determinism tiebreak every model relies on. (when, seq)
// is a total order, so dispatch is fully determined by the schedule
// sequence. Entries scheduled during the dispatch of instant t carry
// seqs larger than every live one, so popping until the instant is dry
// extends the same order.
//
// Why a heap and nothing cleverer: the models keep very few timers live
// at once. Every study's kernel_peak_heap is 6-17 entries (Figs. 6-12
// 8-9, throughput 9, coexistence 15-17, backoff 6), so a sift is two
// or three levels of a cache-resident array.
//
// Cancellation is true removal in O(log n): each node records its heap
// index, and slot generations make stale TimerIds inert. Entries stay
// queued until popped, so a callback canceling a same-instant sibling
// removes it before its turn.
//
// Checkpointing: timers scheduled through the tagged path carry a
// (kind, payload) descriptor; for_each_live() exposes every live
// entry's (owner, kind, payload, when, seq) so Environment::save_state
// can serialize the queue as re-armable descriptors, and clear() +
// set_next_seq() let restore_state rebuild it replaying the exact seq
// allocation (see docs/ARCHITECTURE.md, "Checkpoint/fork").
#pragma once

#include <cassert>
#include <cstdint>
#include <vector>

#include "sim/time.hpp"
#include "sim/unique_function.hpp"

namespace btsc::sim {

/// Handle for a scheduled one-shot callback, usable to cancel it.
/// Opaque encoding of (slab slot, generation); never 0 for a live timer.
using TimerId = std::uint64_t;
inline constexpr TimerId kInvalidTimer = 0;

/// Owned by Environment. Nodes are recycled through a free list, so
/// steady-state schedule/fire/cancel performs no heap allocation.
class TimerQueue {
 public:
  TimerQueue() = default;
  TimerQueue(const TimerQueue&) = delete;
  TimerQueue& operator=(const TimerQueue&) = delete;

  /// Schedules a one-shot callback at absolute time `when`. `owner` is
  /// an optional tag for cancel_owned(); it is never dereferenced. The
  /// callable constructs directly into the slab node (templated so no
  /// UniqueFunction temporary is moved through the call). `kind` and
  /// `payload` form the timer's re-arm descriptor: kind 0 marks an
  /// opaque (non-checkpointable) timer, any other kind promises the
  /// owner's RearmHandler can reconstruct the callback from
  /// (kind, payload) alone.
  template <typename F>
  TimerId schedule_callback(SimTime when, F&& fn, const void* owner,
                            std::uint16_t kind = 0,
                            std::uint64_t payload = 0) {
    const std::uint32_t slot = acquire_slot();
    Node& n = nodes_[slot];
    n.owner = owner;
    n.kind = kind;
    n.payload = payload;
    n.fn.emplace(std::forward<F>(fn));
    push(when, slot);
    return make_id(slot, n.gen);
  }

  /// Removes the entry in O(log n). Returns false -- and counts a
  /// cancel-after-fire -- for stale handles.
  bool cancel(TimerId id) {
    if (id == kInvalidTimer) return false;
    if (find_live(id) == nullptr) {
      ++cancels_after_fire_;
      return false;
    }
    const auto slot = static_cast<std::uint32_t>(id) - 1;
    heap_remove_at(nodes_[slot].pos);
    release_slot(slot);
    ++canceled_;
    return true;
  }

  /// Removes every live timer carrying this owner tag (O(slab) scan).
  void cancel_owned(const void* owner);

  /// True while the timer is scheduled and has neither fired nor been
  /// canceled.
  bool pending(TimerId id) const { return find_live(id) != nullptr; }

  bool empty() const { return heap_.empty(); }
  std::uint64_t live() const { return heap_.size(); }

  /// Earliest pending instant. Precondition: !empty().
  SimTime next_time() const {
    assert(!heap_.empty());
    return heap_[0].when;
  }

  /// Removes the minimum-seq entry due exactly at `t` and moves its
  /// callback out, releasing its slot before the caller dispatches --
  /// the callback may reschedule into the freed slot and its id goes
  /// stale while it runs. Returns false when nothing (remains) due at
  /// `t`.
  bool pop_due(SimTime t, UniqueFunction& fn) {
    if (heap_.empty() || heap_[0].when != t) return false;
    const std::uint32_t slot = heap_[0].slot;
    heap_remove_at(0);
    fn = std::move(nodes_[slot].fn);
    release_slot(slot);
    ++fired_;
    return true;
  }

  // ---- checkpoint support ----

  /// The seq the next schedule will be stamped with. Saved in
  /// checkpoints; set_next_seq() replays the allocation on restore
  /// (set it to a descriptor's saved seq immediately before re-arming
  /// it, and to the saved counter once every descriptor is back).
  std::uint64_t next_seq() const { return next_seq_; }
  void set_next_seq(std::uint64_t seq) { next_seq_ = seq; }

  /// Visits every live entry as f(owner, kind, payload, when, seq) in
  /// slab order (callers sort by seq for a canonical ordering).
  template <typename F>
  void for_each_live(F&& f) const {
    for (const Node& n : nodes_) {
      if (n.pos == kFree) continue;
      const HeapEntry& e = heap_[n.pos];
      f(n.owner, n.kind, n.payload, e.when, e.seq);
    }
  }

  /// Drops every entry and recycles the slab (outstanding TimerIds go
  /// stale). Does NOT touch next_seq_ or the lifetime counters -- the
  /// restore path overwrites the former and folds the latter into the
  /// usual scheduler stats.
  void clear();

  /// Lifecycle counters (mirrored into Environment::SchedulerStats).
  struct Stats {
    std::uint64_t scheduled = 0;
    std::uint64_t fired = 0;
    std::uint64_t canceled = 0;
    std::uint64_t cancels_after_fire = 0;
    std::uint64_t live = 0;
    std::uint64_t peak_live = 0;
  };
  Stats stats() const {
    return {scheduled_, fired_, canceled_, cancels_after_fire_, live(),
            peak_live_};
  }

  static constexpr std::size_t kArity = 4;

 private:
  static constexpr std::uint32_t kFree = ~std::uint32_t{0};

  /// One slab entry. `pos` is the heap index while live and kFree while
  /// on the free list (threaded through `next_free`); `gen` distinguishes
  /// reuses so stale TimerIds cannot alias a new timer.
  struct Node {
    std::uint32_t gen = 0;
    std::uint32_t pos = kFree;
    std::uint32_t next_free = kFree;
    std::uint16_t kind = 0;  // re-arm descriptor kind (0 = opaque)
    const void* owner = nullptr;
    std::uint64_t payload = 0;  // re-arm descriptor payload
    UniqueFunction fn;
  };

  /// Heap entries carry the ordering key, so sift comparisons stay
  /// inside the heap array instead of chasing slab nodes.
  struct HeapEntry {
    SimTime when;
    std::uint64_t seq;
    std::uint32_t slot;
  };

  static bool before(const HeapEntry& a, const HeapEntry& b) {
    return a.when != b.when ? a.when < b.when : a.seq < b.seq;
  }

  /// TimerId layout: generation in the high 32 bits, slot+1 in the low
  /// 32 (the +1 keeps every live id distinct from kInvalidTimer).
  static constexpr TimerId make_id(std::uint32_t slot, std::uint32_t gen) {
    return (static_cast<TimerId>(gen) << 32) |
           (static_cast<TimerId>(slot) + 1);
  }

  std::uint32_t acquire_slot() {
    const std::uint32_t slot = free_head_;
    if (slot == kFree) {
      nodes_.emplace_back();
      return static_cast<std::uint32_t>(nodes_.size() - 1);
    }
    free_head_ = nodes_[slot].next_free;
    return slot;
  }

  void release_slot(std::uint32_t slot) {
    Node& n = nodes_[slot];
    ++n.gen;  // retire every outstanding TimerId for this slot
    n.pos = kFree;
    n.fn.reset();  // destroy the captured state now, not at slot reuse
    n.next_free = free_head_;
    free_head_ = slot;
  }

  const Node* find_live(TimerId id) const {
    const std::uint32_t lo = static_cast<std::uint32_t>(id);
    if (lo == 0 || lo > nodes_.size()) return nullptr;
    const Node& n = nodes_[lo - 1];
    if (n.gen != static_cast<std::uint32_t>(id >> 32)) return nullptr;
    assert(n.pos != kFree);  // live generation => queued
    return &n;
  }

  void push(SimTime when, std::uint32_t slot) {
    ++scheduled_;
    heap_.push_back({when, next_seq_++, slot});
    if (heap_.size() > peak_live_) peak_live_ = heap_.size();
    sift_up(heap_.size() - 1);
  }

  void place(std::size_t pos, const HeapEntry& e) {
    heap_[pos] = e;
    nodes_[e.slot].pos = static_cast<std::uint32_t>(pos);
  }
  void sift_up(std::size_t pos);
  void sift_down(std::size_t pos);
  void heap_remove_at(std::size_t pos);

  std::vector<Node> nodes_;
  std::vector<HeapEntry> heap_;
  std::vector<std::uint32_t> cancel_scratch_;
  std::uint32_t free_head_ = kFree;

  std::uint64_t next_seq_ = 1;
  std::uint64_t scheduled_ = 0;
  std::uint64_t fired_ = 0;
  std::uint64_t canceled_ = 0;
  std::uint64_t cancels_after_fire_ = 0;
  std::uint64_t peak_live_ = 0;
};

}  // namespace btsc::sim
