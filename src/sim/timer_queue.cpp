// Cold paths of the timed queue: the 4-ary heap's sift machinery, bulk
// owner cancellation and clear(). The per-event path is inline in
// timer_queue.hpp.
#include "sim/timer_queue.hpp"

#include <algorithm>

namespace btsc::sim {

void TimerQueue::sift_up(std::size_t pos) {
  const HeapEntry moving = heap_[pos];
  while (pos > 0) {
    const std::size_t parent = (pos - 1) / kArity;
    if (!before(moving, heap_[parent])) break;
    place(pos, heap_[parent]);
    pos = parent;
  }
  place(pos, moving);
}

void TimerQueue::sift_down(std::size_t pos) {
  const HeapEntry moving = heap_[pos];
  const std::size_t n = heap_.size();
  for (;;) {
    const std::size_t first = kArity * pos + 1;
    if (first >= n) break;
    std::size_t best = first;
    const std::size_t last = std::min(first + kArity, n);
    for (std::size_t c = first + 1; c < last; ++c) {
      if (before(heap_[c], heap_[best])) best = c;
    }
    if (!before(heap_[best], moving)) break;
    place(pos, heap_[best]);
    pos = best;
  }
  place(pos, moving);
}

void TimerQueue::heap_remove_at(std::size_t pos) {
  assert(pos < heap_.size());
  const std::size_t last = heap_.size() - 1;
  if (pos == last) {
    heap_.pop_back();
    return;
  }
  heap_[pos] = heap_[last];
  heap_.pop_back();
  // The displaced entry may belong above or below `pos`; both sifts end
  // by re-placing it (fixing its slab pos) even when it does not move.
  if (pos > 0 && before(heap_[pos], heap_[(pos - 1) / kArity])) {
    sift_up(pos);
  } else {
    sift_down(pos);
  }
}

void TimerQueue::cancel_owned(const void* owner) {
  if (owner == nullptr) return;
  cancel_scratch_.clear();
  for (std::uint32_t s = 0; s < nodes_.size(); ++s) {
    if (nodes_[s].pos != kFree && nodes_[s].owner == owner) {
      cancel_scratch_.push_back(s);
    }
  }
  for (const std::uint32_t s : cancel_scratch_) {
    heap_remove_at(nodes_[s].pos);
    release_slot(s);
    ++canceled_;
  }
}

void TimerQueue::clear() {
  heap_.clear();
  nodes_.clear();
  free_head_ = kFree;
}

}  // namespace btsc::sim
