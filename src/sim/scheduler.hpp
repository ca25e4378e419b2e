// Discrete-event scheduler: the heart of the simulation.
//
// Events are (time, sequence, callback) triples ordered by a binary
// min-heap; ties on time break by insertion sequence so execution order is
// deterministic. Timers are cancellable through generation-checked
// handles, which protocol code uses heavily (every heartbeat /
// fault-detection / discovery timeout is a Timer).
//
// Hot-path design (this is the bottleneck of every bench and chaos run):
//   * Callbacks live in a slab of recycled nodes. Scheduling takes a node
//     off the free list and pushes a 24-byte entry onto the heap — no
//     shared_ptr control block, and no std::function heap allocation for
//     captures up to util::SmallFn::kInlineCapacity bytes.
//   * TimerHandle is a (scheduler, slot, generation) triple. cancel() is
//     O(1): it releases the node immediately (running the capture's
//     destructor, so resources are freed at cancel time) and bumps the
//     slot generation; the stale heap entry is lazily discarded when it
//     surfaces, never sifted out. A handle therefore must not outlive its
//     Scheduler — true everywhere in this codebase, where components hold
//     a reference to the scheduler that schedules for them.
//   * When stale entries dominate the heap it is compacted in one O(n)
//     sweep, so cancel-heavy workloads (heartbeat timers that are armed
//     and re-armed forever) stay bounded.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "sim/time.hpp"
#include "util/assert.hpp"
#include "util/small_fn.hpp"

namespace wam::sim {

class Scheduler;

/// Cancellable handle to a scheduled event. Default-constructed handles are
/// inert; cancel() after the event fired is a harmless no-op. Copyable:
/// every copy observes the same fire/cancel state via the slot generation.
class TimerHandle {
 public:
  TimerHandle() = default;

  void cancel();
  [[nodiscard]] bool pending() const;

 private:
  friend class Scheduler;
  TimerHandle(Scheduler* sched, std::uint32_t slot, std::uint32_t gen)
      : sched_(sched), slot_(slot), gen_(gen) {}

  Scheduler* sched_ = nullptr;
  std::uint32_t slot_ = 0;
  std::uint32_t gen_ = 0;
};

class Scheduler {
 public:
  Scheduler() = default;
  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  [[nodiscard]] TimePoint now() const { return now_; }

  /// Schedule `fn` to run at now()+delay (delay may be zero; negative delays
  /// are clamped to zero). Returns a cancellable handle.
  TimerHandle schedule(Duration delay, util::SmallFn fn);
  TimerHandle schedule_at(TimePoint when, util::SmallFn fn);

  /// Run events until the queue is empty or the virtual clock would pass
  /// `deadline`. The clock ends at min(deadline, last event time).
  void run_until(TimePoint deadline);
  /// Run for a span of virtual time from now().
  void run_for(Duration span) { run_until(now_ + span); }
  /// Drain every queued event (careful with self-rearming timers).
  void run_all();
  /// Execute the single next event, if any. Returns false when idle.
  bool step();

  /// Live (scheduled, not cancelled, not yet fired) events.
  [[nodiscard]] std::size_t pending_events() const { return live_; }
  [[nodiscard]] std::uint64_t executed_events() const { return executed_; }
  /// Nodes currently in the slab (live + free-listed); observability for
  /// tests and benches pinning the no-allocation steady state.
  [[nodiscard]] std::size_t slab_size() const { return slab_.size(); }

 private:
  friend class TimerHandle;

  struct Node {
    util::SmallFn fn;
    std::uint32_t gen = 0;        // bumped on fire/cancel; validates handles
    std::uint32_t next_free = 0;  // free-list link (kNil when live)
  };
  /// Heap entry: everything ordering needs, nothing else, so sift
  /// operations move 24 bytes instead of a std::function.
  struct Entry {
    TimePoint when;
    std::uint64_t seq;
    std::uint32_t slot;
    std::uint32_t gen;
  };

  static constexpr std::uint32_t kNil = 0xffffffffu;

  /// std::push_heap/pop_heap comparator (max-heap inverted to a min-heap):
  /// true when `a` runs after `b`. seq is unique, so the order is total
  /// and execution stays byte-for-byte deterministic. A functor rather
  /// than a function so the sift loops inline the comparison.
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const {
      if (a.when != b.when) return a.when > b.when;
      return a.seq > b.seq;
    }
  };

  [[nodiscard]] std::uint32_t acquire_slot();
  void release_slot(std::uint32_t slot);
  void cancel_slot(std::uint32_t slot, std::uint32_t gen);
  [[nodiscard]] bool slot_pending(std::uint32_t slot, std::uint32_t gen) const;
  [[nodiscard]] bool entry_live(const Entry& e) const {
    return slab_[e.slot].gen == e.gen;
  }
  void push_entry(const Entry& e);
  void pop_entry();
  void compact();

  TimePoint now_{};
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_ = 0;
  std::size_t live_ = 0;
  std::vector<Node> slab_;
  std::uint32_t free_head_ = kNil;
  std::vector<Entry> heap_;  // binary min-heap on (when, seq)
};

// ---- Hot path, defined inline ----
//
// schedule/step and the slot bookkeeping are the innermost loop of every
// simulation (bench_micro_core measures them directly); keeping them in
// the header lets each caller inline the slab fast path.

inline void TimerHandle::cancel() {
  if (sched_ != nullptr) sched_->cancel_slot(slot_, gen_);
}

inline bool TimerHandle::pending() const {
  return sched_ != nullptr && sched_->slot_pending(slot_, gen_);
}

inline std::uint32_t Scheduler::acquire_slot() {
  if (free_head_ != kNil) {
    std::uint32_t slot = free_head_;
    free_head_ = slab_[slot].next_free;
    slab_[slot].next_free = kNil;
    return slot;
  }
  slab_.emplace_back();
  slab_.back().next_free = kNil;
  return static_cast<std::uint32_t>(slab_.size() - 1);
}

inline void Scheduler::release_slot(std::uint32_t slot) {
  Node& n = slab_[slot];
  n.fn.reset();  // run capture destructors now, not at heap-pop time
  ++n.gen;       // invalidates every outstanding handle and heap entry
  n.next_free = free_head_;
  free_head_ = slot;
  --live_;
}

inline void Scheduler::cancel_slot(std::uint32_t slot, std::uint32_t gen) {
  if (slot >= slab_.size() || slab_[slot].gen != gen) return;  // already done
  release_slot(slot);
  // The heap entry stays behind (lazy deletion); discard en masse if the
  // queue is now mostly stale so cancel-heavy phases stay bounded.
  if (heap_.size() > 64 && heap_.size() > 2 * live_) compact();
}

inline bool Scheduler::slot_pending(std::uint32_t slot,
                                    std::uint32_t gen) const {
  return slot < slab_.size() && slab_[slot].gen == gen;
}

inline void Scheduler::push_entry(const Entry& e) {
  heap_.push_back(e);
  std::push_heap(heap_.begin(), heap_.end(), Later{});
}

inline void Scheduler::pop_entry() {
  std::pop_heap(heap_.begin(), heap_.end(), Later{});
  heap_.pop_back();
}

inline TimerHandle Scheduler::schedule(Duration delay, util::SmallFn fn) {
  if (delay < kZero) delay = kZero;
  return schedule_at(now_ + delay, std::move(fn));
}

inline TimerHandle Scheduler::schedule_at(TimePoint when, util::SmallFn fn) {
  WAM_EXPECTS(static_cast<bool>(fn));
  if (when < now_) when = now_;
  std::uint32_t slot = acquire_slot();
  Node& n = slab_[slot];
  n.fn = std::move(fn);
  Entry e{when, next_seq_++, slot, n.gen};
  push_entry(e);
  ++live_;
  return TimerHandle(this, slot, e.gen);
}

inline bool Scheduler::step() {
  while (!heap_.empty()) {
    Entry e = heap_.front();
    pop_entry();
    if (!entry_live(e)) continue;  // cancelled: lazy deletion
    WAM_ASSERT(e.when >= now_);
    now_ = e.when;
    // Move the callback out and recycle the node *before* invoking: the
    // callback may schedule (reusing this very slot) or cancel reentrantly,
    // and a cancel of its own handle must be the documented no-op.
    util::SmallFn fn = std::move(slab_[e.slot].fn);
    release_slot(e.slot);
    ++executed_;
    fn();
    return true;
  }
  return false;
}

}  // namespace wam::sim
