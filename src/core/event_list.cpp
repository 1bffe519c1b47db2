#include "core/event_list.hpp"

#include "core/check.hpp"
#include "core/env.hpp"

namespace mpsim {

const char* to_string(SchedulerKind kind) {
  switch (kind) {
    case SchedulerKind::kAuto: return "auto";
    case SchedulerKind::kHeap: return "heap";
    case SchedulerKind::kWheel: return "wheel";
    case SchedulerKind::kAdaptive: return "adaptive";
  }
  return "?";
}

SchedulerKind EventList::default_scheduler() {
  static const SchedulerKind kind = [] {
    const std::string s = env::env_choice("MPSIM_SCHEDULER", "adaptive",
                                          {"adaptive", "wheel", "heap"});
    if (s == "heap") return SchedulerKind::kHeap;
    if (s == "wheel") return SchedulerKind::kWheel;
    return SchedulerKind::kAdaptive;
  }();
  return kind;
}

EventList::EventList(SchedulerKind kind) {
  if (kind == SchedulerKind::kAuto) kind = default_scheduler();
  mode_ = kind;
  // kAdaptive starts on the heap: simulations begin sparse (topology
  // construction schedules a handful of timers) and the first high-water
  // crossing migrates to a wheel. Constructors are cold by definition, so
  // no allocation suppression is needed here under hot-range linting.
  if (kind == SchedulerKind::kWheel) wheel_ = std::make_unique<TimingWheel>();
}

void EventList::set_adaptive_policy(std::size_t high, std::size_t low,
                                    std::uint64_t cooldown) {
  MPSIM_CHECK(high > low, "adaptive hysteresis needs high > low");
  high_water_ = high;
  low_water_ = low;
  cooldown_ = cooldown;
}

void EventList::switch_to_wheel() {
  MPSIM_CHECK(!wheel_, "already on the wheel backend");
  // Anchor the fresh wheel at the current clock so near-term entries land
  // on level 0. The heap drains in (time, seq) order; per-slot seqs may
  // arrive out of order (a slot spans many times at higher levels), which
  // the wheel's lazy slot sort absorbs.
  // mpsim-lint: allow(arena-discipline) — once per migration, not per event
  wheel_ = std::make_unique<TimingWheel>(static_cast<std::uint64_t>(now_));
  while (!heap_.empty()) {
    const Entry& e = heap_.top();
    wheel_->schedule(e.time, e.seq, e.src);
    heap_.pop();
  }
  ++switches_;
  last_switch_processed_ = processed_;
}

void EventList::switch_to_heap() {
  MPSIM_CHECK(wheel_, "already on the heap backend");
  std::vector<Entry> keep;
  std::vector<TimingWheel::Entry> pending;
  wheel_->drain(pending);
  // Backend migration: runs once per wheel->heap switch (the adaptive
  // scheduler rate-limits switches), never per event.
  // mpsim-analyze: allow(hot-alloc)
  keep.reserve(pending.size());
  for (const TimingWheel::Entry& e : pending) {
    // mpsim-analyze: allow(hot-alloc)
    keep.push_back(Entry{e.time, e.seq, e.src});
  }
  // Re-heapify in one O(n) pass; (time, seq) keys are untouched, so pop
  // order is exactly what the wheel would have produced.
  heap_ = decltype(heap_)(std::greater<>(), std::move(keep));
  wheel_.reset();
  ++switches_;
  last_switch_processed_ = processed_;
}

EventList::Service& EventList::attach_service(std::size_t slot,
                                              std::unique_ptr<Service> s) {
  MPSIM_CHECK(slot < kServiceSlots, "service slot out of range");
  MPSIM_CHECK(!services_[slot], "simulation service already attached");
  services_[slot] = std::move(s);
  return *services_[slot];
}

std::size_t EventList::cancel(const EventSource& src) {
  if (wheel_) return wheel_->cancel(&src);
  // The heap gives no in-place removal; drain, filter, and re-heapify.
  // Entries keep their original (time, seq) keys, so dispatch order of the
  // survivors is unchanged.
  std::vector<Entry> keep;
  keep.reserve(heap_.size());
  std::size_t removed = 0;
  while (!heap_.empty()) {
    if (heap_.top().src == &src) {
      ++removed;
    } else {
      keep.push_back(heap_.top());
    }
    heap_.pop();
  }
  heap_ = decltype(heap_)(std::greater<>(), std::move(keep));
  return removed;
}

bool EventList::run_one() {
  if (wheel_) {
    if (wheel_->empty()) return false;
    const TimingWheel::Entry e = wheel_->pop();
    MPSIM_CHECK(e.time >= now_, "event clock must advance monotonically");
    now_ = e.time;
    ++processed_;
    e.src->on_event();
    after_dispatch();
    return true;
  }
  if (heap_.empty()) return false;
  Entry e = heap_.top();
  heap_.pop();
  MPSIM_CHECK(e.time >= now_, "event clock must advance monotonically");
  now_ = e.time;
  ++processed_;
  e.src->on_event();
  return true;
}

void EventList::run_until(SimTime t) {
  // Re-test the active backend every iteration: on_event() may schedule
  // (crossing the high-water mark) and after_dispatch() may drain the wheel
  // below the low-water mark, so under kAdaptive the backend can flip
  // mid-loop.
  for (;;) {
    if (wheel_) {
      TimingWheel::Entry e;
      if (!wheel_->pop_if_before(t, e)) break;
      now_ = e.time;
      ++processed_;
      e.src->on_event();
      after_dispatch();
    } else {
      if (heap_.empty() || heap_.top().time > t) break;
      const Entry e = heap_.top();
      heap_.pop();
      MPSIM_CHECK(e.time >= now_, "event clock must advance monotonically");
      now_ = e.time;
      ++processed_;
      e.src->on_event();
    }
  }
  if (now_ < t) now_ = t;
}

void EventList::run_all() {
  while (run_one()) {
  }
}

}  // namespace mpsim
