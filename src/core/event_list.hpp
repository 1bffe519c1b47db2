// Discrete-event scheduler.
//
// The simulator is an event loop: components that need to act at a future
// simulated time derive from EventSource and schedule themselves on the
// EventList. Ties among equal timestamps are broken by a *canonical key*
// packed into the 64-bit seq:
//
//     key = (source order id << 32) | per-source schedule counter
//
// The order id is assigned at EventSource construction from the simulation's
// id counter, and the low half counts that source's own schedule_at calls —
// so the dispatch order of same-time events is a pure function of (a) the
// construction order of the topology and (b) each source's own behaviour,
// never of how many events other sources scheduled in between. One
// consequence: all same-time events of one source occupy a contiguous key
// range (no other source can interleave), so an element may service several
// of its same-time completions inside one dispatch without reordering
// anything (see net::Pipe's head-armed service).
//
// Two interchangeable backends implement the queue, plus a policy that
// switches between them at run time:
//   * kWheel — hierarchical timing wheel (core/timing_wheel.hpp), amortized
//     O(1) schedule/dispatch; wins when many events are pending.
//   * kHeap  — binary heap, O(log n) per operation; wins on sparse queues
//     (a handful of timers), and is cross-checked against the wheel (tests
//     assert both dispatch identical event orders).
//   * kAdaptive — starts on the heap and migrates pending events to a wheel
//     when live occupancy crosses a high-water mark, back when it falls
//     under a low-water mark (hysteresis plus an events-processed cooldown
//     so a workload hovering at the boundary cannot thrash). Migration
//     preserves every (time, seq) key, so dispatch order — and therefore
//     every trace byte — is identical to both pure backends; only wall
//     time and scheduler_switches() differ. The default.
// kAuto resolves from the MPSIM_SCHEDULER environment variable ("adaptive",
// "wheel" or "heap"), defaulting to adaptive.
//
// Cancellation is lazy on the hot path: a source that no longer wants a
// pending wake-up simply ignores the callback (sources track their own next
// valid deadline). This keeps the queue free of tombstone bookkeeping where
// it matters. For teardown — an EventSource about to be destroyed while
// wake-ups for it are still queued — cancel() eagerly removes every pending
// entry for the source; it is O(pending) and meant for cold paths only.
//
// An EventList is also the identity of one simulation instance: per-run
// services (the packet pool, see net::PacketPool; the flight recorder, see
// trace::TraceRecorder) attach to it instead of living in globals, so
// independent simulations can run concurrently on separate threads.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <queue>
#include <string>
#include <vector>

#include "core/check.hpp"
#include "core/time.hpp"
#include "core/timing_wheel.hpp"

namespace mpsim {

class EventList;

// Anything that can be woken by the scheduler. Construction assigns the
// source's canonical order id from `events`' simulation, so every source is
// born with a stable tie-break identity; the EventList passed here is the
// one the source must be scheduled on.
class EventSource {
 public:
  EventSource(EventList& events, std::string name);
  virtual ~EventSource() = default;

  EventSource(const EventSource&) = delete;
  EventSource& operator=(const EventSource&) = delete;

  // Called when a scheduled wake-up for this source fires.
  virtual void on_event() = 0;

  const std::string& name() const { return name_; }

  // Canonical tie-break id (1-based, construction order within the
  // simulation).
  std::uint32_t order_id() const { return order_id_; }

 private:
  friend class EventList;
  std::string name_;
  std::uint32_t order_id_ = 0;
  std::uint32_t sched_seq_ = 0;  // this source's schedule_at count
};

enum class SchedulerKind {
  kAuto,      // resolve from MPSIM_SCHEDULER, default kAdaptive
  kHeap,      // binary heap (the original backend)
  kWheel,     // hierarchical timing wheel
  kAdaptive,  // heap <-> wheel, switched on live occupancy
};

// "auto", "heap", "wheel" or "adaptive" — the MPSIM_SCHEDULER spellings.
const char* to_string(SchedulerKind kind);

class EventList {
 public:
  explicit EventList(SchedulerKind kind = SchedulerKind::kAuto);

  EventList(const EventList&) = delete;
  EventList& operator=(const EventList&) = delete;

  // The scheduler this instance was configured with (kHeap, kWheel or
  // kAdaptive — never kAuto; that resolves at construction).
  SchedulerKind scheduler_kind() const { return mode_; }
  // The backend currently dispatching (kHeap or kWheel). Equal to
  // scheduler_kind() for the pure backends; flips over time under
  // kAdaptive.
  SchedulerKind active_backend() const {
    return wheel_ ? SchedulerKind::kWheel : SchedulerKind::kHeap;
  }
  // How many heap<->wheel migrations have happened (0 for pure backends).
  // Deterministic for a given run: it depends only on the schedule/dispatch
  // sequence, never on wall time or thread interleaving.
  std::uint64_t scheduler_switches() const { return switches_; }
  // Override the adaptive thresholds (test hook; also usable for tuning).
  // Pending >= `high` on the heap migrates to a wheel; pending <= `low` on
  // the wheel migrates back; at least `cooldown` dispatched events must
  // separate consecutive switches. Requires high > low.
  void set_adaptive_policy(std::size_t high, std::size_t low,
                           std::uint64_t cooldown);
  // What kAuto resolves to for new EventLists (reads MPSIM_SCHEDULER once).
  static SchedulerKind default_scheduler();

  SimTime now() const { return now_; }

  // Wake `src` at absolute time `t` (must be >= now()).
  void schedule_at(EventSource& src, SimTime t);

  // Wake `src` after `dt` nanoseconds.
  void schedule_in(EventSource& src, SimTime dt) {
    schedule_at(src, now_ + dt);
  }

  // Eagerly remove every pending wake-up for `src` and return how many were
  // dropped. O(pending events) on either backend — this is the teardown
  // path for sources whose lifetime ends before the simulation's (periodic
  // samplers, short-lived monitors), not a hot-path primitive.
  std::size_t cancel(const EventSource& src);

  bool empty() const { return wheel_ ? wheel_->empty() : heap_.empty(); }
  std::size_t pending() const {
    return wheel_ ? wheel_->size() : heap_.size();
  }
  std::uint64_t events_processed() const { return processed_; }

  // Dispatch the earliest pending event. Returns false if none remain.
  bool run_one();

  // Run events with timestamp <= `t`; afterwards now() == t (even if the
  // queue drained early), so periodic samplers see a consistent clock.
  void run_until(SimTime t);

  // Run until no events remain.
  void run_all();

  // Allocate the next flow id for a connection built on this simulation.
  // Per-simulation (not process-global) so ids — which appear in packets,
  // receiver demux tables and trace files — depend only on construction
  // order within the run, never on how parallel runner jobs interleave.
  std::uint32_t alloc_flow_id() { return flow_counter_++; }

  // Allocate a canonical source order id (EventSource construction).
  std::uint32_t alloc_order_id() {
    MPSIM_CHECK(order_counter_ != 0xFFFFFFFFu,
                "canonical order-id space exhausted");
    return order_counter_++;
  }

  // --- per-simulation services ------------------------------------------
  // A service is owned by the EventList and lives exactly as long as the
  // simulation instance. Each service type owns one fixed slot; the slot
  // constants live here so every simulation agrees on the layout (the
  // alternative — a run-time type registry — would make slot assignment
  // depend on attach order and cost a lookup on hot paths).
  //   kPacketPoolSlot     net::PacketPool, attached lazily on first alloc.
  //   kTraceRecorderSlot  trace::TraceRecorder, attached explicitly by
  //                       TraceRecorder::install() before the topology is
  //                       built (instrumented objects capture the pointer
  //                       at construction).
  //   kArenaSlot          SimArena (core/arena.hpp), attached lazily by the
  //                       first Subflow/Queue built on this simulation; the
  //                       SoA home of per-subflow and per-queue hot state.
  class Service {
   public:
    virtual ~Service() = default;
  };
  static constexpr std::size_t kPacketPoolSlot = 0;
  static constexpr std::size_t kTraceRecorderSlot = 1;
  static constexpr std::size_t kArenaSlot = 2;
  static constexpr std::size_t kServiceSlots = 3;

  Service* service(std::size_t slot) const { return services_[slot].get(); }
  Service& attach_service(std::size_t slot, std::unique_ptr<Service> s);

 private:
  struct Entry {
    SimTime time;
    std::uint64_t seq;  // canonical (order id << 32 | per-source seq) key
    EventSource* src;
    bool operator>(const Entry& o) const {
      if (time != o.time) return time > o.time;
      return seq > o.seq;
    }
  };

  // True when kAdaptive may migrate right now: outside the cooldown window
  // (or before the first switch ever).
  bool switch_allowed() const {
    return switches_ == 0 || processed_ - last_switch_processed_ >= cooldown_;
  }
  void switch_to_wheel();  // heap -> wheel, preserving (time, seq) keys
  void switch_to_heap();   // wheel -> heap, preserving (time, seq) keys
  // Post-dispatch hook: under kAdaptive, fall back to the heap once the
  // wheel has drained to the low-water mark.
  void after_dispatch() {
    if (mode_ == SchedulerKind::kAdaptive && wheel_ &&
        wheel_->size() <= low_water_ && switch_allowed()) {
      switch_to_heap();
    }
  }

  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> heap_;
  std::unique_ptr<TimingWheel> wheel_;  // non-null iff the wheel is active
  std::array<std::unique_ptr<Service>, kServiceSlots> services_;
  SimTime now_ = 0;
  std::uint64_t processed_ = 0;
  std::uint32_t order_counter_ = 1;  // 0 is reserved ("no source")
  std::uint32_t flow_counter_ = 1;
  SchedulerKind mode_ = SchedulerKind::kHeap;  // resolved, never kAuto
  // Adaptive policy. The defaults bracket the measured heap/wheel crossover
  // (BENCH_micro_core: the wheel wins from a few thousand pending events
  // up, the heap below a few hundred) with a wide hysteresis band; the
  // cooldown bounds migration frequency to once per 8k dispatches even if
  // occupancy oscillates across both marks.
  std::size_t high_water_ = 2048;
  std::size_t low_water_ = 256;
  std::uint64_t cooldown_ = 8192;
  std::uint64_t switches_ = 0;
  std::uint64_t last_switch_processed_ = 0;
};

// Inline: one call per scheduled event — for simulations pushing tens of
// millions of events the extra call layer is measurable in the profile.
inline void EventList::schedule_at(EventSource& src, SimTime t) {
  MPSIM_CHECK(t >= now_, "cannot schedule in the past (clock rollback)");
  if (t < now_) t = now_;  // degrade gracefully when checks are off
  MPSIM_CHECK(src.sched_seq_ != 0xFFFFFFFFu,
              "per-source schedule counter exhausted");
  const std::uint64_t key =
      (static_cast<std::uint64_t>(src.order_id_) << 32) | src.sched_seq_++;
  if (wheel_) {
    wheel_->schedule(t, key, &src);
  } else {
    heap_.push(Entry{t, key, &src});
    if (mode_ == SchedulerKind::kAdaptive && heap_.size() >= high_water_ &&
        switch_allowed()) {
      switch_to_wheel();
    }
  }
}

inline EventSource::EventSource(EventList& events, std::string name)
    : name_(std::move(name)), order_id_(events.alloc_order_id()) {}

}  // namespace mpsim
