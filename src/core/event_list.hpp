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
// The queue is a hierarchical timing wheel (core/timing_wheel.hpp) with
// amortized O(1) schedule and dispatch; dispatch follows (time, key) order
// exactly, so the key above is the whole tie-break contract.
//
// Cancellation is lazy on the hot path: a source that no longer wants a
// pending wake-up simply ignores the callback (sources track their own next
// valid deadline). This keeps the queue free of tombstone bookkeeping where
// it matters. For teardown — an EventSource about to be destroyed while
// wake-ups for it are still queued — cancel() eagerly removes every pending
// entry for the source; it is a cold-path sweep over the occupied slots.
//
// An EventList is also the identity of one simulation instance: per-run
// services (the packet pool, see net::PacketPool; the flight recorder, see
// trace::TraceRecorder) attach to it instead of living in globals, so
// independent simulations can run concurrently on separate threads.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <string>

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

class EventList {
 public:
  // Defaulted out of line, so that even a value-initialized EventList never
  // zeroes the wheel's slot arrays (see core/timing_wheel.hpp).
  EventList();

  EventList(const EventList&) = delete;
  EventList& operator=(const EventList&) = delete;

  // The scheduler's deterministic work counters (cascades, opened ticks,
  // merged runs, peak pending): identical for a given run whatever thread
  // executes it.
  const TimingWheel::Stats& scheduler_stats() const { return wheel_.stats(); }

  SimTime now() const { return now_; }

  // Wake `src` at absolute time `t` (must be >= now()).
  void schedule_at(EventSource& src, SimTime t);

  // Wake `src` after `dt` nanoseconds.
  void schedule_in(EventSource& src, SimTime dt) {
    schedule_at(src, now_ + dt);
  }

  // Eagerly remove every pending wake-up for `src` and return how many were
  // dropped. A sweep over every pending event — this is the teardown path
  // for sources whose lifetime ends before the simulation's (periodic
  // samplers, short-lived monitors), not a hot-path primitive.
  std::size_t cancel(const EventSource& src);

  bool empty() const { return wheel_.empty(); }
  std::size_t pending() const { return wheel_.size(); }
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
  //   kReorderLedgerSlot  mptcp::ReorderLedger (mptcp/reorder_window.hpp),
  //                       attached lazily by the first MPTCP receiver; the
  //                       bytes its reorder windows hold.
  class Service {
   public:
    virtual ~Service() = default;
  };
  static constexpr std::size_t kPacketPoolSlot = 0;
  static constexpr std::size_t kTraceRecorderSlot = 1;
  static constexpr std::size_t kArenaSlot = 2;
  static constexpr std::size_t kReorderLedgerSlot = 3;
  static constexpr std::size_t kServiceSlots = 4;

  Service* service(std::size_t slot) const { return services_[slot].get(); }
  Service& attach_service(std::size_t slot, std::unique_ptr<Service> s);

 private:
  // Dispatch one popped entry: advance the clock, count, wake the source.
  void dispatch(const TimingWheel::Entry& e) {
    MPSIM_CHECK(e.time >= now_, "event clock must advance monotonically");
    now_ = e.time;
    ++processed_;
    e.src->on_event();
  }

  std::array<std::unique_ptr<Service>, kServiceSlots> services_;
  SimTime now_ = 0;
  std::uint64_t processed_ = 0;
  std::uint32_t order_counter_ = 1;  // 0 is reserved ("no source")
  std::uint32_t flow_counter_ = 1;
  TimingWheel wheel_;  // last: its slot array is most of the object
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
  wheel_.schedule(t, key, &src);
}

inline EventSource::EventSource(EventList& events, std::string name)
    : name_(std::move(name)), order_id_(events.alloc_order_id()) {}

}  // namespace mpsim
