#include "core/event_list.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "core/check.hpp"

namespace mpsim {
namespace {

// Records the times it was fired at.
class Recorder : public EventSource {
 public:
  explicit Recorder(EventList& events, std::string name = "rec")
      : EventSource(events, std::move(name)), events_(events) {}
  void on_event() override { fired.push_back(events_.now()); }
  std::vector<SimTime> fired;

 private:
  EventList& events_;
};

// Every EventList behaviour must hold identically under all scheduler
// backends, so the suite is parameterized over SchedulerKind. The
// adaptive instance additionally forces tiny hysteresis thresholds so
// even these small workloads cross a migration or two mid-test.
class EventListTest : public ::testing::TestWithParam<SchedulerKind> {
 protected:
  EventListTest() : events(GetParam()) {
    if (GetParam() == SchedulerKind::kAdaptive) {
      events.set_adaptive_policy(/*high=*/4, /*low=*/1, /*cooldown=*/0);
    }
  }
  EventList events;
};

INSTANTIATE_TEST_SUITE_P(Schedulers, EventListTest,
                         ::testing::Values(SchedulerKind::kHeap,
                                           SchedulerKind::kWheel,
                                           SchedulerKind::kAdaptive),
                         [](const auto& info) {
                           switch (info.param) {
                             case SchedulerKind::kHeap: return "Heap";
                             case SchedulerKind::kWheel: return "Wheel";
                             default: return "Adaptive";
                           }
                         });

TEST_P(EventListTest, StartsAtTimeZero) {
  EXPECT_EQ(events.now(), 0);
  EXPECT_TRUE(events.empty());
}

TEST_P(EventListTest, RunOneAdvancesClockToEventTime) {
  Recorder r(events);
  events.schedule_at(r, from_ms(5));
  EXPECT_TRUE(events.run_one());
  EXPECT_EQ(events.now(), from_ms(5));
  ASSERT_EQ(r.fired.size(), 1u);
  EXPECT_EQ(r.fired[0], from_ms(5));
}

TEST_P(EventListTest, RunOneOnEmptyReturnsFalse) {
  EXPECT_FALSE(events.run_one());
}

TEST_P(EventListTest, EventsFireInTimeOrder) {
  Recorder r(events);
  events.schedule_at(r, from_ms(30));
  events.schedule_at(r, from_ms(10));
  events.schedule_at(r, from_ms(20));
  events.run_all();
  ASSERT_EQ(r.fired.size(), 3u);
  EXPECT_EQ(r.fired[0], from_ms(10));
  EXPECT_EQ(r.fired[1], from_ms(20));
  EXPECT_EQ(r.fired[2], from_ms(30));
}

TEST_P(EventListTest, TiesBreakInCanonicalSourceOrder) {
  Recorder a(events, "a"), b(events, "b"), c(events, "c");
  // Same-time ties dispatch by the canonical (source order id, per-source
  // seq) key: source construction order wins, NOT global insertion order.
  // That key is a pure function of the simulation's construction and each
  // source's own schedule history, which is what lets a pipe deliver its
  // whole same-time batch in one dispatch without reordering anything.
  events.schedule_at(b, from_ms(1));
  events.schedule_at(a, from_ms(1));
  events.schedule_at(c, from_ms(1));
  // Recorders record times only, so instead drive one at a time.
  EXPECT_TRUE(events.run_one());
  EXPECT_EQ(a.fired.size(), 1u) << "a constructed first wins the tie";
  EXPECT_TRUE(events.run_one());
  EXPECT_EQ(b.fired.size(), 1u);
  EXPECT_TRUE(events.run_one());
  EXPECT_EQ(c.fired.size(), 1u);
}

TEST_P(EventListTest, SameSourceTiesBreakInScheduleOrder) {
  // Within one source the per-source counter preserves FIFO: two events
  // at the same instant fire in the order they were scheduled.
  struct Tagged : EventSource {
    Tagged(EventList& e, std::vector<int>& log) :
        EventSource(e, "tagged"), log_(log) {}
    void on_event() override { log_.push_back(next_tag_++); }
    std::vector<int>& log_;
    int next_tag_ = 0;
  };
  std::vector<int> log;
  Tagged t(events, log);
  events.schedule_at(t, from_ms(1));
  events.schedule_at(t, from_ms(1));
  events.schedule_at(t, from_ms(1));
  events.run_all();
  ASSERT_EQ(log.size(), 3u);
  EXPECT_EQ(log[0], 0);
  EXPECT_EQ(log[1], 1);
  EXPECT_EQ(log[2], 2);
}

TEST_P(EventListTest, ScheduleInIsRelativeToNow) {
  Recorder r(events);
  events.schedule_at(r, from_ms(10));
  events.run_one();
  events.schedule_in(r, from_ms(5));
  events.run_one();
  ASSERT_EQ(r.fired.size(), 2u);
  EXPECT_EQ(r.fired[1], from_ms(15));
}

TEST_P(EventListTest, RunUntilStopsAtBoundaryInclusive) {
  Recorder r(events);
  events.schedule_at(r, from_ms(10));
  events.schedule_at(r, from_ms(20));
  events.schedule_at(r, from_ms(30));
  events.run_until(from_ms(20));
  EXPECT_EQ(r.fired.size(), 2u);
  EXPECT_EQ(events.now(), from_ms(20));
  EXPECT_EQ(events.pending(), 1u);
}

TEST_P(EventListTest, RunUntilAdvancesClockEvenWhenIdle) {
  events.run_until(from_sec(3));
  EXPECT_EQ(events.now(), from_sec(3));
}

TEST_P(EventListTest, ScheduleAfterIdleRunUntil) {
  // run_until past all events must leave the scheduler able to accept an
  // event earlier than any slot it may have internally advanced to.
  Recorder r(events);
  events.run_until(from_sec(3));
  events.schedule_at(r, from_sec(3) + 1);
  events.run_all();
  ASSERT_EQ(r.fired.size(), 1u);
  EXPECT_EQ(r.fired[0], from_sec(3) + 1);
}

TEST_P(EventListTest, EventScheduledDuringDispatchRuns) {
  struct Chain : EventSource {
    Chain(EventList& e) : EventSource(e, "chain"), events(e) {}
    void on_event() override {
      ++count;
      if (count < 5) events.schedule_in(*this, from_ms(1));
    }
    EventList& events;
    int count = 0;
  } chain(events);
  events.schedule_at(chain, from_ms(1));
  events.run_all();
  EXPECT_EQ(chain.count, 5);
  EXPECT_EQ(events.now(), from_ms(5));
}

TEST_P(EventListTest, ProcessedCounterCounts) {
  Recorder r(events);
  for (int i = 1; i <= 7; ++i) events.schedule_at(r, from_ms(i));
  events.run_all();
  EXPECT_EQ(events.events_processed(), 7u);
}

TEST_P(EventListTest, SameSourceMultiplePendingEvents) {
  Recorder r(events);
  events.schedule_at(r, from_ms(1));
  events.schedule_at(r, from_ms(1));
  events.schedule_at(r, from_ms(2));
  events.run_all();
  EXPECT_EQ(r.fired.size(), 3u);
}

TEST_P(EventListTest, FarFutureEventsFire) {
  // Beyond the wheel horizon (~8.6 s): must land in the overflow path and
  // still fire in order.
  Recorder r(events);
  events.schedule_at(r, from_sec(100));
  events.schedule_at(r, from_sec(10));
  events.schedule_at(r, from_ms(1));
  events.run_all();
  ASSERT_EQ(r.fired.size(), 3u);
  EXPECT_EQ(r.fired[0], from_ms(1));
  EXPECT_EQ(r.fired[1], from_sec(10));
  EXPECT_EQ(r.fired[2], from_sec(100));
  EXPECT_EQ(events.now(), from_sec(100));
}

TEST(EventList, SchedulerKindIsReported) {
  EventList heap(SchedulerKind::kHeap);
  EventList wheel(SchedulerKind::kWheel);
  EventList adaptive(SchedulerKind::kAdaptive);
  EXPECT_EQ(heap.scheduler_kind(), SchedulerKind::kHeap);
  EXPECT_EQ(wheel.scheduler_kind(), SchedulerKind::kWheel);
  EXPECT_EQ(adaptive.scheduler_kind(), SchedulerKind::kAdaptive);
  // The active backend is distinct from the mode: adaptive starts sparse,
  // hence on the heap.
  EXPECT_EQ(heap.active_backend(), SchedulerKind::kHeap);
  EXPECT_EQ(wheel.active_backend(), SchedulerKind::kWheel);
  EXPECT_EQ(adaptive.active_backend(), SchedulerKind::kHeap);
  EXPECT_STREQ(to_string(SchedulerKind::kAdaptive), "adaptive");
}

// Force the hysteresis thresholds low and drive occupancy across them in
// both directions mid-run, under throwing checks so any internal
// invariant breach (lost event, misordered migration) aborts the test.
TEST(EventList, AdaptiveCrossesHysteresisBothDirections) {
  ScopedThrowingChecks guard;
  EventList events(SchedulerKind::kAdaptive);
  events.set_adaptive_policy(/*high=*/8, /*low=*/2, /*cooldown=*/0);
  Recorder r(events);

  // Fill to just below the high-water mark: still on the heap.
  for (int i = 1; i <= 7; ++i) events.schedule_at(r, from_ms(i));
  EXPECT_EQ(events.active_backend(), SchedulerKind::kHeap);
  EXPECT_EQ(events.scheduler_switches(), 0u);

  // The 8th pending event crosses high water: migrate heap -> wheel.
  events.schedule_at(r, from_ms(8));
  EXPECT_EQ(events.active_backend(), SchedulerKind::kWheel);
  EXPECT_EQ(events.scheduler_switches(), 1u);

  // Drain down to the low-water mark: migrate wheel -> heap, and every
  // event must still fire exactly once, in time order.
  events.run_all();
  EXPECT_EQ(events.active_backend(), SchedulerKind::kHeap);
  EXPECT_EQ(events.scheduler_switches(), 2u);
  ASSERT_EQ(r.fired.size(), 8u);
  for (int i = 0; i < 8; ++i) EXPECT_EQ(r.fired[i], from_ms(i + 1));
}

// The cooldown suppresses migration thrash: with a large cooldown the
// first switch happens but an immediate re-crossing does not switch back.
TEST(EventList, AdaptiveCooldownSuppressesThrash) {
  ScopedThrowingChecks guard;
  EventList events(SchedulerKind::kAdaptive);
  events.set_adaptive_policy(/*high=*/4, /*low=*/2,
                             /*cooldown=*/1'000'000);
  Recorder r(events);
  for (int i = 1; i <= 4; ++i) events.schedule_at(r, from_ms(i));
  EXPECT_EQ(events.active_backend(), SchedulerKind::kWheel);
  EXPECT_EQ(events.scheduler_switches(), 1u);
  events.run_all();
  // Occupancy fell to zero, but the cooldown (measured in processed
  // events) blocks the downswitch.
  EXPECT_EQ(events.active_backend(), SchedulerKind::kWheel);
  EXPECT_EQ(events.scheduler_switches(), 1u);
  ASSERT_EQ(r.fired.size(), 4u);
}

// Events migrated heap -> wheel keep their canonical tie-break: same-time
// events still fire in (source order id, per-source seq) order even though
// the migration re-inserted them in heap-pop order.
TEST(EventList, AdaptiveMigrationPreservesTieOrder) {
  ScopedThrowingChecks guard;
  EventList events(SchedulerKind::kAdaptive);
  events.set_adaptive_policy(/*high=*/3, /*low=*/1, /*cooldown=*/0);
  Recorder a(events, "a"), b(events, "b"), c(events, "c");
  events.schedule_at(b, from_ms(1));
  events.schedule_at(a, from_ms(1));
  events.schedule_at(c, from_ms(1));  // third insert triggers migration
  EXPECT_EQ(events.active_backend(), SchedulerKind::kWheel);
  EXPECT_TRUE(events.run_one());
  EXPECT_EQ(a.fired.size(), 1u) << "a constructed first wins the tie";
  EXPECT_TRUE(events.run_one());
  EXPECT_EQ(b.fired.size(), 1u);
  EXPECT_TRUE(events.run_one());
  EXPECT_EQ(c.fired.size(), 1u);
}

TEST(TimeConversions, RoundTrip) {
  EXPECT_EQ(from_ms(100), 100'000'000);
  EXPECT_EQ(from_us(1.5), 1500);
  EXPECT_EQ(from_sec(2), 2'000'000'000);
  EXPECT_DOUBLE_EQ(to_sec(from_sec(2.5)), 2.5);
  EXPECT_DOUBLE_EQ(to_ms(from_ms(7)), 7.0);
  EXPECT_DOUBLE_EQ(to_us(from_us(9)), 9.0);
}

}  // namespace
}  // namespace mpsim
