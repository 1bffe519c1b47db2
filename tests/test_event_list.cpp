#include "core/event_list.hpp"

#include <gtest/gtest.h>

#include <vector>

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

class EventListTest : public ::testing::Test {
 protected:
  EventList events;
};

TEST_F(EventListTest, StartsAtTimeZero) {
  EXPECT_EQ(events.now(), 0);
  EXPECT_TRUE(events.empty());
}

TEST_F(EventListTest, RunOneAdvancesClockToEventTime) {
  Recorder r(events);
  events.schedule_at(r, from_ms(5));
  EXPECT_TRUE(events.run_one());
  EXPECT_EQ(events.now(), from_ms(5));
  ASSERT_EQ(r.fired.size(), 1u);
  EXPECT_EQ(r.fired[0], from_ms(5));
}

TEST_F(EventListTest, RunOneOnEmptyReturnsFalse) {
  EXPECT_FALSE(events.run_one());
}

TEST_F(EventListTest, EventsFireInTimeOrder) {
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

TEST_F(EventListTest, TiesBreakInCanonicalSourceOrder) {
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

TEST_F(EventListTest, SameSourceTiesBreakInScheduleOrder) {
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

TEST_F(EventListTest, ScheduleInIsRelativeToNow) {
  Recorder r(events);
  events.schedule_at(r, from_ms(10));
  events.run_one();
  events.schedule_in(r, from_ms(5));
  events.run_one();
  ASSERT_EQ(r.fired.size(), 2u);
  EXPECT_EQ(r.fired[1], from_ms(15));
}

TEST_F(EventListTest, RunUntilStopsAtBoundaryInclusive) {
  Recorder r(events);
  events.schedule_at(r, from_ms(10));
  events.schedule_at(r, from_ms(20));
  events.schedule_at(r, from_ms(30));
  events.run_until(from_ms(20));
  EXPECT_EQ(r.fired.size(), 2u);
  EXPECT_EQ(events.now(), from_ms(20));
  EXPECT_EQ(events.pending(), 1u);
}

TEST_F(EventListTest, RunUntilAdvancesClockEvenWhenIdle) {
  events.run_until(from_sec(3));
  EXPECT_EQ(events.now(), from_sec(3));
}

TEST_F(EventListTest, ScheduleAfterIdleRunUntil) {
  // run_until past all events must leave the scheduler able to accept an
  // event earlier than any slot it may have internally advanced to.
  Recorder r(events);
  events.run_until(from_sec(3));
  events.schedule_at(r, from_sec(3) + 1);
  events.run_all();
  ASSERT_EQ(r.fired.size(), 1u);
  EXPECT_EQ(r.fired[0], from_sec(3) + 1);
}

TEST_F(EventListTest, EventScheduledDuringDispatchRuns) {
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

TEST_F(EventListTest, ProcessedCounterCounts) {
  Recorder r(events);
  for (int i = 1; i <= 7; ++i) events.schedule_at(r, from_ms(i));
  events.run_all();
  EXPECT_EQ(events.events_processed(), 7u);
}

TEST_F(EventListTest, SameSourceMultiplePendingEvents) {
  Recorder r(events);
  events.schedule_at(r, from_ms(1));
  events.schedule_at(r, from_ms(1));
  events.schedule_at(r, from_ms(2));
  events.run_all();
  EXPECT_EQ(r.fired.size(), 3u);
}

TEST_F(EventListTest, FarFutureEventsFire) {
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
