// Direct tests of the hierarchical timing wheel, exercising the cases a
// whole-EventList test reaches only by luck: cross-level cascades, the
// overflow heap beyond the wheel horizon, idle-gap rebasing, the
// never-past-the-limit contract of pop_if_before() that run_until() depends
// on, run merging
// in an opened tick, schedules into the tick being drained, and cancel()
// wherever an entry waits.
#include "core/timing_wheel.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "core/check.hpp"
#include "core/event_list.hpp"
#include "core/rng.hpp"

namespace mpsim {
namespace {

// The wheel stores EventSource pointers but never dereferences them, so a
// tag pointer is enough to identify entries.
EventSource* tag(std::uintptr_t v) {
  return reinterpret_cast<EventSource*>(v);
}

// The earliest entry, through the wheel's one pop with no limit.
TimingWheel::Entry pop(TimingWheel& w) {
  TimingWheel::Entry e{};
  EXPECT_TRUE(w.pop_if_before(kNever, e));
  return e;
}

TEST(TimingWheel, StartsEmpty) {
  TimingWheel w;
  EXPECT_TRUE(w.empty());
  EXPECT_EQ(w.size(), 0u);
}

TEST(TimingWheel, PopsInTimeOrder) {
  TimingWheel w;
  w.schedule(300, 0, tag(3));
  w.schedule(100, 1, tag(1));
  w.schedule(200, 2, tag(2));
  EXPECT_EQ(pop(w).time, 100);
  EXPECT_EQ(pop(w).time, 200);
  EXPECT_EQ(pop(w).time, 300);
  EXPECT_TRUE(w.empty());
}

TEST(TimingWheel, FifoAmongEqualTimes) {
  TimingWheel w;
  w.schedule(50, 10, tag(1));
  w.schedule(50, 11, tag(2));
  w.schedule(50, 12, tag(3));
  EXPECT_EQ(pop(w).seq, 10u);
  EXPECT_EQ(pop(w).seq, 11u);
  EXPECT_EQ(pop(w).seq, 12u);
}

TEST(TimingWheel, FifoSurvivesCascade) {
  // Entries at the same far-future tick start on a higher level (one slot,
  // insertion order) and reach level 0 via cascade; FIFO must survive.
  TimingWheel w;
  const SimTime t = (1ll << 20) + 7;  // needs level >= 2 when cur_ = 0
  w.schedule(t, 1, tag(1));
  w.schedule(5, 2, tag(0));  // forces wheel advance through cascades
  w.schedule(t, 3, tag(2));
  EXPECT_EQ(pop(w).seq, 2u);
  auto a = pop(w);
  auto b = pop(w);
  EXPECT_EQ(a.time, t);
  EXPECT_EQ(b.time, t);
  EXPECT_EQ(a.seq, 1u);
  EXPECT_EQ(b.seq, 3u);
}

TEST(TimingWheel, OverflowHeapBeyondHorizon) {
  TimingWheel w;
  const SimTime far = (1ll << 33) + 12345;  // past the 8.6 s horizon
  const SimTime very_far = (1ll << 40) + 9;
  w.schedule(very_far, 1, tag(1));
  w.schedule(far, 2, tag(2));
  w.schedule(77, 3, tag(3));
  EXPECT_EQ(pop(w).time, 77);
  EXPECT_EQ(pop(w).time, far);
  EXPECT_EQ(pop(w).time, very_far);
  EXPECT_TRUE(w.empty());
}

TEST(TimingWheel, IdleGapRebase) {
  // Drain the wheel, then schedule far past the old position: the wheel
  // must rebase rather than walk every intervening slot.
  TimingWheel w;
  w.schedule(10, 1, tag(1));
  EXPECT_EQ(pop(w).time, 10);
  const SimTime far = (1ll << 36) + 42;
  w.schedule(far, 2, tag(2));
  EXPECT_EQ(pop(w).time, far);
}

TEST(TimingWheel, ScheduleAtCurrentTickDuringDispatch) {
  // An event scheduled for the tick currently being dispatched must fire
  // in this dispatch round, after already-queued entries for that tick.
  TimingWheel w;
  w.schedule(100, 1, tag(1));
  w.schedule(100, 2, tag(2));
  EXPECT_EQ(pop(w).seq, 1u);
  w.schedule(100, 3, tag(3));  // "now", mid-dispatch
  EXPECT_EQ(pop(w).seq, 2u);
  EXPECT_EQ(pop(w).seq, 3u);
}

TEST(TimingWheel, PopIfBeforeNeverAdvancesPastLimit) {
  // run_until()'s contract: when the earliest entry lies beyond `limit`,
  // pop_if_before() pops nothing and leaves the wheel at or before
  // `limit`, so a later schedule at `limit` (earlier than that entry) is
  // legal and pops first. One case per level, with `limit` inside the
  // entry's own slot where the slot spans ticks, and one in the overflow
  // heap.
  struct Case {
    SimTime entry;
    SimTime limit;
  };
  const Case cases[] = {
      {1000, 500},                                   // level 0
      {5 * 2048 + 100, 5 * 2048 + 50},               // level 1
      {(3ll << 22) + 4096 + 7, (3ll << 22) + 4096},  // level 2
      {(1ll << 33) + 12345, (1ll << 33) + 100},      // overflow heap
  };
  for (const Case& c : cases) {
    TimingWheel w;
    w.schedule(c.entry, 1, tag(1));
    TimingWheel::Entry e{};
    EXPECT_FALSE(w.pop_if_before(c.limit, e)) << c.entry;
    EXPECT_EQ(w.size(), 1u) << c.entry;
    w.schedule(c.limit, 2, tag(2));
    ASSERT_TRUE(w.pop_if_before(c.limit, e)) << c.entry;
    EXPECT_EQ(e.time, c.limit);
    EXPECT_EQ(e.src, tag(2));
    EXPECT_FALSE(w.pop_if_before(c.limit, e)) << c.entry;
    ASSERT_TRUE(w.pop_if_before(c.entry, e)) << c.entry;
    EXPECT_EQ(e.time, c.entry);
    EXPECT_TRUE(w.empty());
  }
}

TEST(TimingWheel, PopsInOrderAcrossLevels) {
  TimingWheel w;
  // One entry per level distance plus overflow.
  const SimTime times[] = {3, 1000, (1ll << 17) + 5, (1ll << 29) + 1,
                           (1ll << 33) + 8};
  std::uint64_t seq = 0;
  for (SimTime t : times) w.schedule(t, seq++, tag(1));
  for (SimTime t : times) {
    EXPECT_EQ(pop(w).time, t);
  }
}

TEST(TimingWheel, SmallerKeyIntoDrainingTick) {
  // A schedule for the tick being drained goes to its key position among
  // the pending entries, even ahead of all of them: exactly where a global
  // (time, seq) order puts it.
  TimingWheel w;
  w.schedule(100, 10, tag(1));
  w.schedule(100, 20, tag(2));
  w.schedule(100, 30, tag(3));
  EXPECT_EQ(pop(w).seq, 10u);  // opens the tick
  w.schedule(100, 25, tag(4));
  w.schedule(100, 5, tag(5));
  w.schedule(100, 40, tag(6));
  w.schedule(101, 1, tag(7));  // the next tick is not the open one
  std::vector<std::uint64_t> seqs;
  while (!w.empty()) seqs.push_back(pop(w).seq);
  EXPECT_EQ(seqs, (std::vector<std::uint64_t>{5, 20, 25, 30, 40, 1}));
}

TEST(TimingWheel, CancelInOpenTickLevelsAndOverflow) {
  TimingWheel w;
  EventSource* a = tag(1);
  EventSource* b = tag(2);
  std::uint64_t seq = 0;
  // The open tick, another level-0 tick, level 1, level 2 and overflow.
  const SimTime times[] = {100, 100, 100, 600, 1 << 12, 1 << 25,
                           (1ll << 34) + 3};
  for (SimTime t : times) {
    w.schedule(t, seq++, a);
    w.schedule(t, seq++, b);
  }
  const TimingWheel::Entry first = pop(w);  // opens tick 100
  EXPECT_EQ(first.src, a);
  EXPECT_EQ(w.cancel(a), 6u);
  EXPECT_EQ(w.size(), 7u);
  std::vector<SimTime> got;
  while (!w.empty()) {
    const TimingWheel::Entry e = pop(w);
    EXPECT_EQ(e.src, b);
    got.push_back(e.time);
  }
  EXPECT_EQ(got, (std::vector<SimTime>{100, 100, 100, 600, 1 << 12, 1 << 25,
                                       (1ll << 34) + 3}));
  EXPECT_EQ(w.cancel(a), 0u);
}

TEST(TimingWheel, InterleavedRunsMergeAfterCascade) {
  // Three interleaved ascending runs reach one level-0 tick through two
  // cascades (level 2 -> level 1 -> level 0) and dispatch fully merged.
  TimingWheel w;
  const SimTime t = (1ll << 23) + (1 << 12) + 5;  // level 2 from cur_ = 0
  for (std::uint64_t seq : {1, 4, 7, 10, 2, 5, 8, 3, 6, 9}) {
    w.schedule(t, seq, tag(seq));
  }
  for (std::uint64_t want = 1; want <= 10; ++want) {
    const TimingWheel::Entry e = pop(w);
    EXPECT_EQ(e.time, t);
    EXPECT_EQ(e.seq, want);
  }
  EXPECT_EQ(w.stats().cascaded, 20u);
  EXPECT_EQ(w.stats().ticks_opened, 1u);
  EXPECT_EQ(w.stats().runs_merged, 2u);
  EXPECT_EQ(w.stats().peak_pending, 10u);
}

TEST(TimingWheel, ScheduleBeforeCurrentTickFires) {
  if (!checks_enabled()) {
    GTEST_SKIP() << "requires MPSIM_CHECK (MPSIM_CHECKS=off lane)";
  }
  ScopedThrowingChecks guard;
  TimingWheel w;
  w.schedule(100, 1, tag(1));
  w.schedule(200, 2, tag(1));
  EXPECT_EQ(pop(w).time, 100);
  EXPECT_THROW(w.schedule(50, 3, tag(1)), CheckFailureError);
}

TEST(TimingWheel, RandomizedAgainstReferenceOrder) {
  // 50k random schedules interleaved with pops; the dispatch order must be
  // exactly (time, seq)-sorted.
  TimingWheel w;
  Rng rng(777);
  std::vector<TimingWheel::Entry> popped;
  std::uint64_t seq = 0;
  SimTime now = 0;
  int pending = 0;
  for (int step = 0; step < 50'000; ++step) {
    const bool do_pop = pending > 0 && rng.next_double() < 0.5;
    if (do_pop) {
      auto e = pop(w);
      EXPECT_GE(e.time, now);
      now = e.time;
      popped.push_back(e);
      --pending;
    } else {
      // Mix of deltas: 0, sub-slot, cross-slot, cross-level, overflow.
      const double u = rng.next_double();
      SimTime delta;
      if (u < 0.1) {
        delta = 0;
      } else if (u < 0.5) {
        delta = static_cast<SimTime>(rng.next_double() * 255);
      } else if (u < 0.8) {
        delta = static_cast<SimTime>(rng.next_double() * (1 << 20));
      } else if (u < 0.98) {
        delta = static_cast<SimTime>(rng.next_double() * (1ll << 31));
      } else {
        delta = (1ll << 33) + static_cast<SimTime>(rng.next_double() * 1e9);
      }
      w.schedule(now + delta, seq++, tag(1));
      ++pending;
    }
  }
  while (!w.empty()) popped.push_back(pop(w));
  for (std::size_t i = 1; i < popped.size(); ++i) {
    const auto& a = popped[i - 1];
    const auto& b = popped[i];
    ASSERT_TRUE(a.time < b.time || (a.time == b.time && a.seq < b.seq))
        << "order violated at index " << i << ": (" << a.time << "," << a.seq
        << ") before (" << b.time << "," << b.seq << ")";
  }
}

}  // namespace
}  // namespace mpsim
