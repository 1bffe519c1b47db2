#include <gtest/gtest.h>

#include <memory>

#include "core/check.hpp"
#include "core/event_list.hpp"
#include "stats/monitors.hpp"
#include "stats/summary.hpp"

namespace mpsim::stats {
namespace {

TEST(Summary, JainPerfectFairness) {
  EXPECT_DOUBLE_EQ(jain_index({5, 5, 5, 5}), 1.0);
}

TEST(Summary, JainWorstCase) {
  // One flow hogging everything: index = 1/n.
  EXPECT_NEAR(jain_index({10, 0, 0, 0}), 0.25, 1e-12);
}

TEST(Summary, JainPaperTorusValue) {
  // Sanity on the formula with a mildly uneven allocation:
  // (2.8)^2 / (3 * 2.64) = 0.98990.
  EXPECT_NEAR(jain_index({1.0, 1.0, 0.8}), 0.98990, 0.0001);
}

TEST(Summary, JainEdgeCases) {
  EXPECT_DOUBLE_EQ(jain_index({}), 1.0);
  EXPECT_DOUBLE_EQ(jain_index({0, 0}), 1.0);
}

TEST(Monitors, PktsToMbps) {
  // 1000 pkts x 1500 B x 8 over 1 s = 12 Mb/s.
  EXPECT_DOUBLE_EQ(pkts_to_mbps(1000, from_sec(1)), 12.0);
  EXPECT_DOUBLE_EQ(pkts_to_mbps(0, from_sec(1)), 0.0);
  EXPECT_DOUBLE_EQ(pkts_to_mbps(1000, 0), 0.0);
}

TEST(Monitors, PeriodicSamplerStops) {
  EventList events;
  int calls = 0;
  PeriodicSampler s(events, "s", from_ms(10), [&](SimTime) { ++calls; });
  s.start(0);
  events.run_until(from_ms(55));
  s.stop();
  events.run_until(from_ms(200));
  EXPECT_EQ(calls, 6);  // t = 0,10,...,50
}

// Regression: destroying a sampler (or calling stop()) while its next
// wake-up is still queued used to leave a dangling EventSource* in the
// event list — dispatched later as use-after-free — and kept run_all()
// ticking on a sampler that does nothing. stop() now cancels eagerly.
TEST(Monitors, SamplerDestructionCancelsPendingWakeup) {
  ScopedThrowingChecks guard;
  EventList events;
  int calls = 0;
  {
    PeriodicSampler s(events, "s", from_ms(10), [&](SimTime) { ++calls; });
    s.start(0);
    events.run_until(from_ms(25));  // last tick at 20 ms rescheduled to 30 ms
    EXPECT_EQ(events.pending(), 1u);
  }  // destroyed with the 30 ms wake-up still queued
  EXPECT_EQ(events.pending(), 0u);
  events.run_all();  // would dispatch the dangling pointer pre-fix
  EXPECT_EQ(calls, 3);  // t = 0, 10, 20
}

TEST(Monitors, SamplerStopRemovesPendingWakeup) {
  EventList events;
  int calls = 0;
  PeriodicSampler s(events, "s", from_ms(10), [&](SimTime) { ++calls; });
  s.start(0);
  events.run_until(from_ms(25));
  s.stop();
  // A stopped sampler must not keep a run-until-empty simulation alive.
  EXPECT_EQ(events.pending(), 0u);
  events.run_all();
  EXPECT_EQ(calls, 3);
}

// Regression: stop() from inside the sampling callback used to be undone by
// the unconditional reschedule that followed the callback.
TEST(Monitors, SamplerStopFromCallbackDoesNotReschedule) {
  EventList events;
  int calls = 0;
  std::unique_ptr<PeriodicSampler> s;
  s = std::make_unique<PeriodicSampler>(events, "s", from_ms(10),
                                        [&](SimTime) {
                                          if (++calls == 3) s->stop();
                                        });
  s->start(0);
  events.run_until(from_ms(25));  // ticks at 0, 10, 20; stop() on the third
  EXPECT_EQ(calls, 3);
  // The tick whose callback called stop() must not have re-armed the
  // sampler (pre-fix: the post-callback reschedule ran unconditionally,
  // leaving a ghost wake-up).
  EXPECT_EQ(events.pending(), 0u);
  EXPECT_FALSE(s->running());
  events.run_all();
  EXPECT_EQ(calls, 3);
}

}  // namespace
}  // namespace mpsim::stats
