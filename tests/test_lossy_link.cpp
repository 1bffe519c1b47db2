#include "net/lossy_link.hpp"

#include <gtest/gtest.h>

#include "core/event_list.hpp"
#include "net/cbr.hpp"
#include "net/packet.hpp"

namespace mpsim::net {
namespace {

TEST(LossyLink, ZeroLossForwardsEverything) {
  EventList events;
  CountingSink sink("sink");
  LossyLink link(events, "l", 0.0, 1);
  Route route({&link, &sink});
  for (int i = 0; i < 1000; ++i) Packet::alloc(events).send_on(route);
  EXPECT_EQ(sink.packets(), 1000u);
  EXPECT_EQ(link.drops(), 0u);
}

TEST(LossyLink, FullLossDropsEverything) {
  EventList events;
  CountingSink sink("sink");
  LossyLink link(events, "l", 1.0, 1);
  Route route({&link, &sink});
  for (int i = 0; i < 100; ++i) Packet::alloc(events).send_on(route);
  EXPECT_EQ(sink.packets(), 0u);
  EXPECT_EQ(link.drops(), 100u);
}

TEST(LossyLink, DropFractionApproximatesProbability) {
  EventList events;
  CountingSink sink("sink");
  LossyLink link(events, "l", 0.04, 99);
  Route route({&link, &sink});
  const int n = 100000;
  for (int i = 0; i < n; ++i) Packet::alloc(events).send_on(route);
  const double observed = static_cast<double>(link.drops()) / n;
  EXPECT_NEAR(observed, 0.04, 0.004);
  EXPECT_EQ(link.arrivals(), static_cast<std::uint64_t>(n));
}

TEST(LossyLink, SetLossProbTakesEffect) {
  EventList events;
  CountingSink sink("sink");
  LossyLink link(events, "l", 0.0, 7);
  Route route({&link, &sink});
  for (int i = 0; i < 100; ++i) Packet::alloc(events).send_on(route);
  EXPECT_EQ(link.drops(), 0u);
  link.set_loss_prob(1.0);
  for (int i = 0; i < 100; ++i) Packet::alloc(events).send_on(route);
  EXPECT_EQ(link.drops(), 100u);
}

TEST(LossyLink, DroppedPacketsReturnToPool) {
  EventList events;
  const std::size_t base = Packet::pool_outstanding(events);
  CountingSink sink("sink");
  LossyLink link(events, "l", 0.5, 3);
  Route route({&link, &sink});
  for (int i = 0; i < 1000; ++i) Packet::alloc(events).send_on(route);
  EXPECT_EQ(Packet::pool_outstanding(events), base);
}

}  // namespace
}  // namespace mpsim::net
