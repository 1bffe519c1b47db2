// Mutation-style tests for the MPSIM_CHECK invariant layer: each test
// deliberately violates one invariant class and asserts the corresponding
// check fires (throws CheckFailureError under ScopedThrowingChecks). If a
// check can be violated silently, the simulator is back to "trusted" rather
// than "checked" — these tests keep that from regressing.
#include "core/check.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <typeinfo>
#include <vector>

#include "cc/coupled.hpp"
#include "cc/mptcp_lia.hpp"
#include "core/event_list.hpp"
#include "fake_view.hpp"
#include "mptcp/connection.hpp"
#include "net/cbr.hpp"
#include "net/packet.hpp"
#include "net/queue.hpp"
#include "net/variable_rate_queue.hpp"
#include "topo/network.hpp"

namespace mpsim {
namespace {

class Ticker : public EventSource {
 public:
  explicit Ticker(EventList& e) : EventSource(e, "ticker") {}
  void on_event() override { ++fired; }
  int fired = 0;
};

// --- invariant class: event-clock monotonicity ---------------------------

TEST(InvariantClockRollback, SchedulingInThePastFires) {
  ScopedThrowingChecks guard;
  EventList events;
  Ticker t(events);
  events.schedule_at(t, from_ms(10));
  events.run_until(from_ms(20));  // now() == 20ms
  EXPECT_THROW(events.schedule_at(t, from_ms(5)), CheckFailureError);
}

TEST(InvariantClockRollback, FiresAfterRunOneAndRunUntil) {
  ScopedThrowingChecks guard;
  {
    EventList events;
    Ticker t(events);
    events.schedule_at(t, from_ms(1));
    events.schedule_at(t, from_ms(3));
    ASSERT_TRUE(events.run_one());  // now() == 1ms
    EXPECT_THROW(events.schedule_at(t, 0), CheckFailureError);
  }
  {
    EventList events;
    Ticker t(events);
    events.schedule_at(t, from_ms(1));
    events.run_until(from_ms(2));  // now() == 2ms, queue drained
    EXPECT_THROW(events.schedule_at(t, from_ms(1)), CheckFailureError);
  }
}

// --- invariant class: packet conservation / pool discipline --------------

TEST(InvariantPacketPool, DoubleReleaseFires) {
  ScopedThrowingChecks guard;
  EventList events;
  net::Packet& p = net::Packet::alloc(events);
  p.release();
  EXPECT_THROW(p.release(), CheckFailureError);
}

TEST(InvariantPacketPool, ForeignPoolReleaseFires) {
  ScopedThrowingChecks guard;
  EventList sim_a;
  EventList sim_b;
  net::Packet& p = net::Packet::alloc(sim_a);
  // Hand the packet to the wrong simulation's pool.
  EXPECT_THROW(net::PacketPool::of(sim_b).release(p), CheckFailureError);
  p.release();  // cleanliness: back to its real pool
}

TEST(InvariantPacketPool, LedgerBalancesThroughChurn) {
  EventList events;
  std::vector<net::Packet*> live;
  for (int round = 0; round < 3; ++round) {
    for (int i = 0; i < 64; ++i) live.push_back(&net::Packet::alloc(events));
    while (live.size() > 8) {
      live.back()->release();
      live.pop_back();
    }
  }
  for (net::Packet* p : live) p->release();
  const net::PacketPool& pool = net::PacketPool::of(events);
  EXPECT_EQ(pool.outstanding(), 0u);
  EXPECT_EQ(pool.total_allocated(), pool.total_released());
}

// --- invariant class: queue occupancy within capacity --------------------

// The arena row reference is protected so a production queue cannot reach
// this state; the tamper subclass simulates an accounting bug. Every check
// runs over both queue classes, which share Queue's bookkeeping.
template <class Base>
class TamperQueue : public Base {
 public:
  using Base::Base;
  void corrupt_occupancy() { this->h_.queued_bytes = this->max_bytes_ + 1; }
  void corrupt_underflow() { this->h_.queued_bytes = 0; }
};

template <class Base>
void expect_over_capacity_enqueue_fires() {
  SCOPED_TRACE(typeid(Base).name());
  ScopedThrowingChecks guard;
  EventList events;
  TamperQueue<Base> q(events, "q", 10e6, 30000);
  q.corrupt_occupancy();
  net::Packet& p = net::Packet::alloc(events);
  net::Route route({&q});
  EXPECT_THROW(p.send_on(route), CheckFailureError);
  p.release();
}

TEST(InvariantQueueOccupancy, OverCapacityEnqueueFires) {
  expect_over_capacity_enqueue_fires<net::Queue>();
  expect_over_capacity_enqueue_fires<net::VariableRateQueue>();
}

template <class Base>
void expect_byte_accounting_underflow_fires() {
  SCOPED_TRACE(typeid(Base).name());
  ScopedThrowingChecks guard;
  EventList events;
  TamperQueue<Base> q(events, "q", 10e6, 30000);
  net::CountingSink sink("sink");
  net::Route route({&q, &sink});
  net::Packet::alloc(events).send_on(route);  // enters service
  q.corrupt_underflow();  // lose the bytes of the in-service packet
  EXPECT_THROW(events.run_all(), CheckFailureError);
}

TEST(InvariantQueueOccupancy, ByteAccountingUnderflowFires) {
  expect_byte_accounting_underflow_fires<net::Queue>();
  expect_byte_accounting_underflow_fires<net::VariableRateQueue>();
}

TEST(InvariantQueueOccupancy, ZeroRateQueueRejected) {
  ScopedThrowingChecks guard;
  EventList events;
  EXPECT_THROW(net::Queue(events, "q", 0.0, 30000), CheckFailureError);
}

// --- invariant class: data-ACK never above highest data-seq sent ---------

TEST(InvariantDataAck, AckBeyondSentFires) {
  ScopedThrowingChecks guard;
  EventList events;
  topo::Network net(events);
  auto link = net.add_link("l", 10e6, from_ms(5), 64000);
  auto& ack = net.add_pipe("a", from_ms(5));
  auto tcp = mptcp::make_single_path_tcp(events, "t",
                                         topo::path_of({&link}), {&ack});
  tcp->start(0);
  events.run_until(from_ms(100));  // some data flowing, acks processed

  // Forge an ACK acknowledging far more data than was ever scheduled and
  // deliver it straight to the subflow, as a mis-implemented receiver would.
  net::Packet& forged = net::Packet::alloc(events);
  forged.type = net::PacketType::kAck;
  forged.flow_id = tcp->flow_id();
  forged.subflow_id = 0;
  forged.subflow_cum_ack = tcp->subflow(0).packets_acked();
  forged.data_cum_ack = 1u << 30;  // way beyond anything sent
  forged.rcv_window = 1000;
  EXPECT_THROW(tcp->subflow(0).receive(forged), CheckFailureError);
}

// --- invariant class: subflow <-> data sequence-space consistency --------

TEST(InvariantSequenceSpaces, WrongFlowDeliveredToReceiverFires) {
  ScopedThrowingChecks guard;
  EventList events;
  topo::Network net(events);
  auto link = net.add_link("l", 10e6, from_ms(5), 64000);
  auto& ack = net.add_pipe("a", from_ms(5));
  auto tcp = mptcp::make_single_path_tcp(events, "t",
                                         topo::path_of({&link}), {&ack});
  tcp->start(0);
  events.run_until(from_ms(50));

  net::Packet& stray = net::Packet::alloc(events);
  stray.type = net::PacketType::kData;
  stray.flow_id = tcp->flow_id() + 999;  // some other connection's id
  stray.subflow_id = 0;
  EXPECT_THROW(tcp->receiver().receive(stray), CheckFailureError);
  stray.release();
}

TEST(InvariantSequenceSpaces, UnregisteredSubflowIdFires) {
  ScopedThrowingChecks guard;
  EventList events;
  topo::Network net(events);
  auto link = net.add_link("l", 10e6, from_ms(5), 64000);
  auto& ack = net.add_pipe("a", from_ms(5));
  auto tcp = mptcp::make_single_path_tcp(events, "t",
                                         topo::path_of({&link}), {&ack});
  tcp->start(0);
  events.run_until(from_ms(50));

  net::Packet& stray = net::Packet::alloc(events);
  stray.type = net::PacketType::kData;
  stray.flow_id = tcp->flow_id();
  stray.subflow_id = 7;  // only subflow 0 exists
  EXPECT_THROW(tcp->receiver().receive(stray), CheckFailureError);
  stray.release();
}

// --- invariant class: congestion-window bounds (eq. 1) -------------------

TEST(InvariantCwndBounds, NonPositiveWindowInViewFires) {
  ScopedThrowingChecks guard;
  cc::FakeView view({0.0, 10.0}, {0.1, 0.1});  // w_0 == 0 is impossible:
  // every subflow keeps cwnd >= min_cwnd (>= 1 pkt) so each path is probed
  EXPECT_THROW(cc::coupled().increase_per_ack(view, 0), CheckFailureError);
  EXPECT_THROW(cc::mptcp_lia().increase_per_ack(view, 1), CheckFailureError);
}

TEST(InvariantCwndBounds, NonPositiveRttInViewFires) {
  ScopedThrowingChecks guard;
  cc::FakeView view({5.0, 10.0}, {0.1, 0.0});
  EXPECT_THROW(cc::coupled().increase_per_ack(view, 0), CheckFailureError);
}

TEST(InvariantCwndBounds, LiaIncreaseStaysWithinEq1Bound) {
  // Positive control: on sane state the LIA increase obeys 0 < inc <= 1/w_r
  // (checked internally on every call; this exercises a spread of states).
  for (double w0 : {1.0, 4.0, 32.0, 500.0}) {
    for (double rtt1 : {0.01, 0.1, 0.5}) {
      cc::FakeView view({w0, 2 * w0 + 1}, {0.05, rtt1});
      const double inc = cc::mptcp_lia().increase_per_ack(view, 0);
      EXPECT_GT(inc, 0.0);
      EXPECT_LE(inc, 1.0 / w0 + 1e-12);
    }
  }
}

// --- the runtime toggle --------------------------------------------------

TEST(CheckToggle, ChecksEnabledByDefault) {
  // MPSIM_CHECKS is not set to "off" in the test environment.
  EXPECT_TRUE(checks_enabled());
}

TEST(CheckToggle, HandlerScopesNest) {
  ScopedThrowingChecks outer;
  {
    ScopedThrowingChecks inner;
    EXPECT_THROW(check_failed("f", 1, "x", "m"), CheckFailureError);
  }
  EXPECT_THROW(check_failed("f", 2, "y", "m"), CheckFailureError);
}

TEST(CheckToggle, FailureMessageNamesSite) {
  ScopedThrowingChecks guard;
  try {
    check_failed("somefile.cpp", 42, "a == b", "the message");
    FAIL() << "check_failed must not return";
  } catch (const CheckFailureError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("somefile.cpp:42"), std::string::npos);
    EXPECT_NE(what.find("a == b"), std::string::npos);
    EXPECT_NE(what.find("the message"), std::string::npos);
  }
}

}  // namespace
}  // namespace mpsim
