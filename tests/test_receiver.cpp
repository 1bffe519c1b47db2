#include "mptcp/receiver.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <string>
#include <vector>

#include "core/event_list.hpp"
#include "mptcp/connection.hpp"
#include "net/packet.hpp"

namespace mpsim::mptcp {
namespace {

// Captures ACK fields at the end of the ACK route.
class AckTrap : public net::PacketSink {
 public:
  void receive(net::Packet& pkt) override {
    sub_acks.push_back(pkt.subflow_cum_ack);
    data_acks.push_back(pkt.data_cum_ack);
    windows.push_back(pkt.rcv_window);
    pkt.release();
  }
  const std::string& sink_name() const override { return name_; }

  std::vector<std::uint64_t> sub_acks, data_acks, windows;

 private:
  std::string name_ = "acktrap";
};

class ReceiverTest : public ::testing::Test {
 protected:
  ReceiverTest()
      : rx(events, "rx", /*flow_id=*/1, /*buffer_pkts=*/8),
        ack_route({&trap}) {
    rx.add_subflow(ack_route);
    rx.add_subflow(ack_route);
  }

  void deliver(std::uint32_t subflow, std::uint64_t sub_seq,
               std::uint64_t data_seq) {
    net::Packet& p = net::Packet::alloc(events);
    p.type = net::PacketType::kData;
    p.flow_id = 1;
    p.subflow_id = subflow;
    p.subflow_seq = sub_seq;
    p.data_seq = data_seq;
    net::Route direct({&rx});
    p.send_on(direct);
  }

  EventList events;
  AckTrap trap;
  MptcpReceiver rx;
  net::Route ack_route;
};

TEST_F(ReceiverTest, InOrderDeliveryAdvancesEverything) {
  deliver(0, 0, 0);
  deliver(0, 1, 1);
  EXPECT_EQ(rx.data_cum_ack(), 2u);
  EXPECT_EQ(rx.delivered(), 2u);
  EXPECT_EQ(rx.buffer_occupancy(), 0u);
  ASSERT_EQ(trap.data_acks.size(), 2u);
  EXPECT_EQ(trap.data_acks[1], 2u);
  EXPECT_EQ(trap.sub_acks[1], 2u);
}

TEST_F(ReceiverTest, OutOfOrderDataIsBuffered) {
  deliver(0, 0, 2);  // data 2 before 0,1
  EXPECT_EQ(rx.data_cum_ack(), 0u);
  EXPECT_EQ(rx.buffer_occupancy(), 1u);
  EXPECT_EQ(rx.advertised_window(), 7u);
  deliver(0, 1, 0);
  deliver(0, 2, 1);
  EXPECT_EQ(rx.data_cum_ack(), 3u);
  EXPECT_EQ(rx.buffer_occupancy(), 0u);
}

TEST_F(ReceiverTest, SubflowSequencesIndependent) {
  deliver(0, 0, 0);
  deliver(1, 0, 1);
  ASSERT_EQ(trap.sub_acks.size(), 2u);
  EXPECT_EQ(trap.sub_acks[0], 1u);  // subflow 0 cum ack
  EXPECT_EQ(trap.sub_acks[1], 1u);  // subflow 1 cum ack (its own space)
  EXPECT_EQ(rx.data_cum_ack(), 2u);
}

TEST_F(ReceiverTest, SubflowHoleHoldsSubflowAckOnly) {
  deliver(0, 0, 0);
  deliver(0, 2, 2);  // subflow gap at seq 1
  EXPECT_EQ(trap.sub_acks.back(), 1u) << "subflow cum ack stuck at the hole";
  deliver(1, 0, 1);  // data hole filled via the other subflow
  EXPECT_EQ(rx.data_cum_ack(), 3u)
      << "data stream complete even though subflow 0 has a hole";
}

TEST_F(ReceiverTest, DuplicateDataCounted) {
  deliver(0, 0, 0);
  deliver(1, 0, 0);  // same data on the other subflow (reinjection)
  EXPECT_EQ(rx.duplicates(), 1u);
  EXPECT_EQ(rx.data_cum_ack(), 1u);
}

TEST_F(ReceiverTest, DuplicateOutOfOrderDataCounted) {
  deliver(0, 0, 5);
  deliver(0, 1, 5);
  EXPECT_EQ(rx.duplicates(), 1u);
  EXPECT_EQ(rx.buffer_occupancy(), 1u);
}

TEST_F(ReceiverTest, EveryDataPacketGetsAnAck) {
  for (int i = 0; i < 7; ++i) deliver(0, static_cast<std::uint64_t>(i), 0);
  EXPECT_EQ(trap.sub_acks.size(), 7u) << "duplicates must still be acked";
}

TEST_F(ReceiverTest, AdvertisedWindowShrinksWithOccupancy) {
  deliver(0, 0, 3);
  deliver(0, 1, 4);
  EXPECT_EQ(rx.advertised_window(), 6u);
  ASSERT_FALSE(trap.windows.empty());
  EXPECT_EQ(trap.windows.back(), 6u);
}

TEST_F(ReceiverTest, WindowViolationCountsOverflow) {
  // Fill the 8-packet buffer with out-of-order data, then one more.
  for (std::uint64_t i = 0; i < 8; ++i) deliver(0, i, i + 1);
  EXPECT_EQ(rx.buffer_occupancy(), 8u);
  deliver(0, 8, 9);
  EXPECT_EQ(rx.window_violations(), 1u);
}

TEST_F(ReceiverTest, EchoFieldsCopiedToAck) {
  net::Packet& p = net::Packet::alloc(events);
  p.type = net::PacketType::kData;
  p.flow_id = 1;
  p.subflow_id = 0;
  p.subflow_seq = 0;
  p.data_seq = 0;
  p.ts_echo = from_ms(123);
  p.is_retransmit = true;

  struct EchoTrap : net::PacketSink {
    void receive(net::Packet& pkt) override {
      echo = pkt.ts_echo;
      retx = pkt.is_retransmit;
      pkt.release();
    }
    const std::string& sink_name() const override { return name; }
    std::string name = "echo";
    SimTime echo = 0;
    bool retx = false;
  } echo_trap;

  EventList ev2;
  MptcpReceiver rx2(ev2, "rx2", 1, 8);
  net::Route ack2({&echo_trap});
  rx2.add_subflow(ack2);
  net::Route direct({&rx2});
  p.send_on(direct);
  EXPECT_EQ(echo_trap.echo, from_ms(123));
  EXPECT_TRUE(echo_trap.retx);
}

TEST_F(ReceiverTest, FiniteAppReadRateHoldsDataInBuffer) {
  rx.set_app_read_rate(1000.0);  // 1 pkt/ms
  deliver(0, 0, 0);
  deliver(0, 1, 1);
  deliver(0, 2, 2);
  // Data is in order but unread: occupies buffer.
  EXPECT_EQ(rx.data_cum_ack(), 3u);
  EXPECT_LT(rx.delivered(), 3u);
  EXPECT_GT(rx.buffer_occupancy(), 0u);
  events.run_until(from_ms(10));
  EXPECT_EQ(rx.delivered(), 3u);
  EXPECT_EQ(rx.buffer_occupancy(), 0u);
}

TEST_F(ReceiverTest, SlowReaderShrinksWindowToZero) {
  rx.set_app_read_rate(1.0);  // 1 pkt/s: effectively stalled
  for (std::uint64_t i = 0; i < 8; ++i) deliver(0, i, i);
  EXPECT_EQ(rx.advertised_window(), 0u);
  EXPECT_EQ(trap.windows.back(), 0u);
}

// With the default 2^20-packet buffer, a 100-packet reorder gap costs the
// receiver one power-of-two ring of that span per window (data level and
// the subflow's), not a reservation sized by the buffer.
TEST(ReceiverReorderMemory, FollowsTheGapNotTheBuffer) {
  EventList events;
  AckTrap trap;
  net::Route ack_route({&trap});
  const std::uint64_t buffer = ConnectionConfig{}.recv_buffer_pkts;
  ASSERT_EQ(buffer, std::uint64_t{1} << 20);
  MptcpReceiver rx(events, "rx", /*flow_id=*/1, buffer);
  rx.add_subflow(ack_route);
  const ReorderLedger* ledger = ReorderLedger::find(events);
  ASSERT_NE(ledger, nullptr);
  EXPECT_EQ(ledger->live_bytes(), 0u);  // nothing until a seq is held

  auto deliver = [&](std::uint64_t seq) {
    net::Packet& p = net::Packet::alloc(events);
    p.type = net::PacketType::kData;
    p.flow_id = 1;
    p.subflow_seq = seq;
    p.data_seq = seq;
    net::Route direct({&rx});
    p.send_on(direct);
  };
  constexpr std::uint64_t kGap = 100;
  for (std::uint64_t s = 1; s <= kGap; ++s) deliver(s);  // seq 0 is late
  EXPECT_EQ(rx.buffer_occupancy(), kGap);
  EXPECT_EQ(rx.data_cum_ack(), 0u);
  deliver(0);
  EXPECT_EQ(rx.data_cum_ack(), kGap + 1);
  EXPECT_EQ(rx.buffer_occupancy(), 0u);
  EXPECT_EQ(trap.sub_acks.back(), kGap + 1);

  // One ring of bit_ceil(gap + 1) bits per window, two windows.
  const std::size_t ring_bytes = std::bit_ceil(kGap + 1) / 8;
  EXPECT_GT(ledger->peak_bytes(), 0u);
  EXPECT_LE(ledger->peak_bytes(), 2 * ring_bytes);
  EXPECT_EQ(ledger->live_bytes(), ledger->peak_bytes());  // never shrinks
}

}  // namespace
}  // namespace mpsim::mptcp
