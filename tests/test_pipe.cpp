#include "net/pipe.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "cc/mptcp_lia.hpp"
#include "core/event_list.hpp"
#include "core/rng.hpp"
#include "mptcp/connection.hpp"
#include "net/cbr.hpp"
#include "net/packet.hpp"
#include "topo/fat_tree.hpp"
#include "topo/network.hpp"

namespace mpsim::net {
namespace {

TEST(Pipe, DeliversAfterDelay) {
  EventList events;
  CountingSink sink("sink");
  Pipe pipe(events, "pipe", from_ms(25));
  Route route({&pipe, &sink});
  Packet::alloc(events).send_on(route);
  events.run_all();
  EXPECT_EQ(sink.packets(), 1u);
  EXPECT_EQ(events.now(), from_ms(25));
}

TEST(Pipe, ZeroDelayDeliversImmediately) {
  EventList events;
  CountingSink sink("sink");
  Pipe pipe(events, "pipe", 0);
  Route route({&pipe, &sink});
  Packet::alloc(events).send_on(route);
  events.run_all();
  EXPECT_EQ(sink.packets(), 1u);
  EXPECT_EQ(events.now(), 0);
}

TEST(Pipe, PreservesOrderAndSpacing) {
  EventList events;
  struct TimedSink : PacketSink {
    explicit TimedSink(EventList& e) : events(e) {}
    void receive(Packet& pkt) override {
      times.push_back(events.now());
      seqs.push_back(pkt.data_seq);
      pkt.release();
    }
    const std::string& sink_name() const override { return name; }
    EventList& events;
    std::string name = "timed";
    std::vector<SimTime> times;
    std::vector<std::uint64_t> seqs;
  } sink(events);

  Pipe pipe(events, "pipe", from_ms(10));
  Route route({&pipe, &sink});

  // Inject at t=0 and t=3ms via a helper event source.
  struct Injector : EventSource {
    Injector(EventList& e, const Route& r) : EventSource(e, "inj"), events(e), route(r) {}
    void on_event() override {
      Packet& p = Packet::alloc(events);
      p.data_seq = static_cast<std::uint64_t>(count++);
      p.send_on(route);
    }
    EventList& events;
    const Route& route;
    int count = 0;
  } inj(events, route);
  events.schedule_at(inj, 0);
  events.schedule_at(inj, from_ms(3));
  events.run_all();

  ASSERT_EQ(sink.times.size(), 2u);
  EXPECT_EQ(sink.times[0], from_ms(10));
  EXPECT_EQ(sink.times[1], from_ms(13));
  EXPECT_EQ(sink.seqs[0], 0u);
  EXPECT_EQ(sink.seqs[1], 1u);
}

TEST(Pipe, ManyInFlightSimultaneously) {
  EventList events;
  CountingSink sink("sink");
  Pipe pipe(events, "pipe", from_ms(100));
  Route route({&pipe, &sink});
  for (int i = 0; i < 1000; ++i) Packet::alloc(events).send_on(route);
  events.run_all();
  EXPECT_EQ(sink.packets(), 1000u);
  EXPECT_EQ(events.now(), from_ms(100));
}

// --- service disciplines ---------------------------------------------------
// Head-armed service (the default) against the per-packet reference that
// Pipe::set_batched(false) restores.

struct FatTreeRun {
  std::uint64_t delivered0;
  std::uint64_t delivered1;
  std::uint64_t events;

  bool operator==(const FatTreeRun&) const = default;
};

// Two cross-pod MPTCP connections with two sampled paths each on a k = 4
// FatTree (the construction the scenario builders perform), with every
// pipe on one service discipline.
FatTreeRun run_fattree(bool batched) {
  EventList events;
  topo::Network net(events);
  topo::FatTree ft(net, 4);
  Rng rng(77);
  std::vector<std::unique_ptr<mptcp::MptcpConnection>> conns;
  for (const auto& [src, dst] : {std::pair{0, 13}, std::pair{5, 10}}) {
    auto pairs = topo::sample_path_pairs(ft, src, dst, 2, rng);
    auto conn = std::make_unique<mptcp::MptcpConnection>(
        events, "mp" + std::to_string(src), cc::mptcp_lia());
    for (auto& pr : pairs) {
      conn->add_subflow(std::move(pr.first), std::move(pr.second));
    }
    conn->start(0);
    conns.push_back(std::move(conn));
  }
  // All per-path elements exist now; switch every pipe in one sweep.
  net.set_pipes_batched(batched);
  events.run_until(from_ms(60));
  return {conns[0]->delivered_pkts(), conns[1]->delivered_pkts(),
          events.events_processed()};
}

TEST(Pipe, BatchedAndLegacyPipeServiceBitIdentical) {
  // Head-armed batching changes how many scheduler entries are pending,
  // never what the simulation computes.
  const FatTreeRun batched = run_fattree(true);
  EXPECT_GT(batched.delivered0, 0u);
  EXPECT_GT(batched.delivered1, 0u);
  EXPECT_EQ(batched, run_fattree(false));
}

// Micro property: a batch delivery never reorders same-time ties. Packets
// entering one pipe in some order at the same instant leave in that order,
// under both disciplines, interleaved identically with a second pipe's
// same-time deliveries (canonical keys order by construction id).
class OrderSink final : public PacketSink {
 public:
  OrderSink(std::string name,
            std::vector<std::pair<SimTime, std::uint64_t>>& log,
            EventList& events)
      : name_(std::move(name)), log_(&log), events_(&events) {}

  void receive(Packet& pkt) override {
    log_->emplace_back(events_->now(), pkt.subflow_seq);
    pkt.release();
  }
  const std::string& sink_name() const override { return name_; }

 private:
  std::string name_;
  std::vector<std::pair<SimTime, std::uint64_t>>* log_;
  EventList* events_;
};

TEST(Pipe, BatchBoundariesPreserveSameTimeTieOrder) {
  auto run = [](bool batched) {
    EventList events;
    Pipe p1(events, "p1", from_us(50));
    Pipe p2(events, "p2", from_us(50));
    p1.set_batched(batched);
    p2.set_batched(batched);
    std::vector<std::pair<SimTime, std::uint64_t>> log;
    OrderSink s1("s1", log, events);
    OrderSink s2("s2", log, events);
    Route r1({&p1, &s1});
    Route r2({&p2, &s2});
    // Interleave 16 same-time sends across the two pipes: all 16 arrive
    // at exactly t=50us, so dispatch order is decided purely by the
    // canonical (order id, seq) keys.
    for (std::uint64_t i = 0; i < 16; ++i) {
      Packet& pkt = Packet::alloc(events);
      pkt.subflow_seq = i;
      pkt.send_on(i % 2 == 0 ? r1 : r2);
    }
    events.run_all();
    return log;
  };
  const auto on = run(true);
  const auto off = run(false);
  ASSERT_EQ(on.size(), 16u);
  ASSERT_EQ(on, off) << "service discipline changed a same-time tie order";
  // All of pipe 1's packets (even seqs) drain before pipe 2's (odd seqs):
  // p1 was constructed first, so its canonical keys sort lower; within a
  // pipe, FIFO by seq.
  for (std::size_t i = 0; i < 8; ++i) {
    EXPECT_EQ(on[i].second, 2 * i) << "pipe 1 tie order broken at " << i;
    EXPECT_EQ(on[8 + i].second, 2 * i + 1)
        << "pipe 2 tie order broken at " << i;
  }
}

}  // namespace
}  // namespace mpsim::net
