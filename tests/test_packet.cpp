#include "net/packet.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "core/event_list.hpp"

namespace mpsim::net {
namespace {

// Sink that records arrivals and forwards (or terminates).
class RecordingSink : public PacketSink {
 public:
  explicit RecordingSink(std::string name, bool terminal = false)
      : name_(std::move(name)), terminal_(terminal) {}
  void receive(Packet& pkt) override {
    ++arrivals;
    if (terminal_) {
      pkt.release();
    } else {
      pkt.advance();
    }
  }
  const std::string& sink_name() const override { return name_; }
  int arrivals = 0;

 private:
  std::string name_;
  bool terminal_;
};

TEST(Packet, AllocReturnsCleanPacket) {
  EventList events;
  Packet& p = Packet::alloc(events);
  p.flow_id = 99;
  p.data_seq = 1234;
  p.is_retransmit = true;
  p.release();
  Packet& q = Packet::alloc(events);  // pool recycles; must be reset
  EXPECT_EQ(q.flow_id, 0u);
  EXPECT_EQ(q.data_seq, 0u);
  EXPECT_FALSE(q.is_retransmit);
  EXPECT_EQ(q.size_bytes, kDataPacketBytes);
  q.release();
}

TEST(Packet, PoolTracksOutstanding) {
  EventList events;
  const std::size_t base = Packet::pool_outstanding(events);
  Packet& a = Packet::alloc(events);
  Packet& b = Packet::alloc(events);
  EXPECT_EQ(Packet::pool_outstanding(events), base + 2);
  a.release();
  b.release();
  EXPECT_EQ(Packet::pool_outstanding(events), base);
}

TEST(Packet, SendOnTraversesAllHops) {
  EventList events;
  RecordingSink s1("s1"), s2("s2"), s3("s3", /*terminal=*/true);
  Route route({&s1, &s2, &s3});
  Packet& p = Packet::alloc(events);
  p.send_on(route);
  EXPECT_EQ(s1.arrivals, 1);
  EXPECT_EQ(s2.arrivals, 1);
  EXPECT_EQ(s3.arrivals, 1);
}

TEST(Packet, RouteAccessorDuringTraversal) {
  EventList events;
  RecordingSink terminal("t", true);
  Route route({&terminal});
  Packet& p = Packet::alloc(events);
  p.send_on(route);
  // Packet is released by the terminal; the route object is untouched.
  EXPECT_EQ(route.size(), 1u);
}

TEST(Route, ReverseLinkage) {
  RecordingSink a("a", true), b("b", true);
  Route fwd({&a});
  Route rev({&b});
  fwd.set_reverse(&rev);
  rev.set_reverse(&fwd);
  EXPECT_EQ(fwd.reverse(), &rev);
  EXPECT_EQ(rev.reverse(), &fwd);
}

TEST(Route, PushBackBuildsInOrder) {
  RecordingSink a("a"), b("b");
  Route r;
  r.push_back(&a);
  r.push_back(&b);
  ASSERT_EQ(r.size(), 2u);
  EXPECT_EQ(r.at(0), &a);
  EXPECT_EQ(r.at(1), &b);
}

TEST(Packet, SizesMatchConventions) {
  EXPECT_EQ(kDataPacketBytes, 1500u);
  EXPECT_EQ(kAckPacketBytes, 40u);
}

TEST(Packet, ManyAllocReleaseCyclesStayBalanced) {
  EventList events;
  const std::size_t base = Packet::pool_outstanding(events);
  std::vector<Packet*> live;
  for (int round = 0; round < 10; ++round) {
    for (int i = 0; i < 100; ++i) live.push_back(&Packet::alloc(events));
    for (Packet* p : live) p->release();
    live.clear();
  }
  EXPECT_EQ(Packet::pool_outstanding(events), base);
}

// Each EventList owns its own pool: allocations against one simulation
// context never show up in another's accounting, and a packet releases
// back to the pool it came from even if another pool allocated since.
TEST(PacketPool, InstancesAreIndependent) {
  EventList a;
  EventList b;
  Packet& pa = Packet::alloc(a);
  EXPECT_EQ(Packet::pool_outstanding(a), 1u);
  EXPECT_EQ(Packet::pool_outstanding(b), 0u);
  Packet& pb1 = Packet::alloc(b);
  Packet& pb2 = Packet::alloc(b);
  EXPECT_EQ(Packet::pool_outstanding(a), 1u);
  EXPECT_EQ(Packet::pool_outstanding(b), 2u);
  pa.release();  // releases into a's pool, not b's
  EXPECT_EQ(Packet::pool_outstanding(a), 0u);
  EXPECT_EQ(Packet::pool_outstanding(b), 2u);
  pb1.release();
  pb2.release();
  EXPECT_EQ(Packet::pool_outstanding(b), 0u);
}

TEST(PacketPool, PeakOutstandingHighWaterMark) {
  EventList events;
  PacketPool& pool = PacketPool::of(events);
  std::vector<Packet*> live;
  for (int i = 0; i < 7; ++i) live.push_back(&pool.alloc());
  for (Packet* p : live) p->release();
  live.clear();
  EXPECT_EQ(pool.outstanding(), 0u);
  EXPECT_EQ(pool.peak_outstanding(), 7u);
  // A smaller burst does not move the high-water mark.
  for (int i = 0; i < 3; ++i) live.push_back(&pool.alloc());
  for (Packet* p : live) p->release();
  EXPECT_EQ(pool.peak_outstanding(), 7u);
}

// A forwarding hop reads only the first cache line of a packet.
TEST(Packet, HopHeaderIsOneLine) {
  EXPECT_EQ(sizeof(PacketHop), 64u);
  EXPECT_EQ(alignof(Packet), 64u);
  EXPECT_EQ(sizeof(Packet), 128u);
}

// Packets are carved in order out of contiguous, line-aligned slabs, and
// recycled LIFO across slab boundaries with the conservation ledger intact.
TEST(PacketPool, SlabsAreLineAlignedAndReusedLifo) {
  EventList events;
  PacketPool& pool = PacketPool::of(events);
  constexpr std::size_t kSlab = PacketPool::kSlabPackets;
  const std::size_t n = 3 * kSlab + 1;  // four slabs, the last barely used
  std::vector<Packet*> live;
  for (std::size_t i = 0; i < n; ++i) {
    Packet& p = Packet::alloc(events);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(&p) % 64, 0u) << i;
    if (i % kSlab != 0) {
      EXPECT_EQ(&p, live.back() + 1) << i;  // contiguous within a slab
    }
    live.push_back(&p);
  }
  EXPECT_EQ(pool.slabs(), 4u);
  EXPECT_EQ(pool.capacity(), n);
  EXPECT_EQ(pool.outstanding(), n);

  // Release a stretch that spans two slab boundaries; it comes back in
  // reverse order, and no packet is carved while the free list has any.
  const std::size_t from = kSlab - 3;
  const std::size_t to = 2 * kSlab + 5;
  for (std::size_t i = from; i < to; ++i) live[i]->release();
  EXPECT_EQ(pool.outstanding(), n - (to - from));
  for (std::size_t i = to; i-- > from;) {
    EXPECT_EQ(&Packet::alloc(events), live[i]) << i;
  }
  EXPECT_EQ(pool.capacity(), n);
  EXPECT_EQ(&Packet::alloc(events), live.back() + 1);  // next carve
  EXPECT_EQ(pool.slabs(), 4u);
  EXPECT_EQ(pool.total_allocated(),
            pool.total_released() + pool.outstanding());
  EXPECT_EQ(pool.outstanding(), pool.capacity());

  for (std::size_t i = 0; i <= n; ++i) {
    (i < n ? live[i] : live.back() + 1)->release();
  }
  EXPECT_EQ(pool.outstanding(), 0u);
  EXPECT_EQ(pool.total_allocated(), pool.total_released());
}

// Satellite (d): two simulations allocating concurrently on separate
// threads. Pools are per-EventList, so there is no shared mutable state;
// each thread's accounting must balance independently.
TEST(PacketPool, ConcurrentSimulationsDoNotInterfere) {
  auto churn = [](std::size_t* peak_out) {
    EventList events;
    std::vector<Packet*> live;
    for (int round = 0; round < 200; ++round) {
      for (int i = 0; i < 64; ++i) live.push_back(&Packet::alloc(events));
      ASSERT_EQ(Packet::pool_outstanding(events), 64u);
      for (Packet* p : live) p->release();
      live.clear();
      ASSERT_EQ(Packet::pool_outstanding(events), 0u);
    }
    *peak_out = PacketPool::of(events).peak_outstanding();
  };
  std::size_t peak1 = 0;
  std::size_t peak2 = 0;
  std::thread t1(churn, &peak1);
  std::thread t2(churn, &peak2);
  t1.join();
  t2.join();
  EXPECT_EQ(peak1, 64u);
  EXPECT_EQ(peak2, 64u);
}

}  // namespace
}  // namespace mpsim::net
