// Reproducibility: identical configurations produce bit-identical
// results; different seeds differ. Every scenario spec relies on this
// property.
#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <queue>
#include <string>
#include <utility>
#include <vector>

#include "cc/mptcp_lia.hpp"
#include "mptcp/connection.hpp"
#include "net/cbr.hpp"
#include "sim_fixtures.hpp"
#include "topo/fat_tree.hpp"
#include "topo/network.hpp"
#include "traffic/traffic_matrix.hpp"

namespace mpsim {
namespace {

struct RunStats {
  std::uint64_t delivered;
  std::uint64_t acked0;
  std::uint64_t acked1;
  std::uint64_t loss0;
  std::uint64_t events;

  bool operator==(const RunStats&) const = default;
};

RunStats run_two_link(std::uint64_t cbr_seed) {
  EventList events;
  topo::Network net(events);
  auto l1 = net.add_link("l1", 10e6, from_ms(10),
                         topo::bdp_bytes(10e6, from_ms(20)));
  auto& a1 = net.add_pipe("a1", from_ms(10));
  auto l2 = net.add_link("l2", 10e6, from_ms(10),
                         topo::bdp_bytes(10e6, from_ms(20)));
  auto& a2 = net.add_pipe("a2", from_ms(10));

  net::CountingSink sink("cbrsink");
  topo::Path cbr_path = topo::path_of({&l1});
  cbr_path.push_back(&sink);
  net::Route cbr_route(cbr_path);
  net::OnOffCbrSource cbr(events, "cbr", cbr_route, 10e6, from_ms(20),
                          from_ms(80), cbr_seed);

  mptcp::MptcpConnection mp(events, "mp", cc::mptcp_lia());
  mp.add_subflow(topo::path_of({&l1}), {&a1});
  mp.add_subflow(topo::path_of({&l2}), {&a2});
  cbr.start(0);
  mp.start(from_ms(7));
  events.run_until(from_sec(20));
  return {mp.delivered_pkts(), mp.subflow(0).packets_acked(),
          mp.subflow(1).packets_acked(), l1.queue->drops(),
          events.events_processed()};
}

TEST(Determinism, IdenticalRunsAreBitIdentical) {
  const RunStats a = run_two_link(42);
  const RunStats b = run_two_link(42);
  EXPECT_EQ(a, b);
}

TEST(Determinism, DifferentSeedsDiffer) {
  const RunStats a = run_two_link(42);
  const RunStats b = run_two_link(43);
  EXPECT_NE(a.events, b.events);
}

// The reference dispatch order. Every schedule of the test's sources goes
// through schedule_at() here, which shadows it in a std::priority_queue
// under the key the EventList assigns it — (time, order id << 32 |
// per-source schedule count) — and each dispatch must be exactly the
// queue's minimum. cancel() drops a source from both.
class ReferenceOrder {
 public:
  explicit ReferenceOrder(EventList& events) : events_(events) {}

  void schedule_at(EventSource& src, SimTime t) {
    if (counts_.size() <= src.order_id()) counts_.resize(src.order_id() + 1);
    const std::uint64_t key =
        (static_cast<std::uint64_t>(src.order_id()) << 32) |
        counts_[src.order_id()]++;
    ref_.push(Item{t, key, &src});
    events_.schedule_at(src, t);
  }

  void cancel(const EventSource& src) {
    std::vector<Item> keep;
    std::size_t dropped = 0;
    for (; !ref_.empty(); ref_.pop()) {
      if (ref_.top().src == &src) {
        ++dropped;
      } else {
        keep.push_back(ref_.top());
      }
    }
    for (const Item& it : keep) ref_.push(it);
    if (events_.cancel(src) != dropped) ++mismatches_;
  }

  // Call first thing in on_event().
  void dispatched(const EventSource& src) {
    ++dispatches_;
    if (ref_.empty()) {
      ++mismatches_;
      return;
    }
    const Item want = ref_.top();
    ref_.pop();
    if (want.time != events_.now() || want.src != &src) {
      if (mismatches_++ == 0) {
        first_mismatch_ = "dispatch " + std::to_string(dispatches_) +
                          ": got (" + std::to_string(events_.now()) + ", " +
                          src.name() + "), reference (" +
                          std::to_string(want.time) + ", " +
                          want.src->name() + ")";
      }
    }
  }

  std::size_t dispatches() const { return dispatches_; }
  std::size_t mismatches() const { return mismatches_; }
  const std::string& first_mismatch() const { return first_mismatch_; }
  bool drained() const { return ref_.empty(); }

 private:
  struct Item {
    SimTime time;
    std::uint64_t key;
    EventSource* src;
    bool operator>(const Item& o) const {
      return time != o.time ? time > o.time : key > o.key;
    }
  };
  EventList& events_;
  std::priority_queue<Item, std::vector<Item>, std::greater<>> ref_;
  std::vector<std::uint32_t> counts_;  // by order id
  std::size_t dispatches_ = 0;
  std::size_t mismatches_ = 0;
  std::string first_mismatch_;
};

// A packet-forwarding shaped load, the FatTree regime: flows start in
// lockstep and pass through hops with equal service times, so hundreds of
// same-tick entries from many sources pile into single ticks, arriving as
// interleaved ascending runs, partly by cascade from level 1.
TEST(Determinism, ForwardingLoadMatchesReferenceOrder) {
  struct Hop : EventSource {
    Hop(EventList& e, ReferenceOrder& ref, int id, SimTime service)
        : EventSource(e, "hop" + std::to_string(id)),
          events(e),
          ref(ref),
          service(service) {}
    void on_event() override {
      ref.dispatched(*this);
      if (next != nullptr) {
        ref.schedule_at(*next, events.now() + next->service);
      }
      if (--left > 0) ref.schedule_at(*this, events.now() + service);
    }
    EventList& events;
    ReferenceOrder& ref;
    SimTime service;
    Hop* next = nullptr;
    int left = 200;  // self-reschedules; forwarded arrivals still count
  };

  EventList events;
  ReferenceOrder ref(events);
  // 64 chains of 4 hops. Hop delays of 1.2 us and 12 us cross level 0's
  // 2048-tick span; sources are built so that chain order and key order
  // disagree, which splits every tick into several runs.
  std::vector<std::unique_ptr<Hop>> hops;
  const SimTime service[] = {from_ns(1200), from_ns(12'000), from_ns(1200),
                             from_ns(12'000)};
  for (int i = 0; i < 64 * 4; ++i) {
    hops.push_back(std::make_unique<Hop>(events, ref, i, service[i % 4]));
  }
  for (int c = 0; c < 64; ++c) {
    for (int h = 0; h < 3; ++h) {
      hops[static_cast<std::size_t>(((63 - c) * 4 + h + 1) % 256)]->next =
          hops[static_cast<std::size_t>(c * 4 + h)].get();
    }
    ref.schedule_at(*hops[static_cast<std::size_t>(c * 4 + 3)], 0);
  }
  events.run_all();
  EXPECT_TRUE(ref.drained());
  EXPECT_EQ(ref.dispatches(), events.events_processed());
  EXPECT_GE(ref.dispatches(), 100'000u);
  EXPECT_EQ(ref.mismatches(), 0u) << ref.first_mismatch();
  EXPECT_GT(events.scheduler_stats().runs_merged, 0u)
      << "no tick held interleaved runs; the load tested nothing";
  EXPECT_GT(events.scheduler_stats().cascaded, 0u);
}

// Randomized churn over >= 10^5 events, stressing ties, zero-delay
// self-reschedules, slot boundaries, beyond-horizon jumps into the overflow
// heap, and cancel() mid-run, also of entries in the tick being drained:
// every dispatch must match the reference order.
TEST(Determinism, SchedulerChurnMatchesReferenceOrder) {
  struct Churner : EventSource {
    Churner(EventList& e, ReferenceOrder& ref,
            std::vector<std::unique_ptr<Churner>>& all, int id,
            std::uint64_t seed)
        : EventSource(e, "churn" + std::to_string(id)),
          events(e),
          ref(ref),
          all(all),
          id(id),
          rng(seed) {}
    void on_event() override {
      ref.dispatched(*this);
      if (ref.dispatches() >= 120'000) return;  // stop rescheduling; drain
      const double u = rng.next_double();
      SimTime delta;
      if (u < 0.15) {
        delta = 0;  // same-tick: exercises mid-dispatch inserts
      } else if (u < 0.55) {
        delta = static_cast<SimTime>(rng.next_double() * 300);
      } else if (u < 0.85) {
        delta = static_cast<SimTime>(rng.next_double() * (1 << 18));
      } else if (u < 0.99) {
        delta = static_cast<SimTime>(rng.next_double() * (1ll << 30));
      } else {
        // Past the wheel horizon: lands in the overflow heap.
        delta = (1ll << 34) + static_cast<SimTime>(rng.next_double() * 1e9);
      }
      ref.schedule_at(*this, events.now() + delta);
      // Occasionally double-schedule to keep multiple pending entries per
      // source in flight.
      if (rng.next_double() < 0.1) {
        ref.schedule_at(*this, events.now() + delta / 2);
      }
      // Now and then tear another source's wake-ups down and re-arm it.
      // The zero-delay wake-up first makes sure one of them waits in the
      // tick being drained.
      if (rng.next_double() < 0.01) {
        Churner& other = *all[(static_cast<std::size_t>(id) + 5) % all.size()];
        ref.schedule_at(other, events.now());
        ref.cancel(other);
        ref.schedule_at(other, events.now() + (rng.next_double() < 0.5
                                                    ? 0
                                                    : from_us(3)));
      }
    }
    EventList& events;
    ReferenceOrder& ref;
    std::vector<std::unique_ptr<Churner>>& all;
    int id;
    Rng rng;
  };

  EventList events;
  ReferenceOrder ref(events);
  std::vector<std::unique_ptr<Churner>> churners;
  for (int i = 0; i < 16; ++i) {
    churners.push_back(std::make_unique<Churner>(
        events, ref, churners, i, 555 + static_cast<std::uint64_t>(i)));
  }
  for (int i = 0; i < 16; ++i) {
    ref.schedule_at(*churners[static_cast<std::size_t>(i)], i % 3);
  }
  events.run_all();
  EXPECT_TRUE(ref.drained());
  EXPECT_EQ(ref.dispatches(), events.events_processed());
  EXPECT_GE(ref.dispatches(), 100'000u);
  EXPECT_EQ(ref.mismatches(), 0u) << ref.first_mismatch();
}

TEST(Determinism, TrafficMatricesReproducible) {
  Rng a(7), b(7);
  auto tma = traffic::permutation_tm(64, a);
  auto tmb = traffic::permutation_tm(64, b);
  ASSERT_EQ(tma.size(), tmb.size());
  for (std::size_t i = 0; i < tma.size(); ++i) {
    EXPECT_EQ(tma[i].dst, tmb[i].dst);
  }
}

TEST(Determinism, FatTreePathSamplingReproducible) {
  EventList ev1, ev2;
  topo::Network n1(ev1), n2(ev2);
  topo::FatTree f1(n1, 4), f2(n2, 4);
  Rng r1(9), r2(9);
  auto p1 = f1.sample_paths(0, 15, 3, r1);
  auto p2 = f2.sample_paths(0, 15, 3, r2);
  ASSERT_EQ(p1.size(), p2.size());
  for (std::size_t i = 0; i < p1.size(); ++i) {
    // Structural equality: same element names along the path.
    ASSERT_EQ(p1[i].size(), p2[i].size());
    for (std::size_t h = 0; h < p1[i].size(); ++h) {
      EXPECT_EQ(p1[i][h]->sink_name(), p2[i][h]->sink_name());
    }
  }
}

}  // namespace
}  // namespace mpsim
