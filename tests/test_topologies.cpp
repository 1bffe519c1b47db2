// Structural tests for the topology builders: path counts, hop structure,
// disjointness, and addressing — checked against the §4 descriptions.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "core/event_list.hpp"
#include "topo/bcube.hpp"
#include "topo/fat_tree.hpp"
#include "topo/network.hpp"
#include "topo/parking_lot.hpp"
#include "topo/ring.hpp"
#include "topo/two_link.hpp"

namespace mpsim::topo {
namespace {

TEST(FatTree, PaperScaleCounts) {
  EventList events;
  Network net(events);
  FatTree ft(net, 8);
  EXPECT_EQ(ft.num_hosts(), 128);   // "128 single-interface hosts"
  EXPECT_EQ(ft.num_switches(), 80); // "80 eight-port switches"
}

TEST(FatTree, CrossPodPathCount) {
  EventList events;
  Network net(events);
  FatTree ft(net, 4);
  // k=4: (k/2)^2 = 4 cross-pod paths.
  EXPECT_EQ(ft.paths(0, 15).size(), 4u);
}

TEST(FatTree, SamePodPathCount) {
  EventList events;
  Network net(events);
  FatTree ft(net, 4);
  // Hosts 0 and 2 share a pod (hosts/pod = 4) but not an edge switch.
  EXPECT_EQ(ft.paths(0, 2).size(), 2u);
}

TEST(FatTree, SameEdgeSinglePath) {
  EventList events;
  Network net(events);
  FatTree ft(net, 4);
  EXPECT_EQ(ft.paths(0, 1).size(), 1u);
}

TEST(FatTree, CrossPodPathsHaveSixHops) {
  EventList events;
  Network net(events);
  FatTree ft(net, 4);
  for (const Path& p : ft.paths(0, 15)) {
    ASSERT_EQ(p.size(), 12u);  // 6 links x (queue + pipe)
    for (std::size_t i = 0; i < p.size(); i += 2) {
      EXPECT_NE(dynamic_cast<net::Queue*>(p[i]), nullptr)
          << "hop " << i << " must be a queue";
      EXPECT_NE(dynamic_cast<net::Pipe*>(p[i + 1]), nullptr)
          << "hop " << i + 1 << " must be a pipe";
    }
  }
}

TEST(FatTree, PathsHaveDistinctCoreTransits) {
  // Cross-pod paths may share edge<->agg links (when they pick the same
  // aggregation switch) but each (agg, core) choice is unique, so the
  // agg->core hop (element index 4: host_up, edge_agg, then agg_core)
  // identifies the path.
  EventList events;
  Network net(events);
  FatTree ft(net, 4);
  auto ps = ft.paths(0, 15);
  std::set<net::PacketSink*> agg_core_hops;
  for (const Path& p : ps) {
    ASSERT_GE(p.size(), 6u);
    EXPECT_TRUE(agg_core_hops.insert(p[4]).second)
        << "two paths share the same agg->core link";
  }
  EXPECT_EQ(agg_core_hops.size(), ps.size());
}

TEST(FatTree, SamplePathsAreDistinct) {
  EventList events;
  Network net(events);
  FatTree ft(net, 8);
  Rng rng(1);
  auto ps = ft.sample_paths(0, 100, 8, rng);
  EXPECT_EQ(ps.size(), 8u);
  std::set<net::PacketSink*> agg_core_hops;
  for (const Path& p : ps) {
    EXPECT_TRUE(agg_core_hops.insert(p[4]).second)
        << "sampled paths must be distinct (agg,core) choices";
  }
}

TEST(FatTree, AckPathsArePerCallAndDelayMatched) {
  EventList events;
  Network net(events);
  FatTree ft(net, 4);
  auto p1 = ft.paths(0, 15)[0];
  auto p2 = ft.paths(1, 14)[0];
  auto a1 = ft.ack_path(p1);
  auto a2 = ft.ack_path(p2);
  ASSERT_EQ(a1.size(), 1u);
  ASSERT_EQ(a2.size(), 1u);
  // Per-call pipes (see fat_tree.hpp): sharing one between connections
  // would change the canonical event keys and the event count.
  EXPECT_NE(a1[0], a2[0]) << "ACK pipes are per-call, not shared";
  EXPECT_EQ(static_cast<net::Pipe*>(a1[0])->delay(),
            static_cast<net::Pipe*>(a2[0])->delay())
      << "equal-hop forward paths get equal ACK delays";
}

TEST(FatTree, QueueInventoryCounts) {
  EventList events;
  Network net(events);
  FatTree ft(net, 4);
  // Access: 16 up + 16 down. Core: edge-agg 4 pods x2x2 x2 dirs = 32,
  // agg-core 4 pods x2 aggs x2 cores x2 dirs = 32.
  EXPECT_EQ(ft.access_queues().size(), 32u);
  EXPECT_EQ(ft.core_queues().size(), 64u);
}

TEST(BCube, PaperScaleCounts) {
  EventList events;
  Network net(events);
  BCube bc(net, 5, 2);
  EXPECT_EQ(bc.num_hosts(), 125);       // "125 three-interface hosts"
  EXPECT_EQ(bc.levels(), 3);
  EXPECT_EQ(bc.switches_per_level(), 25);
}

TEST(BCube, NeighborsDifferInOneDigit) {
  EventList events;
  Network net(events);
  BCube bc(net, 5, 2);
  auto nb = bc.neighbors(0, 1);
  EXPECT_EQ(nb.size(), 4u);  // n-1 per level
  for (int h : nb) {
    EXPECT_EQ(h % 5, 0);       // digit 0 unchanged
    EXPECT_EQ(h / 25, 0);      // digit 2 unchanged
    EXPECT_NE(h, 0);
  }
}

TEST(BCube, TwelveTp2Destinations) {
  EventList events;
  Network net(events);
  BCube bc(net, 5, 2);
  std::set<int> dsts;
  for (int l = 0; l < 3; ++l) {
    for (int d : bc.neighbors(7, l)) dsts.insert(d);
  }
  EXPECT_EQ(dsts.size(), 12u) << "4 neighbours x 3 levels (paper TP2)";
}

TEST(BCube, ProducesLevelsPlusOnePaths) {
  EventList events;
  Network net(events);
  BCube bc(net, 5, 2);
  Rng rng(3);
  EXPECT_EQ(bc.paths(0, 124, rng).size(), 3u);
}

TEST(BCube, PathsLeaveOnDistinctInterfaces) {
  EventList events;
  Network net(events);
  BCube bc(net, 5, 2);
  Rng rng(5);
  auto ps = bc.paths(3, 88, rng);
  std::set<net::PacketSink*> first_hops;
  for (const Path& p : ps) {
    EXPECT_TRUE(first_hops.insert(p[0]).second)
        << "each path must use a different source NIC";
  }
}

TEST(BCube, SinglePathHopCountMatchesHammingDistance) {
  EventList events;
  Network net(events);
  BCube bc(net, 5, 2);
  // 0 = (0,0,0); 31 = (1,1,1) in base 5 -> Hamming distance 3 ->
  // 3 corrections x 2 links x 2 elements = 12.
  const int dst = 1 + 5 + 25;
  EXPECT_EQ(bc.single_path(0, dst).size(), 12u);
  // 1 = (0,0,1): distance 1 -> 4 elements.
  EXPECT_EQ(bc.single_path(0, 1).size(), 4u);
}

TEST(BCube, DetourPathsStillArrive) {
  // paths() asserts internally that every constructed path terminates at
  // dst; exercise many pairs to cover the detour logic.
  EventList events;
  Network net(events);
  BCube bc(net, 5, 2);
  Rng rng(7);
  for (int trial = 0; trial < 50; ++trial) {
    const int src = static_cast<int>(rng.next_below(125));
    int dst = src;
    while (dst == src) dst = static_cast<int>(rng.next_below(125));
    auto ps = bc.paths(src, dst, rng);
    EXPECT_EQ(ps.size(), 3u);
    for (const Path& p : ps) EXPECT_GE(p.size(), 4u);
  }
}

// Fig. 7's torus shape: five 12 Mb/s links "l0".."l4".
std::vector<RingLink> five_links() {
  std::vector<RingLink> links;
  for (int i = 0; i < 5; ++i) {
    links.push_back({"l" + std::to_string(i), 12e6, from_ms(50), 150000});
  }
  return links;
}

TEST(Ring, FlowsMapToAdjacentLinks) {
  EventList events;
  Network net(events);
  Ring torus(net, five_links());
  // Flow 4 wraps: link 4 and link 0.
  EXPECT_EQ(torus.fwd(4, 0)[0],
            static_cast<net::PacketSink*>(&torus.queue(4)));
  EXPECT_EQ(torus.fwd(4, 1)[0],
            static_cast<net::PacketSink*>(&torus.queue(0)));
}

TEST(Ring, EachLinkServesTwoFlows) {
  EventList events;
  Network net(events);
  Ring torus(net, five_links());
  // Link 2 is used by flow 2 (path 0) and flow 1 (path 1).
  int users = 0;
  for (int f = 0; f < 5; ++f) {
    for (int pth = 0; pth < 2; ++pth) {
      if (torus.fwd(f, pth)[0] ==
          static_cast<net::PacketSink*>(&torus.queue(2))) {
        ++users;
      }
    }
  }
  EXPECT_EQ(users, 2);
}

TEST(ParkingLot, TwoHopPathCrossesTwoLinks) {
  EventList events;
  Network net(events);
  ParkingLot pl(net, 12e6, from_ms(5), 50 * net::kDataPacketBytes);
  EXPECT_EQ(pl.one_hop_fwd(0).size(), 2u);
  EXPECT_EQ(pl.two_hop_fwd(0).size(), 4u);
  // Flow 0's two-hop path uses links 1 and 2.
  EXPECT_EQ(pl.two_hop_fwd(0)[0],
            static_cast<net::PacketSink*>(&pl.queue(1)));
  EXPECT_EQ(pl.two_hop_fwd(0)[2],
            static_cast<net::PacketSink*>(&pl.queue(2)));
}

TEST(Ring, ThreeLinksAssignCyclically) {
  EventList events;
  Network net(events);
  // Fig. 3's shape: three links of unequal capacity.
  Ring tri(net, {{"tri0", 12e6, from_ms(5), 50000},
                 {"tri1", 10e6, from_ms(5), 50000},
                 {"tri2", 8e6, from_ms(5), 50000}});
  EXPECT_EQ(tri.flow_slots(), 3);
  // Flow 2 uses links 2 and 0.
  EXPECT_EQ(tri.fwd(2, 0)[0], static_cast<net::PacketSink*>(&tri.queue(2)));
  EXPECT_EQ(tri.fwd(2, 1)[0], static_cast<net::PacketSink*>(&tri.queue(0)));
}

TEST(TwoLink, SpecHelpersAndAccess) {
  EventList events;
  Network net(events);
  auto spec1 = LinkSpec::pkt_rate(1000.0, from_ms(50), 1.0);
  EXPECT_DOUBLE_EQ(spec1.rate_bps, 1000.0 * 1500 * 8);
  TwoLink tl(net, spec1, spec1);
  EXPECT_EQ(tl.fwd(0).size(), 2u);
  EXPECT_EQ(tl.rev(0).size(), 1u);
  EXPECT_NE(&tl.queue(0), &tl.queue(1));
}

TEST(NetworkHelpers, BdpBytes) {
  // 12 Mb/s x 100 ms = 150 kB (+1 packet of slack).
  EXPECT_NEAR(static_cast<double>(bdp_bytes(12e6, from_ms(100))), 150000.0,
              1600.0);
}

}  // namespace
}  // namespace mpsim::topo
