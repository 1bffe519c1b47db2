#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "sim_fixtures.hpp"
#include "topo/network.hpp"
#include "traffic/poisson_flows.hpp"
#include "traffic/traffic_matrix.hpp"

namespace mpsim::traffic {
namespace {

TEST(TrafficMatrix, PermutationIsDerangement) {
  Rng rng(1);
  for (int trial = 0; trial < 20; ++trial) {
    auto tm = permutation_tm(64, rng);
    ASSERT_EQ(tm.size(), 64u);
    std::set<int> srcs, dsts;
    for (const auto& f : tm) {
      EXPECT_NE(f.src, f.dst);
      srcs.insert(f.src);
      dsts.insert(f.dst);
    }
    EXPECT_EQ(srcs.size(), 64u) << "each host sends exactly once";
    EXPECT_EQ(dsts.size(), 64u) << "each host receives exactly once";
  }
}

TEST(TrafficMatrix, PermutationMinimumSize) {
  Rng rng(2);
  auto tm = permutation_tm(2, rng);
  ASSERT_EQ(tm.size(), 2u);
  EXPECT_EQ(tm[0].dst, 1);
  EXPECT_EQ(tm[1].dst, 0);
}

TEST(TrafficMatrix, OneToManyCountsAndDistinctness) {
  Rng rng(3);
  auto tm = one_to_many_tm(50, 12, rng);
  EXPECT_EQ(tm.size(), 600u);
  // Per-src destinations are distinct and never the src.
  for (int h = 0; h < 50; ++h) {
    std::set<int> dsts;
    for (const auto& f : tm) {
      if (f.src != h) continue;
      EXPECT_NE(f.dst, h);
      EXPECT_TRUE(dsts.insert(f.dst).second);
    }
    EXPECT_EQ(dsts.size(), 12u);
  }
}

TEST(TrafficMatrix, SparseFractionApproximatelyHonoured) {
  Rng rng(4);
  int total = 0;
  for (int trial = 0; trial < 50; ++trial) {
    total += static_cast<int>(sparse_tm(100, 0.3, rng).size());
  }
  EXPECT_NEAR(total / 50.0, 30.0, 3.0);
}

TEST(TrafficMatrix, SparseNeverSelfFlows) {
  Rng rng(5);
  for (const auto& f : sparse_tm(100, 1.0, rng)) EXPECT_NE(f.src, f.dst);
}

TEST(PoissonFlows, GeneratesAndCompletesFlows) {
  EventList events;
  topo::Network net(events);
  test::SingleLink link(net, 100e6, from_ms(5), 100 * net::kDataPacketBytes);

  PoissonConfig cfg;
  cfg.light_rate_per_sec = 20.0;
  cfg.heavy_rate_per_sec = 20.0;
  cfg.mean_flow_bytes = 100e3;
  PoissonFlowGenerator gen(
      events, "gen", cfg,
      [&](const std::string& name, std::uint64_t pkts) {
        mptcp::ConnectionConfig ccfg;
        ccfg.app_limit_pkts = pkts;
        auto conn = mptcp::make_single_path_tcp(events, name, link.fwd(),
                                                link.rev(), ccfg);
        conn->start(events.now());
        return conn;
      });
  gen.start(0);
  events.run_until(from_sec(10));
  // ~200 arrivals expected; the fast link drains them quickly.
  EXPECT_GT(gen.flows_started(), 120u);
  EXPECT_LT(gen.flows_started(), 300u);
  EXPECT_GT(gen.flows_completed(), gen.flows_started() * 8 / 10);
}

TEST(PoissonFlows, AlternatingPhasesChangeArrivalRate) {
  EventList events;
  topo::Network net(events);
  test::SingleLink link(net, 1e9, from_ms(1), 1000 * net::kDataPacketBytes);
  PoissonConfig cfg;
  cfg.light_rate_per_sec = 5.0;
  cfg.heavy_rate_per_sec = 100.0;
  cfg.phase_duration = from_sec(5);
  PoissonFlowGenerator gen(
      events, "gen", cfg,
      [&](const std::string& name, std::uint64_t pkts) {
        mptcp::ConnectionConfig ccfg;
        ccfg.app_limit_pkts = pkts;
        auto conn = mptcp::make_single_path_tcp(events, name, link.fwd(),
                                                link.rev(), ccfg);
        conn->start(events.now());
        return conn;
      });
  gen.start(0);
  events.run_until(from_sec(5));
  const auto light = gen.flows_started();
  events.run_until(from_sec(10));
  const auto heavy = gen.flows_started() - light;
  EXPECT_GT(heavy, light * 5) << "heavy phase should arrive ~20x faster";
}

}  // namespace
}  // namespace mpsim::traffic
