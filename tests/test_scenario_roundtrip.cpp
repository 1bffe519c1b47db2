// Round-trip byte-identity: a simulation assembled by the scenario engine
// from a spec file must produce exactly the numbers (bit-for-bit doubles)
// of the same simulation built directly against the C++ API, and exactly
// the same results at any thread count. With the golden traces, these
// tests pin what a spec prints: a builder that reorders element creation
// or rng draws breaks here, not silently in a paper figure.
#include "scenario/engine.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "cc/coupled.hpp"
#include "cc/mptcp_lia.hpp"
#include "core/rng.hpp"
#include "mptcp/connection.hpp"
#include "net/packet.hpp"
#include "runner/experiment_runner.hpp"
#include "stats/goodput.hpp"
#include "stats/summary.hpp"
#include "topo/fat_tree.hpp"
#include "topo/network.hpp"
#include "topo/ring.hpp"
#include "topo/wireless.hpp"
#include "traffic/traffic_matrix.hpp"

namespace mpsim::scenario {
namespace {

// Execute the single run of `text` through the engine and return its
// recorded metrics in order.
std::vector<std::pair<std::string, double>> engine_values(
    const std::string& text) {
  Scenario s = Scenario::from_string(text, "rt.toml");
  const auto runs = s.expand();
  EXPECT_EQ(runs.size(), 1u);
  runner::RunContext ctx(runs[0].name);
  execute_run(runs[0], /*time_scale=*/1.0, ctx);
  return ctx.values();
}

TEST(ScenarioRoundTrip, TorusMatchesDirectConstruction) {
  const auto engine = engine_values(R"(
[scenario]
name = "rt_torus"

[topology]
kind = "torus"
rate_pps = 1000
cap_c = 250

[algorithm]
kind = "coupled"

[traffic]
kind = "persistent"
stagger = "31ms"

[run]
warmup = "5s"
measure = "20s"

[output]
metrics = ["flow_mbps", "jain", "queue_loss", "loss_ratio:0:2"]
)");

  // The same simulation, written directly against the C++ API.
  runner::RunContext ctx("direct");
  EventList& events = ctx.events();
  topo::Network net(events);
  // Fig. 7's torus: every RTT 100 ms, every buffer one BDP.
  const double pps[] = {1000.0, 1000.0, 250.0, 1000.0, 1000.0};
  std::vector<topo::RingLink> links;
  for (int i = 0; i < 5; ++i) {
    const double bps = topo::pkts_per_sec_to_bps(pps[i]);
    links.push_back({"torus" + std::string(1, char('A' + i)), bps,
                     from_ms(50), topo::bdp_bytes(bps, from_ms(100), 1.0)});
  }
  topo::Ring torus(net, links);
  stats::GoodputMeter meter(events);
  cc::Coupled coupled;
  std::vector<std::unique_ptr<mptcp::MptcpConnection>> conns;
  for (int i = 0; i < 5; ++i) {
    auto conn = std::make_unique<mptcp::MptcpConnection>(
        events, "flow" + std::to_string(i), coupled);
    conn->add_subflow(torus.fwd(i, 0), torus.rev(i, 0));
    conn->add_subflow(torus.fwd(i, 1), torus.rev(i, 1));
    conn->start(static_cast<SimTime>(i) * from_ms(31));
    meter.track(*conn);
    conns.push_back(std::move(conn));
  }
  events.run_until(from_sec(5));
  for (int l = 0; l < 5; ++l) torus.queue(l).reset_stats();
  meter.mark();
  events.run_until(from_sec(5) + from_sec(20));
  const std::vector<double> mbps = meter.mbps();

  // 5 flow rates + jain + 5 queue losses + 1 loss ratio, in plan order.
  ASSERT_EQ(engine.size(), 12u);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(engine[static_cast<std::size_t>(i)].first,
              "mbps_flow" + std::to_string(i));
    EXPECT_EQ(engine[static_cast<std::size_t>(i)].second,
              mbps[static_cast<std::size_t>(i)]);
  }
  EXPECT_EQ(engine[5].first, "jain");
  EXPECT_EQ(engine[5].second, stats::jain_index(mbps));
  for (int l = 0; l < 5; ++l) {
    EXPECT_EQ(engine[static_cast<std::size_t>(6 + l)].first,
              "loss_q" + std::to_string(l));
    EXPECT_EQ(engine[static_cast<std::size_t>(6 + l)].second,
              torus.queue(l).loss_rate());
  }
  const double pa = torus.queue(0).loss_rate();
  const double pc = torus.queue(2).loss_rate();
  EXPECT_EQ(engine[11].first, "loss_ratio_0_2");
  EXPECT_EQ(engine[11].second, pc > 0 ? pa / pc : 0.0);

  // The experiment actually ran: every ring flow moved traffic.
  for (double v : mbps) EXPECT_GT(v, 0.0);
}

TEST(ScenarioRoundTrip, FatTreePermutationMatchesDirect) {
  const auto engine = engine_values(R"(
[scenario]
name = "rt_ft"

[topology]
kind = "fat_tree"
k = 4

[algorithm]
kind = "mptcp"

[traffic]
kind = "permutation"
tm_seed = 4243
subflows = 4

[run]
warmup = "0.2s"
measure = "0.5s"

[output]
metrics = ["total_mbps", "jain", "per_flow_mean_mbps", "per_host_mbps"]
)");

  runner::RunContext ctx("direct");
  EventList& events = ctx.events();
  topo::Network net(events);
  topo::FatTree ft(net, 4, 100e6, from_us(20), 100 * net::kDataPacketBytes);
  stats::GoodputMeter meter(events);
  cc::MptcpLia lia;
  Rng tm_rng(4243);
  const auto tm = traffic::permutation_tm(ft.num_hosts(), tm_rng);
  mptcp::ConnectionConfig ccfg;
  ccfg.subflow.min_rto = from_ms(10);
  ccfg.recv_buffer_pkts = 4096;
  Rng rng(1);  // the run seed (default: no [run] seeds)
  std::vector<std::unique_ptr<mptcp::MptcpConnection>> conns;
  int idx = 0;
  for (const auto& pair : tm) {
    auto conn = std::make_unique<mptcp::MptcpConnection>(
        events, "f" + std::to_string(idx), lia, ccfg);
    for (auto& pr :
         topo::sample_path_pairs(ft, pair.src, pair.dst, 4, rng)) {
      conn->add_subflow(pr.first, pr.second);
    }
    conn->start(from_ms(0.5 * static_cast<double>(idx % 997)));
    meter.track(*conn);
    conns.push_back(std::move(conn));
    ++idx;
  }
  events.run_until(from_sec(0.2));
  meter.mark();
  events.run_until(from_sec(0.2) + from_sec(0.5));

  const std::vector<double> mbps = meter.mbps();
  double total = 0.0;
  for (double v : mbps) total += v;

  ASSERT_EQ(engine.size(), 4u);
  EXPECT_EQ(engine[0].first, "total_mbps");
  EXPECT_EQ(engine[0].second, total);
  EXPECT_EQ(engine[1].first, "jain");
  EXPECT_EQ(engine[1].second, stats::jain_index(mbps));
  EXPECT_EQ(engine[2].first, "per_flow_mean_mbps");
  EXPECT_EQ(engine[2].second, total / static_cast<double>(conns.size()));
  EXPECT_EQ(engine[3].first, "per_host_mbps");
  EXPECT_EQ(engine[3].second, total / static_cast<double>(ft.num_hosts()));
  EXPECT_GT(total, 0.0);
}

TEST(ScenarioRoundTrip, WirelessMatchesDirect) {
  const auto engine = engine_values(R"(
[scenario]
name = "rt_wifi"

[topology]
kind = "wireless"

[algorithm]
kind = "mptcp"

[traffic]
kind = "persistent"
flows = ["0+1"]

[run]
warmup = "2s"
measure = "10s"
)");

  runner::RunContext ctx("direct");
  EventList& events = ctx.events();
  topo::Network net(events);
  topo::TwoLink radio = topo::wireless_client(net);
  stats::GoodputMeter meter(events);
  cc::MptcpLia lia;
  mptcp::MptcpConnection conn(events, "flow0", lia);
  conn.add_subflow(radio.fwd(0), radio.rev(0));
  conn.add_subflow(radio.fwd(1), radio.rev(1));
  conn.start(0);
  meter.track(conn);
  events.run_until(from_sec(2));
  meter.mark();
  events.run_until(from_sec(2) + from_sec(10));

  const std::vector<double> mbps = meter.mbps();
  // Default metrics: flow_mbps then total_mbps.
  ASSERT_EQ(engine.size(), 2u);
  EXPECT_EQ(engine[0].first, "mbps_flow0");
  EXPECT_EQ(engine[0].second, mbps[0]);
  EXPECT_EQ(engine[1].first, "total_mbps");
  EXPECT_EQ(engine[1].second, mbps[0]);
  // Both radios contribute: more than WiFi alone can carry in theory is
  // not guaranteed at this horizon, but goodput must be well above zero.
  EXPECT_GT(mbps[0], 1.0);
}

TEST(ScenarioRoundTrip, ThreadCountDoesNotChangeResults) {
  Scenario s = Scenario::from_string(R"(
[scenario]
name = "rt_grid"

[topology]
kind = "two_link"
link1_rate = "12Mbps"
link1_delay = "20ms"
link2_rate = "12Mbps"
link2_delay = "20ms"

[algorithm]
kind = "mptcp"

[traffic]
kind = "persistent"
count = 1
subflows = 2

[run]
warmup = "0.5s"
measure = "1s"
seeds = [1, 2, 3]

[sweep]
algorithm.kind = ["mptcp", "ewtcp"]
)",
                                     "rt_grid.toml");

  const auto r1 = s.run({.threads = 1});
  const auto r4 = s.run({.threads = 4});

  ASSERT_EQ(r1.size(), 6u);  // 2 algorithms x 3 seeds
  ASSERT_EQ(r4.size(), 6u);
  for (std::size_t i = 0; i < r1.size(); ++i) {
    EXPECT_EQ(r1[i].name, r4[i].name);
    EXPECT_EQ(r1[i].values, r4[i].values);  // bit-exact doubles
    EXPECT_EQ(r1[i].annotations, r4[i].annotations);
    EXPECT_FALSE(r1[i].values.empty());
  }
}

}  // namespace
}  // namespace mpsim::scenario
