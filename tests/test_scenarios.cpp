// End-to-end reproductions of the §2 design vignettes, scaled down to run
// in test time, plus behaviour tests of the scenario builders' inputs. The
// full paper-scale versions are the specs under examples/scenarios/.
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "cc/coupled.hpp"
#include "cc/ewtcp.hpp"
#include "cc/mptcp_lia.hpp"
#include "cc/semicoupled.hpp"
#include "mptcp/connection.hpp"
#include "model/tcp_model.hpp"
#include "runner/experiment_runner.hpp"
#include "scenario/engine.hpp"
#include "sim_fixtures.hpp"
#include "stats/monitors.hpp"
#include "topo/network.hpp"
#include "topo/parking_lot.hpp"
#include "topo/two_link.hpp"

namespace mpsim {
namespace {

using mptcp::ConnectionConfig;
using mptcp::MptcpConnection;

// --- §2.3 fixed-loss arithmetic, validated in simulation -----------------
//
// WiFi-like path: higher loss, RTT 10 ms. 3G-like path: 5x lower loss,
// RTT 100 ms. Links are loss elements + pipes (no queueing), so loss rates
// are exact. The paper's raw 4%/1% values leave NewReno timeout-dominated
// (windows of ~7 packets cannot raise 3 dupacks); we scale both down 8x,
// which preserves every ratio the §2.3 argument uses while keeping the
// dynamics in the AIMD regime the fluid model describes.
// examples/scenarios/sec23_rtt_mismatch.toml runs the paper-exact settings.
inline constexpr double kWifiLoss = 0.005;
inline constexpr double k3gLoss = 0.001;

struct FixedLossPaths {
  explicit FixedLossPaths(topo::Network& net)
      : wifi_loss(net.add_lossy("wifi/loss", kWifiLoss, 11)),
        wifi_q(net.add_queue("wifi/q", 1e9, 1u << 30)),
        wifi_pipe(net.add_pipe("wifi/pipe", from_ms(5))),
        wifi_ack(net.add_pipe("wifi/ack", from_ms(5))),
        g3_loss(net.add_lossy("3g/loss", k3gLoss, 13)),
        g3_q(net.add_queue("3g/q", 1e9, 1u << 30)),
        g3_pipe(net.add_pipe("3g/pipe", from_ms(50))),
        g3_ack(net.add_pipe("3g/ack", from_ms(50))) {}

  topo::Path wifi_fwd() { return {&wifi_loss, &wifi_q, &wifi_pipe}; }
  topo::Path wifi_rev() { return {&wifi_ack}; }
  topo::Path g3_fwd() { return {&g3_loss, &g3_q, &g3_pipe}; }
  topo::Path g3_rev() { return {&g3_ack}; }

  net::LossyLink& wifi_loss;
  net::Queue& wifi_q;
  net::Pipe& wifi_pipe;
  net::Pipe& wifi_ack;
  net::LossyLink& g3_loss;
  net::Queue& g3_q;
  net::Pipe& g3_pipe;
  net::Pipe& g3_ack;
};

double run_rate_pkts(EventList& events, MptcpConnection& conn,
                     SimTime warmup, SimTime measure) {
  conn.start(0);
  events.run_until(warmup);
  const auto before = conn.delivered_pkts();
  events.run_until(warmup + measure);
  return static_cast<double>(conn.delivered_pkts() - before) /
         to_sec(measure);
}

TEST(Section23, FluidFormulaHoldsAtModerateLoss) {
  // At the paper's 4% WiFi loss the window is ~7 packets and NewReno is
  // timeout-dominated, so the fluid sqrt(2/p) value overestimates badly
  // (a known limit of the model, cf. PFTK). Validate the formula where it
  // is meant to hold: moderate loss, window ~30.
  EventList events;
  topo::Network net(events);
  auto& loss = net.add_lossy("l", 0.002, 21);
  auto& q = net.add_queue("q", 1e9, 1u << 30);
  auto& pipe = net.add_pipe("p", from_ms(25));
  auto& ack = net.add_pipe("a", from_ms(25));
  auto tcp =
      mptcp::make_single_path_tcp(events, "t", {&loss, &q, &pipe}, {&ack});
  const double rate = run_rate_pkts(events, *tcp, from_sec(5), from_sec(120));
  const double fluid = model::tcp_rate(0.002, 0.050);  // ~632 pkt/s
  EXPECT_GT(rate, 0.65 * fluid);
  EXPECT_LT(rate, 1.15 * fluid);
}

TEST(Section23, HighLossShortRttStillBeatsLowLossLongRtt) {
  // The qualitative §2.3 premise: despite 4x the loss, the WiFi-like path
  // outperforms the 3G-like path because its RTT is 10x shorter.
  EventList events;
  topo::Network net(events);
  FixedLossPaths paths(net);
  auto wifi = mptcp::make_single_path_tcp(events, "wifi", paths.wifi_fwd(),
                                          paths.wifi_rev());
  auto g3 = mptcp::make_single_path_tcp(events, "3g", paths.g3_fwd(),
                                        paths.g3_rev());
  wifi->start(0);
  g3->start(0);
  events.run_until(from_sec(65));
  const double wifi_rate =
      static_cast<double>(wifi->delivered_pkts()) / 65.0;
  const double g3_rate = static_cast<double>(g3->delivered_pkts()) / 65.0;
  EXPECT_GT(wifi_rate, 1.5 * g3_rate);
}

TEST(Section23, SinglePath3gMatchesFormula) {
  EventList events;
  topo::Network net(events);
  FixedLossPaths paths(net);
  auto tcp = mptcp::make_single_path_tcp(events, "3g", paths.g3_fwd(),
                                         paths.g3_rev());
  const double rate =
      run_rate_pkts(events, *tcp, from_sec(5), from_sec(120));
  // w ~ 45 pkts: comfortably in the fast-retransmit regime, so the fluid
  // value (~447 pkt/s) is accurate.
  EXPECT_NEAR(rate, model::tcp_rate(k3gLoss, 0.100), 0.25 * model::tcp_rate(k3gLoss, 0.100));
}

TEST(Section23, CoupledCollapsesWindowOntoLowLossPath) {
  // COUPLED keeps its *window* on the less congested 3G path and pins the
  // lossier WiFi path near the 1-packet probe floor — even though, in raw
  // packet counts, 1 packet per 10 ms WiFi RTT still rivals the 3G path's
  // packets per 100 ms RTT. The §2.3 pathology is about the window/rate
  // allocation, asserted on time-averaged windows.
  EventList events;
  topo::Network net(events);
  FixedLossPaths paths(net);
  MptcpConnection mp(events, "mp", cc::coupled());
  mp.add_subflow(paths.wifi_fwd(), paths.wifi_rev());
  mp.add_subflow(paths.g3_fwd(), paths.g3_rev());
  mp.start(0);
  double w_wifi = 0.0, w_g3 = 0.0;
  int n = 0;
  stats::PeriodicSampler sampler(events, "s", from_ms(100), [&](SimTime) {
    w_wifi += mp.subflow(0).effective_cwnd();
    w_g3 += mp.subflow(1).effective_cwnd();
    ++n;
  });
  sampler.start(from_sec(5));
  events.run_until(from_sec(65));
  ASSERT_GT(n, 0);
  EXPECT_GT(w_g3 / n, 2.5 * (w_wifi / n));
  EXPECT_LT(w_wifi / n, 6.0) << "well below its standalone ~20 pkt window";
}

TEST(Section23, MptcpBeatsEwtcpAndCoupledUnderRttMismatch) {
  auto run = [](const cc::CongestionControl& algo) {
    EventList events;
    topo::Network net(events);
    FixedLossPaths paths(net);
    MptcpConnection mp(events, "mp", algo);
    mp.add_subflow(paths.wifi_fwd(), paths.wifi_rev());
    mp.add_subflow(paths.g3_fwd(), paths.g3_rev());
    return run_rate_pkts(events, mp, from_sec(5), from_sec(120));
  };
  const double mptcp = run(cc::mptcp_lia());
  const double ewtcp = run(cc::ewtcp());
  const double coupled = run(cc::coupled());
  // Paper ordering: TCP-wifi > MPTCP(goal) > EWTCP > COUPLED. Compare
  // against the *simulated* single-path WiFi rate (at 4% loss NewReno runs
  // well below the fluid 707 pkt/s; the incentive goal is relative to what
  // a real TCP achieves, which is what our testbed-equivalent measures).
  EXPECT_GT(mptcp, ewtcp);
  EXPECT_GT(ewtcp, coupled);
  EventList events;
  topo::Network net(events);
  FixedLossPaths paths(net);
  auto wifi_tcp = mptcp::make_single_path_tcp(events, "wifi",
                                              paths.wifi_fwd(),
                                              paths.wifi_rev());
  const double wifi_rate =
      run_rate_pkts(events, *wifi_tcp, from_sec(5), from_sec(120));
  EXPECT_GT(mptcp, 0.75 * wifi_rate)
      << "incentive goal: MPTCP near the best single path";
}

// --- §2.2 parking lot: efficiency requires congestion-shifting -----------

TEST(Section22, CoupledOutperformsEwtcpOnParkingLot) {
  auto run = [](const cc::CongestionControl& algo) {
    EventList events;
    topo::Network net(events);
    // 48 Mb/s keeps subflow windows large enough that AIMD dynamics (not
    // RTO granularity) decide the allocation; ratios match the paper's
    // 12 Mb/s analysis.
    topo::ParkingLot pl(net, 48e6, from_ms(40),
                        topo::bdp_bytes(48e6, from_ms(40)));
    std::vector<std::unique_ptr<MptcpConnection>> flows;
    for (int f = 0; f < topo::ParkingLot::kFlows; ++f) {
      auto conn = std::make_unique<MptcpConnection>(
          events, "f" + std::to_string(f), algo);
      conn->add_subflow(pl.one_hop_fwd(f), pl.one_hop_rev(f));
      conn->add_subflow(pl.two_hop_fwd(f), pl.two_hop_rev(f));
      conn->start(from_ms(17 * f));
      flows.push_back(std::move(conn));
    }
    events.run_until(from_sec(10));
    std::vector<std::uint64_t> base;
    for (auto& f : flows) base.push_back(f->delivered_pkts());
    events.run_until(from_sec(70));
    double total = 0.0;
    for (std::size_t i = 0; i < flows.size(); ++i) {
      total += stats::pkts_to_mbps(flows[i]->delivered_pkts() - base[i],
                                   from_sec(60));
    }
    return total / 3.0;  // mean per-flow Mb/s
  };
  const double coupled = run(cc::coupled());
  const double ewtcp = run(cc::ewtcp());
  const double mptcp = run(cc::mptcp_lia());
  // Paper (at 12 Mb/s): even split gets 8/flow, EWTCP ~8.5, one-hop
  // routing 12. Scaled to 48 Mb/s links: congestion-shifting algorithms
  // approach full capacity; EWTCP leaves several Mb/s on the table.
  EXPECT_GT(coupled, ewtcp + 2.0);
  EXPECT_GT(mptcp, ewtcp + 1.0);
  EXPECT_LT(ewtcp, 0.93 * 48.0);
  EXPECT_GT(coupled, 0.95 * 48.0);
}

// --- Fig. 1: fairness at a shared bottleneck -------------------------------

TEST(Fig1, OnlyUncoupledTakesMoreThanItsShareOfASharedBottleneck) {
  // The shipped spec: a TCP and a two-subflow multipath flow on one
  // 12 Mb/s link. Fair is a share near 0.5; drop-tail synchronisation
  // puts fair algorithms a few points above it, so 0.62 separates them
  // from UNCOUPLED's two independent TCPs (~2/3).
  const scenario::Scenario s = scenario::Scenario::load(
      MPSIM_SCENARIO_DIR "/fig1_shared_bottleneck.toml");
  std::map<std::string, double> share;  // algorithm -> multipath share
  for (const runner::RunResult& r : s.run(scenario::EngineOptions{})) {
    const double tcp = r.value("mbps_flow0");
    const double mp = r.value("mbps_flow1");
    share[r.name.substr(r.name.find('=') + 1)] = mp / (tcp + mp);
  }
  ASSERT_EQ(share.size(), 5u);
  EXPECT_GT(share.at("uncoupled"), 0.62);
  EXPECT_LT(share.at("coupled"), 0.62);
  EXPECT_LT(share.at("mptcp"), 0.62);
}

// --- §2.4 the 'trapped' problem (Fig. 9 dynamics, scaled down) ------------

TEST(Section24, CoupledLosesToMptcpUnderBurstyCbr) {
  // Fig. 9: bursty CBR (on ~10 ms at full rate, off ~100 ms) occupies the
  // top link. COUPLED dumps its whole window off the top path at each
  // burst (decrease w_total/2) and regrows it only at 1/w_total per ACK,
  // so it cannot exploit the quiet periods; MPTCP keeps enough presence.
  auto run = [](const cc::CongestionControl& algo) {
    EventList events;
    topo::Network net(events);
    topo::TwoLink links(net,
                        topo::LinkSpec{100e6, from_ms(5),
                                       50 * net::kDataPacketBytes},
                        topo::LinkSpec{100e6, from_ms(5),
                                       50 * net::kDataPacketBytes});
    net::CountingSink cbr_sink("cbr_sink");
    topo::Path cbr_path = links.fwd(0);
    cbr_path.push_back(&cbr_sink);
    net::Route cbr_route(cbr_path);
    net::OnOffCbrSource cbr(events, "cbr", cbr_route, 100e6, from_ms(10),
                            from_ms(100), 77);
    MptcpConnection mp(events, "mp", algo);
    mp.add_subflow(links.fwd(0), links.rev(0));
    mp.add_subflow(links.fwd(1), links.rev(1));
    cbr.start(0);
    mp.start(from_ms(13));
    events.run_until(from_sec(5));
    const auto before = mp.subflow(0).packets_acked();
    events.run_until(from_sec(25));
    return stats::pkts_to_mbps(mp.subflow(0).packets_acked() - before,
                               from_sec(20));
  };
  const double mptcp_top = run(cc::mptcp_lia());
  const double coupled_top = run(cc::coupled());
  EXPECT_GT(mptcp_top, coupled_top + 5.0)
      << "paper: MPTCP ~83 vs COUPLED ~55 Mb/s on the top link";
}

// --- §2.4 SEMICOUPLED keeps probe traffic everywhere ----------------------

TEST(Section24, SemicoupledKeepsTrafficOnBothPaths) {
  EventList events;
  topo::Network net(events);
  FixedLossPaths paths(net);
  MptcpConnection mp(events, "mp", cc::semicoupled());
  mp.add_subflow(paths.wifi_fwd(), paths.wifi_rev());
  mp.add_subflow(paths.g3_fwd(), paths.g3_rev());
  mp.start(0);
  events.run_until(from_sec(60));
  // Unlike COUPLED, both paths carry non-trivial traffic.
  EXPECT_GT(mp.subflow(0).packets_acked(), 1000u);
  EXPECT_GT(mp.subflow(1).packets_acked(), 1000u);
}

// --- scenario builder inputs ---------------------------------------------
//
// The two_link inputs the paper rows need (a fixed-loss stage, on/off CBR
// cross-traffic, buffers in BDPs) and the per-subflow goodput metric, each
// driven through the scenario engine.

// Every run of `text` through the engine; per run, its recorded metrics by
// name.
std::vector<std::map<std::string, double>> run_spec(const std::string& text) {
  const scenario::Scenario s =
      scenario::Scenario::from_string(text, "builder_inputs.toml");
  std::vector<std::map<std::string, double>> out;
  for (const scenario::ResolvedRun& run : s.expand()) {
    runner::RunContext ctx(run.name);
    scenario::execute_run(run, /*time_scale=*/1.0, ctx);
    out.emplace_back(ctx.values().begin(), ctx.values().end());
  }
  return out;
}

// Two symmetric 20 Mb/s links, 20 ms RTT; `topology` adds keys to
// [topology], `rest` appends sections.
std::string two_link_spec(const std::string& topology,
                          const std::string& traffic,
                          const std::string& rest) {
  return R"(
[topology]
kind = "two_link"
link1_rate = "20Mbps"
link1_delay = "10ms"
link2_rate = "20Mbps"
link2_delay = "10ms"
)" + topology + R"(
[algorithm]
kind = "mptcp"

[traffic]
kind = "persistent"
)" + traffic + R"(
[run]
warmup = "2s"
measure = "10s"
)" + rest;
}

TEST(ScenarioInputs, FixedLossStageThrottlesOnlyItsLink) {
  // Two single-path TCPs, one per link; only link 1 has random loss.
  const auto runs = run_spec(two_link_spec(
      "link1_loss = 0.02\n",
      "flows = [\"0\", \"1\"]\nalgos = [\"single\", \"single\"]\n",
      "seeds = [1, 2]\n\n[output]\nmetrics = [\"flow_mbps\", "
      "\"queue_loss\"]\n"));
  ASSERT_EQ(runs.size(), 2u);
  for (const auto& r : runs) {
    EXPECT_LT(r.at("mbps_flow0"), 0.5 * r.at("mbps_flow1"));
    // The stage sits in front of the queue: at 2% loss the window stays
    // far too small to overflow a 1-BDP buffer.
    EXPECT_LT(r.at("loss_q0"), r.at("loss_q1") + 1e-3);
  }
  // The loss draws follow the run seed.
  EXPECT_NE(runs[0].at("mbps_flow0"), runs[1].at("mbps_flow0"));
  EXPECT_EQ(runs[0].at("mbps_flow1"), runs[1].at("mbps_flow1"));
}

TEST(ScenarioInputs, CbrOnLinkOneCostsSubflowZeroGoodput) {
  const auto runs = run_spec(two_link_spec(
      "link1_cbr_rate = \"20Mbps\"\nlink1_cbr_on = \"10ms\"\n"
      "link1_cbr_off = \"100ms\"\n",
      "names = [\"mp\"]\n",
      "\n[output]\nmetrics = [\"subflow_mbps\", \"queue_loss\"]\n"));
  ASSERT_EQ(runs.size(), 1u);
  const auto& r = runs[0];
  EXPECT_LT(r.at("mbps_mp_sub0"), 0.9 * r.at("mbps_mp_sub1"));
  EXPECT_GT(r.at("mbps_mp_sub0"), 0.0);
  // The bursts overflow link 1's queue, not link 2's.
  EXPECT_GT(r.at("loss_q0"), r.at("loss_q1"));
}

TEST(ScenarioInputs, SubflowGoodputSplitsTheFlow) {
  const auto runs = run_spec(two_link_spec(
      "", "names = [\"mp\"]\n",
      "\n[output]\nmetrics = [\"flow_mbps\", \"subflow_mbps\"]\n"));
  ASSERT_EQ(runs.size(), 1u);
  const auto& r = runs[0];
  ASSERT_EQ(r.size(), 3u);  // mbps_mp, mbps_mp_sub0, mbps_mp_sub1
  EXPECT_GT(r.at("mbps_mp_sub0"), 5.0);
  EXPECT_GT(r.at("mbps_mp_sub1"), 5.0);
  // Subflow ACKs and in-order data delivery differ only by what is in
  // flight at the window edges.
  EXPECT_NEAR(r.at("mbps_mp_sub0") + r.at("mbps_mp_sub1"), r.at("mbps_mp"),
              0.02 * r.at("mbps_mp"));
}

TEST(ScenarioInputs, BufferBdpSizesEachLinkFromItsOwnBdp) {
  // buffer_bdp = 2 on asymmetric links must build exactly the explicit
  // per-link buffers of 2 BDPs each.
  const std::string links = R"(
[topology]
kind = "two_link"
link1_rate = "12Mbps"
link1_delay = "20ms"
link2_rate = "4Mbps"
link2_delay = "60ms"
)";
  const std::string rest = R"(
[algorithm]
kind = "mptcp"

[traffic]
kind = "persistent"

[run]
warmup = "1s"
measure = "5s"

[output]
metrics = ["flow_mbps", "queue_loss"]
)";
  const std::uint64_t buf1 = topo::bdp_bytes(12e6, from_ms(40), 2.0);
  const std::uint64_t buf2 = topo::bdp_bytes(4e6, from_ms(120), 2.0);
  const auto bdp = run_spec(links + "buffer_bdp = 2\n" + rest);
  const auto bytes =
      run_spec(links + "link1_buf = \"" + std::to_string(buf1) + "B\"\n" +
               "link2_buf = \"" + std::to_string(buf2) + "B\"\n" + rest);
  ASSERT_EQ(bdp.size(), 1u);
  EXPECT_EQ(bdp, bytes);  // bit-exact doubles
  // And the deeper buffers matter: the default 50-packet buffers differ.
  EXPECT_NE(bdp, run_spec(links + rest));
}

}  // namespace
}  // namespace mpsim
