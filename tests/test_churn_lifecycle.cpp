// Flow-lifecycle churn: Poisson arrivals of finite multipath transfers
// that open, stripe, complete, and are reclaimed — at a scale (>= 1000
// arrivals) where any leak in the teardown path compounds. The pool's
// conservation ledger, the arena's row free list, and the wire-reference
// gate are the oracles: after the last flow drains, everything must read
// exactly zero.
#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <vector>

#include "cc/mptcp_lia.hpp"
#include "core/arena.hpp"
#include "mptcp/connection.hpp"
#include "mptcp/path_manager.hpp"
#include "net/packet.hpp"
#include "net/variable_rate_queue.hpp"
#include "runner/experiment_runner.hpp"
#include "topo/network.hpp"
#include "traffic/poisson_flows.hpp"

namespace mpsim {
namespace {

using mptcp::MptcpConnection;
using mptcp::PathManagerConfig;
using mptcp::PathStrategy;
using traffic::PoissonConfig;
using traffic::PoissonFlowGenerator;

// Regression (pre-fix this failed): a Pareto size draw below one MSS used
// to floor to 0 packets, and app_limit_pkts == 0 means *unlimited* — the
// flow never completed. The clamp pins every draw to at least one whole
// packet.
TEST(FlowSizeDraw, SubPacketSizesClampToOneWholePacket) {
  EXPECT_EQ(traffic::size_to_pkts(0.0), 1u);
  EXPECT_EQ(traffic::size_to_pkts(1.0), 1u);
  EXPECT_EQ(traffic::size_to_pkts(net::kDataPacketBytes - 1.0), 1u);
  EXPECT_EQ(traffic::size_to_pkts(net::kDataPacketBytes), 1u);
  EXPECT_EQ(traffic::size_to_pkts(net::kDataPacketBytes + 1.0), 2u);
  EXPECT_EQ(traffic::size_to_pkts(10.5 * net::kDataPacketBytes), 11u);
}

TEST(FlowLifecycle, ReclaimableOnlyAfterCompletionAndWireDrain) {
  EventList events;
  topo::Network net(events);
  auto l1 = net.add_link("l1", 10e6, from_ms(5),
                         topo::bdp_bytes(10e6, from_ms(10)));
  auto& a1 = net.add_pipe("a1", from_ms(5));

  mptcp::ConnectionConfig cfg;
  cfg.app_limit_pkts = 50;
  auto conn = mptcp::make_single_path_tcp(events, "f", topo::path_of({&l1}),
                                          {&a1}, cfg);
  conn->start(0);
  EXPECT_FALSE(conn->reclaimable());

  events.run_until(from_ms(50));
  EXPECT_FALSE(conn->complete()) << "50 pkts cannot finish in 50 ms here";
  EXPECT_FALSE(conn->reclaimable());

  events.run_until(from_sec(5));
  EXPECT_TRUE(conn->complete());
  EXPECT_EQ(conn->wire_refs(), 0u) << "a drained sim leaves nothing on the wire";
  EXPECT_TRUE(conn->reclaimable());
}

TEST(FlowLifecycle, ArenaRowsAndFlowIdsAcrossOpenCloseReopen) {
  EventList events;
  auto& arena = SimArena::of(events);
  topo::Network net(events);
  auto l1 = net.add_link("l1", 10e6, from_ms(5),
                         topo::bdp_bytes(10e6, from_ms(10)));
  auto& a1 = net.add_pipe("a1", from_ms(5));
  auto& a2 = net.add_pipe("a2", from_ms(5));

  const std::size_t free_before = arena.free_subflow_rows();
  std::set<std::uint32_t> first_rows;
  std::uint32_t first_flow_id = 0;
  {
    mptcp::ConnectionConfig ccfg;
    ccfg.app_limit_pkts = 20;
    MptcpConnection mp(events, "mp", cc::mptcp_lia(), ccfg);
    mp.add_subflow(topo::path_of({&l1}), {&a1});
    mp.add_subflow(topo::path_of({&l1}), {&a2});
    first_flow_id = mp.flow_id();
    first_rows = {mp.subflow(0).hot_id(), mp.subflow(1).hot_id()};
    mp.start(0);
    // Run the finite transfer to completion and let the wire drain, so
    // teardown follows the reclaimable() contract (never destroy a
    // connection packets still reference).
    events.run_until(from_sec(2));
    ASSERT_TRUE(mp.reclaimable());
  }
  // close: both rows return to the arena's free list.
  EXPECT_EQ(arena.free_subflow_rows(), free_before + 2);

  // reopen: the replacement connection reuses the *same* rows (no arena
  // growth across churn) but gets a fresh flow id (sequence spaces and
  // trace attribution never alias a dead flow's).
  MptcpConnection mp2(events, "mp2", cc::mptcp_lia());
  mp2.add_subflow(topo::path_of({&l1}), {&a1});
  mp2.add_subflow(topo::path_of({&l1}), {&a2});
  EXPECT_EQ(arena.free_subflow_rows(), free_before);
  const std::set<std::uint32_t> second_rows = {mp2.subflow(0).hot_id(),
                                               mp2.subflow(1).hot_id()};
  EXPECT_EQ(second_rows, first_rows);
  EXPECT_NE(mp2.flow_id(), first_flow_id);
  mp2.start(events.now());
  events.run_until(events.now() + from_ms(200));
  EXPECT_GT(mp2.subflow(0).packets_acked(), 0u);
}

// The churn stress: >= 1000 Poisson arrivals of threshold-managed
// multipath transfers over two links, with two scripted outages on link 2
// so the managers also add, drop, and re-probe subflows mid-flight.
// Everything runs under the always-on MPSIM_CHECK invariants; at the end
// the generator must have reclaimed every single flow and the packet pool
// must read zero outstanding.
TEST(FlowLifecycle, ThousandFlowChurnConservesPoolAndArena) {
  EventList events;
  topo::Network net(events);
  auto l1 = net.add_link("l1", 50e6, from_ms(5),
                         topo::bdp_bytes(50e6, from_ms(10)));
  auto& a1 = net.add_pipe("a1", from_ms(5));
  auto l2 = net.add_variable_link("l2", 50e6, from_ms(5),
                                  topo::bdp_bytes(50e6, from_ms(10)));
  auto& a2 = net.add_pipe("a2", from_ms(5));
  auto& vq = *static_cast<net::VariableRateQueue*>(l2.queue);

  PathManagerConfig pm_cfg;
  pm_cfg.strategy = PathStrategy::kThreshold;
  pm_cfg.add_threshold_bytes = 16 * 1024;
  pm_cfg.max_subflows = 2;
  pm_cfg.scan_period = from_ms(50);
  pm_cfg.reprobe_backoff = from_ms(500);
  pm_cfg.dead_after_rtos = 2;

  PoissonConfig cfg;
  cfg.light_rate_per_sec = 150.0;
  cfg.heavy_rate_per_sec = 150.0;
  cfg.pareto_shape = 2.0;
  cfg.mean_flow_bytes = 20e3;
  cfg.seed = 7;

  auto make_flow = [&](const std::string& name, std::uint64_t pkts) {
    mptcp::ConnectionConfig ccfg;
    ccfg.app_limit_pkts = pkts;
    // Short RTO floor so dead-path detection fits inside the 1 s outages
    // (the floor only binds during total loss), and a slow head-of-line
    // rescue so a blocked flow is declared dead by the manager rather
    // than quietly finishing on the survivor first.
    ccfg.subflow.min_rto = from_ms(50);
    ccfg.hol_reinject_timeout = from_sec(1);
    auto conn = std::make_unique<MptcpConnection>(events, name,
                                                  cc::mptcp_lia(), ccfg);
    auto& pm = conn->attach_path_manager(pm_cfg);
    pm.add_candidate(topo::path_of({&l1}), {&a1});
    pm.add_candidate(topo::path_of({&l2}), {&a2});
    conn->start(events.now());
    return conn;
  };

  PoissonFlowGenerator gen(
      events, "churn", cfg,
      [&](const std::string& name, std::uint64_t pkts) {
        return make_flow(name, pkts);
      });

  // One near-persistent transfer that provably spans both outages (30000
  // pkts cannot finish in under ~3.6 s even at the full 100 Mb/s), so its
  // manager must walk the whole drop -> backoff -> re-probe arc while the
  // short flows churn around it. Finite, so the run still drains.
  auto persistent = make_flow("bg", 30000);

  // PathManager counters die with their flow; bank them at reclamation.
  std::uint64_t pm_opened = 0, pm_dropped = 0, pm_reprobes = 0;
  gen.on_reclaim = [&](MptcpConnection& c) {
    if (const auto* pm = c.path_manager()) {
      pm_opened += pm->subflows_opened();
      pm_dropped += pm->subflows_dropped();
      pm_reprobes += pm->reprobes();
    }
  };

  gen.start(0);
  events.run_until(from_sec(2));
  vq.set_rate(0.0);  // first outage: live flows lose their link-2 subflows
  events.run_until(from_sec(3));
  vq.set_rate(50e6);
  events.run_until(from_sec(5));
  vq.set_rate(0.0);  // second outage
  events.run_until(from_sec(6));
  vq.set_rate(50e6);
  events.run_until(from_sec(8));

  EXPECT_GE(gen.flows_started(), 1000u);
  // Retention stays bounded by the *live* population: the all-time flow
  // count is an order of magnitude above what the generator still holds.
  EXPECT_GE(gen.flows_reclaimed(), gen.flows_started() / 2);
  EXPECT_LT(gen.flows_held(), gen.flows_started() / 4);

  // Stop admitting new flows and drain the system completely (the
  // background transfer also runs to completion in this window).
  events.cancel(gen);
  for (int i = 0; i < 10 && (gen.flows_held() > 0 || !persistent->reclaimable());
       ++i) {
    events.run_until(from_sec(10 + 3 * i));
    gen.reclaim_completed();
  }

  EXPECT_EQ(gen.flows_completed(), gen.flows_started())
      << "every admitted flow must run to completion once the outages end";
  EXPECT_EQ(gen.flows_reclaimed(), gen.flows_started());
  EXPECT_EQ(gen.flows_held(), 0u);

  // Lifecycle activity actually happened at scale: threshold adds beyond
  // the initial subflow, and outage-driven drops among the churning flows.
  EXPECT_GT(pm_opened, gen.flows_reclaimed())
      << "some flows must have crossed the add threshold";
  // Short flows mostly *survive* the outages rather than shed subflows:
  // the RTO path reinjects their stranded data on the sibling within
  // ~min_rto, so they complete before dead-path detection can fire — which
  // is the design (drops are a long-lived-flow phenomenon). The long
  // transfer below spans both outages, so its manager must have walked
  // the full drop -> backoff -> re-probe arc.
  ASSERT_TRUE(persistent->complete());
  const auto* bg_pm = persistent->path_manager();
  ASSERT_NE(bg_pm, nullptr);
  EXPECT_GE(pm_dropped + bg_pm->subflows_dropped(), 1u);
  EXPECT_GE(pm_reprobes + bg_pm->reprobes(), 1u);
  EXPECT_GE(bg_pm->subflows_dropped(), 1u);
  EXPECT_GE(bg_pm->reprobes(), 1u);
  EXPECT_EQ(persistent->num_active_subflows(), 2u)
      << "the re-probe after the last recovery must restore the path set";

  // Conservation: with every flow destroyed and the event list idle, no
  // packet is outstanding anywhere and the arena's free list holds every
  // row ever handed out.
  EXPECT_EQ(net::Packet::pool_outstanding(events), 0u);
  EXPECT_EQ(net::PacketPool::of(events).total_allocated(),
            net::PacketPool::of(events).total_released());
}

// One churn simulation as an ExperimentRunner job, recording enough state
// to fingerprint the run exactly.
void churn_job(runner::RunContext& ctx, std::uint64_t seed) {
  EventList& events = ctx.events();
  topo::Network net(events);
  auto l1 = net.add_link("l1", 10e6, from_ms(10),
                         topo::bdp_bytes(10e6, from_ms(20)));
  auto& a1 = net.add_pipe("a1", from_ms(10));
  auto l2 = net.add_link("l2", 10e6, from_ms(10),
                         topo::bdp_bytes(10e6, from_ms(20)));
  auto& a2 = net.add_pipe("a2", from_ms(10));

  PathManagerConfig pm_cfg;
  pm_cfg.strategy = PathStrategy::kThreshold;
  pm_cfg.add_threshold_bytes = 16 * 1024;
  pm_cfg.max_subflows = 2;

  PoissonConfig cfg;
  cfg.light_rate_per_sec = 40.0;
  cfg.heavy_rate_per_sec = 40.0;
  cfg.mean_flow_bytes = 20e3;
  cfg.seed = seed;

  PoissonFlowGenerator gen(
      events, "churn", cfg,
      [&](const std::string& name, std::uint64_t pkts) {
        mptcp::ConnectionConfig ccfg;
        ccfg.app_limit_pkts = pkts;
        auto conn = std::make_unique<MptcpConnection>(events, name,
                                                      cc::mptcp_lia(), ccfg);
        auto& pm = conn->attach_path_manager(pm_cfg);
        pm.add_candidate(topo::path_of({&l1}), {&a1});
        pm.add_candidate(topo::path_of({&l2}), {&a2});
        conn->start(events.now());
        return conn;
      });
  std::uint64_t pm_opened = 0;
  std::uint64_t delivered = 0;
  gen.on_reclaim = [&](MptcpConnection& c) {
    delivered += c.delivered_pkts();
    if (const auto* pm = c.path_manager()) pm_opened += pm->subflows_opened();
  };
  gen.start(0);
  events.run_until(from_sec(3));
  gen.reclaim_completed();

  ctx.record("started", static_cast<double>(gen.flows_started()));
  ctx.record("completed", static_cast<double>(gen.flows_completed()));
  ctx.record("reclaimed", static_cast<double>(gen.flows_reclaimed()));
  ctx.record("delivered", static_cast<double>(delivered));
  ctx.record("pm_opened", static_cast<double>(pm_opened));
}

TEST(FlowLifecycle, ChurnRunsAreByteIdenticalAcrossThreadCounts) {
  auto run_with = [](unsigned threads) {
    runner::RunnerConfig rc;
    rc.threads = threads;
    runner::ExperimentRunner runner(rc);
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
      runner.add("churn_seed" + std::to_string(seed),
                 [seed](runner::RunContext& ctx) { churn_job(ctx, seed); });
    }
    return runner.run_all();
  };

  const auto seq = run_with(1);
  const auto par = run_with(4);
  ASSERT_EQ(seq.size(), par.size());
  for (std::size_t i = 0; i < seq.size(); ++i) {
    EXPECT_EQ(seq[i].name, par[i].name);
    EXPECT_EQ(seq[i].values, par[i].values)
        << "run " << seq[i].name << " diverged across thread counts";
    EXPECT_EQ(seq[i].metrics.events_processed, par[i].metrics.events_processed);
  }
  // Different seeds really are different experiments (the fingerprint is
  // not vacuously constant).
  EXPECT_NE(seq[0].values, seq[1].values);
}

}  // namespace
}  // namespace mpsim
