// The data-scheduler registry: policy-level unit tests over a fake view,
// and simulation-level behaviour (stripe equivalence with the pre-registry
// scheduler, redundant duplicate suppression at the receiver).
#include "mptcp/scheduler.hpp"

#include <gtest/gtest.h>

#include <typeindex>
#include <typeinfo>
#include <utility>
#include <vector>

#include "cc/mptcp_lia.hpp"
#include "cc/uncoupled.hpp"
#include "mptcp/connection.hpp"
#include "sim_fixtures.hpp"
#include "topo/network.hpp"
#include "topo/two_link.hpp"

namespace mpsim::mptcp {
namespace {

// A fixed table of per-subflow (srtt, cwnd, inflight) the policies rank.
class TableView : public cc::ConnectionView {
 public:
  struct Row {
    double srtt;
    double cwnd;
    double inflight;
    bool active = true;
  };
  explicit TableView(std::vector<Row> rows) : rows_(std::move(rows)) {}

  std::size_t num_subflows() const override { return rows_.size(); }
  bool subflow_active(std::size_t r) const override { return rows_[r].active; }
  double srtt_sec(std::size_t r) const override { return rows_[r].srtt; }
  double cwnd_pkts(std::size_t r) const override { return rows_[r].cwnd; }
  double inflight_pkts(std::size_t r) const override {
    return rows_[r].inflight;
  }

  std::vector<Row> rows_;
};

TEST(SchedulerRegistry, FactoryProducesEveryKind) {
  const std::pair<DataSchedulerKind, std::type_index> kinds[] = {
      {DataSchedulerKind::kStripe, typeid(DataScheduler)},
      {DataSchedulerKind::kMinRttFirst, typeid(MinRttFirstScheduler)},
      {DataSchedulerKind::kRedundant, typeid(RedundantScheduler)},
      {DataSchedulerKind::kBlest, typeid(BlestScheduler)}};
  for (const auto& [kind, type] : kinds) {
    auto s = make_data_scheduler(kind, 0, 100);
    ASSERT_NE(s, nullptr);
    EXPECT_EQ(std::type_index(typeid(*s)), type) << type.name();
  }
}

TEST(SchedulerRegistry, RankingPoliciesDegradeToStripeWithoutView) {
  // No view installed: the ranking policies must hand out the same
  // sequential stream the stripe scheduler does, from any subflow id.
  // (Redundant is deliberately absent — its duplication needs no view.)
  for (auto kind :
       {DataSchedulerKind::kMinRttFirst, DataSchedulerKind::kBlest}) {
    auto s = make_data_scheduler(kind, 0, 1000);
    std::uint64_t d = 99;
    for (std::uint64_t i = 0; i < 5; ++i) {
      ASSERT_TRUE(s->next_data(static_cast<std::uint32_t>(i % 2), d))
          << typeid(*s).name();
      EXPECT_EQ(d, i) << typeid(*s).name();
    }
  }
}

// ---------- min_rtt_first ----------

TEST(MinRttFirst, SlowSubflowDefersWhileFastHasWindow) {
  MinRttFirstScheduler s(0, 1000);
  TableView v({{0.010, 10.0, 0.0}, {0.050, 10.0, 0.0}});
  s.set_view(&v);
  std::uint64_t d;
  EXPECT_FALSE(s.next_data(1, d)) << "fast sibling still has free window";
  EXPECT_TRUE(s.next_data(0, d));
  EXPECT_EQ(d, 0u);
  // Fast path fills up: the slow one may now take fresh data.
  v.rows_[0].inflight = 10.0;
  EXPECT_TRUE(s.next_data(1, d));
  EXPECT_EQ(d, 1u);
}

TEST(MinRttFirst, EqualSrttTieBreaksTowardLowerId) {
  MinRttFirstScheduler s(0, 1000);
  TableView v({{0.020, 10.0, 0.0}, {0.020, 10.0, 0.0}});
  s.set_view(&v);
  std::uint64_t d;
  // Identical paths: subflow 1 defers to subflow 0, never the reverse, so
  // equal-srtt races resolve the same way on every run.
  EXPECT_FALSE(s.next_data(1, d));
  EXPECT_TRUE(s.next_data(0, d));
  EXPECT_FALSE(s.next_data(1, d));
  EXPECT_TRUE(s.next_data(0, d));
  // ...until the preferred path's window is gone.
  v.rows_[0].inflight = 10.0;
  EXPECT_TRUE(s.next_data(1, d));
}

TEST(MinRttFirst, ReinjectionsBypassTheRanking) {
  MinRttFirstScheduler s(0, 1000);
  TableView v({{0.010, 10.0, 0.0}, {0.050, 10.0, 0.0}});
  s.set_view(&v);
  std::uint64_t d;
  ASSERT_TRUE(s.next_data(0, d));
  s.reinject({0});
  // The slow subflow is refused fresh data but must carry reinjections —
  // that is the whole point of reinjecting off a stalled path.
  EXPECT_TRUE(s.next_data(1, d));
  EXPECT_EQ(d, 0u);
}

TEST(MinRttFirst, InactiveAndWindowFullSiblingsDoNotBlock) {
  MinRttFirstScheduler s(0, 1000);
  TableView v({{0.010, 10.0, 10.0}, {0.050, 10.0, 0.0}, {0.005, 8.0, 0.0}});
  v.rows_[2].active = false;
  s.set_view(&v);
  std::uint64_t d;
  // Subflow 0 is faster but window-full; subflow 2 is faster but inactive.
  EXPECT_TRUE(s.next_data(1, d));
}

// ---------- redundant ----------

TEST(Redundant, EachSubflowWalksTheSameStream) {
  RedundantScheduler s(0, 1000);
  std::uint64_t d;
  ASSERT_TRUE(s.next_data(0, d));
  EXPECT_EQ(d, 0u);
  ASSERT_TRUE(s.next_data(1, d));
  EXPECT_EQ(d, 0u) << "subflow 1 duplicates the stream from the start";
  ASSERT_TRUE(s.next_data(0, d));
  EXPECT_EQ(d, 1u);
  ASSERT_TRUE(s.next_data(1, d));
  EXPECT_EQ(d, 1u);
  EXPECT_EQ(s.next_new(), 2u);
}

TEST(Redundant, CursorsSkipDeliveredData) {
  RedundantScheduler s(0, 1000);
  std::uint64_t d;
  for (int i = 0; i < 5; ++i) ASSERT_TRUE(s.next_data(0, d));
  s.on_data_ack(3, 1000);
  // Subflow 1 joins late: no point duplicating data the receiver holds.
  ASSERT_TRUE(s.next_data(1, d));
  EXPECT_EQ(d, 3u);
}

TEST(Redundant, RespectsAppLimitPerCursor) {
  RedundantScheduler s(2, 1000);
  std::uint64_t d;
  ASSERT_TRUE(s.next_data(0, d));
  ASSERT_TRUE(s.next_data(0, d));
  EXPECT_FALSE(s.next_data(0, d));
  ASSERT_TRUE(s.next_data(1, d));
  EXPECT_EQ(d, 0u);
  ASSERT_TRUE(s.next_data(1, d));
  EXPECT_FALSE(s.next_data(1, d));
}

// ---------- blest ----------

TEST(Blest, SlowPathRefusedWhenFastPathCoversTheWindow) {
  BlestScheduler s(0, /*initial_window=*/20);
  // Fast path: 16-packet window at 10 ms. Slow path: 100 ms srtt, so the
  // fast path projects 16 * 10 = 160 >= 20 remaining — refuse.
  TableView v({{0.010, 16.0, 0.0}, {0.100, 16.0, 0.0}});
  s.set_view(&v);
  std::uint64_t d;
  EXPECT_FALSE(s.next_data(1, d));
  EXPECT_TRUE(s.next_data(0, d));
}

TEST(Blest, SlowPathAdmittedWhenWindowOutgrowsTheFastPath) {
  BlestScheduler s(0, /*initial_window=*/1000);
  // Projected fast capacity 16 * (0.03/0.01) = 48 < 1000 remaining: the
  // slow path genuinely adds throughput, so it sends.
  TableView v({{0.010, 16.0, 0.0}, {0.030, 16.0, 0.0}});
  s.set_view(&v);
  std::uint64_t d;
  EXPECT_TRUE(s.next_data(1, d));
}

TEST(Blest, FastestPathIsNeverBlocked) {
  BlestScheduler s(0, 10);
  TableView v({{0.010, 100.0, 0.0}, {0.100, 100.0, 0.0}});
  s.set_view(&v);
  std::uint64_t d;
  // Subflow 0 has no strictly faster sibling: always admitted.
  for (int i = 0; i < 10; ++i) ASSERT_TRUE(s.next_data(0, d));
}

// ---------- simulation-level behaviour ----------

TEST(SchedulerSim, StripeFactoryMatchesDefaultConnection) {
  // A connection built with an explicit kStripe config must transmit the
  // byte-identical schedule of one built with the default config.
  auto run = [](bool explicit_stripe) {
    EventList events;
    topo::Network net(events);
    topo::LinkSpec spec;
    spec.rate_bps = 10e6;
    spec.one_way_delay = from_ms(10);
    spec.buf_bytes = topo::bdp_bytes(10e6, from_ms(20));
    topo::TwoLink links(net, spec, spec);
    mptcp::ConnectionConfig cfg;
    if (explicit_stripe) cfg.scheduler = DataSchedulerKind::kStripe;
    MptcpConnection conn(events, "mp", cc::mptcp_lia(), cfg);
    conn.add_subflow(links.fwd(0), links.rev(0));
    conn.add_subflow(links.fwd(1), links.rev(1));
    conn.start(0);
    events.run_until(from_sec(5));
    return std::tuple<std::uint64_t, std::uint64_t, std::uint64_t>(
        conn.delivered_pkts(), conn.subflow(0).packets_acked(),
        conn.subflow(1).packets_acked());
  };
  EXPECT_EQ(run(false), run(true));
}

TEST(SchedulerSim, RedundantDuplicatesAreSuppressedAtTheReceiver) {
  EventList events;
  topo::Network net(events);
  topo::LinkSpec spec;
  spec.rate_bps = 10e6;
  spec.one_way_delay = from_ms(10);
  spec.buf_bytes = topo::bdp_bytes(10e6, from_ms(20));
  topo::TwoLink links(net, spec, spec);
  mptcp::ConnectionConfig cfg;
  cfg.scheduler = DataSchedulerKind::kRedundant;
  MptcpConnection conn(events, "mp", cc::mptcp_lia(), cfg);
  conn.add_subflow(links.fwd(0), links.rev(0));
  conn.add_subflow(links.fwd(1), links.rev(1));
  conn.start(0);
  events.run_until(from_sec(5));
  // Both paths carry the stream; the receiver delivers each packet once
  // and counts the copies it threw away.
  EXPECT_GT(conn.delivered_pkts(), 1000u);
  EXPECT_GT(conn.receiver().duplicates(), 1000u);
  EXPECT_EQ(conn.receiver().window_violations(), 0u);
  EXPECT_EQ(std::type_index(typeid(conn.scheduler())),
            std::type_index(typeid(RedundantScheduler)));
}

TEST(SchedulerSim, MinRttFirstShiftsShareTowardTheFasterPath) {
  // Same asymmetric two-link topology under stripe and min_rtt_first,
  // with a tight receive buffer so fresh data is scarce (under a bulk
  // stream and an open window every subflow is saturated and placement
  // policy cannot matter). The ranking policy must strictly raise the
  // fast (10 ms) path's share of the stream relative to plain striping.
  auto fast_share = [](DataSchedulerKind kind) {
    EventList events;
    topo::Network net(events);
    topo::LinkSpec fast;
    fast.rate_bps = 10e6;
    fast.one_way_delay = from_ms(5);
    fast.buf_bytes = topo::bdp_bytes(10e6, from_ms(10));
    topo::LinkSpec slow = fast;
    slow.one_way_delay = from_ms(50);
    slow.buf_bytes = topo::bdp_bytes(10e6, from_ms(100));
    topo::TwoLink links(net, fast, slow);
    mptcp::ConnectionConfig cfg;
    cfg.scheduler = kind;
    cfg.recv_buffer_pkts = 32;
    MptcpConnection conn(events, "mp", cc::uncoupled(), cfg);
    conn.add_subflow(links.fwd(0), links.rev(0));
    conn.add_subflow(links.fwd(1), links.rev(1));
    conn.start(0);
    events.run_until(from_sec(10));
    EXPECT_GT(conn.delivered_pkts(), 1000u);
    EXPECT_EQ(conn.receiver().window_violations(), 0u);
    const double f = static_cast<double>(conn.subflow(0).packets_acked());
    const double s = static_cast<double>(conn.subflow(1).packets_acked());
    return f / (f + s);
  };
  const double stripe = fast_share(DataSchedulerKind::kStripe);
  const double ranked = fast_share(DataSchedulerKind::kMinRttFirst);
  EXPECT_GT(ranked, stripe);
  EXPECT_GT(ranked, 0.5) << "the fast path must carry the majority";
}

}  // namespace
}  // namespace mpsim::mptcp
