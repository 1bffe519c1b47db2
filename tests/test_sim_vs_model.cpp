// Simulation <-> fluid model agreement: run each algorithm over
// fixed-loss paths (so the loss rate is exogenous and exactly known) and
// compare the time-averaged windows against the §2 equilibrium formulas.
// Parameterised over loss-rate environments.
#include <gtest/gtest.h>

#include <cmath>

#include "cc/coupled.hpp"
#include "cc/ewtcp.hpp"
#include "cc/mptcp_lia.hpp"
#include "cc/semicoupled.hpp"
#include "cc/uncoupled.hpp"
#include "mptcp/connection.hpp"
#include "model/equilibrium.hpp"
#include "model/tcp_model.hpp"
#include "stats/monitors.hpp"
#include "topo/network.hpp"

namespace mpsim {
namespace {

// Two fixed-loss paths with equal RTT; returns time-averaged effective
// windows of the two subflows over a long run.
struct AvgWindows {
  double w0;
  double w1;
};

AvgWindows run_fixed_loss(const cc::CongestionControl& algo, double p0,
                          double p1, SimTime one_way = from_ms(25)) {
  EventList events;
  topo::Network net(events);
  auto& loss0 = net.add_lossy("l0", p0, 101);
  auto& q0 = net.add_queue("q0", 1e9, 1u << 30);
  auto& pipe0 = net.add_pipe("p0", one_way);
  auto& ack0 = net.add_pipe("a0", one_way);
  auto& loss1 = net.add_lossy("l1", p1, 202);
  auto& q1 = net.add_queue("q1", 1e9, 1u << 30);
  auto& pipe1 = net.add_pipe("p1", one_way);
  auto& ack1 = net.add_pipe("a1", one_way);

  mptcp::MptcpConnection mp(events, "mp", algo);
  mp.add_subflow({&loss0, &q0, &pipe0}, {&ack0});
  mp.add_subflow({&loss1, &q1, &pipe1}, {&ack1});
  mp.start(0);

  double sum0 = 0.0, sum1 = 0.0;
  int n = 0;
  stats::PeriodicSampler sampler(events, "s", from_ms(50), [&](SimTime) {
    sum0 += mp.cwnd_pkts(0);
    sum1 += mp.cwnd_pkts(1);
    ++n;
  });
  sampler.start(from_sec(20));
  events.run_until(from_sec(140));
  return {sum0 / n, sum1 / n};
}

// The time-averaged AIMD window sits below the fluid balance point (the
// sawtooth spends more time below its peak); 35% tolerance bands still
// discriminate sharply between the algorithms' very different targets.
constexpr double kTol = 0.35;

struct LossEnv {
  double p0;
  double p1;
  std::string label;
};

class SimVsModel : public ::testing::TestWithParam<LossEnv> {};

TEST_P(SimVsModel, UncoupledMatchesTcpFormulaPerPath) {
  const auto [p0, p1, label] = GetParam();
  const AvgWindows w = run_fixed_loss(cc::uncoupled(), p0, p1);
  EXPECT_NEAR(w.w0, model::tcp_window(p0), kTol * model::tcp_window(p0));
  EXPECT_NEAR(w.w1, model::tcp_window(p1), kTol * model::tcp_window(p1));
}

TEST_P(SimVsModel, EwtcpMatchesWeightedTcpFormula) {
  const auto [p0, p1, label] = GetParam();
  const AvgWindows w = run_fixed_loss(cc::ewtcp(), p0, p1);
  const double e0 = model::ewtcp_window(p0, 0.5);
  const double e1 = model::ewtcp_window(p1, 0.5);
  EXPECT_NEAR(w.w0, e0, kTol * e0);
  EXPECT_NEAR(w.w1, e1, kTol * e1);
}

TEST_P(SimVsModel, SemicoupledMatchesPaperFormula) {
  const auto [p0, p1, label] = GetParam();
  const AvgWindows w = run_fixed_loss(cc::semicoupled(), p0, p1);
  const auto pred = model::semicoupled_windows({p0, p1}, 1.0);
  EXPECT_NEAR(w.w0, pred[0], kTol * pred[0]);
  EXPECT_NEAR(w.w1, pred[1], kTol * pred[1]);
}

TEST_P(SimVsModel, MptcpMatchesNumericEquilibrium) {
  const auto [p0, p1, label] = GetParam();
  const AvgWindows w = run_fixed_loss(cc::mptcp_lia(), p0, p1);
  // Equal RTTs here; the solver needs them in seconds.
  auto eq = model::mptcp_equilibrium({p0, p1}, {0.05, 0.05});
  ASSERT_TRUE(eq.converged);
  EXPECT_NEAR(w.w0, eq.windows[0], kTol * eq.windows[0] + 1.0);
  EXPECT_NEAR(w.w1, eq.windows[1], kTol * eq.windows[1] + 1.0);
}

TEST_P(SimVsModel, CoupledConcentratesWindowPerModel) {
  const auto [p0, p1, label] = GetParam();
  if (p0 == p1) GTEST_SKIP() << "tie split is indeterminate";
  const AvgWindows w = run_fixed_loss(cc::coupled(), p0, p1);
  // Model: all window on the lower-loss path; the lossier path hovers at
  // the probe floor. Assert the strong asymmetry rather than exact zero.
  const double lossier = p0 > p1 ? w.w0 : w.w1;
  const double cleaner = p0 > p1 ? w.w1 : w.w0;
  EXPECT_GT(cleaner, 2.0 * lossier);
  const double pmin = std::min(p0, p1);
  EXPECT_NEAR(cleaner + lossier, model::tcp_window(pmin),
              0.45 * model::tcp_window(pmin));
}

INSTANTIATE_TEST_SUITE_P(
    LossEnvironments, SimVsModel,
    ::testing::Values(LossEnv{0.002, 0.002, "equal_low"},
                      LossEnv{0.005, 0.005, "equal_mid"},
                      LossEnv{0.002, 0.008, "skewed_4x"},
                      LossEnv{0.001, 0.004, "skewed_low"}),
    [](const ::testing::TestParamInfo<LossEnv>& info) {
      return info.param.label;
    });

// Scaling law: quadrupling the loss rate halves the window (w ~ 1/sqrt p).
// Ratios cancel the sawtooth bias, so this is much tighter than the
// absolute checks above.
TEST(SimVsModelScaling, WindowScalesAsInverseSqrtLoss) {
  const AvgWindows lo = run_fixed_loss(cc::uncoupled(), 0.002, 0.002);
  const AvgWindows hi = run_fixed_loss(cc::uncoupled(), 0.008, 0.008);
  EXPECT_NEAR(lo.w0 / hi.w0, 2.0, 0.4);
  EXPECT_NEAR(lo.w1 / hi.w1, 2.0, 0.4);
}

TEST(SimVsModelScaling, CoupledTotalIndependentOfSplit) {
  // §2.2: w_total = sqrt(2/p) whatever the path count; compare the
  // two-path COUPLED total against a single-path TCP at the same loss.
  const AvgWindows two = run_fixed_loss(cc::coupled(), 0.004, 0.004);
  const AvgWindows one = run_fixed_loss(cc::uncoupled(), 0.004, 0.004);
  // one.w0 is a single TCP's window at p; COUPLED's TOTAL should match it.
  EXPECT_NEAR(two.w0 + two.w1, one.w0, 0.4 * one.w0);
}

}  // namespace
}  // namespace mpsim
