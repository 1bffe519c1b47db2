// The fault engine end to end: the target registry, injector semantics
// against live network elements, recovery metrics, bit-exact equivalence
// with the legacy RateSchedule mobility path (the Fig. 17 round trip),
// scenario [faults] wiring (thread-count identity, recovery metrics in the
// per-run report, and every parse diagnostic).
#include "fault/fault.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "cc/mptcp_lia.hpp"
#include "core/check.hpp"
#include "mptcp/connection.hpp"
#include "net/cbr.hpp"
#include "net/lossy_link.hpp"
#include "net/packet.hpp"
#include "net/variable_rate_queue.hpp"
#include "scenario/engine.hpp"
#include "scenario/spec.hpp"
#include "sim_fixtures.hpp"
#include "topo/network.hpp"
#include "topo/wireless.hpp"

namespace mpsim {
namespace {

using mptcp::MptcpConnection;

net::Packet& make_data(EventList& events) {
  net::Packet& p = net::Packet::alloc(events);
  p.type = net::PacketType::kCbr;
  return p;
}

// ---------------------------------------------------------------------------
// Target registry
// ---------------------------------------------------------------------------

// Lookups answer for every name in registration order, and the listing
// keeps that order, across many index doublings.
TEST(TargetRegistry, FindAndKnownNamesKeepRegistrationOrder) {
  EventList events;
  net::Queue q(events, "q", 12e6, 100 * net::kDataPacketBytes);
  fault::TargetRegistry reg;
  const int n = 10000;
  std::string joined;
  for (int i = 0; i < n; ++i) {
    const std::string name = "t" + std::to_string(i);
    reg.add_queue(name, q);
    if (!joined.empty()) joined += ", ";
    joined += name;
  }
  ASSERT_EQ(reg.size(), static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    const std::string name = "t" + std::to_string(i);
    const auto idx = static_cast<std::size_t>(i);
    EXPECT_EQ(reg.targets()[idx].name, name);
    ASSERT_EQ(reg.find(name), &reg.targets()[idx]) << name;
  }
  EXPECT_EQ(reg.find("t10000"), nullptr);
  EXPECT_EQ(reg.find(""), nullptr);
  EXPECT_EQ(reg.known_names(), joined);
}

// A second registration of a name fires the uniqueness check. With checks
// off it is listed, but find() keeps answering with the first, also after
// the index has grown past it.
TEST(TargetRegistry, DuplicateNameFiresTheCheckOrKeepsTheFirst) {
  EventList events;
  net::Queue first(events, "first", 12e6, 100 * net::kDataPacketBytes);
  net::Queue second(events, "second", 12e6, 100 * net::kDataPacketBytes);
  fault::TargetRegistry reg;
  for (int i = 0; i < 20; ++i) reg.add_queue("t" + std::to_string(i), first);
  reg.add_queue("dup", first);
  if (checks_enabled()) {
    ScopedThrowingChecks throwing;
    EXPECT_THROW(reg.add_queue("dup", second), CheckFailureError);
    EXPECT_EQ(reg.size(), 21u);
  } else {
    reg.add_queue("dup", second);
    EXPECT_EQ(reg.size(), 22u);
    EXPECT_EQ(reg.targets().back().queue, &second);
  }
  for (int i = 20; i < 200; ++i) reg.add_queue("t" + std::to_string(i), first);
  ASSERT_NE(reg.find("dup"), nullptr);
  EXPECT_EQ(reg.find("dup")->queue, &first);
}

// ---------------------------------------------------------------------------
// Injector semantics
// ---------------------------------------------------------------------------

TEST(FaultEngine, FlapTrainExpandsToAlternatingEdges) {
  const auto train =
      fault::flap_train("q", from_sec(1), from_sec(2), from_ms(500), 3);
  ASSERT_EQ(train.size(), 6u);
  for (int i = 0; i < 3; ++i) {
    const auto& down = train[static_cast<std::size_t>(2 * i)];
    const auto& up = train[static_cast<std::size_t>(2 * i + 1)];
    EXPECT_EQ(down.action, fault::Action::kDown);
    EXPECT_EQ(down.at, from_sec(1) + i * from_sec(2));
    EXPECT_EQ(down.target, "q");
    EXPECT_EQ(up.action, fault::Action::kUp);
    EXPECT_EQ(up.at, down.at + from_ms(500));
  }
}

TEST(FaultEngine, DrainDropsWaitingButNotInServicePacket) {
  EventList events;
  net::CountingSink sink("sink");
  // 12 Mb/s: 1 ms per packet. Five packets at t=0, drain at t=0.5 ms: the
  // head is mid-transmission and must complete; the other four die.
  net::Queue q(events, "q", 12e6, 100 * net::kDataPacketBytes);
  net::Route route({&q, &sink});
  for (int i = 0; i < 5; ++i) make_data(events).send_on(route);

  fault::TargetRegistry reg;
  reg.add_queue("q", q);
  fault::FaultPlan plan;
  fault::FaultEvent ev;
  ev.at = from_us(500);
  ev.action = fault::Action::kDrain;
  ev.target = "q";
  plan.events = {ev};
  fault::FaultInjector injector(events, reg, plan, /*run_seed=*/1);

  events.run_all();
  EXPECT_EQ(sink.packets(), 1u);
  EXPECT_EQ(q.drops(), 4u);
  EXPECT_EQ(injector.events_applied(), 1u);
}

TEST(FaultEngine, CorruptDropsExactlyCountPackets) {
  EventList events;
  net::CountingSink sink("sink");
  net::Queue q(events, "q", 12e6, 100 * net::kDataPacketBytes);
  net::Route route({&q, &sink});
  for (int i = 0; i < 5; ++i) make_data(events).send_on(route);

  fault::TargetRegistry reg;
  reg.add_queue("q", q);
  fault::FaultPlan plan;
  fault::FaultEvent ev;
  ev.at = from_us(500);
  ev.action = fault::Action::kCorrupt;
  ev.target = "q";
  ev.count = 2;
  plan.events = {ev};
  fault::FaultInjector injector(events, reg, plan, /*run_seed=*/1);

  events.run_all();
  EXPECT_EQ(sink.packets(), 3u);
  EXPECT_EQ(q.drops(), 2u);
}

TEST(FaultEngine, RampStepsThroughIntermediateRates) {
  EventList events;
  net::CountingSink sink("sink");
  net::VariableRateQueue q(events, "q", 12e6, 1000 * net::kDataPacketBytes);

  fault::TargetRegistry reg;
  reg.add_variable_queue("q", q);
  fault::FaultPlan plan;
  fault::FaultEvent ev;
  ev.at = from_sec(1);
  ev.action = fault::Action::kRamp;
  ev.target = "q";
  ev.value = 6e6;
  ev.duration = from_sec(3);
  ev.count = 3;
  plan.events = {ev};
  fault::FaultInjector injector(events, reg, plan, /*run_seed=*/1);

  // Linear 12 -> 6 Mb/s in 3 steps of 1 s: 10, 8, then exactly 6 Mb/s.
  events.run_until(from_sec(2) + from_ms(1));
  EXPECT_DOUBLE_EQ(q.rate_bps(), 10e6);
  events.run_until(from_sec(3) + from_ms(1));
  EXPECT_DOUBLE_EQ(q.rate_bps(), 8e6);
  events.run_until(from_sec(4) + from_ms(1));
  EXPECT_DOUBLE_EQ(q.rate_bps(), 6e6);
  // The ramp itself plus its three synthesized steps all applied.
  EXPECT_EQ(injector.events_applied(), 4u);
}

TEST(FaultEngine, LossBurstRestoresBaselineProbability) {
  EventList events;
  net::LossyLink lossy(events, "l", 0.01, 99);

  fault::TargetRegistry reg;
  reg.add_lossy("l", lossy);
  fault::FaultPlan plan;
  fault::FaultEvent ev;
  ev.at = from_sec(1);
  ev.action = fault::Action::kLossBurst;
  ev.target = "l";
  ev.value = 0.5;
  ev.duration = from_sec(1);
  plan.events = {ev};
  fault::FaultInjector injector(events, reg, plan, /*run_seed=*/1);

  events.run_until(from_ms(1500));
  EXPECT_DOUBLE_EQ(lossy.loss_prob(), 0.5);
  events.run_until(from_ms(2500));
  EXPECT_DOUBLE_EQ(lossy.loss_prob(), 0.01);  // back to the baseline
  EXPECT_EQ(injector.events_applied(), 2u);   // burst + synthesized restore
}

// A loss scripted under a burst is what the burst's end restores; it does
// not cut the burst short.
TEST(FaultEngine, LossScriptedUnderABurstTakesEffectWhenTheBurstEnds) {
  EventList events;
  net::LossyLink lossy(events, "l", 0.0005, 99);

  fault::TargetRegistry reg;
  reg.add_lossy("l", lossy);
  fault::FaultPlan plan;
  fault::FaultEvent burst;
  burst.at = from_sec(4);
  burst.action = fault::Action::kLossBurst;
  burst.target = "l";
  burst.value = 0.3;
  burst.duration = from_sec(2);
  fault::FaultEvent loss;
  loss.at = from_sec(5);
  loss.action = fault::Action::kLoss;
  loss.target = "l";
  loss.value = 0.1;
  plan.events = {burst, loss};
  fault::FaultInjector injector(events, reg, plan, /*run_seed=*/1);

  events.run_until(from_ms(4500));
  EXPECT_DOUBLE_EQ(lossy.loss_prob(), 0.3);
  events.run_until(from_ms(5500));
  EXPECT_DOUBLE_EQ(lossy.loss_prob(), 0.3);  // still the burst
  events.run_until(from_ms(6500));
  EXPECT_DOUBLE_EQ(lossy.loss_prob(), 0.1);  // the scripted value
  EXPECT_EQ(injector.events_applied(), 3u);
}

// A rate or ramp scripted while a link is down keeps it down; the `up`
// restores the latest scripted rate, and a ramp starts from the scripted
// rate, not from the outage's 0.
TEST(FaultEngine, RateScriptedUnderADownTakesEffectAtUp) {
  EventList events;
  net::VariableRateQueue q(events, "q", 14.4e6, 100 * net::kDataPacketBytes);

  fault::TargetRegistry reg;
  reg.add_variable_queue("q", q);
  auto step = [](double sec, fault::Action a, double value = -1.0) {
    fault::FaultEvent e;
    e.at = from_sec(sec);
    e.action = a;
    e.target = "q";
    e.value = value;
    return e;
  };
  fault::FaultPlan plan;
  plan.events = {step(2, fault::Action::kDown),
                 step(3, fault::Action::kRate, 1e6),
                 step(5, fault::Action::kUp),
                 step(6, fault::Action::kDown),
                 step(7, fault::Action::kRamp, 2e6),
                 step(10, fault::Action::kUp)};
  // Scripts 1.5 Mb/s at 8 s and 2 Mb/s at 9 s, both under the down.
  plan.events[4].duration = from_sec(2);
  plan.events[4].count = 2;
  fault::FaultInjector injector(events, reg, plan, /*run_seed=*/1);

  const std::vector<std::pair<double, double>> expect = {
      {2.5, 0.0}, {3.5, 0.0}, {5.5, 1e6}, {7.5, 0.0},
      {8.5, 0.0}, {9.5, 0.0}, {10.5, 2e6}};
  for (const auto& [sec, bps] : expect) {
    events.run_until(from_sec(sec));
    EXPECT_DOUBLE_EQ(q.rate_bps(), bps) << "at " << sec << " s";
  }
  EXPECT_EQ(injector.events_applied(), 8u);  // six scripted + two ramp steps
}

TEST(FaultEngine, RandomOutageTimelineIsAFunctionOfSeedAndSalt) {
  auto applied_with = [](std::uint64_t run_seed) {
    EventList events;
    net::VariableRateQueue q(events, "q", 10e6,
                             100 * net::kDataPacketBytes);
    fault::TargetRegistry reg;
    reg.add_variable_queue("q", q);
    fault::FaultPlan plan;
    fault::RandomOutage ro;
    ro.target = "q";
    ro.mean_up = from_ms(300);
    ro.mean_down = from_ms(50);
    ro.until = from_sec(30);
    ro.salt = 0;
    plan.random = {ro};
    fault::FaultInjector injector(events, reg, plan, run_seed);
    events.run_all();
    return injector.events_applied();
  };
  const std::uint64_t a = applied_with(5);
  EXPECT_EQ(a, applied_with(5)) << "same seed must replay identically";
  EXPECT_GE(a, 2u) << "30 s at ~3 outages/s must produce events";
}

// ---------------------------------------------------------------------------
// Recovery metrics
// ---------------------------------------------------------------------------

TEST(FaultEngine, RecoveryMonitorReportsOutageAndRecovery) {
  ScopedThrowingChecks throwing;
  EventList events;
  topo::Network net(events);
  auto& q = net.add_variable_queue("link/q", 10e6,
                                   50 * net::kDataPacketBytes);
  auto& pipe = net.add_pipe("link/p", from_ms(10));
  auto& ack = net.add_pipe("link/a", from_ms(10));
  auto tcp = mptcp::make_single_path_tcp(events, "t", {&q, &pipe}, {&ack});
  tcp->start(0);

  fault::FaultPlan plan;
  fault::FaultEvent down;
  down.at = from_sec(2);
  down.action = fault::Action::kDown;
  down.target = "link/q";
  fault::FaultEvent up;
  up.at = from_sec(4);
  up.action = fault::Action::kUp;
  up.target = "link/q";
  plan.events = {down, up};
  fault::RecoveryMonitor recovery(events, from_ms(1));
  recovery.track(*tcp);
  fault::FaultInjector injector(events, net.fault_targets(), plan,
                               /*run_seed=*/1, &recovery);

  events.run_until(from_sec(10));
  recovery.finalize();

  EXPECT_EQ(recovery.outages(), 1u);
  EXPECT_EQ(recovery.recoveries(), 1u);
  // Time-to-first-recovery: the retransmission timer must fire and the
  // first post-outage delivery land within a handful of RTTs.
  EXPECT_GT(recovery.mean_ttr_sec(), 0.0);
  EXPECT_LT(recovery.mean_ttr_sec(), 2.0);
  EXPECT_GE(recovery.max_ttr_sec(), recovery.mean_ttr_sec());
  // Degradation spans exactly the scripted [2 s, 4 s] outage.
  EXPECT_NEAR(recovery.degraded_sec(), 2.0, 1e-9);
  // A dead link delivers at most the handful of packets already in flight:
  // goodput retained during degradation is a small fraction of clean.
  EXPECT_LT(recovery.degraded_goodput_fraction(), 0.25);
  EXPECT_GE(recovery.degraded_goodput_fraction(), 0.0);
  EXPECT_EQ(injector.events_applied(), 2u);
}

// ---------------------------------------------------------------------------
// Fig. 17 round trip: the general fault engine reproduces the legacy
// RateSchedule mobility trace bit-exactly. Same topology, same flows, same
// schedule — one sim drives the radios with net::RateSchedule, the other
// with a FaultPlan; every per-interval delivery count must match exactly.
// ---------------------------------------------------------------------------

struct Fig17Deliveries {
  std::vector<std::uint64_t> wifi, g3, mp;
};

template <typename InstallMobility>
Fig17Deliveries run_fig17(InstallMobility install) {
  const double s = 0.05;  // scaled walk: 12 min -> 36 s
  auto at = [s](double minutes) { return from_sec(minutes * 60.0 * s); };
  EventList events;
  topo::Network net(events);
  topo::TwoLink radio = topo::wireless_client(net);
  auto tcp_wifi = mptcp::make_single_path_tcp(events, "tcp-wifi",
                                              radio.fwd(0), radio.rev(0));
  auto tcp_3g = mptcp::make_single_path_tcp(events, "tcp-3g", radio.fwd(1),
                                            radio.rev(1));
  MptcpConnection mp(events, "mp", cc::mptcp_lia());
  mp.add_subflow(radio.fwd(0), radio.rev(0));
  mp.add_subflow(radio.fwd(1), radio.rev(1));
  tcp_wifi->start(0);
  tcp_3g->start(from_ms(13));
  mp.start(at(1.0));
  install(events, net, radio, at);

  Fig17Deliveries out;
  for (double minute = 0.5; minute <= 12.0; minute += 0.5) {
    events.run_until(at(minute));
    out.wifi.push_back(tcp_wifi->delivered_pkts());
    out.g3.push_back(tcp_3g->delivered_pkts());
    out.mp.push_back(mp.delivered_pkts());
  }
  return out;
}

TEST(FaultEngine, Fig17FaultPlanMatchesRateScheduleBitExactly) {
  // Legacy construction: two RateSchedules, wifi first (the order the
  // original Fig. 17 harness used).
  std::vector<std::unique_ptr<net::RateSchedule>> schedules;
  const auto legacy = run_fig17([&](EventList& events, topo::Network&,
                                    topo::TwoLink& radio, const auto& at) {
    // The client's queues are variable-rate (topo/two_link.cpp).
    auto radio_q = [&radio](int link) -> net::VariableRateQueue& {
      return static_cast<net::VariableRateQueue&>(radio.queue(link));
    };
    schedules.push_back(std::make_unique<net::RateSchedule>(
        events, radio_q(0),
        std::vector<net::RateSchedule::Change>{
            {at(9.0), 0.0}, {at(10.5), 5e6}, {at(11.0), topo::kWifiRate}}));
    schedules.push_back(std::make_unique<net::RateSchedule>(
        events, radio_q(1),
        std::vector<net::RateSchedule::Change>{
            {at(0.0), 1.0e6}, {at(9.0), 2.1e6}, {at(10.5), 1.4e6}}));
  });

  // The same mobility trace as a fault plan (what fig17_mobile.toml's
  // [faults] section builds).
  std::unique_ptr<fault::FaultInjector> injector;
  const auto engine = run_fig17([&](EventList& events, topo::Network& net,
                                    topo::TwoLink&, const auto& at) {
    auto ev = [](SimTime t, fault::Action a, const char* target,
                 double value) {
      fault::FaultEvent e;
      e.at = t;
      e.action = a;
      e.target = target;
      e.value = value;
      return e;
    };
    fault::FaultPlan plan;
    plan.events = {
        ev(at(9.0), fault::Action::kDown, "wifi/q", -1.0),
        ev(at(10.5), fault::Action::kUp, "wifi/q", 5e6),
        ev(at(11.0), fault::Action::kRate, "wifi/q", topo::kWifiRate),
        ev(at(0.0), fault::Action::kRate, "3g/q", 1.0e6),
        ev(at(9.0), fault::Action::kRate, "3g/q", 2.1e6),
        ev(at(10.5), fault::Action::kRate, "3g/q", 1.4e6),
    };
    injector = std::make_unique<fault::FaultInjector>(
        events, net.fault_targets(), plan, /*run_seed=*/1);
  });

  ASSERT_EQ(legacy.wifi.size(), engine.wifi.size());
  for (std::size_t i = 0; i < legacy.wifi.size(); ++i) {
    EXPECT_EQ(legacy.wifi[i], engine.wifi[i]) << "interval " << i;
    EXPECT_EQ(legacy.g3[i], engine.g3[i]) << "interval " << i;
    EXPECT_EQ(legacy.mp[i], engine.mp[i]) << "interval " << i;
  }
  // The walk actually happened: WiFi TCP stops gaining during the outage.
  EXPECT_EQ(engine.wifi[19], engine.wifi[20])
      << "no WiFi deliveries inside [9.5 min, 10 min] of the outage";
  EXPECT_GT(engine.mp.back(), engine.mp[17])
      << "the multipath flow keeps moving through the outage";
}

// ---------------------------------------------------------------------------
// Scenario wiring: [faults] specs are deterministic across thread counts
// and surface recovery metrics in the per-run report.
// ---------------------------------------------------------------------------

constexpr const char* kFaultSweepSpec = R"(
[scenario]
name = "fault_identity"

[topology]
kind = "two_link"
link1_rate = "10Mbps"
link1_delay = "10ms"
link2_rate = "10Mbps"
link2_delay = "10ms"

[algorithm]
kind = "mptcp"

[traffic]
kind = "persistent"
count = 1
subflows = 2

[faults]
script = ["1s down link2/q", "3s up link2/q", "6s rate 4Mbps link2/q"]
flap = ["link1/q start=8s period=2s down=250ms count=2"]

[run]
warmup = "0.5s"
measure = "12s"
seeds = [1, 2]
)";

TEST(FaultEngine, ScenarioFaultRunsAreThreadCountInvariant) {
  scenario::Scenario s =
      scenario::Scenario::from_string(kFaultSweepSpec, "fi.toml");
  const auto r1 = s.run({.threads = 1});
  const auto r4 = s.run({.threads = 4});

  ASSERT_EQ(r1.size(), 2u);
  ASSERT_EQ(r4.size(), 2u);
  for (std::size_t i = 0; i < r1.size(); ++i) {
    EXPECT_EQ(r1[i].name, r4[i].name);
    EXPECT_EQ(r1[i].values, r4[i].values);  // bit-exact doubles
    EXPECT_EQ(r1[i].annotations, r4[i].annotations);
  }

  // The recovery metrics ride along in every run's report.
  auto value_of = [&](std::size_t run, const std::string& key) {
    for (const auto& kv : r1[run].values) {
      if (kv.first == key) return kv.second;
    }
    ADD_FAILURE() << "metric " << key << " missing from run " << run;
    return -1.0;
  };
  for (std::size_t run = 0; run < r1.size(); ++run) {
    // 3 scripted + 4 flap edges, all before the 12.5 s horizon.
    EXPECT_EQ(value_of(run, "fault_events_applied"), 7.0);
    EXPECT_EQ(value_of(run, "fault_outages"), 3.0);
    EXPECT_EQ(value_of(run, "fault_recoveries"), 3.0);
    EXPECT_GT(value_of(run, "fault_ttr_mean_s"), 0.0);
    EXPECT_GT(value_of(run, "fault_degraded_sec"), 0.0);
    EXPECT_GE(value_of(run, "fault_reinjections"), 0.0);
    EXPECT_LT(value_of(run, "fault_degraded_goodput_fraction"), 1.0);
  }
}

// ---------------------------------------------------------------------------
// Spec diagnostics: every malformed [faults] entry fails with a file:line
// SpecError naming the problem.
// ---------------------------------------------------------------------------

constexpr const char* kTwoLinkBase = R"(
[scenario]
name = "errs"

[topology]
kind = "two_link"
link1_rate = "10Mbps"
link1_delay = "10ms"
link2_rate = "10Mbps"
link2_delay = "10ms"

[algorithm]
kind = "mptcp"

[traffic]
kind = "persistent"
count = 1
subflows = 2

[run]
warmup = "1s"
measure = "2s"
)";

constexpr const char* kWirelessBase = R"(
[scenario]
name = "errs"

[topology]
kind = "wireless"

[algorithm]
kind = "mptcp"

[traffic]
kind = "persistent"
flows = ["0+1"]

[run]
warmup = "1s"
measure = "2s"
)";

// Validate `base` plus a [faults] section and return the SpecError it
// must raise.
scenario::SpecError fault_error(const std::string& base,
                                const std::string& faults) {
  const std::string text = base + "\n[faults]\n" + faults + "\n";
  try {
    scenario::Scenario::from_string(text, "f.toml").validate();
  } catch (const scenario::SpecError& e) {
    return e;
  }
  ADD_FAILURE() << "expected a SpecError from:\n" << faults;
  return scenario::SpecError("", 0, "");
}

// fault_error(), and the error points at `faults`' first line and says
// `says`.
void expect_fault_error(const std::string& base, const std::string& faults,
                        const std::string& says) {
  const auto e = fault_error(base, faults);
  // `base`, a blank line and "[faults]" come first.
  const auto before = std::count(base.begin(), base.end(), '\n') + 2;
  EXPECT_EQ(e.file(), "f.toml");
  EXPECT_EQ(e.line(), before + 1) << e.what();
  EXPECT_NE(std::string(e.what()).find(says), std::string::npos) << e.what();
}

TEST(FaultSpecErrors, UnknownTarget) {
  const auto e = fault_error(kTwoLinkBase, "script = \"1s down nope\"");
  EXPECT_NE(std::string(e.what()).find("unknown fault target 'nope'"),
            std::string::npos)
      << e.what();
  EXPECT_NE(std::string(e.what()).find("known: "), std::string::npos)
      << "diagnostic must list the registered names";
  EXPECT_EQ(e.file(), "f.toml");
  EXPECT_GT(e.line(), 0);
}

TEST(FaultSpecErrors, UnknownAction) {
  const auto e =
      fault_error(kTwoLinkBase, "script = \"1s explode link1/q\"");
  EXPECT_NE(std::string(e.what()).find("unknown fault action 'explode'"),
            std::string::npos)
      << e.what();
  EXPECT_NE(std::string(e.what()).find("down, up, rate"), std::string::npos)
      << "diagnostic must list the known actions";
}

TEST(FaultSpecErrors, NegativeTime) {
  const auto e = fault_error(kTwoLinkBase, "script = \"-1s down link1/q\"");
  EXPECT_NE(std::string(e.what()).find("fault time must be non-negative"),
            std::string::npos)
      << e.what();
}

TEST(FaultSpecErrors, TooFewTokens) {
  const auto e = fault_error(kTwoLinkBase, "script = \"down link1/q\"");
  EXPECT_NE(std::string(e.what()).find("fault script entry needs"),
            std::string::npos)
      << e.what();
}

TEST(FaultSpecErrors, WrongArgCount) {
  expect_fault_error(kTwoLinkBase, "script = \"1s rate link1/q\"",
                     "[faults.rate] is missing required key 'rate'");
  expect_fault_error(kTwoLinkBase, "script = \"1s down 5Mbps link1/q\"",
                     "[faults.down] takes 0 arguments, got 1");
}

TEST(FaultSpecErrors, NegativeRampDuration) {
  expect_fault_error(
      kTwoLinkBase, "script = \"1s ramp 5Mbps -2s 4 link1/q\"",
      "[faults.ramp] duration: expected a non-negative time, got \"-2s\"");
  expect_fault_error(kTwoLinkBase, "script = \"1s ramp 5Mbps 0s 4 link1/q\"",
                     "[faults.ramp] 'duration' must be > 0s");
}

TEST(FaultSpecErrors, RampNeedsSteps) {
  expect_fault_error(kTwoLinkBase, "script = \"1s ramp 5Mbps 2s 0 link1/q\"",
                     "[faults.ramp] 'steps' must be >= 1");
}

TEST(FaultSpecErrors, LossProbabilityOutOfRange) {
  expect_fault_error(kWirelessBase, "script = \"1s loss 1.5 wifi/loss\"",
                     "[faults.loss] 'probability' must be in [0, 1]");
}

TEST(FaultSpecErrors, LossProbabilityNotANumber) {
  expect_fault_error(kWirelessBase, "script = \"1s loss much wifi/loss\"",
                     "[faults.loss] probability: expected a number, got "
                     "'much'");
  // A token is a number only as env::parse_double reads one: "nan" would
  // pass every range check and abort the run.
  expect_fault_error(kWirelessBase, "script = \"4s loss nan wifi/loss\"",
                     "[faults.loss] probability: expected a number, got "
                     "'nan'");
}

TEST(FaultSpecErrors, NegativeLossBurstDuration) {
  expect_fault_error(kWirelessBase,
                     "script = \"1s loss_burst 0.5 -1s wifi/loss\"",
                     "[faults.loss_burst] duration: expected a non-negative "
                     "time, got \"-1s\"");
}

TEST(FaultSpecErrors, CorruptCountTooSmall) {
  expect_fault_error(kTwoLinkBase, "script = \"1s corrupt 0 link1/q\"",
                     "[faults.corrupt] 'packets' must be >= 1");
}

TEST(FaultSpecErrors, ResetSubflowOutOfRange) {
  expect_fault_error(kTwoLinkBase, "script = \"1s reset 7 flow0\"",
                     "[faults.reset] subflow index 7 out of range for "
                     "connection 'flow0' (has at most 2 subflows)");
}

TEST(FaultSpecErrors, KindMismatch) {
  // `down` needs a rate to cut; a loss element has none.
  const auto e =
      fault_error(kWirelessBase, "script = \"1s down wifi/loss\"");
  EXPECT_NE(std::string(e.what()).find(
                "fault target 'wifi/loss' is a loss element; 'down' needs "
                "a variable-rate queue"),
            std::string::npos)
      << e.what();
}

TEST(FaultSpecErrors, OverlappingDownDown) {
  const auto e = fault_error(
      kTwoLinkBase,
      "script = [\"1s down link1/q\", \"2s down link1/q\"]");
  EXPECT_NE(std::string(e.what()).find(
                "overlapping 'down'/'down' on target 'link1/q' (it is "
                "already down)"),
            std::string::npos)
      << e.what();
}

TEST(FaultSpecErrors, UpWithoutDown) {
  const auto e = fault_error(kTwoLinkBase, "script = \"2s up link1/q\"");
  EXPECT_NE(std::string(e.what()).find(
                "'up' without a preceding 'down' on target 'link1/q'"),
            std::string::npos)
      << e.what();
}

// Two bursts at once on one loss element would restore the first's
// probability after the second ends and lose the element's own; the
// injector aborts the run instead.
TEST(FaultSpecErrors, OverlappingLossBurstsRejected) {
  expect_fault_error(kWirelessBase,
                     "script = [\"4s loss_burst 0.3 2s wifi/loss\", "
                     "\"5s loss_burst 0.2 2s wifi/loss\"]",
                     "[faults] overlapping loss bursts on target "
                     "'wifi/loss'");
  // Back to back is fine when the earlier burst is listed first: its
  // restore then runs before the later burst on the shared tick.
  const std::string ordered =
      "script = [\"4s loss_burst 0.3 2s wifi/loss\", "
      "\"6s loss_burst 0.2 1s wifi/loss\"]";
  EXPECT_NO_THROW(scenario::Scenario::from_string(
                      std::string(kWirelessBase) + "\n[faults]\n" +
                          ordered + "\n",
                      "f.toml")
                      .validate());
  expect_fault_error(kWirelessBase,
                     "script = [\"6s loss_burst 0.2 1s wifi/loss\", "
                     "\"4s loss_burst 0.3 2s wifi/loss\"]",
                     "[faults] loss burst on target 'wifi/loss' starts as "
                     "one listed after it ends");
}

// Two random processes on one queue would take it down while down.
TEST(FaultSpecErrors, SecondRandomOutageOnATargetRejected) {
  expect_fault_error(
      kWirelessBase,
      "random_outage = [\"3g/q mean_up=6s mean_down=500ms until=28s "
      "seed=1\", \"3g/q mean_up=6s mean_down=500ms until=28s seed=2\"]",
      "[faults] target '3g/q' already has a random outage process");
}

TEST(FaultSpecErrors, FlapDownMustFitInsidePeriod) {
  expect_fault_error(kTwoLinkBase,
                     "flap = \"link1/q start=1s period=1s down=2s count=3\"",
                     "[faults.flap] 'down' must be < 'period'");
  expect_fault_error(kTwoLinkBase,
                     "flap = \"link1/q start=1s period=1s down=0s count=3\"",
                     "[faults.flap] 'down' must be > 0s");
}

TEST(FaultSpecErrors, FlapCountMustBePositive) {
  expect_fault_error(kTwoLinkBase,
                     "flap = \"link1/q start=1s period=2s down=1s count=0\"",
                     "[faults.flap] 'count' must be >= 1");
}

TEST(FaultSpecErrors, FlapMissingParameter) {
  expect_fault_error(kTwoLinkBase, "flap = \"link1/q start=1s period=2s\"",
                     "[faults.flap] is missing required key 'down'");
}

TEST(FaultSpecErrors, FlapUnknownParameter) {
  expect_fault_error(
      kTwoLinkBase,
      "flap = \"link1/q start=1s period=2s down=1s count=3 cadence=9\"",
      "unknown key 'cadence' in [faults.flap]");
}

TEST(FaultSpecErrors, RandomOutageNeedsPositiveParameters) {
  expect_fault_error(
      kTwoLinkBase,
      "random_outage = \"link1/q mean_up=1s mean_down=0s until=10s\"",
      "[faults.random_outage] 'mean_down' must be > 0s");
}

TEST(FaultSpecErrors, RandomOutageConflictsWithScriptedEdges) {
  const auto e = fault_error(
      kTwoLinkBase,
      "script = [\"1s down link1/q\", \"2s up link1/q\"]\n"
      "random_outage = \"link1/q mean_up=1s mean_down=1s until=10s\"");
  EXPECT_NE(std::string(e.what()).find(
                "has both a random outage process and scripted down/up "
                "events"),
            std::string::npos)
      << e.what();
}

TEST(FaultSpecErrors, RecoveryPollMustBePositive) {
  const auto e = fault_error(kTwoLinkBase,
                             "recovery_poll = \"0s\"\n"
                             "script = \"1s down link1/q\"");
  EXPECT_NE(std::string(e.what()).find("recovery_poll must be positive"),
            std::string::npos)
      << e.what();
}

// A path manager opens subflows only once its connection starts, so a
// reset is bounded by the manager's max_subflows, and a reset of a subflow
// that never opened does nothing but is still counted.
TEST(FaultEngine, ResetOfAnUnopenedSubflowIsANoOp) {
  const std::string text = std::string(kTwoLinkBase) +
                           "\n[path_manager]\nadd_threshold = \"0B\"\n"
                           "\n[faults]\nscript = [\"1s reset 1 flow0\", "
                           "\"2s reset 0 flow0\"]\n";
  const scenario::Scenario s = scenario::Scenario::from_string(text, "r.toml");
  EXPECT_NO_THROW(s.validate());
  const auto results = s.run({.threads = 1});
  ASSERT_EQ(results.size(), 1u);
  double applied = -1.0;
  for (const auto& [key, value] : results[0].values) {
    if (key == "fault_events_applied") applied = value;
  }
  EXPECT_EQ(applied, 2.0);
}

}  // namespace
}  // namespace mpsim
