// Runner stress for the ThreadSanitizer lane: many concurrent multipath
// simulations on >= 4 worker threads, exercising every shared-looking code
// path the parallel runner touches — packet pools, flow-id allocation,
// coupled congestion control singletons, the check layer, the job cursor —
// while TSan watches for races. The test also re-asserts the determinism
// guarantee under contention: a 4-thread and an 8-thread sweep of the same
// jobs must be byte-identical.
#include "runner/experiment_runner.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "cc/mptcp_lia.hpp"
#include "core/rng.hpp"
#include "mptcp/connection.hpp"
#include "net/packet.hpp"
#include "topo/network.hpp"

namespace mpsim::runner {
namespace {

// A two-path MPTCP transfer with seed-varied rates/delays. Heavier than the
// single-path job in test_experiment_runner: it drives the coupled (LIA)
// controller — whose const singleton is shared by all threads — plus two
// packet-pool-churning paths per job.
void mptcp_job(RunContext& ctx, std::uint64_t seed) {
  EventList& events = ctx.events();
  topo::Network net(events);
  Rng rng(seed);
  const double rate1 = 6e6 + rng.next_double() * 4e6;
  const double rate2 = 4e6 + rng.next_double() * 4e6;
  const SimTime d1 = from_ms(4) + from_us(rng.next_double() * 800);
  const SimTime d2 = from_ms(12) + from_us(rng.next_double() * 800);
  auto l1 = net.add_link("l1", rate1, d1, topo::bdp_bytes(rate1, 2 * d1));
  auto l2 = net.add_link("l2", rate2, d2, topo::bdp_bytes(rate2, 2 * d2));
  auto& a1 = net.add_pipe("a1", d1);
  auto& a2 = net.add_pipe("a2", d2);

  mptcp::MptcpConnection conn(events, "mp", cc::mptcp_lia());
  conn.add_subflow(topo::path_of({&l1}), {&a1});
  conn.add_subflow(topo::path_of({&l2}), {&a2});
  conn.start(0);
  events.run_until(from_ms(1200));

  ctx.record("delivered_pkts", static_cast<double>(conn.delivered_pkts()));
  ctx.record("events", static_cast<double>(events.events_processed()));
  ctx.record("sf0_acked",
             static_cast<double>(conn.subflow(0).packets_acked()));
  ctx.record("sf1_acked",
             static_cast<double>(conn.subflow(1).packets_acked()));
  // Pool ledger must balance inside the worker thread.
  const net::PacketPool* pool = net::PacketPool::find(events);
  ASSERT_NE(pool, nullptr);
  EXPECT_EQ(pool->total_allocated(),
            pool->total_released() + pool->outstanding());
}

std::vector<RunResult> sweep(unsigned threads, int njobs) {
  RunnerConfig cfg;
  cfg.threads = threads;
  ExperimentRunner r(cfg);
  for (int k = 0; k < njobs; ++k) {
    r.add("seed" + std::to_string(k), [k](RunContext& ctx) {
      mptcp_job(ctx, 7000 + static_cast<std::uint64_t>(k));
    });
  }
  return r.run_all();
}

TEST(RunnerStress, FourPlusThreadsManyMultipathJobs) {
  // 24 jobs over 6 threads: every worker claims several jobs from the
  // shared cursor, and simulations overlap heavily in time.
  const auto results = sweep(/*threads=*/6, /*njobs=*/24);
  ASSERT_EQ(results.size(), 24u);
  for (const auto& r : results) {
    EXPECT_GT(r.value("delivered_pkts"), 0.0) << r.name;
    EXPECT_GT(r.metrics.events_processed, 100u) << r.name;
  }
}

TEST(RunnerStress, ContendedSweepsAreByteIdentical) {
  const int njobs = 16;
  const auto four = sweep(/*threads=*/4, njobs);
  const auto eight = sweep(/*threads=*/8, njobs);
  ASSERT_EQ(four.size(), eight.size());
  for (std::size_t i = 0; i < four.size(); ++i) {
    EXPECT_EQ(four[i].name, eight[i].name);
    ASSERT_EQ(four[i].values.size(), eight[i].values.size());
    for (std::size_t j = 0; j < four[i].values.size(); ++j) {
      EXPECT_EQ(four[i].values[j].first, eight[i].values[j].first);
      EXPECT_EQ(four[i].values[j].second, eight[i].values[j].second)
          << four[i].name << "." << four[i].values[j].first;
    }
  }
}

TEST(RunnerStress, SchedulerCountersIdenticalAcrossThreads) {
  // The scheduler's work counters and the memory counters are part of a
  // run's deterministic output: a 4-thread sweep reports exactly the
  // counters (and values) of a 1-thread sweep, however the jobs interleave.
  auto sweep = [](unsigned threads, int njobs) {
    RunnerConfig cfg;
    cfg.threads = threads;
    ExperimentRunner r(cfg);
    for (int k = 0; k < njobs; ++k) {
      r.add("seed" + std::to_string(k), [k](RunContext& ctx) {
        mptcp_job(ctx, 7000 + static_cast<std::uint64_t>(k));
      });
    }
    return r.run_all();
  };
  const int njobs = 12;
  const auto one = sweep(/*threads=*/1, njobs);
  const auto four = sweep(/*threads=*/4, njobs);
  ASSERT_EQ(one.size(), four.size());
  for (std::size_t i = 0; i < one.size(); ++i) {
    const TimingWheel::Stats& a = one[i].metrics.scheduler;
    const TimingWheel::Stats& b = four[i].metrics.scheduler;
    EXPECT_GT(a.ticks_opened, 0u) << one[i].name;
    EXPECT_EQ(a.cascaded, b.cascaded) << one[i].name;
    EXPECT_EQ(a.ticks_opened, b.ticks_opened) << one[i].name;
    EXPECT_EQ(a.runs_merged, b.runs_merged) << one[i].name;
    EXPECT_EQ(a.peak_pending, b.peak_pending) << one[i].name;
    const RunMetrics& ma = one[i].metrics;
    const RunMetrics& mb = four[i].metrics;
    EXPECT_GT(ma.pool_slabs, 0u) << one[i].name;
    EXPECT_GT(ma.reorder_bytes_peak, 0u) << one[i].name;
    EXPECT_EQ(ma.pool_slabs, mb.pool_slabs) << one[i].name;
    EXPECT_EQ(ma.reorder_bytes_peak, mb.reorder_bytes_peak) << one[i].name;
    ASSERT_EQ(one[i].values.size(), four[i].values.size());
    for (std::size_t j = 0; j < one[i].values.size(); ++j) {
      EXPECT_EQ(one[i].values[j].second, four[i].values[j].second)
          << one[i].name << "." << one[i].values[j].first;
    }
  }
}

TEST(RunnerStress, FlowIdsDeterministicUnderConcurrency) {
  // Flow ids are allocated per-EventList: within one simulation they are
  // unique (a duplicate would cross-deliver packets between connections and
  // trip the receiver's flow-id check), and across runner jobs they depend
  // only on construction order inside the job — never on which worker
  // thread ran it or how many jobs ran before. Each job here builds three
  // connections and must observe ids 1, 2, 3 exactly.
  RunnerConfig cfg;
  cfg.threads = 8;
  ExperimentRunner r(cfg);
  constexpr int kJobs = 32;
  for (int k = 0; k < kJobs; ++k) {
    r.add("ids" + std::to_string(k), [](RunContext& ctx) {
      topo::Network net(ctx.events());
      std::vector<std::unique_ptr<mptcp::MptcpConnection>> conns;
      for (int c = 0; c < 3; ++c) {
        auto link = net.add_link("l" + std::to_string(c), 8e6, from_ms(1),
                                 64000);
        auto& ack = net.add_pipe("a" + std::to_string(c), from_ms(1));
        auto tcp = mptcp::make_single_path_tcp(
            ctx.events(), "t" + std::to_string(c), topo::path_of({&link}),
            {&ack});
        tcp->start(0);
        conns.push_back(std::move(tcp));
      }
      ctx.events().run_until(from_ms(50));
      for (std::size_t c = 0; c < conns.size(); ++c) {
        ctx.record("flow_id" + std::to_string(c),
                   static_cast<double>(conns[c]->flow_id()));
      }
    });
  }
  const auto results = r.run_all();
  for (const auto& res : results) {
    EXPECT_EQ(res.value("flow_id0"), 1.0) << res.name;
    EXPECT_EQ(res.value("flow_id1"), 2.0) << res.name;
    EXPECT_EQ(res.value("flow_id2"), 3.0) << res.name;
  }
}

}  // namespace
}  // namespace mpsim::runner
