// ExperimentRunner: submission-order results, metric capture, and the
// headline guarantee — a parallel sweep is byte-identical to a sequential
// one, because every job owns a private EventList (and packet pool).
#include "runner/experiment_runner.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "core/rng.hpp"
#include "mptcp/connection.hpp"
#include "net/packet.hpp"
#include "topo/network.hpp"

namespace mpsim::runner {
namespace {

// A small but non-trivial simulation: one TCP over a seed-varied link.
// Returns delivered packets — sensitive to every event-ordering decision,
// so equality across runs means the whole schedule matched. With
// `drain_and_check_pool`, the simulation is run to completion and the
// pool balance is recorded while the network objects are still alive.
void tcp_job(RunContext& ctx, std::uint64_t seed,
             bool drain_and_check_pool = false) {
  EventList& events = ctx.events();
  topo::Network net(events);
  Rng rng(seed);
  const double rate = 8e6 + rng.next_double() * 4e6;
  const SimTime delay = from_ms(5) + from_us(rng.next_double() * 1000);
  auto link = net.add_link("l", rate, delay, topo::bdp_bytes(rate, 2 * delay));
  auto& ack = net.add_pipe("a", delay);
  mptcp::ConnectionConfig cfg;
  if (drain_and_check_pool) cfg.app_limit_pkts = 500;  // finite transfer
  auto tcp = mptcp::make_single_path_tcp(ctx.events(), "t",
                                         topo::path_of({&link}), {&ack}, cfg);
  tcp->start(0);
  events.run_until(from_ms(1500));
  ctx.record("delivered_pkts", static_cast<double>(tcp->delivered_pkts()));
  ctx.record("events", static_cast<double>(events.events_processed()));
  if (drain_and_check_pool) {
    events.run_all();  // drain in-flight packets and timers
    ctx.record("outstanding_after",
               static_cast<double>(net::Packet::pool_outstanding(events)));
  }
}

std::vector<RunResult> sweep(unsigned threads, int njobs) {
  RunnerConfig cfg;
  cfg.threads = threads;
  ExperimentRunner r(cfg);
  for (int k = 0; k < njobs; ++k) {
    r.add("seed" + std::to_string(k), [k](RunContext& ctx) {
      tcp_job(ctx, 1000 + static_cast<std::uint64_t>(k));
    });
  }
  return r.run_all();
}

TEST(ExperimentRunner, ResultsInSubmissionOrder) {
  RunnerConfig cfg;
  cfg.threads = 4;
  ExperimentRunner r(cfg);
  for (int k = 0; k < 12; ++k) {
    r.add("job" + std::to_string(k), [k](RunContext& ctx) {
      ctx.record("k", static_cast<double>(k));
    });
  }
  const auto results = r.run_all();
  ASSERT_EQ(results.size(), 12u);
  for (int k = 0; k < 12; ++k) {
    EXPECT_EQ(results[static_cast<std::size_t>(k)].name,
              "job" + std::to_string(k));
    EXPECT_EQ(results[static_cast<std::size_t>(k)].value("k"), k);
  }
}

TEST(ExperimentRunner, MetricsArePopulated) {
  RunnerConfig cfg;
  cfg.threads = 1;
  ExperimentRunner r(cfg);
  r.add("tcp", [](RunContext& ctx) { tcp_job(ctx, 42); });
  const auto results = r.run_all();
  ASSERT_EQ(results.size(), 1u);
  const RunMetrics& m = results[0].metrics;
  EXPECT_GT(m.events_processed, 1000u);
  EXPECT_GT(m.wall_seconds, 0.0);
  EXPECT_GT(m.events_per_sec, 0.0);
  EXPECT_GT(m.peak_pool_packets, 0u) << "TCP must have allocated packets";
  EXPECT_GT(results[0].value("delivered_pkts"), 0.0);
}

TEST(ExperimentRunner, ParallelMatchesSequentialBitForBit) {
  const int njobs = 8;
  const auto seq = sweep(/*threads=*/1, njobs);
  const auto par = sweep(/*threads=*/8, njobs);
  ASSERT_EQ(seq.size(), par.size());
  for (std::size_t i = 0; i < seq.size(); ++i) {
    EXPECT_EQ(seq[i].name, par[i].name);
    ASSERT_EQ(seq[i].values.size(), par[i].values.size());
    for (std::size_t j = 0; j < seq[i].values.size(); ++j) {
      EXPECT_EQ(seq[i].values[j].first, par[i].values[j].first);
      // Bit-for-bit: no tolerance.
      EXPECT_EQ(seq[i].values[j].second, par[i].values[j].second)
          << seq[i].name << "." << seq[i].values[j].first;
    }
    EXPECT_EQ(seq[i].metrics.events_processed, par[i].metrics.events_processed)
        << seq[i].name;
  }
  // The runs are seed-varied, so they must not all collapse to one value.
  std::set<double> distinct;
  for (const auto& r : seq) distinct.insert(r.value("delivered_pkts"));
  EXPECT_GT(distinct.size(), 1u);
}

TEST(ExperimentRunner, JobsActuallyRunConcurrently) {
  // With 4 threads and 4 jobs that wait for each other, all four must be
  // in flight at once (a sequential runner would deadlock; the barrier
  // gives up after a timeout to fail cleanly instead).
  RunnerConfig cfg;
  cfg.threads = 4;
  ExperimentRunner r(cfg);
  std::atomic<int> arrived{0};
  for (int k = 0; k < 4; ++k) {
    r.add("spin" + std::to_string(k), [&arrived](RunContext& ctx) {
      arrived.fetch_add(1);
      for (int spins = 0; arrived.load() < 4 && spins < 4000; ++spins) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      ctx.record("saw_all", arrived.load() >= 4 ? 1.0 : 0.0);
    });
  }
  const auto results = r.run_all();
  for (const auto& res : results) {
    EXPECT_EQ(res.value("saw_all"), 1.0) << res.name;
  }
}

TEST(ExperimentRunner, PoolAccountingIsolatedAcrossParallelRuns) {
  // Satellite (d): concurrent simulations on separate threads keep their
  // pool accounting private. Every run must end with zero outstanding
  // packets and report its own (positive) peak.
  const int njobs = 8;
  RunnerConfig cfg;
  cfg.threads = 8;
  ExperimentRunner r(cfg);
  for (int k = 0; k < njobs; ++k) {
    r.add("iso" + std::to_string(k), [k](RunContext& ctx) {
      tcp_job(ctx, 7000 + static_cast<std::uint64_t>(k),
              /*drain_and_check_pool=*/true);
    });
  }
  const auto results = r.run_all();
  for (int k = 0; k < njobs; ++k) {
    const auto& res = results[static_cast<std::size_t>(k)];
    EXPECT_EQ(res.value("outstanding_after", 999.0), 0.0)
        << "run " << k << " leaked packets";
    EXPECT_GT(res.metrics.peak_pool_packets, 0u);
  }
}

TEST(ExperimentRunner, ReportsSchedulerCounters) {
  struct Nop : EventSource {
    explicit Nop(EventList& e) : EventSource(e, "nop") {}
    void on_event() override {}
  };
  RunnerConfig cfg;
  cfg.threads = 1;
  ExperimentRunner r(cfg);
  r.add("probe", [](RunContext& ctx) {
    Nop a(ctx.events()), b(ctx.events());
    ctx.events().schedule_at(b, 5);
    ctx.events().schedule_at(a, 5);
    ctx.events().schedule_at(a, 7);
    ctx.events().run_all();
  });
  const TimingWheel::Stats s = r.run_all()[0].metrics.scheduler;
  EXPECT_EQ(s.peak_pending, 3u);
  EXPECT_EQ(s.ticks_opened, 2u);
  EXPECT_EQ(s.runs_merged, 1u);
  EXPECT_EQ(s.cascaded, 0u);
}

TEST(ExperimentRunner, ZeroJobsIsFine) {
  ExperimentRunner r;
  EXPECT_TRUE(r.run_all().empty());
}

TEST(ExperimentRunner, ResolvedThreadsNeverExceedsJobs) {
  RunnerConfig cfg;
  cfg.threads = 16;
  ExperimentRunner r(cfg);
  r.add("only", [](RunContext&) {});
  EXPECT_EQ(r.resolved_threads(), 1u);
}

}  // namespace
}  // namespace mpsim::runner
