// Microbenchmarks of the simulator core (google-benchmark): event-loop
// dispatch, queue+pipe packet forwarding, the LIA increase computation
// (linear vs brute force), and a complete small TCP simulation. These bound
// how much simulated time a scenario run can afford.
//
// After the google-benchmark suites, main() measures the event scheduler on
// a dense workload (32k-source dispatch) and a sparse one (tcp_1flow)
// through the ExperimentRunner and writes BENCH_micro_core.json: events/sec
// for the perf gate, plus the scheduler's deterministic work counters.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "cc/mptcp_lia.hpp"
#include "core/event_list.hpp"
#include "core/rng.hpp"
#include "mptcp/connection.hpp"
#include "net/cbr.hpp"
#include "net/packet.hpp"
#include "net/pipe.hpp"
#include "net/queue.hpp"
#include "runner/experiment_runner.hpp"
#include "runner/report.hpp"
#include "stats/json.hpp"
#include "topo/network.hpp"

namespace {

using namespace mpsim;

// Self-rescheduling source with a fixed period — the minimal dispatch load.
class NopSource : public EventSource {
 public:
  NopSource(EventList& events, SimTime period)
      : EventSource(events, "nop"), events_(events), period_(period) {}
  void on_event() override { events_.schedule_in(*this, period_); }

 private:
  EventList& events_;
  SimTime period_;
};

// `nsrc` sources with deterministically mixed periods (1 us .. ~20 ms),
// modelling the spread a large simulation keeps in flight: queue drains and
// pipe hops at microseconds, RTT-scale acks at milliseconds, RTO timers at
// tens of milliseconds.
std::vector<std::unique_ptr<NopSource>> make_dispatch_load(EventList& events,
                                                           int nsrc) {
  std::vector<std::unique_ptr<NopSource>> sources;
  Rng rng(12345);
  for (int i = 0; i < nsrc; ++i) {
    const SimTime period =
        from_us(1) + static_cast<SimTime>(rng.next_double() * from_ms(20));
    sources.push_back(std::make_unique<NopSource>(events, period));
    events.schedule_at(*sources.back(), i);
  }
  return sources;
}

void BM_EventListDispatch(benchmark::State& state) {
  EventList events;
  auto sources = make_dispatch_load(events, static_cast<int>(state.range(0)));
  for (auto _ : state) {
    events.run_one();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_EventListDispatch)->Arg(64)->Arg(1024)->Arg(4096);

void BM_QueuePipeForwarding(benchmark::State& state) {
  EventList events;
  net::Queue queue(events, "q", 1e9, 1u << 24);
  net::Pipe pipe(events, "p", from_us(10));
  net::CountingSink sink("s");
  net::Route route({&queue, &pipe, &sink});
  for (auto _ : state) {
    net::Packet& pkt = net::Packet::alloc(events);
    pkt.type = net::PacketType::kCbr;
    pkt.send_on(route);
    events.run_all();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_QueuePipeForwarding);

void BM_LiaIncreaseLinear(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(1);
  std::vector<double> w(n), rtt(n);
  for (std::size_t i = 0; i < n; ++i) {
    w[i] = 1 + rng.next_double() * 50;
    rtt[i] = 0.01 + rng.next_double();
  }
  std::size_t r = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(cc::MptcpLia::increase_linear(w, rtt, r));
    r = (r + 1) % n;
  }
}
BENCHMARK(BM_LiaIncreaseLinear)->Arg(2)->Arg(4)->Arg(8)->Arg(16);

void BM_LiaIncreaseBruteForce(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(1);
  std::vector<double> w(n), rtt(n);
  for (std::size_t i = 0; i < n; ++i) {
    w[i] = 1 + rng.next_double() * 50;
    rtt[i] = 0.01 + rng.next_double();
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(cc::MptcpLia::increase_bruteforce(w, rtt, 0));
  }
}
BENCHMARK(BM_LiaIncreaseBruteForce)->Arg(2)->Arg(4)->Arg(8)->Arg(16);

void BM_SmallTcpSimulation(benchmark::State& state) {
  // One simulated second of a single TCP over a 10 Mb/s bottleneck.
  for (auto _ : state) {
    EventList events;
    topo::Network net(events);
    auto link = net.add_link("l", 10e6, from_ms(10),
                             topo::bdp_bytes(10e6, from_ms(20)));
    auto& ack = net.add_pipe("a", from_ms(10));
    auto tcp = mptcp::make_single_path_tcp(
        events, "t", topo::path_of({&link}), {&ack});
    tcp->start(0);
    events.run_until(from_sec(1));
    benchmark::DoNotOptimize(tcp->delivered_pkts());
  }
}
BENCHMARK(BM_SmallTcpSimulation)->Unit(benchmark::kMillisecond);

// --- JSON scheduler report -----------------------------------------------

// Run `total_events` dispatches of the mixed-period load; the runner's
// metrics capture wall time and events/sec.
runner::RunResult measure_dispatch(std::uint64_t total_events, int nsrc) {
  runner::RunnerConfig cfg;
  cfg.threads = 1;  // sequential: timing fidelity over parallelism here
  runner::ExperimentRunner r(cfg);
  r.add("dispatch", [total_events, nsrc](runner::RunContext& ctx) {
    auto sources = make_dispatch_load(ctx.events(), nsrc);
    for (std::uint64_t i = 0; i < total_events; ++i) {
      ctx.events().run_one();
    }
  });
  return r.run_all().front();
}

// Full TCP simulation over `sim_sec` simulated seconds.
runner::RunResult measure_tcp(double sim_sec) {
  runner::RunnerConfig cfg;
  cfg.threads = 1;
  runner::ExperimentRunner r(cfg);
  r.add("tcp", [sim_sec](runner::RunContext& ctx) {
    EventList& events = ctx.events();
    topo::Network net(events);
    auto link = net.add_link("l", 10e6, from_ms(10),
                             topo::bdp_bytes(10e6, from_ms(20)));
    auto& ack = net.add_pipe("a", from_ms(10));
    auto tcp = mptcp::make_single_path_tcp(
        events, "t", topo::path_of({&link}), {&ack});
    tcp->start(0);
    events.run_until(from_sec(sim_sec));
    ctx.record("delivered_pkts", static_cast<double>(tcp->delivered_pkts()));
  });
  return r.run_all().front();
}

// Best-of-N: scheduler cost is deterministic, so the fastest trial is the
// least-perturbed one.
template <typename Measure>
runner::RunResult fastest(Measure measure) {
  constexpr int kTrials = 3;
  runner::RunResult best = measure();
  for (int trial = 1; trial < kTrials; ++trial) {
    runner::RunResult r = measure();
    if (r.metrics.wall_seconds < best.metrics.wall_seconds) best = r;
  }
  return best;
}

stats::Json json_side(const runner::RunResult& r) {
  stats::Json o = stats::Json::object();
  o.set("events_processed",
        static_cast<double>(r.metrics.events_processed));
  o.set("wall_seconds", r.metrics.wall_seconds);
  o.set("events_per_sec", r.metrics.events_per_sec);
  r.metrics.scheduler.for_each([&o](const char* k, std::uint64_t v) {
    o.set(k, static_cast<double>(v));
  });
  return o;
}

void scheduler_report_json() {
  // The scale bench/baselines/BENCH_micro_core.json was recorded at.
  const double scale = 0.1;
  const auto dispatch_events =
      static_cast<std::uint64_t>(4'000'000 * scale);
  // Pending-set size of a large datacenter sweep: a 1024-host FatTree at 8
  // paths per flow keeps ~8k subflows' timers plus per-queue/pipe
  // deliveries in flight — tens of thousands of pending events.
  const int nsrc = 32768;
  const double tcp_sec = 20.0 * scale;

  const runner::RunResult d =
      fastest([&] { return measure_dispatch(dispatch_events, nsrc); });
  const runner::RunResult t = fastest([&] { return measure_tcp(tcp_sec); });
  std::printf("\n--- event scheduler ---\n");
  std::printf("dispatch (%d sources): %.3g ev/s\n", nsrc,
              d.metrics.events_per_sec);
  std::printf("tcp %.3gs sim: %.3g ev/s\n", tcp_sec,
              t.metrics.events_per_sec);

  stats::Json dispatch = json_side(d);
  dispatch.set("sources", static_cast<double>(nsrc));
  stats::Json tcp = json_side(t);
  tcp.set("sim_seconds", tcp_sec);

  stats::Json root = stats::Json::object();
  root.set("bench", "micro_core");
  root.set("dispatch", std::move(dispatch));
  root.set("tcp_1flow", std::move(tcp));
  runner::write_json_file("micro_core", root);
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  scheduler_report_json();
  return 0;
}
