// The three benchmark workloads, built through the simulator's public API
// with the same constructions as the repository's bench programs:
//   fattree_tp1   bench_fattree_shard's 1-shard job (Fig. 13)
//   twolink_rate  bench_pacing's rate run (Coupled BBR, fast two-link)
//   churn_outage  bench_churn_lb's Poisson/Pareto churn with an outage
// Each build owns one fresh EventList. Its run is cut into slices of
// simulated time so the caller can time each slice and interleave the
// reference kernel between them.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>

#include "spans.hpp"

namespace perfbench {

enum class Workload { kFattreeTp1, kTwolinkRate, kChurnOutage };

std::optional<Workload> parse_workload(const std::string& name);

// Deterministic outputs of one finished run. Two runs of one workload and
// seed must agree on every field, traced or not.
struct Counters {
  std::uint64_t events = 0;
  std::uint64_t delivered_pkts = 0;  // in-order deliveries, every connection
  std::uint64_t measured_pkts = 0;   // deliveries inside the goodput window
  double goodput_mbps = 0.0;
  std::uint64_t queue_arrivals = 0;  // includes drops
  std::uint64_t queue_drops = 0;
  std::uint64_t pool_allocs = 0;
  std::uint64_t pool_releases = 0;
  std::uint64_t pool_outstanding = 0;
  std::uint64_t pool_peak = 0;
  std::uint64_t wire_refs = 0;  // sum over live connections' ledgers
  std::uint64_t packets_sent = 0;
  std::uint64_t retransmits = 0;
  std::uint64_t timeouts = 0;
  std::uint64_t rx_packets = 0;
  std::uint64_t duplicates = 0;
  std::uint64_t reinjections = 0;
  std::uint64_t flows_started = 0;
  std::uint64_t flows_completed = 0;
  std::uint64_t flows_reclaimed = 0;
  std::uint64_t subflow_drops = 0;
  std::uint64_t reprobes = 0;
  std::uint64_t scheduler_switches = 0;
  std::uint64_t pending_median = 0;  // EventList::pending() at slice ends

  bool operator==(const Counters&) const = default;
};

struct BuildOptions {
  Tracer* tracer = nullptr;       // wire shims and the cc decorator
  bool trace_recorder = false;    // install a TraceRecorder (never flushed)
};

// Host seconds a build spent on topology vs. traffic and connections.
struct BuildTimes {
  double topo_s = 0.0;
  double connect_s = 0.0;
};

class Sim {
 public:
  virtual ~Sim() = default;
  virtual std::size_t slices() const = 0;
  // Advances the simulation through slice i (in order, each once).
  virtual void run_slice(std::size_t i) = 0;
  // Counters after the last slice.
  virtual Counters counters() const = 0;
};

std::unique_ptr<Sim> build(Workload w, std::uint64_t seed,
                           const BuildOptions& opts, BuildTimes& times);

}  // namespace perfbench
