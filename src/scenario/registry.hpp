// Extension points of the scenario engine.
//
// A spec names a topology kind, a congestion-control algorithm and a
// traffic model; each name is looked up in a registry of builders that
// consume the spec section and assemble the corresponding piece of a
// simulation. New topologies / CC variants / workloads plug in by adding
// one registration in builders.cpp (tools/mpsim_analyze's
// registry-discipline rule keeps keys unique, lowercase, and registered in
// exactly that one translation unit).
//
// The shapes:
//   BuiltTopology   owns every network element of a constructed topology
//                   and exposes a uniform path-addressing surface: `flow
//                   slots` (the scenario's natural flow set — 5 ring flows
//                   on the torus, 1 client on a two-link) each with an
//                   ordered list of candidate paths, plus host addressing
//                   for datacenter fabrics and a queue inventory for loss
//                   metrics.
//   TrafficModel    builds and owns connections/generators over a
//                   BuiltTopology; exposes the connection list the engine
//                   meters.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "cc/congestion_control.hpp"
#include "core/event_list.hpp"
#include "core/rng.hpp"
#include "mptcp/connection.hpp"
#include "runner/experiment_runner.hpp"
#include "scenario/spec.hpp"
#include "topo/network.hpp"

namespace mpsim::scenario {

// Build-time context shared by all builders of one run.
struct BuildEnv {
  // Simulated-duration scale (MPSIM_BENCH_SCALE / --scale): applied to
  // warmup/measure, arrival phases and scripted fault times.
  double time_scale = 1.0;
  // Scale flow start times too ([run] scale_starts). Start staggers stay
  // unscaled by default (they only de-synchronize flows), but Fig. 17's
  // timeline positions starts in scaled minutes.
  bool scale_starts = false;
  // The run seed ([run] seeds): arrival processes, fixed-loss stages and
  // CBR bursts draw from it, so a seed sweep varies all of them.
  std::uint64_t seed = 1;

  SimTime scaled(SimTime t) const {
    return from_sec(to_sec(t) * time_scale);
  }
  SimTime scaled_start(SimTime t) const {
    return scale_starts ? scaled(t) : t;
  }

  // The spec's [path_manager] section, or nullptr when absent. Traffic
  // models that support path management parse it into a PathManagerConfig
  // and attach a PathManager per connection; models that ignore it leave
  // its keys unconsumed, which check_all_used() turns into a validation
  // error (the user asked for path management a model cannot provide).
  const Section* path_manager = nullptr;
  // The spec's [scheduler] section, or nullptr when absent (stripe). Same
  // consumption contract as path_manager: unconsumed keys fail validation.
  const Section* scheduler = nullptr;
};

class BuiltTopology {
 public:
  virtual ~BuiltTopology() = default;

  // Natural flow slots for persistent traffic (torus: 5, parking lot: 3,
  // two-link/wireless: 1, ...).
  virtual int flow_slots() const = 0;

  // Up to `nsubflows` (fwd, rev) path pairs for flow slot `slot`, in the
  // topology's canonical path order (so "path 0"/"path 1" in a spec mean
  // the same thing the paper's figures mean). `rng` is only drawn from by
  // topologies that sample paths (FatTree, BCube).
  virtual std::vector<topo::PathPair> flow_paths(int slot, int nsubflows,
                                                 Rng& rng) = 0;

  // Host-addressable fabrics (FatTree, BCube) for traffic matrices;
  // 0 hosts = not addressable.
  virtual int num_hosts() const { return 0; }
  virtual std::vector<topo::PathPair> host_paths(int src, int dst, int n,
                                                 Rng& rng);

  // BCube TP2-style neighbour traffic matrix; empty = unsupported.
  virtual std::vector<std::pair<int, int>> neighbor_pairs() const {
    return {};
  }

  // Bottleneck queues in a stable order, for loss metrics and stat resets.
  virtual std::vector<net::Queue*> queues() = 0;
};

// A per-run congestion-control instance. `single_path` marks the paper's
// SINGLE-PATH baseline: UNCOUPLED restricted to one subflow per flow.
struct AlgorithmInstance {
  std::string name;
  std::unique_ptr<const cc::CongestionControl> cc;
  bool single_path = false;
};

class TrafficModel {
 public:
  virtual ~TrafficModel() = default;

  // Create (and own) connections/generators. Called once per run, after
  // the topology is built. `rng` is the run's seeded generator (path
  // sampling, arrival processes).
  virtual void build(EventList& events, BuiltTopology& topo,
                     const AlgorithmInstance& algo, Rng& rng,
                     const BuildEnv& env) = 0;

  // Connections to meter, in flow order.
  virtual std::vector<const mptcp::MptcpConnection*> connections() const = 0;

  // Same connections, mutably, for fault-target registration (subflow
  // resets act on the connection). Models that cannot support faults may
  // keep the default empty list.
  virtual std::vector<mptcp::MptcpConnection*> mutable_connections() {
    return {};
  }

  // Denominator for per-host throughput metrics (0 = not applicable).
  virtual int host_count() const { return 0; }

  // Model-specific extra outputs (e.g. Poisson arrival counts).
  virtual void record_metrics(runner::RunContext& ctx) const { (void)ctx; }
};

using TopologyBuilder = std::function<std::unique_ptr<BuiltTopology>(
    topo::Network&, const Section&, const BuildEnv&)>;
using AlgorithmBuilder = std::function<AlgorithmInstance(const Section&)>;
using TrafficBuilder =
    std::function<std::unique_ptr<TrafficModel>(const Section&)>;
// Data-placement policies are an enum, not an object: the builder merely
// maps the registry key (and any policy keys in the section) to a kind the
// ConnectionConfig carries.
using SchedulerBuilder =
    std::function<mptcp::DataSchedulerKind(const Section&)>;

class Registry {
 public:
  struct Names {
    std::vector<std::pair<std::string, std::string>> entries;  // key, help
  };

  const TopologyBuilder& topology(const std::string& key,
                                  const Section& at) const;
  const AlgorithmBuilder& algorithm(const std::string& key,
                                    const Section& at) const;
  const TrafficBuilder& traffic(const std::string& key,
                                const Section& at) const;
  const SchedulerBuilder& scheduler(const std::string& key,
                                    const Section& at) const;

  Names topology_names() const;
  Names algorithm_names() const;
  Names traffic_names() const;
  Names scheduler_names() const;

  // Registration (builders.cpp only — enforced by tools/mpsim_analyze).
  void add_topology(const std::string& key, const std::string& help,
                    TopologyBuilder b);
  void add_algorithm(const std::string& key, const std::string& help,
                     AlgorithmBuilder b);
  void add_traffic(const std::string& key, const std::string& help,
                   TrafficBuilder b);
  void add_scheduler(const std::string& key, const std::string& help,
                     SchedulerBuilder b);

 private:
  template <typename T>
  struct Entry {
    std::string key;
    std::string help;
    T builder;
  };
  std::vector<Entry<TopologyBuilder>> topologies_;
  std::vector<Entry<AlgorithmBuilder>> algorithms_;
  std::vector<Entry<TrafficBuilder>> traffics_;
  std::vector<Entry<SchedulerBuilder>> schedulers_;
};

// The built-in registry (every kind builders.cpp registers). Constructed
// once, immutable afterwards — safe to share across runner threads.
const Registry& builtin_registry();

}  // namespace mpsim::scenario
