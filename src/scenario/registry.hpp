// Extension points of the scenario engine.
//
// A spec names a topology kind, a congestion-control algorithm, a traffic
// model, a data scheduler, fault actions and metrics; each name is looked
// up in one KindSet of the registry. A kind is one registration in
// builders.cpp: its key, one line of help, its key table (spec.hpp: its
// section's keys, or an action's or metric's arguments in order) and its
// builder. tools/mpsim_analyze's registry-discipline rule keeps every
// registration in that one translation unit, its key lowercase and unique
// per kind, its table free of duplicate rows, and every literal key its
// builder reads declared in its table.
//
// The shapes:
//   topo::Topology  (topo/network.hpp) what a topology builder returns:
//                   flow slots with candidate paths, host addressing for
//                   datacenter fabrics, and a queue inventory.
//   TrafficModel    builds and owns connections/generators over it, and
//                   holds the connection list the engine meters.
//   MetricInputs    what a metric reads when the measured window closes.
#pragma once

#include <cmath>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "cc/congestion_control.hpp"
#include "core/check.hpp"
#include "core/event_list.hpp"
#include "core/rng.hpp"
#include "fault/fault.hpp"
#include "mptcp/connection.hpp"
#include "mptcp/path_manager.hpp"
#include "runner/experiment_runner.hpp"
#include "scenario/spec.hpp"
#include "topo/network.hpp"

namespace mpsim::scenario {

// Build-time context shared by all builders of one run.
struct BuildEnv {
  // Simulated-duration scale (`mpsim run --scale`): applied to
  // warmup/measure, arrival phases and scripted fault times.
  double time_scale = 1.0;
  // Scale flow start times too ([run] scale_starts). Start staggers stay
  // unscaled by default (they only de-synchronize flows), but Fig. 17's
  // timeline positions starts in scaled minutes.
  bool scale_starts = false;
  // The run seed ([run] seeds): arrival processes, fixed-loss stages and
  // CBR bursts draw from it, so a seed sweep varies all of them.
  std::uint64_t seed = 1;

  // Rounded to the nearest nanosecond, so scaled durations that add up
  // unscaled still add up: at --scale=0.06, 24 half-minute samples end
  // exactly at a 12 min window's end.
  SimTime scaled(SimTime t) const {
    return std::llround(static_cast<double>(t) * time_scale);
  }
  SimTime scaled_start(SimTime t) const {
    return scale_starts ? scaled(t) : t;
  }

  // The spec's [path_manager], read against its table; only traffic kinds
  // that declare TrafficBuilder::path_manager are built with one.
  std::optional<mptcp::PathManagerConfig> path_manager;
  // The spec's [scheduler] kind (stripe without the section).
  mptcp::DataSchedulerKind scheduler = mptcp::DataSchedulerKind::kStripe;
};

// A per-run congestion-control instance. `single_path` marks the paper's
// SINGLE-PATH baseline: UNCOUPLED restricted to one subflow per flow.
struct AlgorithmInstance {
  std::unique_ptr<const cc::CongestionControl> cc;
  bool single_path = false;
  std::string name = {};  // the algorithm kind
};

class TrafficModel {
 public:
  virtual ~TrafficModel() = default;

  // Create (and own) connections/generators. Called once per run, after
  // the topology is built. `rng` is the run's seeded generator (path
  // sampling, arrival processes).
  virtual void build(EventList& events, topo::Topology& topo,
                     const AlgorithmInstance& algo, Rng& rng,
                     const BuildEnv& env) = 0;

  // Connections to meter, in flow order; each also joins the fault-target
  // registry under its name.
  const std::vector<std::unique_ptr<mptcp::MptcpConnection>>& connections()
      const {
    return conns_;
  }

  // Denominator for per-host throughput metrics (0 = not applicable).
  virtual int host_count() const { return 0; }

  // Model-specific extra outputs (e.g. Poisson arrival counts).
  virtual void record_metrics(runner::RunContext& ctx) const { (void)ctx; }

 protected:
  std::vector<std::unique_ptr<mptcp::MptcpConnection>> conns_;
};

using TopologyBuilder = std::function<std::unique_ptr<topo::Topology>(
    topo::Network&, const Args&, const BuildEnv&)>;
using AlgorithmBuilder = std::function<AlgorithmInstance(const Args&)>;
struct TrafficBuilder {
  bool path_manager = false;  // builds with the spec's [path_manager]
  std::function<std::unique_ptr<TrafficModel>(const Args&)> make;
};
// Data-placement policies are an enum, not an object: a scheduler kind's
// builder is the DataSchedulerKind the ConnectionConfig carries.
using SchedulerBuilder = mptcp::DataSchedulerKind;
// A fault action's builder is the fault::Action it schedules. Each of its
// arguments fills the FaultEvent field its type names: a rate or a number
// fills `value`, a time `duration` (scaled), a count `count` (on a
// connection target, a subflow index).
using ActionBuilder = fault::Action;

// What a metric reads when a run's measured window closes.
struct MetricInputs {
  const std::vector<std::unique_ptr<mptcp::MptcpConnection>>& conns;
  std::vector<double> mbps = {};  // each connection's goodput, in order
  double total_mbps = 0.0;
  std::vector<net::Queue*> queues = {};  // the topology's inventory
  // Packets each subflow had acked when the window opened; a subflow
  // opened later starts from zero.
  std::vector<std::vector<std::uint64_t>> subflow_base = {};
  SimTime window = 0;
  int hosts = 0;  // TrafficModel::host_count()
};

// A metric's arguments are counts, each a queue index ("loss_ratio:0:2");
// the engine checks them, and `per_host`, against the built run before it
// runs.
struct MetricBuilder {
  bool per_host = false;  // divides by the host count, so needs hosts
  std::function<void(const MetricInputs&, const Args&, runner::RunContext&)>
      record;
};

template <typename Builder>
struct Kind {
  std::string key;
  std::string help;
  KeyTable keys;
  Builder build;
};

// The registered kinds of one grammar, in registration order.
template <typename Builder>
class KindSet {
 public:
  // `noun` names a kind in diagnostics: "topology kind", "metric".
  explicit KindSet(std::string noun) : noun_(std::move(noun)) {}

  const std::vector<Kind<Builder>>& kinds() const { return kinds_; }

  // The kind named `key`; an unknown one fails at `at`, listing the known.
  const Kind<Builder>& find(const std::string& key, const Section& at) const {
    std::string known;
    for (const Kind<Builder>& k : kinds_) {
      if (k.key == key) return k;
      known += (known.empty() ? "" : ", ") + k.key;
    }
    at.fail("unknown " + noun_ + " '" + key + "' (known: " + known + ")");
  }

  // Registration (builders.cpp only — enforced by tools/mpsim_analyze).
  void add(std::string key, std::string help, KeyTable keys, Builder build) {
    for (const Kind<Builder>& k : kinds_) {
      MPSIM_CHECK(k.key != key, "duplicate registration");
    }
    for (std::size_t i = 0; i < keys.size(); ++i) {
      for (std::size_t j = 0; j < i; ++j) {
        MPSIM_CHECK(keys[i].name != keys[j].name, "duplicate key-table row");
      }
    }
    kinds_.push_back(
        {std::move(key), std::move(help), std::move(keys), std::move(build)});
  }

 private:
  std::string noun_;
  std::vector<Kind<Builder>> kinds_;
};

struct Registry {
  KindSet<TopologyBuilder> topologies{"topology kind"};
  KindSet<AlgorithmBuilder> algorithms{"algorithm kind"};
  KindSet<TrafficBuilder> traffic_models{"traffic kind"};
  KindSet<SchedulerBuilder> schedulers{"scheduler kind"};
  KindSet<ActionBuilder> fault_actions{"fault action"};
  KindSet<MetricBuilder> metrics{"metric"};
};

// The built-in registry (every kind builders.cpp registers). Constructed
// once, immutable afterwards — safe to share across runner threads.
const Registry& builtin_registry();

// Algorithm kind `kind` at its table's defaults, for per-flow `algos` and
// poisson `companions`; an unknown kind fails at `at`.
AlgorithmInstance algorithm_at_defaults(const std::string& kind,
                                        const Section& at);

}  // namespace mpsim::scenario
