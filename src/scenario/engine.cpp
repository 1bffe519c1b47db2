#include "scenario/engine.hpp"

#include <cstdio>
#include <memory>

#include "fault/fault.hpp"
#include "scenario/faults.hpp"
#include "scenario/registry.hpp"
#include "stats/goodput.hpp"
#include "stats/monitors.hpp"
#include "topo/network.hpp"
#include "trace/record.hpp"
#include "trace/trace.hpp"

namespace mpsim::scenario {

namespace {

std::string file_stem(const std::string& path) {
  std::string stem = path;
  const std::size_t slash = stem.find_last_of('/');
  if (slash != std::string::npos) stem = stem.substr(slash + 1);
  const std::size_t dot = stem.find_last_of('.');
  if (dot != std::string::npos && dot > 0) stem = stem.substr(0, dot);
  return stem.empty() ? "scenario" : stem;
}

std::string render_value(const Value& v) {
  switch (v.kind) {
    case Value::Kind::kString:
      return v.str;
    case Value::Kind::kBool:
      return v.boolean ? "true" : "false";
    case Value::Kind::kNumber: {
      char buf[40];
      std::snprintf(buf, sizeof buf, "%.10g", v.num);
      return buf;
    }
    case Value::Kind::kArray:
      break;
  }
  return "<array>";
}

struct Axis {
  std::string section;
  std::string key;
  std::vector<Value> values;
  int line = 0;
};

using enum KeyType;

// The declaration of section `name`; nullptr for an unknown section.
const SpecSection* declared(const std::string& name) {
  for (const SpecSection& s : spec_sections()) {
    if (s.name == name) return &s;
  }
  return nullptr;
}

const KeyTable& keys_of(const std::string& section) {
  return declared(section)->keys;
}

// Section `name` read against its table; an absent section reads as an
// empty one, all defaults.
Args read_section(const Spec& spec, const std::string& name) {
  const Section* s = spec.find_section(name);
  return read_args(s != nullptr ? *s : Section(name, 1, spec.file()),
                   {&keys_of(name)});
}

// The kind section `name` names, and the section read against its own
// table plus the kind's.
template <typename B>
std::pair<const Kind<B>*, Args> read_kind(const Section& s,
                                          const KindSet<B>& kinds) {
  const KeyTable& own = keys_of(s.name());
  const Kind<B>& kind =
      kinds.find(read_args(s, {&own}, /*partial=*/true).get_string("kind"), s);
  return {&kind, read_args(s, {&own, &kind.keys})};
}

std::string scenario_name(const Spec& spec, const std::string& file) {
  const Args s = read_section(spec, "scenario");
  return s.has("name") ? s.get_string("name") : file_stem(file);
}

}  // namespace

const std::vector<SpecSection>& spec_sections() {
  static const std::vector<SpecSection> sections = {
      {"scenario", "names the runs",
       {{"name", kString, "",
         "run-name prefix and report name (default: the spec's file "
         "stem)"}}},
      {"topology", "the network",
       {{"kind", kString, kRequired, "a topology kind (below)"}}},
      {"algorithm", "the congestion control of every multipath flow",
       {{"kind", kString, kRequired, "an algorithm kind (below)"}}},
      {"scheduler", "which subflow carries the next segment",
       {{"kind", kString, "stripe", "a data-scheduler kind (below)"}}},
      {"traffic", "the flows",
       {{"kind", kString, kRequired, "a traffic kind (below)"}}},
      {"path_manager",
       "a PathManager on every multipath flow of a traffic kind that takes "
       "one",
       {{"strategy", kString, "threshold", "which candidate paths open",
         {}, {"fullmesh", "ndiffports", "threshold"}},
        {"ndiffports", kCount, "2", "ndiffports: candidates to open",
         at_least(1)},
        {"add_threshold", kBytes, "1048576B",
         "threshold: bytes delivered per added subflow; 0 = never add"},
        {"max_subflows", kCount, "8", "cap on live subflows", at_least(1)},
        {"scan_period", kTime, "100ms", "dead-path detection interval",
         above(0)},
        {"reprobe_backoff", kTime, "1s", "wait before re-probing a path"},
        {"dead_after_rtos", kCount, "3",
         "consecutive RTOs that declare a path dead", at_least(1)}}},
      {"faults", "a fault schedule",
       {{"script", kStrings, "",
         "timed actions, \"<time> <action> [args...] <target>\" (actions "
         "below)"},
        {"flap", kStrings, "",
         "down/up trains, \"<target> <key>=<value>...\" (keys below)"},
        {"random_outage", kStrings, "",
         "seeded outage processes, \"<target> <key>=<value>...\" (keys "
         "below)"},
        {"recovery_poll", kTime, "1ms",
         "recovery-detection interval (scaled)"}}},
      {"run", "the measured window and the seeds",
       {{"warmup", kTime, kRequired, "time before measuring (scaled)"},
        {"measure", kTime, kRequired, "the measured window (scaled)",
         above(0)},
        {"seeds", kCounts, "[1]", "one run per seed per grid point",
         at_least(1)},
        {"scale_starts", kBool, "false", "scale flow starts by --scale too"}}},
      {"output", "metrics and the flight recorder",
       {{"metrics", kStrings, R"(["flow_mbps", "total_mbps"])",
         "what each run records, \"<metric>[:<arg>...]\" (metrics below)"},
        {"sample_interval", kTime, "0s",
         "period of goodput trace records (scaled); 0s = none"},
        {"trace", kString, "off", "flight-recorder trace; --trace overrides",
         {}, {"csv", "off"}},
        {"trace_capacity", kCount64, "0",
         "trace ring size, records; 0 = the recorder's default"}}},
      {"sweep",
       "axes \"section.key\" = [values]: one run per point of their cross "
       "product",
       {}},
  };
  return sections;
}

Scenario Scenario::load(const std::string& path) {
  Spec spec = Spec::parse_file(path);
  std::string name = scenario_name(spec, path);
  return Scenario(std::move(spec), std::move(name));
}

Scenario Scenario::from_string(const std::string& text,
                               const std::string& file) {
  Spec spec = Spec::parse_string(text, file);
  std::string name = scenario_name(spec, file);
  return Scenario(std::move(spec), std::move(name));
}

std::vector<ResolvedRun> Scenario::expand() const {
  std::vector<Axis> axes;
  if (const Section* sweep = spec_.find_section("sweep")) {
    for (const auto& [key, value] : sweep->entries()) {
      const std::size_t dot = key.find('.');
      if (dot == std::string::npos || dot == 0 || dot + 1 == key.size()) {
        sweep->fail_at(value.line,
                       "sweep axis '" + key +
                           "' must be 'section.key' (e.g. topology.cap_c)");
      }
      Axis axis;
      axis.section = key.substr(0, dot);
      axis.key = key.substr(dot + 1);
      axis.line = value.line;
      if (value.kind == Value::Kind::kArray) {
        axis.values = value.items;
      } else {
        axis.values = {value};
      }
      if (axis.values.empty()) {
        sweep->fail_at(value.line,
                       "sweep axis '" + key + "' has no values");
      }
      // The axis must name an existing key so a typo cannot silently
      // sweep nothing.
      const Section* target = spec_.find_section(axis.section);
      if (target == nullptr) {
        sweep->fail_at(value.line, "sweep axis '" + key +
                                       "' names unknown section [" +
                                       axis.section + "]");
      }
      if (!target->has(axis.key)) {
        sweep->fail_at(value.line, "sweep axis '" + key +
                                       "' names a key not present in [" +
                                       axis.section + "]");
      }
      axes.push_back(std::move(axis));
    }
  }

  const std::vector<std::uint64_t> seeds =
      read_args(spec_.require_section("run"), {&keys_of("run")})
          .get_count_array("seeds");

  // Odometer over the axes (declaration order, first axis slowest), seeds
  // innermost.
  std::size_t points = 1;
  for (const Axis& a : axes) points *= a.values.size();

  std::vector<ResolvedRun> runs;
  for (std::size_t p = 0; p < points; ++p) {
    std::vector<std::size_t> idx(axes.size(), 0);
    std::size_t rem = p;
    for (std::size_t a = axes.size(); a-- > 0;) {
      idx[a] = rem % axes[a].values.size();
      rem /= axes[a].values.size();
    }
    for (std::uint64_t seed : seeds) {
      ResolvedRun run;
      run.spec = spec_;
      run.seed = seed;
      std::string point_label;
      for (std::size_t a = 0; a < axes.size(); ++a) {
        const Axis& axis = axes[a];
        const Value& v = axis.values[idx[a]];
        Section* target = run.spec.find_section(axis.section);
        if (!target->override_value(axis.key, v)) {
          // has() was checked above; losing the key here would be a bug.
          target->fail("sweep substitution failed for '" + axis.key + "'");
        }
        if (!point_label.empty()) point_label += ',';
        point_label += axis.section + "." + axis.key + "=" +
                       render_value(v);
        run.point.emplace_back(axis.section + "." + axis.key,
                               render_value(v));
      }
      run.name = name_;
      if (!point_label.empty()) run.name += "/" + point_label;
      if (seeds.size() > 1) run.name += "/s" + std::to_string(seed);
      run.point.emplace_back("seed", std::to_string(seed));
      runs.push_back(std::move(run));
    }
  }
  return runs;
}

void Scenario::validate(double time_scale) const {
  for (const ResolvedRun& run : expand()) {
    runner::RunContext ctx(run.name);
    execute_run(run, time_scale, ctx, /*dry_run=*/true);
  }
}

std::vector<runner::RunResult> Scenario::run(const runner::RunnerConfig& cfg,
                                             double time_scale) const {
  runner::ExperimentRunner exp(cfg);
  for (ResolvedRun& run : expand()) {
    std::string name = run.name;  // read before the capture moves `run`
    exp.add(std::move(name),
            [run = std::move(run), time_scale](runner::RunContext& ctx) {
              execute_run(run, time_scale, ctx);
            });
  }
  return exp.run_all();
}

bool Scenario::spec_trace() const {
  return read_section(spec_, "output").get_string("trace") == "csv";
}

std::size_t Scenario::spec_trace_capacity() const {
  const auto n = read_section(spec_, "output").get_count<std::size_t>(
      "trace_capacity");
  return n > 0 ? n : trace::TraceRecorder::kDefaultCapacity;
}

namespace {

// A requested output metric, read against its registered table.
struct Metric {
  const Kind<MetricBuilder>* kind;
  Args args;
};

// The [output] metrics: "<metric>[:<arg>...]", each at the key's line.
std::vector<Metric> read_metrics(const Args& out) {
  const Section at("output", out.find("metrics")->line, out.file());
  std::vector<Metric> metrics;
  for (const std::string& m : out.get_string_array("metrics")) {
    std::vector<std::string> tokens;
    for (std::size_t from = 0;;) {
      const std::size_t colon = m.find(':', from);
      tokens.push_back(m.substr(from, colon - from));
      if (colon == std::string::npos) break;
      from = colon + 1;
    }
    const Kind<MetricBuilder>& kind =
        builtin_registry().metrics.find(tokens[0], at);
    metrics.push_back(
        {&kind, read_positional(Section("output." + kind.key, at.line(),
                                        at.file()),
                                std::vector<std::string>(tokens.begin() + 1,
                                                         tokens.end()),
                                kind.keys)});
  }
  return metrics;
}

// Every section is one spec_sections() declares.
void check_sections(const Spec& spec) {
  for (const Section& s : spec.sections()) {
    if (declared(s.name()) != nullptr) continue;
    std::string known;
    for (const SpecSection& d : spec_sections()) {
      known += (known.empty() ? "" : ", ") + d.name;
    }
    throw SpecError(spec.file(), s.line(),
                    "unknown section [" + s.name() + "] (known: " + known +
                        ")");
  }
}

mptcp::PathManagerConfig path_manager_config(const Args& a) {
  mptcp::PathManagerConfig cfg;
  const std::string strategy = a.get_string("strategy");
  cfg.strategy = strategy == "fullmesh"     ? mptcp::PathStrategy::kFullMesh
                 : strategy == "ndiffports" ? mptcp::PathStrategy::kNDiffPorts
                                            : mptcp::PathStrategy::kThreshold;
  cfg.ndiffports = a.get_count<std::size_t>("ndiffports");
  cfg.add_threshold_bytes = a.get_bytes("add_threshold");
  cfg.max_subflows = a.get_count<std::size_t>("max_subflows");
  cfg.scan_period = a.get_time("scan_period");
  cfg.reprobe_backoff = a.get_time("reprobe_backoff");
  cfg.dead_after_rtos = a.get_count<std::uint32_t>("dead_after_rtos");
  return cfg;
}

}  // namespace

void execute_run(const ResolvedRun& run, double time_scale,
                 runner::RunContext& ctx, bool dry_run) {
  const Spec& spec = run.spec;
  check_sections(spec);

  const Args run_args =
      read_args(spec.require_section("run"), {&keys_of("run")});
  BuildEnv env;
  env.time_scale = time_scale;
  env.seed = run.seed;
  env.scale_starts = run_args.get_bool("scale_starts");
  const SimTime warmup = env.scaled(run_args.get_time("warmup"));
  const SimTime measure = env.scaled(run_args.get_time("measure"));
  if (measure <= 0) {
    run_args.fail_at(run_args.find("measure")->line,
                     "measure must be positive");
  }

  const Args out = read_section(spec, "output");
  const SimTime sample_interval = env.scaled(out.get_time("sample_interval"));
  const std::vector<Metric> metrics = read_metrics(out);

  // The data scheduler and the path manager reach the traffic model
  // through env.
  const Registry& reg = builtin_registry();
  std::string data_scheduler;  // the [scheduler] kind, if the spec has one
  if (const Section* s = spec.find_section("scheduler")) {
    const Kind<SchedulerBuilder>& kind = *read_kind(*s, reg.schedulers).first;
    env.scheduler = kind.build;
    data_scheduler = kind.key;
  }
  const Section* pm_sec = spec.find_section("path_manager");
  if (pm_sec != nullptr) {
    env.path_manager =
        path_manager_config(read_args(*pm_sec, {&keys_of("path_manager")}));
  }

  // Construction order: recorder (installed by the runner before this
  // function), then Network, topology, meter, then connections in flow
  // order. The round-trip tests and the goldens pin it.
  topo::Network net(ctx.events());
  const auto [topo_kind, topo_args] =
      read_kind(spec.require_section("topology"), reg.topologies);
  auto topology = topo_kind->build(net, topo_args, env);

  stats::GoodputMeter meter(ctx.events());

  const auto [algo_kind, algo_args] =
      read_kind(spec.require_section("algorithm"), reg.algorithms);
  AlgorithmInstance algo = algo_kind->build(algo_args);
  algo.name = algo_kind->key;

  const auto [traffic_kind, traffic_args] =
      read_kind(spec.require_section("traffic"), reg.traffic_models);
  if (pm_sec != nullptr && !traffic_kind->build.path_manager) {
    pm_sec->fail("traffic kind '" + traffic_kind->key +
                 "' takes no path manager");
  }
  auto traffic = traffic_kind->build.make(traffic_args);

  Rng rng(run.seed);
  traffic->build(ctx.events(), *topology, algo, rng, env);
  const auto& conns = traffic->connections();
  for (const auto& c : conns) meter.track(*c);

  // Connections join the fault-target registry under their flow names, so
  // a [faults] script can reset their subflows.
  for (const auto& c : conns) {
    net.fault_targets().add_connection(c->name(), *c);
  }
  ParsedFaults faults;
  if (const Section* f = spec.find_section("faults")) {
    faults = parse_fault_plan(read_args(*f, {&keys_of("faults")}),
                              net.fault_targets(), env);
  }
  // Metrics that depend on the built run fail here, before a dry run
  // returns, so validate() catches them too.
  const auto queues = topology->queues();
  for (const Metric& m : metrics) {
    for (const Key& k : m.kind->keys) {  // every argument is a queue index
      if (m.args.get_count<std::size_t>(k.name) >= queues.size()) {
        out.fail(m.kind->key + " queue index out of range (topology has " +
                 std::to_string(queues.size()) + " queues)");
      }
    }
    if (m.kind->build.per_host && traffic->host_count() <= 0) {
      out.fail(m.kind->key + " needs host-addressable traffic");
    }
  }
  if (dry_run) return;

  std::unique_ptr<fault::RecoveryMonitor> recovery;
  std::unique_ptr<fault::FaultInjector> injector;
  if (!faults.plan.empty()) {
    recovery = std::make_unique<fault::RecoveryMonitor>(
        ctx.events(), faults.recovery_poll);
    for (const auto& c : conns) recovery->track(*c);
    injector = std::make_unique<fault::FaultInjector>(
        ctx.events(), net.fault_targets(), faults.plan, run.seed,
        recovery.get());
  }

  ctx.events().run_until(warmup);
  for (auto* q : topology->queues()) q->reset_stats();
  meter.mark();
  MetricInputs in{.conns = conns,
                  .queues = queues,
                  .window = measure,
                  .hosts = traffic->host_count()};
  for (const auto& c : conns) {
    auto& base = in.subflow_base.emplace_back();
    for (std::size_t r = 0; r < c->num_subflows(); ++r) {
      base.push_back(c->subflow(r).packets_acked());
    }
  }

  // Periodic goodput of each connection into the flight recorder: the
  // Fig. 17 timeline as kGoodput trace records. One sampler per
  // connection, as every committed trace and run report was recorded with
  // (a single sampler would change the event count).
  std::vector<std::unique_ptr<stats::PeriodicSampler>> samplers;
  if (sample_interval > 0) {
    if (trace::TraceRecorder* rec = trace::TraceRecorder::find(ctx.events())) {
      for (const auto& conn : conns) {
        const mptcp::MptcpConnection* c = conn.get();
        const std::uint16_t sid = rec->register_object("goodput/" + c->name());
        auto sample = [rec, c, sid, sample_interval,
                       base = c->delivered_pkts()](SimTime now) mutable {
          const std::uint64_t pkts = c->delivered_pkts();
          MPSIM_TRACE(rec, trace::goodput_sample(
                               now, sid, c->flow_id(), 0,
                               stats::pkts_to_mbps(pkts - base,
                                                   sample_interval)));
          base = pkts;
        };
        samplers.push_back(std::make_unique<stats::PeriodicSampler>(
            ctx.events(), "scenario/sampler", sample_interval, sample));
        samplers.back()->start(ctx.events().now() + sample_interval);
      }
    }
  }

  ctx.events().run_until(warmup + measure);

  in.mbps = meter.mbps();
  for (double v : in.mbps) in.total_mbps += v;
  for (const Metric& m : metrics) m.kind->build.record(in, m.args, ctx);
  traffic->record_metrics(ctx);

  if (injector != nullptr) {
    recovery->finalize();
    std::uint64_t reinjections = 0;
    for (const auto& c : conns) {
      reinjections += c->scheduler().reinjected_total();
    }
    ctx.record("fault_events_applied",
               static_cast<double>(injector->events_applied()));
    ctx.record("fault_outages", static_cast<double>(recovery->outages()));
    ctx.record("fault_recoveries",
               static_cast<double>(recovery->recoveries()));
    ctx.record("fault_ttr_mean_s", recovery->mean_ttr_sec());
    ctx.record("fault_ttr_max_s", recovery->max_ttr_sec());
    ctx.record("fault_degraded_sec", recovery->degraded_sec());
    ctx.record("fault_degraded_goodput_fraction",
               recovery->degraded_goodput_fraction());
    ctx.record("fault_reinjections", static_cast<double>(reinjections));
  }

  // The machine-readable echo of this run's resolved parameters.
  ctx.annotate("algorithm", algo.name);
  if (!data_scheduler.empty()) {
    // "scheduler" names the event scheduler's counters in the report.
    ctx.annotate("data_scheduler", data_scheduler);
  }
  for (const auto& [k, v] : run.point) ctx.annotate(k, v);
}

}  // namespace mpsim::scenario
