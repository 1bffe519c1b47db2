#include "scenario/engine.hpp"

#include <cstdio>
#include <memory>

#include "fault/fault.hpp"
#include "scenario/faults.hpp"
#include "scenario/registry.hpp"
#include "stats/goodput.hpp"
#include "stats/monitors.hpp"
#include "stats/summary.hpp"
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

}  // namespace

Scenario Scenario::load(const std::string& path) {
  Spec spec = Spec::parse_file(path);
  std::string name = file_stem(path);
  if (const Section* s = spec.find_section("scenario")) {
    name = s->get_string("name", name);
  }
  return Scenario(std::move(spec), std::move(name));
}

Scenario Scenario::from_string(const std::string& text,
                               const std::string& file) {
  Spec spec = Spec::parse_string(text, file);
  std::string name = file_stem(file);
  if (const Section* s = spec.find_section("scenario")) {
    name = s->get_string("name", name);
  }
  return Scenario(std::move(spec), std::move(name));
}

std::vector<ResolvedRun> Scenario::expand() const {
  std::vector<Axis> axes;
  if (const Section* sweep = spec_.find_section("sweep")) {
    for (const auto& [key, value] : sweep->entries()) {
      sweep->find(key);  // consume: expansion is this key's reader
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

  std::vector<std::uint64_t> seeds{1};
  if (const Section* run_sec = spec_.find_section("run")) {
    if (run_sec->has("seeds")) {
      seeds.clear();
      for (double s : run_sec->get_number_array("seeds")) {
        if (s < 0 || s != static_cast<double>(
                              static_cast<std::uint64_t>(s))) {
          run_sec->fail("'seeds' must be non-negative integers");
        }
        seeds.push_back(static_cast<std::uint64_t>(s));
      }
      if (seeds.empty()) run_sec->fail("'seeds' must not be empty");
    }
  }

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

std::vector<runner::RunResult> Scenario::run(const EngineOptions& opts) const {
  runner::RunnerConfig rcfg;
  rcfg.threads = opts.threads;
  rcfg.trace_sink = opts.trace_sink;
  rcfg.trace_dir = opts.trace_dir;
  rcfg.trace_capacity = opts.trace_capacity;
  runner::ExperimentRunner exp(rcfg);
  for (ResolvedRun& run : expand()) {
    const double scale = opts.time_scale;
    std::string name = run.name;  // read before the capture moves `run`
    exp.add(std::move(name),
            [run = std::move(run), scale](runner::RunContext& ctx) {
              execute_run(run, scale, ctx);
            });
  }
  return exp.run_all();
}

trace::SinkKind Scenario::spec_trace_sink() const {
  const Section* out = spec_.find_section("output");
  if (out == nullptr || !out->has("trace")) return trace::SinkKind::kNone;
  const std::string kind = out->get_string("trace");
  if (kind == "csv") return trace::SinkKind::kCsv;
  if (kind == "jsonl") return trace::SinkKind::kJsonl;
  if (kind == "null") return trace::SinkKind::kNull;
  if (kind == "off") return trace::SinkKind::kNone;
  out->fail("'trace' must be one of \"csv\", \"jsonl\", \"null\", \"off\"");
}

std::size_t Scenario::spec_trace_capacity() const {
  const Section* out = spec_.find_section("output");
  if (out == nullptr) return 0;
  const std::int64_t cap = out->get_int("trace_capacity", 0);
  if (cap < 0) out->fail("'trace_capacity' must be >= 0");
  return static_cast<std::size_t>(cap);
}

namespace {

// Periodic goodput samples of one connection into the flight recorder —
// the Fig. 17 timeline as kGoodput trace records.
class GoodputSampler final : public EventSource {
 public:
  GoodputSampler(EventList& events, trace::TraceRecorder& rec,
                 const mptcp::MptcpConnection& conn, SimTime interval)
      : EventSource(events, "scenario/sampler"),
        events_(events),
        rec_(rec),
        conn_(conn),
        interval_(interval),
        sid_(rec.register_object("goodput/" + conn.name())),
        base_(conn.delivered_pkts()) {
    events_.schedule_in(*this, interval_);
  }

  void on_event() override {
    trace::TraceRecorder* rec = &rec_;
    const std::uint64_t now_pkts = conn_.delivered_pkts();
    const double mbps = stats::pkts_to_mbps(now_pkts - base_, interval_);
    MPSIM_TRACE(rec, trace::goodput_sample(events_.now(), sid_,
                                           conn_.flow_id(), 0, mbps));
    base_ = now_pkts;
    events_.schedule_in(*this, interval_);
  }

 private:
  EventList& events_;
  trace::TraceRecorder& rec_;
  const mptcp::MptcpConnection& conn_;
  SimTime interval_;
  std::uint16_t sid_;
  std::uint64_t base_;
};

// A requested output metric, parsed from [output] metrics.
struct MetricPlan {
  enum class Kind {
    kFlowMbps,
    kTotalMbps,
    kJain,
    kQueueLoss,
    kLossRatio,
    kPerHostMbps,
    kPerFlowMeanMbps,
    kSubflowMbps,
  };
  Kind kind;
  int a = 0;  // loss_ratio numerator queue index
  int b = 0;  // loss_ratio denominator queue index
};

std::vector<MetricPlan> parse_metrics(const std::vector<std::string>& names,
                                      const Section* out) {
  std::vector<MetricPlan> plan;
  for (const std::string& m : names) {
    MetricPlan p{};
    if (m == "flow_mbps") {
      p.kind = MetricPlan::Kind::kFlowMbps;
    } else if (m == "total_mbps") {
      p.kind = MetricPlan::Kind::kTotalMbps;
    } else if (m == "jain") {
      p.kind = MetricPlan::Kind::kJain;
    } else if (m == "queue_loss") {
      p.kind = MetricPlan::Kind::kQueueLoss;
    } else if (m == "per_host_mbps") {
      p.kind = MetricPlan::Kind::kPerHostMbps;
    } else if (m == "per_flow_mean_mbps") {
      p.kind = MetricPlan::Kind::kPerFlowMeanMbps;
    } else if (m == "subflow_mbps") {
      p.kind = MetricPlan::Kind::kSubflowMbps;
    } else if (m.rfind("loss_ratio:", 0) == 0) {
      p.kind = MetricPlan::Kind::kLossRatio;
      const std::string rest = m.substr(11);
      const std::size_t colon = rest.find(':');
      bool ok = colon != std::string::npos && colon > 0 &&
                colon + 1 < rest.size();
      if (ok) {
        const std::string a = rest.substr(0, colon);
        const std::string b = rest.substr(colon + 1);
        ok = a.find_first_not_of("0123456789") == std::string::npos &&
             b.find_first_not_of("0123456789") == std::string::npos;
        if (ok) {
          p.a = std::stoi(a);
          p.b = std::stoi(b);
        }
      }
      if (!ok && out != nullptr) {
        out->fail("metric '" + m +
                  "' must be 'loss_ratio:<queue>:<queue>'");
      }
    } else if (out != nullptr) {
      out->fail("unknown metric '" + m +
                "' (known: flow_mbps, total_mbps, jain, queue_loss, "
                "loss_ratio:<a>:<b>, per_host_mbps, per_flow_mean_mbps, "
                "subflow_mbps)");
    }
    plan.push_back(p);
  }
  return plan;
}

}  // namespace

void execute_run(const ResolvedRun& run, double time_scale,
                 runner::RunContext& ctx, bool dry_run) {
  const Spec& spec = run.spec;
  spec.mark_all_unused();

  if (const Section* scn = spec.find_section("scenario")) {
    scn->get_string("name", "");
  }
  if (const Section* sweep = spec.find_section("sweep")) {
    for (const auto& [key, value] : sweep->entries()) {
      (void)value;
      sweep->find(key);  // consumed by expand()
    }
  }

  const Section& run_sec = spec.require_section("run");
  BuildEnv env;
  env.time_scale = time_scale;
  env.seed = run.seed;
  env.scale_starts = run_sec.get_bool("scale_starts", false);
  // Traffic models that support path management consume this section; on
  // models that ignore it, its keys stay unread and check_all_used() below
  // rejects the spec rather than silently skipping path management.
  env.path_manager = spec.find_section("path_manager");
  // Same consumption contract for the data-placement policy section.
  env.scheduler = spec.find_section("scheduler");
  const SimTime warmup = env.scaled(run_sec.get_time("warmup"));
  const SimTime measure = env.scaled(run_sec.get_time("measure"));
  run_sec.find("seeds");  // consumed by expand()

  std::vector<std::string> metric_names = {"flow_mbps", "total_mbps"};
  SimTime sample_interval = 0;
  const Section* out = spec.find_section("output");
  if (out != nullptr) {
    if (out->has("metrics")) metric_names = out->get_string_array("metrics");
    sample_interval = env.scaled(out->get_time("sample_interval", 0));
    out->find("trace");           // consumed by the CLI / spec_trace_sink()
    out->find("trace_capacity");  // consumed by spec_trace_capacity()
  }
  const std::vector<MetricPlan> plan = parse_metrics(metric_names, out);

  const Registry& reg = builtin_registry();

  // Construction order: recorder (installed by the runner before this
  // function), then Network, topology, meter, then connections in flow
  // order. The round-trip tests and the goldens pin it.
  topo::Network net(ctx.events());
  const Section& topo_sec = spec.require_section("topology");
  auto topology =
      reg.topology(topo_sec.get_string("kind"), topo_sec)(net, topo_sec, env);

  stats::GoodputMeter meter(ctx.events());

  const Section& algo_sec = spec.require_section("algorithm");
  AlgorithmInstance algo =
      reg.algorithm(algo_sec.get_string("kind"), algo_sec)(algo_sec);

  const Section& traffic_sec = spec.require_section("traffic");
  auto traffic =
      reg.traffic(traffic_sec.get_string("kind"), traffic_sec)(traffic_sec);

  Rng rng(run.seed);
  traffic->build(ctx.events(), *topology, algo, rng, env);
  const auto conns = traffic->connections();
  for (const auto* c : conns) meter.track(*c);

  // Connections join the fault-target registry under their flow names, so
  // a [faults] script can reset their subflows.
  for (auto* c : traffic->mutable_connections()) {
    net.fault_targets().add_connection(c->name(), *c);
  }
  ParsedFaults faults;
  const Section* faults_sec = spec.find_section("faults");
  if (faults_sec != nullptr) {
    faults = parse_fault_plan(*faults_sec, net.fault_targets(), env);
  }

  // Every key must have been read by now — a typo dies here, in dry runs
  // and real ones alike.
  spec.check_all_used();
  if (dry_run) return;

  std::unique_ptr<fault::RecoveryMonitor> recovery;
  std::unique_ptr<fault::FaultInjector> injector;
  if (!faults.plan.empty()) {
    recovery = std::make_unique<fault::RecoveryMonitor>(
        ctx.events(), faults.recovery_poll);
    for (const auto* c : conns) recovery->track(*c);
    injector = std::make_unique<fault::FaultInjector>(
        ctx.events(), net.fault_targets(), faults.plan, run.seed,
        recovery.get());
  }

  ctx.events().run_until(warmup);
  for (auto* q : topology->queues()) q->reset_stats();
  meter.mark();
  // Subflow-level goodput: packets each subflow got acked in the window.
  // Subflows opened later start from zero.
  std::vector<std::vector<std::uint64_t>> subflow_base;
  for (const auto* c : conns) {
    auto& base = subflow_base.emplace_back();
    for (std::size_t r = 0; r < c->num_subflows(); ++r) {
      base.push_back(c->subflow(r).packets_acked());
    }
  }

  // One sampler per connection, as every committed trace and run report
  // was recorded with (a single sampler would change the event count).
  std::vector<std::unique_ptr<GoodputSampler>> samplers;
  if (sample_interval > 0) {
    if (trace::TraceRecorder* rec = trace::TraceRecorder::find(ctx.events())) {
      for (const auto* c : conns) {
        samplers.push_back(std::make_unique<GoodputSampler>(
            ctx.events(), *rec, *c, sample_interval));
      }
    }
  }

  ctx.events().run_until(warmup + measure);

  const std::vector<double> mbps = meter.mbps();
  const auto queues = topology->queues();
  double total = 0.0;
  for (double v : mbps) total += v;
  for (const MetricPlan& p : plan) {
    switch (p.kind) {
      case MetricPlan::Kind::kFlowMbps:
        for (std::size_t i = 0; i < conns.size(); ++i) {
          ctx.record("mbps_" + conns[i]->name(), mbps[i]);
        }
        break;
      case MetricPlan::Kind::kTotalMbps:
        ctx.record("total_mbps", total);
        break;
      case MetricPlan::Kind::kJain:
        ctx.record("jain", stats::jain_index(mbps));
        break;
      case MetricPlan::Kind::kQueueLoss:
        for (std::size_t i = 0; i < queues.size(); ++i) {
          ctx.record("loss_q" + std::to_string(i), queues[i]->loss_rate());
        }
        break;
      case MetricPlan::Kind::kLossRatio: {
        if (p.a < 0 || p.b < 0 ||
            static_cast<std::size_t>(p.a) >= queues.size() ||
            static_cast<std::size_t>(p.b) >= queues.size()) {
          if (out != nullptr) {
            out->fail("loss_ratio queue index out of range (topology has " +
                      std::to_string(queues.size()) + " queues)");
          }
          break;
        }
        const double pa = queues[static_cast<std::size_t>(p.a)]->loss_rate();
        const double pb = queues[static_cast<std::size_t>(p.b)]->loss_rate();
        ctx.record("loss_ratio_" + std::to_string(p.a) + "_" +
                       std::to_string(p.b),
                   pb > 0 ? pa / pb : 0.0);
        break;
      }
      case MetricPlan::Kind::kPerHostMbps: {
        const int hosts = traffic->host_count();
        if (hosts <= 0) {
          if (out != nullptr) {
            out->fail("per_host_mbps needs host-addressable traffic");
          }
          break;
        }
        ctx.record("per_host_mbps", total / static_cast<double>(hosts));
        break;
      }
      case MetricPlan::Kind::kPerFlowMeanMbps:
        ctx.record("per_flow_mean_mbps",
                   conns.empty()
                       ? 0.0
                       : total / static_cast<double>(conns.size()));
        break;
      case MetricPlan::Kind::kSubflowMbps:
        for (std::size_t i = 0; i < conns.size(); ++i) {
          const auto& base = subflow_base[i];
          for (std::size_t r = 0; r < conns[i]->num_subflows(); ++r) {
            const std::uint64_t acked = conns[i]->subflow(r).packets_acked();
            ctx.record("mbps_" + conns[i]->name() + "_sub" +
                           std::to_string(r),
                       stats::pkts_to_mbps(
                           acked - (r < base.size() ? base[r] : 0), measure));
          }
        }
        break;
    }
  }
  traffic->record_metrics(ctx);

  if (injector != nullptr) {
    recovery->finalize();
    std::uint64_t reinjections = 0;
    for (const auto* c : conns) {
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
  if (env.scheduler != nullptr) {
    // "scheduler" names the event scheduler's counters in the report.
    ctx.annotate("data_scheduler",
                 env.scheduler->get_string("kind", "stripe"));
  }
  for (const auto& [k, v] : run.point) ctx.annotate(k, v);
}

}  // namespace mpsim::scenario
