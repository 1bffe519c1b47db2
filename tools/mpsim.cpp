// mpsim — the scenario CLI driver.
//
//   mpsim run <spec.toml>...       execute every run in each spec's grid
//   mpsim validate <spec.toml>...  dry-build every grid point, no sim time
//   mpsim list                     print every key table: sections, kinds,
//                                  fault actions, flap and random_outage
//                                  entries, metrics
//
// `run` prints one deterministic block per run (name + recorded metrics,
// fixed formatting, the trace path and, when its ring filled, the records
// the trace lost) to stdout and writes BENCH_scenario_<name>.json; wall
// timings go to stderr only, so stdout, the report and the trace files are
// byte-identical across thread counts — CI diffs them. A malformed spec
// exits 2 with a file:line diagnostic; a report or trace file that cannot
// be written exits 1 after naming it.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <optional>
#include <string>
#include <type_traits>
#include <vector>

#include "core/env.hpp"
#include "runner/report.hpp"
#include "scenario/engine.hpp"
#include "scenario/faults.hpp"
#include "scenario/registry.hpp"

namespace {

using namespace mpsim;

// The values --trace accepts: the [output] trace row's choices.
const std::vector<std::string>& trace_choices() {
  const auto& sections = scenario::spec_sections();
  const auto out =
      std::find_if(sections.begin(), sections.end(),
                   [](const auto& s) { return s.name == "output"; });
  const auto row =
      std::find_if(out->keys.begin(), out->keys.end(),
                   [](const auto& k) { return k.name == "trace"; });
  return row->choices;
}

// trace_choices() as "csv|off".
std::string trace_list() {
  std::string joined;
  for (const std::string& c : trace_choices()) {
    joined += (joined.empty() ? "" : "|") + c;
  }
  return joined;
}

int usage() {
  std::fprintf(stderr,
               "usage: mpsim <command> [options] [<spec.toml>...]\n"
               "\n"
               "commands:\n"
               "  run       execute every run in each spec's sweep x seed "
               "grid\n"
               "  validate  dry-build every grid point; no simulated time\n"
               "  list      print every section's keys and every registered "
               "kind's\n"
               "\n"
               "options:\n"
               "  --threads=N     worker threads (default: hardware "
               "threads)\n"
               "  --scale=X       simulated-duration scale (default 1)\n"
               "  --trace=KIND    %s; overrides [output] trace\n"
               "  --trace-dir=D   directory for trace_<run>.csv files "
               "(default \".\")\n"
               "\n"
               "specs may carry a [faults] section (scripted link "
               "down/up/rate/ramp,\nloss bursts, queue drain/corrupt, "
               "subflow resets, flap trains, seeded\nrandom outages); "
               "fault runs report recovery metrics (fault_outages,\n"
               "fault_ttr_mean_s, ...) alongside the ordinary ones. "
               "`mpsim list` prints\nevery grammar.\n",
               trace_list().c_str());
  return 1;
}

struct Options {
  unsigned threads = 0;
  double scale = 1.0;
  std::optional<bool> trace;  // --trace=csv|off, when given
  std::string trace_dir = ".";
  std::vector<std::string> specs;
};

bool parse_args(int argc, char** argv, Options& opts) {
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value_of = [&](const char* flag, std::string& out) {
      const std::size_t n = std::strlen(flag);
      if (arg.rfind(flag, 0) != 0) return false;
      out = arg.substr(n);
      return true;
    };
    std::string v;
    if (value_of("--threads=", v)) {
      std::int64_t n = 0;
      if (!env::parse_int(v, n) || n < 0 || n > (1 << 20)) {
        std::fprintf(stderr, "mpsim: --threads wants an integer in "
                             "[0, 1048576], got \"%s\"\n", v.c_str());
        return false;
      }
      opts.threads = static_cast<unsigned>(n);
    } else if (value_of("--scale=", v)) {
      double d = 0.0;
      if (!env::parse_double(v, d) || !(d > 0.0)) {
        std::fprintf(stderr, "mpsim: --scale wants a positive number, "
                             "got \"%s\"\n", v.c_str());
        return false;
      }
      opts.scale = d;
    } else if (value_of("--trace=", v)) {
      const std::vector<std::string>& choices = trace_choices();
      if (std::find(choices.begin(), choices.end(), v) == choices.end()) {
        std::fprintf(stderr, "mpsim: --trace wants %s, got \"%s\"\n",
                     trace_list().c_str(), v.c_str());
        return false;
      }
      opts.trace = v == "csv";
    } else if (value_of("--trace-dir=", v)) {
      opts.trace_dir = v;
    } else if (arg.rfind("--", 0) == 0) {
      std::fprintf(stderr, "mpsim: unknown option %s\n", arg.c_str());
      return false;
    } else {
      opts.specs.push_back(arg);
    }
  }
  return true;
}

void print_keys(const scenario::KeyTable& keys, const char* indent) {
  for (const scenario::Key& k : keys) {
    std::printf("%s%s\n", indent, scenario::format_key(k).c_str());
  }
}

// `keys` as arguments, each after `sep`: "<rate>" if required, else
// "[rate]".
std::string arg_usage(const scenario::KeyTable& keys, char sep) {
  std::string out;
  for (const scenario::Key& k : keys) {
    out += sep + (k.def == scenario::kRequired ? "<" + k.name + ">"
                                               : "[" + k.name + "]");
  }
  return out;
}

// Each kind of `kinds` as `head(kind)`, its help and its key table.
template <typename B, typename Head>
void print_kinds(const scenario::KindSet<B>& kinds, Head head) {
  for (const scenario::Kind<B>& k : kinds.kinds()) {
    const char* note = "";
    if constexpr (std::is_same_v<B, scenario::TrafficBuilder>) {
      if (k.build.path_manager) note = "; takes [path_manager]";
    }
    if constexpr (std::is_same_v<B, scenario::MetricBuilder>) {
      if (k.build.per_host) note = "; needs host-addressable traffic";
    }
    std::printf("  %s: %s%s\n", head(k).c_str(), k.help.c_str(), note);
    print_keys(k.keys, "    ");
  }
}

// Every section with its key table; a section that names a kind is
// followed by each registered kind and its table, [faults] by its entry
// grammars and [output] by the metrics.
int cmd_list() {
  const scenario::Registry& reg = scenario::builtin_registry();
  const auto kind = [](const auto& k) { return "kind = \"" + k.key + "\""; };
  for (const scenario::SpecSection& s : scenario::spec_sections()) {
    std::printf("[%s] %s\n", s.name.c_str(), s.doc.c_str());
    print_keys(s.keys, "  ");
    if (s.name == "topology") print_kinds(reg.topologies, kind);
    if (s.name == "algorithm") print_kinds(reg.algorithms, kind);
    if (s.name == "scheduler") print_kinds(reg.schedulers, kind);
    if (s.name == "traffic") print_kinds(reg.traffic_models, kind);
    if (s.name == "faults") {
      print_kinds(reg.fault_actions, [](const auto& k) {
        return "\"<time> " + k.key + arg_usage(k.keys, ' ') + " <target>\"";
      });
      std::printf("  flap keys:\n");
      print_keys(scenario::flap_keys(), "    ");
      std::printf("  random_outage keys:\n");
      print_keys(scenario::random_outage_keys(), "    ");
    }
    if (s.name == "output") {
      print_kinds(reg.metrics, [](const auto& k) {
        return "\"" + k.key + arg_usage(k.keys, ':') + "\"";
      });
    }
  }
  return 0;
}

int cmd_validate(const Options& opts) {
  int failures = 0;
  for (const std::string& path : opts.specs) {
    try {
      const scenario::Scenario scn = scenario::Scenario::load(path);
      const std::size_t runs = scn.expand().size();
      scn.validate(opts.scale);
      std::printf("%s: ok (%zu run%s)\n", path.c_str(), runs,
                  runs == 1 ? "" : "s");
    } catch (const scenario::SpecError& e) {
      std::fprintf(stderr, "%s\n", e.what());
      ++failures;
    }
  }
  return failures == 0 ? 0 : 2;
}

int cmd_run(const Options& opts) {
  for (const std::string& path : opts.specs) {
    try {
      const scenario::Scenario scn = scenario::Scenario::load(path);
      scn.validate(opts.scale);  // fail fast before burning CPU on the grid

      runner::RunnerConfig cfg;
      cfg.threads = opts.threads;
      // The --trace flag, else the spec's [output] trace.
      cfg.trace = opts.trace.value_or(scn.spec_trace());
      cfg.trace_dir = opts.trace_dir;
      cfg.trace_capacity = scn.spec_trace_capacity();

      const std::vector<runner::RunResult> results = scn.run(cfg, opts.scale);

      std::printf("== %s ==\n", scn.name().c_str());
      for (const runner::RunResult& r : results) {
        std::printf("run %s\n", r.name.c_str());
        // Deterministic per run, so stdout stays identical across threads.
        std::printf("  # scheduler:");
        auto print_counter = [](const char* k, std::uint64_t v) {
          std::printf(" %s=%llu", k, static_cast<unsigned long long>(v));
        };
        r.metrics.scheduler.for_each(print_counter);
        std::printf("\n  # memory:");
        r.metrics.for_each_memory(print_counter);
        std::printf("\n");
        for (const auto& [k, v] : r.annotations) {
          std::printf("  # %s = %s\n", k.c_str(), v.c_str());
        }
        for (const auto& [k, v] : r.values) {
          std::printf("  %s = %.10g\n", k.c_str(), v);
        }
        if (!r.trace_path.empty()) {
          std::printf("  trace = %s\n", r.trace_path.c_str());
        }
        if (r.trace_records_lost > 0) {
          std::printf("  trace_records_lost = %llu\n",
                      static_cast<unsigned long long>(r.trace_records_lost));
        }
      }
      std::fflush(stdout);
      std::fprintf(stderr, "[%s] %zu runs, %.2fs simulated work in %u "
                           "thread(s)\n",
                   scn.name().c_str(), results.size(),
                   runner::total_wall_seconds(results),
                   cfg.threads == 0
                       ? runner::ExperimentRunner::hardware_threads()
                       : cfg.threads);

      bool written = runner::write_json_file(
          "scenario_" + scn.name(), runner::json_from_results(results));
      // The runner leaves trace_path empty for a trace it could not write.
      for (const runner::RunResult& r : results) {
        if (cfg.trace && r.trace_path.empty()) written = false;
      }
      if (!written) return 1;
    } catch (const scenario::SpecError& e) {
      std::fprintf(stderr, "%s\n", e.what());
      return 2;
    }
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string cmd = argv[1];
  Options opts;
  if (!parse_args(argc, argv, opts)) return 1;

  if (cmd == "list") return cmd_list();
  if (opts.specs.empty()) {
    std::fprintf(stderr, "mpsim: %s needs at least one spec file\n",
                 cmd.c_str());
    return usage();
  }
  if (cmd == "validate") return cmd_validate(opts);
  if (cmd == "run") return cmd_run(opts);
  std::fprintf(stderr, "mpsim: unknown command \"%s\"\n", cmd.c_str());
  return usage();
}
