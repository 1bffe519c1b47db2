// mpsim — the scenario CLI driver.
//
//   mpsim run <spec.toml>...       execute every run in each spec's grid
//   mpsim validate <spec.toml>...  dry-build every grid point, no sim time
//   mpsim list                     print the registered kinds
//
// `run` prints one deterministic block per run (name + recorded metrics,
// fixed formatting) to stdout and writes BENCH_scenario_<name>.json; wall
// timings go to stderr, so stdout and the trace files are byte-identical
// across thread counts — CI diffs them. A malformed spec
// exits 2 with a file:line diagnostic.
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "core/env.hpp"
#include "runner/report.hpp"
#include "scenario/engine.hpp"
#include "scenario/registry.hpp"
#include "trace/trace.hpp"

namespace {

using namespace mpsim;

int usage() {
  std::fprintf(stderr,
               "usage: mpsim <command> [options] [<spec.toml>...]\n"
               "\n"
               "commands:\n"
               "  run       execute every run in each spec's sweep x seed "
               "grid\n"
               "  validate  dry-build every grid point; no simulated time\n"
               "  list      print registered topology/algorithm/traffic/"
               "data-scheduler kinds\n"
               "\n"
               "options:\n"
               "  --threads=N     worker threads (default MPSIM_THREADS, "
               "else hardware)\n"
               "  --scale=X       simulated-duration scale (default "
               "MPSIM_BENCH_SCALE, else 1)\n"
               "  --trace=KIND    csv|jsonl|null|off; overrides MPSIM_TRACE "
               "and [output] trace\n"
               "  --trace-dir=D   directory for trace_<run>.* files "
               "(default \".\")\n"
               "\n"
               "specs may carry a [faults] section (scripted link "
               "down/up/rate/ramp,\nloss bursts, queue drain/corrupt, "
               "subflow resets, flap trains, seeded\nrandom outages); "
               "fault runs report recovery metrics (fault_outages,\n"
               "fault_ttr_mean_s, ...) alongside the ordinary ones. See "
               "README.md.\n");
  return 1;
}

struct Options {
  unsigned threads = 0;
  double scale = 1.0;
  std::string trace;  // "" = not given on the command line
  std::string trace_dir = ".";
  std::vector<std::string> specs;
};

bool parse_args(int argc, char** argv, Options& opts) {
  opts.threads = static_cast<unsigned>(
      env::env_int("MPSIM_THREADS", 0, 0, 1 << 20));
  opts.scale = env::env_double("MPSIM_BENCH_SCALE", 1.0, 0.0);
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
      if (!env::parse_int(v, n) || n < 0) {
        std::fprintf(stderr, "mpsim: --threads wants a non-negative "
                             "integer, got \"%s\"\n", v.c_str());
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
      if (v != "csv" && v != "jsonl" && v != "null" && v != "off") {
        std::fprintf(stderr, "mpsim: --trace wants csv|jsonl|null|off, "
                             "got \"%s\"\n", v.c_str());
        return false;
      }
      opts.trace = v;
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

trace::SinkKind sink_from_name(const std::string& name) {
  if (name == "csv") return trace::SinkKind::kCsv;
  if (name == "jsonl") return trace::SinkKind::kJsonl;
  if (name == "null") return trace::SinkKind::kNull;
  return trace::SinkKind::kNone;
}

// Priority: --trace flag, then MPSIM_TRACE, then the spec's [output] trace.
trace::SinkKind resolve_sink(const Options& opts,
                             const scenario::Scenario& scn) {
  if (!opts.trace.empty()) return sink_from_name(opts.trace);
  if (trace::sink_from_env() != trace::SinkKind::kNone) {
    return trace::sink_from_env();
  }
  return scn.spec_trace_sink();
}

int cmd_list() {
  const scenario::Registry& reg = scenario::builtin_registry();
  auto print = [](const char* title, const scenario::Registry::Names& ns) {
    std::printf("%s:\n", title);
    for (const auto& [key, help] : ns.entries) {
      std::printf("  %-12s %s\n", key.c_str(), help.c_str());
    }
  };
  print("topologies", reg.topology_names());
  print("algorithms", reg.algorithm_names());
  print("traffic", reg.traffic_names());
  print("data schedulers ([scheduler] kind=...)", reg.scheduler_names());
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

      scenario::EngineOptions eng;
      eng.threads = opts.threads;
      eng.time_scale = opts.scale;
      eng.trace_sink = resolve_sink(opts, scn);
      eng.trace_dir = opts.trace_dir;
      eng.trace_capacity = static_cast<std::size_t>(env::env_int(
          "MPSIM_TRACE_CAPACITY",
          static_cast<std::int64_t>(scn.spec_trace_capacity()), 0,
          std::int64_t{1} << 32));

      const std::vector<runner::RunResult> results = scn.run(eng);

      std::printf("== %s ==\n", scn.name().c_str());
      for (const runner::RunResult& r : results) {
        std::printf("run %s\n", r.name.c_str());
        // Deterministic per run, so stdout stays identical across threads.
        std::printf("  # scheduler:");
        r.metrics.scheduler.for_each([](const char* k, std::uint64_t v) {
          std::printf(" %s=%llu", k, static_cast<unsigned long long>(v));
        });
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
      }
      std::fflush(stdout);
      std::fprintf(stderr, "[%s] %zu runs, %.2fs simulated work in %u "
                           "thread(s)\n",
                   scn.name().c_str(), results.size(),
                   runner::total_wall_seconds(results),
                   eng.threads == 0
                       ? runner::ExperimentRunner::hardware_threads()
                       : eng.threads);

      runner::write_json_file("scenario_" + scn.name(),
                              runner::json_from_results(results));
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
