// The scenario engine: spec file -> expanded run grid -> ExperimentRunner.
//
// A Scenario wraps one parsed spec. expand() turns its [sweep] axes (cross
// product, declaration order) and [run] seeds into a flat list of
// ResolvedRuns, each a fully-substituted copy of the spec with a unique
// name like "fig8_torus/algorithm.kind=coupled,topology.cap_c=100/s1".
// run() executes the grid on an ExperimentRunner — runs are byte-identical
// to building the same simulation directly in C++ (the round-trip tests
// pin this) and to any other thread count. validate() dry-builds every
// grid point: topology, algorithm and traffic are constructed and every
// spec key type-checked, but no simulated time elapses.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "runner/experiment_runner.hpp"
#include "scenario/spec.hpp"
#include "trace/sinks.hpp"

namespace mpsim::scenario {

// One point of the expanded grid.
struct ResolvedRun {
  Spec spec;  // the base spec with this point's sweep values substituted
  std::string name;
  std::uint64_t seed = 1;
  // Sweep-point parameters as "section.key" -> rendered value, in axis
  // declaration order (the machine-readable echo for per-run JSON).
  std::vector<std::pair<std::string, std::string>> point;
};

struct EngineOptions {
  unsigned threads = 0;       // 0 = hardware concurrency
  double time_scale = 1.0;    // scales [run] warmup/measure and schedules
  // Trace emission for every run (CLI --trace / [output] trace).
  trace::SinkKind trace_sink = trace::SinkKind::kNone;
  std::string trace_dir = ".";
  std::size_t trace_capacity = 0;
};

class Scenario {
 public:
  static Scenario load(const std::string& path);
  static Scenario from_string(const std::string& text,
                              const std::string& file);

  const std::string& name() const { return name_; }
  const Spec& spec() const { return spec_; }

  // The full run grid: sweep cross product x seeds. Throws SpecError on an
  // empty sweep axis or an axis naming a missing section/key.
  std::vector<ResolvedRun> expand() const;

  // Dry-build every grid point (topology + algorithm + traffic + outputs),
  // rejecting unknown keys/kinds and malformed values. Throws SpecError.
  void validate(double time_scale = 1.0) const;

  // Execute the grid. Throws SpecError for spec-level failures.
  std::vector<runner::RunResult> run(const EngineOptions& opts) const;

  // Trace sink requested by [output] trace ("csv"/"jsonl"/"null"/"off"),
  // and the ring capacity ([output] trace_capacity, 0 = default). The CLI
  // lets --trace override the spec's sink.
  trace::SinkKind spec_trace_sink() const;
  std::size_t spec_trace_capacity() const;

 private:
  Scenario(Spec spec, std::string name)
      : spec_(std::move(spec)), name_(std::move(name)) {}

  Spec spec_;
  std::string name_;
};

// Build and execute one resolved run on `ctx`, recording metrics and the
// spec echo. `dry_run` stops after construction (validate()). Exposed so
// the round-trip tests can drive a single run on a plain RunContext.
void execute_run(const ResolvedRun& run, double time_scale,
                 runner::RunContext& ctx, bool dry_run = false);

}  // namespace mpsim::scenario
