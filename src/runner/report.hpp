// Machine-readable run reports.
//
// Converts ExperimentRunner results into stats::Json trees and writes the
// BENCH_<name>.json files. A report holds no wall-clock time, so it is a
// pure function of spec, seed and scale, like stdout and the traces: the
// report goldens under tests/golden/ compare it byte for byte. String
// annotations recorded via RunContext::annotate() — the resolved-spec echo
// (seed, sweep-point parameters, algorithm) — land in a "spec" object per
// run so downstream tooling never has to re-parse run names.
#pragma once

#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "runner/experiment_runner.hpp"
#include "stats/json.hpp"
#include "trace/sinks.hpp"

namespace mpsim::runner {

// One runner result as a Json object: name, resolved-spec echo, recorded
// values, run metrics, trace path when one was written.
inline stats::Json json_from_result(const RunResult& r) {
  stats::Json o = stats::Json::object();
  o.set("name", r.name);
  if (!r.annotations.empty()) {
    stats::Json spec = stats::Json::object();
    for (const auto& [k, v] : r.annotations) spec.set(k, v);
    o.set("spec", std::move(spec));
  }
  for (const auto& [k, v] : r.values) o.set(k, v);
  stats::Json m = stats::Json::object();
  m.set("events_processed", static_cast<double>(r.metrics.events_processed));
  m.set("peak_pool_packets",
        static_cast<double>(r.metrics.peak_pool_packets));
  r.metrics.scheduler.for_each([&m](const char* k, std::uint64_t v) {
    m.set(std::string("scheduler_") + k, static_cast<double>(v));
  });
  r.metrics.for_each_memory([&m](const char* k, std::uint64_t v) {
    m.set(std::string("memory_") + k, static_cast<double>(v));
  });
  o.set("metrics", std::move(m));
  if (!r.trace_path.empty()) o.set("trace_path", r.trace_path);
  return o;
}

inline stats::Json json_from_results(const std::vector<RunResult>& rs) {
  stats::Json a = stats::Json::array();
  for (const RunResult& r : rs) a.push(json_from_result(r));
  return a;
}

// Write BENCH_<name>.json in the working directory, `name` sanitised as
// trace file names are, and report the path; false (with the path on
// stderr) when the file cannot be written.
inline bool write_json_file(const std::string& name,
                            const stats::Json& root) {
  const std::string path = "BENCH_" + sanitize_for_filename(name) + ".json";
  if (!trace::write_text_file(path, root.dump() + "\n")) return false;
  std::printf("\n[json] wrote %s\n", path.c_str());
  return true;
}

}  // namespace mpsim::runner
