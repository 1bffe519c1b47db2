// Machine-readable run reports.
//
// Converts ExperimentRunner results into stats::Json trees and writes the
// BENCH_<name>.json files tracked across PRs. String annotations recorded
// via RunContext::annotate() — the resolved-spec echo (seed, sweep-point
// parameters, algorithm) — land in a "spec" object per run so downstream
// tooling never has to re-parse run names.
#pragma once

#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "runner/experiment_runner.hpp"
#include "stats/json.hpp"

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
  m.set("wall_seconds", r.metrics.wall_seconds);
  m.set("events_processed", static_cast<double>(r.metrics.events_processed));
  m.set("events_per_sec", r.metrics.events_per_sec);
  m.set("peak_pool_packets",
        static_cast<double>(r.metrics.peak_pool_packets));
  r.metrics.scheduler.for_each([&m](const char* k, std::uint64_t v) {
    m.set(std::string("scheduler_") + k, static_cast<double>(v));
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

// Write BENCH_<name>.json in the working directory and report the path.
inline void write_json_file(const std::string& name,
                            const stats::Json& root) {
  const std::string path = "BENCH_" + name + ".json";
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "warning: cannot write %s\n", path.c_str());
    return;
  }
  const std::string body = root.dump();
  std::fwrite(body.data(), 1, body.size(), f);
  std::fputc('\n', f);
  std::fclose(f);
  std::printf("\n[json] wrote %s\n", path.c_str());
}

}  // namespace mpsim::runner
