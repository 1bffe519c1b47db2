// Parallel multi-experiment runner.
//
// An ExperimentRunner executes N fully independent simulations (seed sweeps,
// parameter grids, algorithm comparisons) on a pool of worker threads that
// claim jobs in submission order from one atomic cursor. Each job gets its
// own RunContext owning a private EventList — and therefore a private
// packet pool and clock — so runs are exactly as deterministic in parallel
// as they are sequentially: the result set is byte-identical whatever the
// thread count or which worker ran which job (tests assert this). Per-run
// wall-clock time and the deterministic event, pool, scheduler and memory
// counters are captured into a structured RunResult for harness reporting.
//
// Jobs must not share mutable state with each other; anything a job returns
// goes through RunContext::record() (scalars) or captured per-job output
// slots written only by that job.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "core/event_list.hpp"
#include "trace/sinks.hpp"
#include "trace/trace.hpp"

namespace mpsim::runner {

// Measured cost of one run, filled in by the runner.
struct RunMetrics {
  // The one nondeterministic field: `mpsim run` prints the total on
  // stderr, and it stays out of the JSON report.
  double wall_seconds = 0.0;
  std::uint64_t events_processed = 0;
  std::size_t peak_pool_packets = 0;  // high-water mark of the run's pool
  // The event scheduler's work counters for this run — deterministic, so
  // report numbers stay attributable without depending on thread count.
  TimingWheel::Stats scheduler;
  // Deterministic memory counters: the packet slabs the pool carved, and
  // the most bytes the run's reorder windows held at once (reclaimed
  // connections included).
  std::size_t pool_slabs = 0;
  std::size_t reorder_bytes_peak = 0;

  // Visits the memory counters in report order (the `memory_*` JSON keys
  // and the `# memory:` line of `mpsim run`).
  template <typename F>
  void for_each_memory(F&& f) const {
    f("pool_slabs", std::uint64_t{pool_slabs});
    f("reorder_bytes_peak", std::uint64_t{reorder_bytes_peak});
  }
};

// Handed to each job: the simulation instance plus a keyed scalar recorder.
class RunContext {
 public:
  explicit RunContext(std::string name) : name_(std::move(name)) {}

  RunContext(const RunContext&) = delete;
  RunContext& operator=(const RunContext&) = delete;

  const std::string& name() const { return name_; }
  EventList& events() { return events_; }

  // Record a named statistic (kept in insertion order).
  void record(std::string key, double value) {
    values_.emplace_back(std::move(key), value);
  }
  const std::vector<std::pair<std::string, double>>& values() const {
    return values_;
  }

  // Attach a machine-readable string to the result (resolved parameters:
  // seed, sweep-point values, algorithm name). Kept separate from values()
  // so numeric post-processing never has to skip non-metrics.
  void annotate(std::string key, std::string value) {
    annotations_.emplace_back(std::move(key), std::move(value));
  }
  const std::vector<std::pair<std::string, std::string>>& annotations()
      const {
    return annotations_;
  }

 private:
  std::string name_;
  EventList events_;
  std::vector<std::pair<std::string, double>> values_;
  std::vector<std::pair<std::string, std::string>> annotations_;
};

struct RunResult {
  std::string name;
  RunMetrics metrics;
  std::vector<std::pair<std::string, double>> values;
  // String annotations from RunContext::annotate(): the resolved-spec echo
  // (seed, sweep-point parameters) written into per-run JSON.
  std::vector<std::pair<std::string, std::string>> annotations;
  // Path of this run's trace file ("" when tracing is off or the write
  // failed). Files are named from the run name alone, so contents and names
  // are byte-identical across thread counts.
  std::string trace_path;

  double value(const std::string& key, double fallback = 0.0) const {
    for (const auto& [k, v] : values) {
      if (k == key) return v;
    }
    return fallback;
  }
};

struct RunnerConfig {
  unsigned threads = 0;  // 0 => hardware concurrency; 1 => run on the caller
  // Flight-recorder emission. kNone = off. Otherwise every job gets a
  // recorder installed before it runs, and its trace is flushed to
  // `trace_dir`/trace_<run-name><ext> after the job returns (run names are
  // sanitised for the filesystem; the flush happens on the worker thread but
  // each file is private to its run, so output is byte-identical whatever
  // the thread count).
  trace::SinkKind trace_sink = trace::SinkKind::kNone;
  std::string trace_dir = ".";
  std::size_t trace_capacity = 0;  // 0 => TraceRecorder::Config default
};

class ExperimentRunner {
 public:
  using Job = std::function<void(RunContext&)>;

  explicit ExperimentRunner(RunnerConfig cfg = {}) : cfg_(cfg) {}

  // Enqueue a named experiment. Jobs run in any order across threads, but
  // run_all() returns results in submission order.
  void add(std::string name, Job job) {
    jobs_.emplace_back(std::move(name), std::move(job));
  }

  std::size_t job_count() const { return jobs_.size(); }

  // Execute every job and return one RunResult per job, submission-ordered.
  // With threads == 1 everything runs inline on the calling thread.
  std::vector<RunResult> run_all();

  // The thread count run_all() will actually use.
  unsigned resolved_threads() const;

  static unsigned hardware_threads();

 private:
  RunnerConfig cfg_;
  std::vector<std::pair<std::string, Job>> jobs_;
};

// Aggregates over a result set.
double total_wall_seconds(const std::vector<RunResult>& results);

// Run names ("fig8/lia seed=3") become file names: anything the
// filesystem might object to collapses to '_'. Distinct names can collide
// after sanitising — callers name runs, so they own uniqueness.
std::string sanitize_for_filename(const std::string& name);

}  // namespace mpsim::runner
