#include "runner/experiment_runner.hpp"

#include <algorithm>
#include <chrono>
#include <deque>
#include <mutex>
#include <thread>

#include "mptcp/reorder_window.hpp"
#include "net/packet.hpp"

namespace mpsim::runner {

namespace {

// One worker's job queue. The owner pops from the front; thieves steal from
// the back, so an owner working through its own assignments and a thief
// never contend for the same end when more than one job remains.
struct WorkDeque {
  std::deque<std::size_t> jobs;
  std::mutex mu;
};

// Run names ("fig8/lia seed=3") become file names; anything the filesystem
// might object to collapses to '_'. Distinct names can collide after
// sanitising — callers name runs, so they own uniqueness.
std::string sanitize_for_filename(const std::string& name) {
  std::string out = name;
  for (char& c : out) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '.' || c == '-' ||
                    c == '_';
    if (!ok) c = '_';
  }
  return out;
}

}  // namespace

unsigned ExperimentRunner::hardware_threads() {
  return std::max(1u, std::thread::hardware_concurrency());
}

unsigned ExperimentRunner::resolved_threads() const {
  unsigned n = cfg_.threads == 0 ? hardware_threads() : cfg_.threads;
  if (!jobs_.empty()) {
    n = std::min<unsigned>(n, static_cast<unsigned>(jobs_.size()));
  }
  return std::max(1u, n);
}

std::vector<RunResult> ExperimentRunner::run_all() {
  const std::size_t n = jobs_.size();
  std::vector<RunResult> results(n);

  auto exec = [&](std::size_t idx) {
    RunContext ctx(jobs_[idx].first);
    if (cfg_.trace_sink != trace::SinkKind::kNone) {
      trace::TraceRecorder::Config tc;
      if (cfg_.trace_capacity > 0) tc.capacity = cfg_.trace_capacity;
      trace::TraceRecorder::install(ctx.events(), tc);
    }
    const auto t0 = std::chrono::steady_clock::now();
    jobs_[idx].second(ctx);
    const auto t1 = std::chrono::steady_clock::now();

    RunResult& r = results[idx];
    r.name = ctx.name();
    r.values = ctx.values();
    r.annotations = ctx.annotations();
    if (cfg_.trace_sink != trace::SinkKind::kNone) {
      // Flush after the job returns (never during the run) on whichever
      // worker ran it; the recorder and file are private to this run, so
      // the bytes depend only on the simulation, not the schedule.
      const trace::TraceRecorder* rec =
          trace::TraceRecorder::find(ctx.events());
      auto sink = trace::make_sink(cfg_.trace_sink);
      rec->flush(*sink);
      const std::string path = cfg_.trace_dir + "/trace_" +
                               sanitize_for_filename(ctx.name()) +
                               trace::sink_extension(cfg_.trace_sink);
      if (trace::write_text_file(path, sink->text())) r.trace_path = path;
    }
    r.metrics.wall_seconds = std::chrono::duration<double>(t1 - t0).count();
    r.metrics.events_processed = ctx.events().events_processed();
    r.metrics.events_per_sec =
        r.metrics.wall_seconds > 0.0
            ? static_cast<double>(r.metrics.events_processed) /
                  r.metrics.wall_seconds
            : 0.0;
    if (const net::PacketPool* pool = net::PacketPool::find(ctx.events())) {
      r.metrics.peak_pool_packets = pool->peak_outstanding();
      r.metrics.pool_slabs = pool->slabs();
    }
    if (const mptcp::ReorderLedger* ledger =
            mptcp::ReorderLedger::find(ctx.events())) {
      r.metrics.reorder_bytes_peak = ledger->peak_bytes();
    }
    r.metrics.scheduler = ctx.events().scheduler_stats();
  };

  const unsigned nthreads = resolved_threads();
  if (nthreads <= 1) {
    for (std::size_t i = 0; i < n; ++i) exec(i);
    return results;
  }

  // Round-robin initial assignment, then work stealing: a worker drains its
  // own deque front-first and, when empty, steals from the back of the
  // other deques. All jobs are enqueued before any worker starts and jobs
  // never enqueue more work, so "every deque empty" means done.
  std::vector<WorkDeque> deques(nthreads);
  for (std::size_t i = 0; i < n; ++i) {
    deques[i % nthreads].jobs.push_back(i);
  }

  auto worker = [&](unsigned self) {
    for (;;) {
      std::size_t idx = 0;
      bool got = false;
      {
        WorkDeque& own = deques[self];
        std::lock_guard<std::mutex> lock(own.mu);
        if (!own.jobs.empty()) {
          idx = own.jobs.front();
          own.jobs.pop_front();
          got = true;
        }
      }
      for (unsigned k = 1; k < nthreads && !got; ++k) {
        WorkDeque& victim = deques[(self + k) % nthreads];
        std::lock_guard<std::mutex> lock(victim.mu);
        if (!victim.jobs.empty()) {
          idx = victim.jobs.back();
          victim.jobs.pop_back();
          got = true;
        }
      }
      if (!got) return;
      exec(idx);
    }
  };

  std::vector<std::thread> pool;
  pool.reserve(nthreads - 1);
  for (unsigned w = 1; w < nthreads; ++w) pool.emplace_back(worker, w);
  worker(0);
  for (std::thread& t : pool) t.join();
  return results;
}

double total_wall_seconds(const std::vector<RunResult>& results) {
  double total = 0.0;
  for (const RunResult& r : results) total += r.metrics.wall_seconds;
  return total;
}

std::uint64_t total_events(const std::vector<RunResult>& results) {
  std::uint64_t total = 0;
  for (const RunResult& r : results) total += r.metrics.events_processed;
  return total;
}

}  // namespace mpsim::runner
