#include "runner/experiment_runner.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <thread>

#include "mptcp/reorder_window.hpp"
#include "net/packet.hpp"

namespace mpsim::runner {

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
    if (cfg_.trace) {
      trace::TraceRecorder::install(ctx.events(), cfg_.trace_capacity);
    }
    const auto t0 = std::chrono::steady_clock::now();
    jobs_[idx].second(ctx);
    const auto t1 = std::chrono::steady_clock::now();

    RunResult& r = results[idx];
    r.name = ctx.name();
    r.values = ctx.values();
    r.annotations = ctx.annotations();
    if (cfg_.trace) {
      // Flush after the job returns (never during the run) on whichever
      // worker ran it; the recorder and file are private to this run, so
      // the bytes depend only on the simulation, not the schedule.
      const trace::TraceRecorder* rec =
          trace::TraceRecorder::find(ctx.events());
      const std::string path = cfg_.trace_dir + "/trace_" +
                               sanitize_for_filename(ctx.name()) + ".csv";
      if (write_text_file(path, rec->csv())) {
        r.trace_path = path;
        r.trace_records_lost = rec->overwritten();
      }
    }
    r.metrics.wall_seconds = std::chrono::duration<double>(t1 - t0).count();
    r.metrics.events_processed = ctx.events().events_processed();
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

  // Every job is added before run_all() starts and no job adds another, so
  // the job set is fixed: each worker claims the next unrun index from one
  // shared cursor until it runs past the end. Results are index-addressed,
  // so which worker ran a job never shows in the output. The caller is
  // one of the workers: with one thread it runs every job, in order.
  std::atomic<std::size_t> next{0};
  auto worker = [&] {
    for (std::size_t idx = next.fetch_add(1, std::memory_order_relaxed);
         idx < n; idx = next.fetch_add(1, std::memory_order_relaxed)) {
      exec(idx);
    }
  };

  const unsigned nthreads = resolved_threads();
  std::vector<std::thread> pool;
  pool.reserve(nthreads - 1);
  for (unsigned w = 1; w < nthreads; ++w) pool.emplace_back(worker);
  worker();
  for (std::thread& t : pool) t.join();
  return results;
}

double total_wall_seconds(const std::vector<RunResult>& results) {
  double total = 0.0;
  for (const RunResult& r : results) total += r.metrics.wall_seconds;
  return total;
}

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

bool write_text_file(const std::string& path, const std::string& body) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  bool ok = f != nullptr &&
            std::fwrite(body.data(), 1, body.size(), f) == body.size();
  if (f != nullptr) ok = std::fclose(f) == 0 && ok;
  if (!ok) std::fprintf(stderr, "error: cannot write %s\n", path.c_str());
  return ok;
}

}  // namespace mpsim::runner
