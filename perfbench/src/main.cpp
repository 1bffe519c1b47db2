// Drift-normalised benchmark program: one workload, one seed, one process,
// one thread.
//
//   perfbench --workload <fattree_tp1|twolink_rate|churn_outage>
//             --seed <n> --seconds <s> --trace <0|1>
//             [--pad <fraction>] [--spans-out <file>]
//
// Every simulated slice is timed from outside and followed by a pass of the
// frozen reference kernel; each slice's host time is scaled by
// kNominalRefS / (mean of the reference passes on either side of it), so
// host-speed drift that slows both cancels out. Set-up is timed the same
// way over repeated fresh builds. The run is repeated until --seconds have
// passed and run_s is the fastest normalised repetition: contention on this
// class of host comes in bursts that the reference kernel tracks only
// partly, and a burst can only add time.
//
// --trace 0 prints the end-to-end metrics (run_s, setup_s, peak_rss_mb);
// --trace 1 runs rounds of {plain, traced, trace-recorder, checks-off}
// runs and prints the per-layer metrics. Every run's counters are checked
// (pinned values at the default seed, pool conservation at any seed, and
// identical counters across all runs of one process). The last stdout line
// is the JSON result; the line before it carries the raw samples.
#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <optional>
#include <string>
#include <tuple>
#include <vector>

#include "core/check.hpp"
#include "refkernel.hpp"
#include "spans.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

// Reference-kernel seconds that one normalised second stands for: the
// kernel's typical pass time on the machine the benchmark was calibrated
// on, so normalised figures read close to real seconds there.
constexpr double kNominalRefS = 0.0045;

// Set-up is timed as `batches` timed groups of `per_batch` fresh builds,
// before the first run: builds timed after a run read up to 3x faster, as
// the allocator's state has changed, which is not what a user's build pays.
struct SetupPlan {
  int batches;
  int per_batch;
};

SetupPlan setup_plan(Workload w) {
  switch (w) {
    case Workload::kFattreeTp1:
      return {25, 1};
    case Workload::kTwolinkRate:
      return {25, 128};
    case Workload::kChurnOutage:
      return {25, 64};
  }
  return {1, 1};
}

// Deterministic outputs at seed 1.
struct Pin {
  std::uint64_t events;
  std::uint64_t delivered_pkts;
  std::uint64_t measured_pkts;
  double goodput_mbps;
  std::uint64_t queue_drops;
  std::uint64_t flows_started;
  std::uint64_t flows_completed;
  std::uint64_t flows_reclaimed;
  std::uint64_t subflow_drops;
  std::uint64_t reprobes;
};

Pin pin_for(Workload w) {
  switch (w) {
    case Workload::kFattreeTp1:
      return Pin{5199947, 369556, 319136, 12765.439999999999, 15091,
                 0, 0, 0, 0, 0};
    case Workload::kTwolinkRate:
      return Pin{11968941, 347889, 295814, 354.97680000000003, 533,
                 0, 0, 0, 0, 0};
    case Workload::kChurnOutage:
      return Pin{8776428, 2884391, 831803, 249.54089999999999, 16670,
                 6383, 6383, 6383, 16, 15};
  }
  return {};
}

constexpr std::uint64_t kDefaultSeed = 1;

struct Args {
  Workload workload = Workload::kFattreeTp1;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 10.0;
  bool trace = false;
  double pad = 0.0;
  std::string spans_out;
};

[[noreturn]] void usage(const char* msg) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "<fattree_tp1|twolink_rate|churn_outage> --seed <n> "
               "--seconds <s> --trace <0|1> [--pad <f>] [--spans-out <file>]\n",
               msg);
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + k).c_str());
    const std::string v = argv[++i];
    char* end = nullptr;
    if (k == "--workload") {
      const auto w = parse_workload(v);
      if (!w) usage(("unknown workload " + v).c_str());
      a.workload = *w;
      have_workload = true;
    } else if (k == "--seed") {
      a.seed = std::strtoull(v.c_str(), &end, 10);
      if (v.empty() || *end != '\0') usage("--seed takes an integer");
    } else if (k == "--seconds") {
      a.seconds = std::strtod(v.c_str(), &end);
      if (v.empty() || *end != '\0' || !(a.seconds > 0.0) || a.seconds > 600.0)
        usage("--seconds takes a number in (0, 600]");
    } else if (k == "--trace") {
      if (v != "0" && v != "1") usage("--trace takes 0 or 1");
      a.trace = v == "1";
    } else if (k == "--pad") {
      a.pad = std::strtod(v.c_str(), &end);
      if (v.empty() || *end != '\0' || !(a.pad >= 0.0) || a.pad > 1.0)
        usage("--pad takes a fraction in [0, 1]");
    } else if (k == "--spans-out") {
      a.spans_out = v;
    } else {
      usage(("unknown option " + k).c_str());
    }
  }
  if (!have_workload) usage("--workload is required");
  return a;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double min_of(const std::vector<double>& v) {
  return v.empty() ? 0.0 : *std::min_element(v.begin(), v.end());
}

double ns_to_s(std::int64_t ns) { return static_cast<double>(ns) * 1e-9; }

// Output checks: every comparison counts as one attempt.
class Checks {
 public:
  void expect(bool ok, const std::string& what) {
    ++attempted_;
    if (!ok) {
      ++failed_;
      std::fprintf(stderr, "perfbench: check failed: %s\n", what.c_str());
    }
  }
  template <typename T>
  void expect_eq(const T& got, const T& want, const std::string& what) {
    expect(got == want, what + " = " + std::to_string(got) + ", expected " +
                            std::to_string(want));
  }
  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }

 private:
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

// Reference passes, kept for host.ref_s.
class Yardstick {
 public:
  double pass() {
    last_ = kernel_.pass();
    samples_.push_back(last_);
    return last_;
  }
  double last() const { return last_; }
  const std::vector<double>& samples() const { return samples_; }

 private:
  RefKernel kernel_;
  double last_ = 0.0;
  std::vector<double> samples_;
};

double normalise(double raw, double ref_before, double ref_after) {
  return raw * kNominalRefS / (0.5 * (ref_before + ref_after));
}

struct Timed {
  double raw_s = 0.0;
  double norm_s = 0.0;
  std::int64_t run_ns = 0;  // raw, summed over slices
  // Traced runs: every slice ended with no span open, and its spans
  // covered no more of it than its externally timed duration.
  bool spans_in_slices = true;
};

void spin_for(std::int64_t ns) {
  const std::int64_t until = clock_ns() + ns;
  while (clock_ns() < until) {
  }
}

// Runs every slice of `sim`, timing each and following it with a
// reference pass. `pad` busy-waits that fraction of each slice's raw time
// inside the slice (the sensitivity self-test's injected slowdown).
Timed run_timed(Sim& sim, Yardstick& y, double pad, const Tracer* tracer) {
  Timed t;
  double before = y.last();
  for (std::size_t i = 0; i < sim.slices(); ++i) {
    const std::int64_t covered = tracer != nullptr ? tracer->covered_ns() : 0;
    const std::int64_t a = clock_ns();
    sim.run_slice(i);
    std::int64_t b = clock_ns();
    if (tracer != nullptr) {
      t.spans_in_slices = t.spans_in_slices && tracer->depth() == 0 &&
                          tracer->covered_ns() - covered <= b - a;
    }
    if (pad > 0.0) {
      spin_for(static_cast<std::int64_t>(pad * static_cast<double>(b - a)));
      b = clock_ns();
    }
    const double raw = ns_to_s(b - a);
    const double after = y.pass();
    t.raw_s += raw;
    t.norm_s += normalise(raw, before, after);
    t.run_ns += b - a;
    before = after;
  }
  return t;
}

struct SetupResult {
  std::vector<double> setup_s;  // normalised, per build
  std::vector<double> topo_s;
  std::vector<double> connect_s;
};

// Repeated fresh builds, each timed group bracketed by reference passes.
// One simulation is alive at a time, so set-up adds nothing to peak RSS.
SetupResult measure_setup(const Args& args, Yardstick& y) {
  const SetupPlan plan = setup_plan(args.workload);
  SetupResult r;
  double before = y.last();
  for (int b = 0; b < plan.batches; ++b) {
    BuildTimes bt;
    std::int64_t build_ns = 0;
    for (int k = 0; k < plan.per_batch; ++k) {
      const std::int64_t t0 = clock_ns();
      auto sim = build(args.workload, args.seed, {}, bt);
      build_ns += clock_ns() - t0;
    }  // teardown is not set-up
    const double after = y.pass();
    const double scale = normalise(1.0, before, after) / plan.per_batch;
    r.setup_s.push_back(ns_to_s(build_ns) * scale);
    r.topo_s.push_back(bt.topo_s * scale);
    r.connect_s.push_back(bt.connect_s * scale);
    before = after;
  }
  return r;
}

void check_run(Checks& chk, const Args& args, const Counters& c,
               const Counters* reference, const char* what) {
  const std::string tag = std::string(what) + ": ";
  chk.expect_eq(c.pool_allocs - c.pool_releases, c.pool_outstanding,
                tag + "pool allocs - releases");
  chk.expect_eq(c.wire_refs, c.pool_outstanding,
                tag + "live connections' wire refs vs pool outstanding");
  chk.expect(c.events > 0 && c.delivered_pkts > 0,
             tag + "the run dispatched events and delivered data");
  if (reference != nullptr) {
    chk.expect(c == *reference, tag + "counters equal the first plain run's");
  }
  if (reference != nullptr || args.seed != kDefaultSeed) return;
  const Pin pin = pin_for(args.workload);
  chk.expect_eq(c.events, pin.events, "events");
  chk.expect_eq(c.delivered_pkts, pin.delivered_pkts, "delivered packets");
  chk.expect_eq(c.measured_pkts, pin.measured_pkts,
                "packets delivered in the goodput window");
  char goodput[64];
  std::snprintf(goodput, sizeof goodput, "goodput = %.17g Mb/s",
                c.goodput_mbps);
  chk.expect(c.goodput_mbps == pin.goodput_mbps, goodput);
  chk.expect_eq(c.queue_drops, pin.queue_drops, "queue drops");
  chk.expect_eq(c.flows_started, pin.flows_started, "flows started");
  chk.expect_eq(c.flows_completed, pin.flows_completed, "flows completed");
  chk.expect_eq(c.flows_reclaimed, pin.flows_reclaimed, "flows reclaimed");
  chk.expect_eq(c.subflow_drops, pin.subflow_drops, "subflow drops");
  chk.expect_eq(c.reprobes, pin.reprobes, "subflow re-probes");
}

// Span checks. Self times plus core.loop_self_s equal the traced run time
// by construction, so that sum is not checked; what is checked is that no
// span crossed a slice boundary or covered more of a slice than the
// slice's own timed duration, and that span counts match the library's
// own counters.
void check_trace(Checks& chk, const Tracer& t, const Timed& run,
                 const Counters& c) {
  chk.expect(t.depth() == 0 && t.overflows() == 0,
             "trace: every span closed, none past the depth limit");
  chk.expect(run.spans_in_slices,
             "trace: no span open at a slice end, and spans cover at most "
             "each slice's timed duration");
  chk.expect_eq(t.calls(kEnqueue), c.queue_arrivals,
                "trace: net.enqueue spans vs sum of Queue::arrivals()");
  chk.expect_eq(t.calls(kRx), c.rx_packets,
                "trace: mptcp.rx spans vs sum of packets_received()");
  chk.expect_eq(t.calls(kOpen), c.flows_started,
                "trace: mptcp.open spans vs flows started");
}

void write_spans(const std::string& path, const Tracer& t) {
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
    return;
  }
  for (const SpanRecord& s : t.samples()) {
    out << "{\"id\":" << s.id << ",\"parent\":" << s.parent
        << ",\"layer\":\"" << kLayerNames[s.layer] << "\",\"flow\":" << s.flow
        << ",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns
        << "}\n";
  }
}

// A /proc/self/status field such as "VmRSS:" or "VmHWM:", in MiB; 0 if
// absent. VmHWM rather than ru_maxrss, which keeps the pre-exec high-water
// mark of the process that spawned this one.
double status_mb(const std::string& field) {
  std::ifstream status("/proc/self/status");
  std::string key;
  while (status >> key) {
    if (key == field) {
      double kib = 0.0;
      status >> kib;
      return kib / 1024.0;
    }
    status.ignore(1 << 12, '\n');
  }
  return 0.0;
}

class Metrics {
 public:
  void add(const std::string& name, double value, const std::string& unit) {
    items_.emplace_back(name, value, unit);
  }
  std::string json() const {
    std::string s = "{";
    for (std::size_t i = 0; i < items_.size(); ++i) {
      const auto& [name, value, unit] = items_[i];
      char buf[64];
      std::snprintf(buf, sizeof buf, "%.17g", value);
      s += (i ? ", \"" : "\"") + name + "\": {\"value\": " + buf +
           ", \"unit\": \"" + unit + "\"}";
    }
    return s + "}";
  }

 private:
  std::vector<std::tuple<std::string, double, std::string>> items_;
};

std::string json_list(const std::vector<double>& v) {
  std::string s = "[";
  for (std::size_t i = 0; i < v.size(); ++i) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%s%.9g", i ? ", " : "", v[i]);
    s += buf;
  }
  return s + "]";
}

std::string json_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.9g", v);
  return buf;
}

struct RunResult {
  Counters counters;
  Timed timed;
};

RunResult timed_run(const Args& args, Yardstick& y, const BuildOptions& opts) {
  BuildTimes bt;
  auto sim = build(args.workload, args.seed, opts, bt);
  RunResult r;
  r.timed = run_timed(*sim, y, opts.tracer == nullptr ? args.pad : 0.0,
                      opts.tracer);
  r.counters = sim->counters();
  return r;
}

int run(const Args& args) {
  // The benchmark measures the default, checks-on configuration.
  mpsim::detail::g_checks_state.store(1, std::memory_order_relaxed);

  Checks chk;
  Yardstick y;
  for (int i = 0; i < 3; ++i) y.pass();
  // The benchmark's own resident memory (binary, libraries, the reference
  // kernel's table). peak_rss_mb is the whole process's peak: the part the
  // workload adds on top of this baseline varies too much with the arrival
  // seed to gate on by itself, so it is only reported in the detail line.
  const double base_rss_mb = status_mb("VmRSS:");
  const std::int64_t start = clock_ns();
  const auto elapsed = [&] { return ns_to_s(clock_ns() - start); };

  const SetupResult setup = measure_setup(args, y);
  Metrics m;
  std::string detail;

  if (!args.trace) {
    std::vector<double> norm;
    std::vector<double> raw;
    std::optional<Counters> first;
    while (norm.size() < 3 || (elapsed() < args.seconds && norm.size() < 500)) {
      const RunResult r = timed_run(args, y, {});
      check_run(chk, args, r.counters, first ? &*first : nullptr, "plain run");
      if (!first) first = r.counters;
      norm.push_back(r.timed.norm_s);
      raw.push_back(r.timed.raw_s);
    }
    const double peak_mb = status_mb("VmHWM:");
    chk.expect(base_rss_mb > 0.0 && peak_mb > base_rss_mb,
               "VmRSS and VmHWM read from /proc/self/status");
    m.add("run_s", min_of(norm), "s");
    m.add("setup_s", median(setup.setup_s), "s");
    m.add("peak_rss_mb", peak_mb, "MB");
    detail = "\"events\": " + std::to_string(first->events) +
             ", \"base_rss_mb\": " + json_number(base_rss_mb) +
             ", \"workload_rss_mb\": " + json_number(peak_mb - base_rss_mb) +
             ", \"run_s\": " + json_list(norm) +
             ", \"raw_run_s\": " + json_list(raw) +
             ", \"setup_s\": " + json_list(setup.setup_s);
  } else {
    // Rounds of four variants; each variant's figure is its fastest
    // normalised repetition, and the layer times come from the fastest
    // traced repetition.
    std::vector<double> plain_norm, plain_raw, traced_norm, rec_norm, off_norm;
    std::optional<Counters> first;
    std::unique_ptr<Tracer> best;  // tracer of the fastest traced run
    double best_scale = 0.0;       // its raw -> normalised factor
    std::int64_t best_run_ns = 0;
    while (plain_norm.empty() ||
           (elapsed() < args.seconds && plain_norm.size() < 100)) {
      const RunResult p = timed_run(args, y, {});
      check_run(chk, args, p.counters, first ? &*first : nullptr, "plain run");
      if (!first) first = p.counters;
      plain_norm.push_back(p.timed.norm_s);
      plain_raw.push_back(p.timed.raw_s);

      auto tracer = std::make_unique<Tracer>();
      BuildOptions traced_opts;
      traced_opts.tracer = tracer.get();
      const RunResult t = timed_run(args, y, traced_opts);
      check_run(chk, args, t.counters, &*first, "traced run");
      check_trace(chk, *tracer, t.timed, t.counters);
      if (traced_norm.empty() || t.timed.norm_s < min_of(traced_norm)) {
        best = std::move(tracer);
        best_scale = t.timed.norm_s / t.timed.raw_s;
        best_run_ns = t.timed.run_ns;
      }
      traced_norm.push_back(t.timed.norm_s);

      BuildOptions rec_opts;
      rec_opts.trace_recorder = true;
      const RunResult rec = timed_run(args, y, rec_opts);
      check_run(chk, args, rec.counters, &*first, "trace-recorder run");
      rec_norm.push_back(rec.timed.norm_s);

      mpsim::detail::g_checks_state.store(2, std::memory_order_relaxed);
      const RunResult off = timed_run(args, y, {});
      mpsim::detail::g_checks_state.store(1, std::memory_order_relaxed);
      check_run(chk, args, off.counters, &*first, "checks-off run");
      off_norm.push_back(off.timed.norm_s);
    }
    const Counters& c = *first;
    const Tracer& t = *best;
    const double run_s = min_of(plain_norm);
    const auto self_s = [&](Layer l) {
      return ns_to_s(t.self_ns(l)) * best_scale;
    };
    const auto count = [&](const char* name, std::uint64_t v) {
      m.add(name, static_cast<double>(v), "count");
    };
    const auto ratio = [](std::uint64_t a, std::uint64_t b) {
      return b == 0 ? 0.0 : static_cast<double>(a) / static_cast<double>(b);
    };
    count("core.events", c.events);
    m.add("core.events_per_s", static_cast<double>(c.events) / run_s, "1/s");
    m.add("core.loop_self_s",
          ns_to_s(best_run_ns - t.covered_ns()) * best_scale, "s");
    count("core.pending_median", c.pending_median);
    count("core.scheduler_switches", c.scheduler_switches);
    count("net.enqueue_calls", t.calls(kEnqueue));
    m.add("net.enqueue_self_s", self_s(kEnqueue), "s");
    m.add("net.drop_ratio", ratio(c.queue_drops, c.queue_arrivals), "ratio");
    count("net.pool_allocs", c.pool_allocs);
    count("net.pool_peak_packets", c.pool_peak);
    count("tcp.ack_calls", t.calls(kAck));
    m.add("tcp.ack_self_s", self_s(kAck), "s");
    count("tcp.packets_sent", c.packets_sent);
    count("tcp.retransmits", c.retransmits);
    count("tcp.timeouts", c.timeouts);
    m.add("tcp.useful_ratio", ratio(c.delivered_pkts, c.packets_sent),
          "ratio");
    count("mptcp.rx_calls", t.calls(kRx));
    m.add("mptcp.rx_self_s", self_s(kRx), "s");
    count("mptcp.delivered_pkts", c.delivered_pkts);
    count("mptcp.duplicates", c.duplicates);
    count("mptcp.reinjections", c.reinjections);
    count("mptcp.opens", t.calls(kOpen));
    m.add("mptcp.open_s", self_s(kOpen), "s");
    count("mptcp.subflow_drops", c.subflow_drops);
    count("cc.calls", t.calls(kCc));
    m.add("cc.self_s", self_s(kCc), "s");
    m.add("topo.build_s", median(setup.topo_s), "s");
    m.add("traffic.connect_s", median(setup.connect_s), "s");
    m.add("trace.recorder_share", 1.0 - run_s / min_of(rec_norm), "ratio");
    m.add("check.share", 1.0 - min_of(off_norm) / run_s, "ratio");
    m.add("host.ref_s", median(y.samples()), "s");
    m.add("host.raw_run_s", min_of(plain_raw), "s");
    m.add("bench.trace_overhead", min_of(traced_norm) / run_s - 1.0, "ratio");
    detail = "\"run_s\": " + json_list(plain_norm) +
             ", \"raw_run_s\": " + json_list(plain_raw) +
             ", \"traced_run_s\": " + json_list(traced_norm) +
             ", \"recorder_run_s\": " + json_list(rec_norm) +
             ", \"checks_off_run_s\": " + json_list(off_norm);
    if (!args.spans_out.empty()) write_spans(args.spans_out, t);
  }

  std::printf("{\"detail\": {\"ref_s\": %.9g, %s}}\n", median(y.samples()),
              detail.c_str());
  std::printf(
      "{\"correct\": %s, \"attempted\": %" PRIu64 ", \"failed\": %" PRIu64
      ", \"metrics\": %s}\n",
      chk.failed() == 0 ? "true" : "false", chk.attempted(), chk.failed(),
      m.json().c_str());
  std::fflush(stdout);
  return chk.failed() == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  return perfbench::run(perfbench::parse_args(argc, argv));
}
