#include "workloads.hpp"

#include <algorithm>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "cc/coupled_bbr.hpp"
#include "cc/mptcp_lia.hpp"
#include "cc/uncoupled.hpp"
#include "core/event_list.hpp"
#include "core/rng.hpp"
#include "mptcp/connection.hpp"
#include "mptcp/path_manager.hpp"
#include "net/variable_rate_queue.hpp"
#include "topo/fat_tree.hpp"
#include "topo/network.hpp"
#include "topo/two_link.hpp"
#include "trace/trace.hpp"
#include "traffic/poisson_flows.hpp"
#include "traffic/traffic_matrix.hpp"

namespace perfbench {

using namespace mpsim;

namespace {

// The seed at which every workload reproduces its bench program exactly.
constexpr std::uint64_t kDefaultSeed = 1;

double seconds_between(std::int64_t a, std::int64_t b) {
  return static_cast<double>(b - a) * 1e-9;
}

double mbps(std::uint64_t pkts, SimTime window) {
  return static_cast<double>(pkts) * net::kDataPacketBytes * 8.0 /
         to_sec(window) / 1e6;
}

// Heap<->wheel migrations, where the scheduler still reports them: the
// benchmark must keep building if a later change retires the adaptive
// scheduler and this getter with it.
template <typename E>
std::uint64_t scheduler_switches(const E& events) {
  if constexpr (requires { events.scheduler_switches(); }) {
    return events.scheduler_switches();
  } else {
    return 0;
  }
}

void add_connection(Counters& c, const mptcp::MptcpConnection& m) {
  c.delivered_pkts += m.delivered_pkts();
  for (std::size_t r = 0; r < m.num_subflows(); ++r) {
    const tcp::Subflow& sf = m.subflow(r);
    c.packets_sent += sf.packets_sent();
    c.retransmits += sf.retransmits();
    c.timeouts += sf.timeouts();
  }
  c.rx_packets += m.receiver().packets_received();
  c.duplicates += m.receiver().duplicates();
  c.reinjections += m.scheduler().reinjected_total();
  c.wire_refs += m.wire_refs();
  if (const mptcp::PathManager* pm = m.path_manager()) {
    c.subflow_drops += pm->subflows_dropped();
    c.reprobes += pm->reprobes();
  }
}

// Routes built through this pass through the tracing shims when a tracer
// is set, and come back untouched otherwise.
class Instruments {
 public:
  explicit Instruments(Tracer* t) : t_(t) {
    if (t_ != nullptr) {
      rx_ = std::make_unique<HopShim>(*t_, kRx);
      ack_ = std::make_unique<HopShim>(*t_, kAck);
    }
  }

  topo::Path fwd(topo::Path p) {
    if (t_ == nullptr) return p;
    wrap_queues(p);
    p.push_back(rx_.get());
    return p;
  }

  topo::Path rev(topo::Path p) {
    if (t_ == nullptr) return p;
    wrap_queues(p);
    p.push_back(ack_.get());
    return p;
  }

  const cc::CongestionControl& cc(const cc::CongestionControl& algo) {
    if (t_ == nullptr) return algo;
    auto& d = ccs_[&algo];
    if (!d) d = std::make_unique<TracedCc>(*t_, algo);
    return *d;
  }

  Tracer* tracer() const { return t_; }

 private:
  void wrap_queues(topo::Path& p) {
    for (auto*& hop : p) {
      if (auto* q = dynamic_cast<net::Queue*>(hop)) {
        auto& s = queues_[q];
        if (!s) s = std::make_unique<QueueShim>(*t_, *q);
        hop = s.get();
      }
    }
  }

  Tracer* t_;
  std::unique_ptr<HopShim> rx_;
  std::unique_ptr<HopShim> ack_;
  std::unordered_map<net::Queue*, std::unique_ptr<QueueShim>> queues_;
  std::unordered_map<const cc::CongestionControl*, std::unique_ptr<TracedCc>>
      ccs_;
};

// Owns the EventList and the shims; derived workloads own the topology and
// connections, which are destroyed first.
class SimBase : public Sim {
 public:
  explicit SimBase(const BuildOptions& o) : ins_(o.tracer) {
    if (o.trace_recorder) trace::TraceRecorder::install(events_);
  }

  std::size_t slices() const override { return bounds_.size(); }

  void run_slice(std::size_t i) override {
    events_.run_until(bounds_[i]);
    pending_.push_back(events_.pending());
    at_bound(bounds_[i]);
  }

 protected:
  // Slice k ends at T(step * k), k = 1..n. Scripted actions compare
  // against T() of the same multiples, so bounds must come from T too.
  template <typename TimeOf>
  void set_timeline(int n, double step, TimeOf T) {
    for (int k = 1; k <= n; ++k) bounds_.push_back(T(step * k));
  }

  // Called after the slice ending at `t`: the workload's scripted actions.
  virtual void at_bound(SimTime t) = 0;

  // Counters every workload shares; `queues` lists all of its queues.
  Counters base_counters(const std::vector<const net::Queue*>& queues) const {
    Counters c;
    c.events = events_.events_processed();
    for (const net::Queue* q : queues) {
      c.queue_arrivals += q->arrivals();
      c.queue_drops += q->drops();
    }
    if (const net::PacketPool* pool = net::PacketPool::find(events_)) {
      c.pool_allocs = pool->total_allocated();
      c.pool_releases = pool->total_released();
      c.pool_outstanding = pool->outstanding();
      c.pool_peak = pool->peak_outstanding();
    }
    c.scheduler_switches = scheduler_switches(events_);
    if (!pending_.empty()) {
      std::vector<std::size_t> p = pending_;
      std::nth_element(p.begin(), p.begin() + p.size() / 2, p.end());
      c.pending_median = p[p.size() / 2];
    }
    return c;
  }

  EventList& events() { return events_; }
  Instruments& ins() { return ins_; }

 private:
  EventList events_;
  Instruments ins_;
  std::vector<SimTime> bounds_;
  std::vector<std::size_t> pending_;
};

// --- fattree_tp1 ---------------------------------------------------------
// bench_fattree_shard's sequential job: FatTree k=8, TP1 permutation, LIA
// over 8 sampled subflows, 10 ms RTO floor, 4096-packet receive buffer.
class FattreeTp1 final : public SimBase {
 public:
  static constexpr double kScale = 0.1;  // MPSIM_BENCH_SCALE of the bench

  FattreeTp1(std::uint64_t seed, const BuildOptions& o, BuildTimes& bt)
      : SimBase(o) {
    const std::int64_t c0 = clock_ns();
    net_ = std::make_unique<topo::Network>(events());
    ft_ = std::make_unique<topo::FatTree>(*net_, 8);
    const std::int64_t c1 = clock_ns();

    Rng tm_rng(4242 + seed);  // seed 1 -> the bench's tm seed 4243
    const auto tm = traffic::permutation_tm(ft_->num_hosts(), tm_rng);
    Rng path_rng(seed);
    mptcp::ConnectionConfig ccfg;
    ccfg.subflow.min_rto = from_ms(10);
    ccfg.recv_buffer_pkts = 4096;
    const cc::CongestionControl& algo = ins().cc(cc::mptcp_lia());
    flows_.reserve(tm.size());
    int idx = 0;
    for (const auto& pair : tm) {
      auto conn = std::make_unique<mptcp::MptcpConnection>(
          events(), "f" + std::to_string(idx), algo, ccfg);
      for (auto& pr : topo::sample_path_pairs(*ft_, pair.src, pair.dst, 8,
                                              path_rng)) {
        conn->add_subflow(ins().fwd(std::move(pr.first)),
                          ins().rev(std::move(pr.second)));
      }
      conn->start(T(0.0005 * static_cast<double>(idx % 997)));
      flows_.push_back(std::move(conn));
      ++idx;
    }
    const std::int64_t c2 = clock_ns();
    bt.topo_s += seconds_between(c0, c1);
    bt.connect_s += seconds_between(c1, c2);

    t0_ = T(1.0);
    t1_ = T(4.0);
    set_timeline(16, 0.25, T);
  }

  Counters counters() const override {
    std::vector<const net::Queue*> qs = ft_->access_queues();
    for (const net::Queue* q : ft_->core_queues()) qs.push_back(q);
    Counters c = base_counters(qs);
    for (std::size_t i = 0; i < flows_.size(); ++i) {
      add_connection(c, *flows_[i]);
      c.measured_pkts += flows_[i]->delivered_pkts() - at_mark_[i];
    }
    c.goodput_mbps = mbps(c.measured_pkts, t1_ - t0_);
    return c;
  }

 private:
  static SimTime T(double sec) { return from_sec(sec * kScale); }

  void at_bound(SimTime t) override {
    if (t != t0_) return;
    for (const auto& f : flows_) at_mark_.push_back(f->delivered_pkts());
  }

  std::unique_ptr<topo::Network> net_;
  std::unique_ptr<topo::FatTree> ft_;
  std::vector<std::unique_ptr<mptcp::MptcpConnection>> flows_;
  std::vector<std::uint64_t> at_mark_;
  SimTime t0_ = 0;
  SimTime t1_ = 0;
};

// --- twolink_rate --------------------------------------------------------
// bench_pacing's rate run: one Coupled BBR connection over the
// RTT-mismatched fast two-link (20k pkt/s at 5 ms, 10k pkt/s at 20 ms).
// Other seeds vary the buffer depth and the start time.
class TwolinkRate final : public SimBase {
 public:
  static constexpr double kScale = 0.5;

  TwolinkRate(std::uint64_t seed, const BuildOptions& o, BuildTimes& bt)
      : SimBase(o) {
    double bdp_mult = 1.0;
    SimTime start = 0;
    if (seed != kDefaultSeed) {
      Rng r(seed);
      bdp_mult = 0.75 + 0.5 * r.next_double();
      start = from_us(static_cast<double>(r.next_below(1000)));
    }
    const std::int64_t c0 = clock_ns();
    net_ = std::make_unique<topo::Network>(events());
    links_ = std::make_unique<topo::TwoLink>(
        *net_, topo::LinkSpec::pkt_rate(20000.0, from_ms(5), bdp_mult),
        topo::LinkSpec::pkt_rate(10000.0, from_ms(20), bdp_mult));
    const std::int64_t c1 = clock_ns();
    conn_ = std::make_unique<mptcp::MptcpConnection>(
        events(), "m", ins().cc(cc::coupled_bbr()));
    conn_->add_subflow(ins().fwd(links_->fwd(0)), ins().rev(links_->rev(0)));
    conn_->add_subflow(ins().fwd(links_->fwd(1)), ins().rev(links_->rev(1)));
    conn_->start(start);
    const std::int64_t c2 = clock_ns();
    bt.topo_s += seconds_between(c0, c1);
    bt.connect_s += seconds_between(c1, c2);

    t0_ = T(1);
    t1_ = T(6);
    set_timeline(24, 0.25, T);
  }

  Counters counters() const override {
    Counters c = base_counters({&links_->queue(0), &links_->queue(1)});
    add_connection(c, *conn_);
    c.measured_pkts = conn_->delivered_pkts() - at_mark_;
    c.goodput_mbps = mbps(c.measured_pkts, t1_ - t0_);
    return c;
  }

 private:
  // bench_pacing stretches its timeline 4x.
  static SimTime T(double sec) { return from_sec(4.0 * sec * kScale); }

  void at_bound(SimTime t) override {
    if (t == t0_) at_mark_ = conn_->delivered_pkts();
  }

  std::unique_ptr<topo::Network> net_;
  std::unique_ptr<topo::TwoLink> links_;
  std::unique_ptr<mptcp::MptcpConnection> conn_;
  std::uint64_t at_mark_ = 0;
  SimTime t0_ = 0;
  SimTime t1_ = 0;
};

// --- churn_outage --------------------------------------------------------
// bench_churn_lb: Poisson arrivals of Pareto-sized multipath transfers under
// a threshold PathManager over two 400 Mb/s links, one TCP per link plus a
// long-lived multipath connection, link 2 down mid-run, completed flows
// reclaimed. The seed is the arrival seed.
class ChurnOutage final : public SimBase {
 public:
  static constexpr double kScale = 0.5;

  ChurnOutage(std::uint64_t seed, const BuildOptions& o, BuildTimes& bt)
      : SimBase(o) {
    const std::int64_t c0 = clock_ns();
    net_ = std::make_unique<topo::Network>(events());
    l1_ = net_->add_link("l1", 400e6, from_ms(5),
                         topo::bdp_bytes(400e6, from_ms(10)));
    a1_ = &net_->add_pipe("a1", from_ms(5));
    l2_ = net_->add_variable_link("l2", 400e6, from_ms(5),
                                  topo::bdp_bytes(400e6, from_ms(10)));
    a2_ = &net_->add_pipe("a2", from_ms(5));
    vq_ = static_cast<net::VariableRateQueue*>(l2_.queue);
    const std::int64_t c1 = clock_ns();

    pm_cfg_.strategy = mptcp::PathStrategy::kThreshold;
    pm_cfg_.add_threshold_bytes = 64 * 1024;
    pm_cfg_.max_subflows = 2;
    pm_cfg_.scan_period = from_ms(50);
    pm_cfg_.reprobe_backoff = from_ms(500);
    pm_cfg_.dead_after_rtos = 2;

    traffic::PoissonConfig pcfg;
    pcfg.light_rate_per_sec = 100.0;
    pcfg.heavy_rate_per_sec = 200.0;
    pcfg.phase_duration = T(5);
    pcfg.mean_flow_bytes = 150e3;
    pcfg.seed = seed;
    gen_ = std::make_unique<traffic::PoissonFlowGenerator>(
        events(), "churn", pcfg,
        [this](const std::string& name, std::uint64_t pkts) {
          return open_flow(name, pkts);
        });
    gen_->on_reclaim = [this](mptcp::MptcpConnection& c) {
      add_connection(reclaimed_, c);
    };

    tcp1_ = make_tcp("tcp1", topo::path_of({&l1_}), {a1_});
    tcp2_ = make_tcp("tcp2", topo::path_of({&l2_}), {a2_});
    mp_bg_ = make_mp("mp_bg", 0);  // long-lived

    gen_->start(0);
    tcp1_->start(from_ms(3));
    tcp2_->start(from_ms(5));
    mp_bg_->start(from_ms(7));
    const std::int64_t c2 = clock_ns();
    bt.topo_s += seconds_between(c0, c1);
    bt.connect_s += seconds_between(c1, c2);

    set_timeline(25, 1.0, T);
  }

  Counters counters() const override {
    Counters c = base_counters({l1_.queue, l2_.queue});
    const Counters& r = reclaimed_;
    c.delivered_pkts = r.delivered_pkts;
    c.packets_sent = r.packets_sent;
    c.retransmits = r.retransmits;
    c.timeouts = r.timeouts;
    c.rx_packets = r.rx_packets;
    c.duplicates = r.duplicates;
    c.reinjections = r.reinjections;
    c.wire_refs = r.wire_refs;
    c.subflow_drops = r.subflow_drops;
    c.reprobes = r.reprobes;
    for (const auto& f : gen_->held()) add_connection(c, *f);
    add_connection(c, *tcp1_);
    add_connection(c, *tcp2_);
    add_connection(c, *mp_bg_);
    c.flows_started = gen_->flows_started();
    c.flows_completed = gen_->flows_completed();
    c.flows_reclaimed = gen_->flows_reclaimed();
    // As bench_churn_lb: deliveries through the drain, over T(2)..T(22).
    c.measured_pkts = mp_bg_->delivered_pkts() - bg_mark_;
    c.goodput_mbps = mbps(c.measured_pkts, T(22) - T(2));
    return c;
  }

 private:
  // bench_churn_lb stretches its timeline 4x.
  static SimTime T(double sec) { return from_sec(4.0 * sec * kScale); }

  void at_bound(SimTime t) override {
    if (t == T(2)) {
      bg_mark_ = mp_bg_->delivered_pkts();
    } else if (t == T(8)) {
      vq_->set_rate(0.0);
    } else if (t == T(13)) {
      vq_->set_rate(400e6);
    } else if (t == T(22)) {
      events().cancel(*gen_);  // stop admitting; drain what is in flight
    } else if (t == T(25)) {
      gen_->reclaim_completed();
    }
  }

  std::unique_ptr<mptcp::MptcpConnection> make_mp(const std::string& name,
                                                  std::uint64_t pkts) {
    mptcp::ConnectionConfig cfg;
    cfg.app_limit_pkts = pkts;
    cfg.subflow.min_rto = from_ms(50);
    auto conn = std::make_unique<mptcp::MptcpConnection>(
        events(), name, ins().cc(cc::mptcp_lia()), cfg);
    auto& pm = conn->attach_path_manager(pm_cfg_);
    pm.add_candidate(ins().fwd(topo::path_of({&l1_})), ins().rev({a1_}));
    pm.add_candidate(ins().fwd(topo::path_of({&l2_})), ins().rev({a2_}));
    return conn;
  }

  // mptcp::make_single_path_tcp, with a traceable algorithm.
  std::unique_ptr<mptcp::MptcpConnection> make_tcp(const std::string& name,
                                                   topo::Path fwd,
                                                   topo::Path rev) {
    auto conn = std::make_unique<mptcp::MptcpConnection>(
        events(), name, ins().cc(cc::uncoupled()));
    conn->add_subflow(ins().fwd(std::move(fwd)), ins().rev(std::move(rev)));
    return conn;
  }

  std::unique_ptr<mptcp::MptcpConnection> open_flow(const std::string& name,
                                                    std::uint64_t pkts) {
    if (Tracer* t = ins().tracer()) {
      Span s(*t, kOpen);
      auto conn = make_mp(name, pkts);
      conn->start(events().now());
      t->tag_flow(conn->flow_id());
      return conn;
    }
    auto conn = make_mp(name, pkts);
    conn->start(events().now());
    return conn;
  }

  std::unique_ptr<topo::Network> net_;
  topo::Link l1_;
  topo::Link l2_;
  net::Pipe* a1_ = nullptr;
  net::Pipe* a2_ = nullptr;
  net::VariableRateQueue* vq_ = nullptr;
  mptcp::PathManagerConfig pm_cfg_;
  Counters reclaimed_;  // harvested from flows as they are reclaimed
  // The generator owns the churn flows; declared before the persistent
  // connections so it is destroyed after them, like the bench's locals.
  std::unique_ptr<traffic::PoissonFlowGenerator> gen_;
  std::unique_ptr<mptcp::MptcpConnection> tcp1_;
  std::unique_ptr<mptcp::MptcpConnection> tcp2_;
  std::unique_ptr<mptcp::MptcpConnection> mp_bg_;
  std::uint64_t bg_mark_ = 0;
};

}  // namespace

std::optional<Workload> parse_workload(const std::string& name) {
  if (name == "fattree_tp1") return Workload::kFattreeTp1;
  if (name == "twolink_rate") return Workload::kTwolinkRate;
  if (name == "churn_outage") return Workload::kChurnOutage;
  return std::nullopt;
}

std::unique_ptr<Sim> build(Workload w, std::uint64_t seed,
                           const BuildOptions& opts, BuildTimes& times) {
  switch (w) {
    case Workload::kFattreeTp1:
      return std::make_unique<FattreeTp1>(seed, opts, times);
    case Workload::kTwolinkRate:
      return std::make_unique<TwolinkRate>(seed, opts, times);
    case Workload::kChurnOutage:
      return std::make_unique<ChurnOutage>(seed, opts, times);
  }
  return nullptr;
}

}  // namespace perfbench
