// Every builtin registry entry, in one translation unit.
//
// Each registration is one kind: its key, one line of help, its key table
// (every key its section may hold, with type, default, range and doc) and
// its builder, which reads the section already checked against that table.
// tools/mpsim_analyze's registry-discipline rule pins all registrations to
// this file, checks the keys are lowercase and unique per kind and the
// tables free of duplicate rows, and checks that every literal key a
// builder reads is declared in its kind's table, so `mpsim list`, README's
// key reference and the spec grammar can never drift apart.
//
// Construction order is part of a spec's output: element construction order
// determines names, event ordering and rng draws. test_scenario_roundtrip
// pins the torus, FatTree and wireless builders against direct C++
// constructions, and the golden traces pin whole runs byte for byte.
#include <algorithm>
#include <array>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "cc/balia.hpp"
#include "cc/coupled.hpp"
#include "cc/coupled_bbr.hpp"
#include "cc/ewtcp.hpp"
#include "cc/mptcp_lia.hpp"
#include "cc/olia.hpp"
#include "cc/rfc6356.hpp"
#include "cc/semicoupled.hpp"
#include "cc/uncoupled.hpp"
#include "core/env.hpp"
#include "scenario/registry.hpp"
#include "stats/monitors.hpp"
#include "stats/summary.hpp"
#include "topo/bcube.hpp"
#include "topo/fat_tree.hpp"
#include "topo/parking_lot.hpp"
#include "topo/ring.hpp"
#include "topo/two_link.hpp"
#include "topo/wireless.hpp"
#include "traffic/poisson_flows.hpp"
#include "traffic/traffic_matrix.hpp"

namespace mpsim::scenario {
namespace {

using enum KeyType;

// `a` followed by `b`: a kind's table built from rows several kinds share.
KeyTable join(KeyTable a, const KeyTable& b) {
  a.insert(a.end(), b.begin(), b.end());
  return a;
}

// ---------------------------------------------------------------------------
// Topologies
// ---------------------------------------------------------------------------

// Every queue-buffer row's range: a buffer below one data packet drops
// every packet.
constexpr Range kHoldsAPacket = at_least(net::kDataPacketBytes);

// two_link's keys for link `i` (1 or 2).
KeyTable link_keys(int i) {
  const std::string l = "link" + std::to_string(i);
  const std::string link = "link " + std::to_string(i);
  return {
      {l + "_rate", kRate, "100Mbps", link + "'s rate", above(0)},
      {l + "_delay", kTime, "5ms", link + "'s one-way delay, each way"},
      {l + "_buf", kBytes, "50pkt", link + "'s buffer", kHoldsAPacket, {},
       "buffer_bdp"},
      {l + "_loss", kNumber, "",
       "Bernoulli loss in front of " + link + "'s queue (default: none)",
       Range{.lo = 0, .hi = 1, .hi_open = true}},
      {l + "_cbr_rate", kRate, "",
       "on/off CBR cross-traffic through " + link + " (default: none)",
       above(0)},
      {l + "_cbr_on", kTime, kRequired,
       "mean CBR on period (\"0s\" on and off: always on)", {}, {}, "",
       l + "_cbr_rate"},
      {l + "_cbr_off", kTime, kRequired, "mean CBR off period", {}, {}, "",
       l + "_cbr_rate"},
  };
}

// ---------------------------------------------------------------------------
// Traffic models
// ---------------------------------------------------------------------------

// Every min_rto row's range: a floor above SubflowConfig's max_rto would
// invert RttEstimator's clamp.
constexpr Range kMinRtoRange{.lo = 0,
                             .hi = to_sec(tcp::SubflowConfig{}.max_rto)};

// "0", "1", "0+1", ... — '+'-joined path indices for one flow.
std::vector<int> parse_path_set(const std::string& text, const Section& s) {
  std::vector<int> idxs;
  std::size_t pos = 0;
  while (pos <= text.size()) {
    const std::size_t plus = text.find('+', pos);
    const std::string part =
        text.substr(pos, plus == std::string::npos ? std::string::npos
                                                   : plus - pos);
    double index = 0.0;
    if (part.find_first_not_of("0123456789") != std::string::npos ||
        !env::parse_double(part, index)) {
      s.fail("flow path set '" + text +
             "' must be '+'-joined path indices like \"0+1\"");
    }
    if (index > count_max<int>()) {
      s.fail("flow path set '" + text + "': path index must be an integer "
             "in [0, " + std::to_string(count_max<int>()) + "], got '" +
             part + "'");
    }
    idxs.push_back(static_cast<int>(index));
    if (plus == std::string::npos) break;
    pos = plus + 1;
  }
  return idxs;
}

struct FlowSpec {
  std::vector<int> paths;  // path indices within the flow's slot
  std::string name;
  SimTime start = 0;
  std::string algo;  // "" = the run's [algorithm] instance
};

class PersistentTraffic final : public TrafficModel {
 public:
  explicit PersistentTraffic(const Args& a) : section_(a) {
    if (a.has("flows")) {
      for (const std::string& f : a.get_string_array("flows")) {
        FlowSpec fs;
        fs.paths = parse_path_set(f, a);
        flows_.push_back(std::move(fs));
      }
    } else {
      count_ = a.has("count") ? a.get_count<int>("count") : -1;
      subflows_ = a.get_count<int>("subflows");
    }
    if (a.has("starts")) starts_ = a.get_time_array("starts");
    start_ = a.get_time("start");
    stagger_ = a.get_time("stagger");
    if (a.has("names")) names_ = a.get_string_array("names");
    if (a.has("algos")) algos_ = a.get_string_array("algos");
    recv_buffer_pkts_ = a.has("recv_buffer_pkts")
                            ? a.get_count<std::uint64_t>("recv_buffer_pkts")
                            : mptcp::ConnectionConfig{}.recv_buffer_pkts;
    app_limit_pkts_ = a.get_count<std::uint64_t>("app_limit_pkts");
    min_rto_ = a.has("min_rto") ? a.get_time("min_rto")
                                : tcp::SubflowConfig{}.min_rto;
  }

  void build(EventList& events, topo::Topology& topo,
             const AlgorithmInstance& algo, Rng& rng,
             const BuildEnv& env) override {
    (void)rng;  // persistent paths are the slots' canonical ones
    std::vector<FlowSpec> flows = flows_;
    if (flows.empty()) {
      const int n = count_ >= 0 ? count_ : topo.flow_slots();
      if (n <= 0) {
        section_.fail(
            "this topology has no flow slots; give an explicit 'count'");
      }
      for (int i = 0; i < n; ++i) {
        FlowSpec fs;
        const int nsub = algo.single_path ? 1 : subflows_;
        for (int p = 0; p < nsub; ++p) fs.paths.push_back(p);
        flows.push_back(std::move(fs));
      }
    }
    // Per-flow arrays may be shorter than the flow list (the rest take the
    // defaults) but never longer: an extra entry would silently do nothing.
    auto check_length = [&](const char* key, std::size_t n) {
      if (n <= flows.size()) return;
      section_.fail_at(
          section_.find(key)->line,
          "'" + std::string(key) + "' lists " + std::to_string(n) +
              " entries for " + std::to_string(flows.size()) + " flow" +
              (flows.size() == 1 ? "" : "s"));
    };
    check_length("starts", starts_.size());
    check_length("names", names_.size());
    check_length("algos", algos_.size());
    for (std::size_t i = 0; i < flows.size(); ++i) {
      if (i < names_.size()) flows[i].name = names_[i];
      if (flows[i].name.empty()) {
        flows[i].name = "flow" + std::to_string(i);
      }
      if (i < starts_.size()) {
        flows[i].start = starts_[i];
      } else if (starts_.empty()) {
        flows[i].start =
            start_ + static_cast<SimTime>(i) * stagger_;
      } else {
        section_.fail("'starts' must list one time per flow");
      }
      if (i < algos_.size()) flows[i].algo = algos_[i];
    }

    mptcp::ConnectionConfig ccfg;
    ccfg.recv_buffer_pkts = recv_buffer_pkts_;
    ccfg.app_limit_pkts = app_limit_pkts_;
    ccfg.subflow.min_rto = min_rto_;
    ccfg.scheduler = env.scheduler;

    // With a [path_manager] section, the flow's path set becomes the
    // manager's candidate list and the manager decides what actually opens
    // (and when); without one, every listed path opens immediately.
    const int slots = topo.flow_slots();
    for (std::size_t i = 0; i < flows.size(); ++i) {
      const FlowSpec& fs = flows[i];
      AlgorithmInstance local;
      const AlgorithmInstance* use = &algo;
      if (!fs.algo.empty()) {
        local = algorithm_at_defaults(fs.algo, section_);
        use = &local;
      }
      std::vector<int> paths = fs.paths;
      if (use->single_path && paths.size() > 1) paths = {paths.front()};
      int max_idx = 0;
      for (int p : paths) max_idx = p > max_idx ? p : max_idx;
      const int slot = slots > 0 ? static_cast<int>(i) % slots : 0;
      auto pairs = topo.flow_paths(slot, max_idx + 1);
      if (static_cast<std::size_t>(max_idx) >= pairs.size()) {
        section_.fail("flow " + std::to_string(i) +
                      " references path index " + std::to_string(max_idx) +
                      " but the topology offers only " +
                      std::to_string(pairs.size()));
      }
      auto conn = std::make_unique<mptcp::MptcpConnection>(
          events, fs.name, *use->cc, ccfg);
      if (env.path_manager.has_value()) {
        auto& pm = conn->attach_path_manager(*env.path_manager);
        for (int p : paths) {
          pm.add_candidate(pairs[static_cast<std::size_t>(p)].first,
                           pairs[static_cast<std::size_t>(p)].second);
        }
      } else {
        for (int p : paths) {
          conn->add_subflow(pairs[static_cast<std::size_t>(p)].first,
                            pairs[static_cast<std::size_t>(p)].second);
        }
      }
      conn->start(env.scaled_start(fs.start));
      if (use == &local) owned_algos_.push_back(std::move(local.cc));
      conns_.push_back(std::move(conn));
    }
  }

 private:
  Section section_;  // diagnostics
  std::vector<FlowSpec> flows_;
  int count_ = -1;
  int subflows_ = 2;
  SimTime start_ = 0;
  SimTime stagger_ = 0;
  std::vector<SimTime> starts_;
  std::vector<std::string> names_;
  std::vector<std::string> algos_;
  std::uint64_t recv_buffer_pkts_;
  std::uint64_t app_limit_pkts_;
  SimTime min_rto_;
  std::vector<std::unique_ptr<const cc::CongestionControl>> owned_algos_;
};

// The §4 traffic matrices: flow idx gets name "f<idx>", starts at
// 0.5 ms * (idx % 997) (unscaled — starts only de-synchronize), and
// single-path runs sample one path (the paper's ECMP stand-in).
class MatrixTraffic final : public TrafficModel {
 public:
  // The (src, dst) pairs over `hosts` hosts; none = the topology's
  // neighbour matrix.
  using Matrix = std::function<std::vector<traffic::FlowPair>(int hosts)>;

  MatrixTraffic(const Args& a, Matrix matrix)
      : section_(a), matrix_(std::move(matrix)) {
    subflows_ = a.get_count<int>("subflows");
    min_rto_ = a.get_time("min_rto");
    recv_buffer_pkts_ = a.get_count<std::uint64_t>("recv_buffer_pkts");
  }

  void build(EventList& events, topo::Topology& topo,
             const AlgorithmInstance& algo, Rng& rng,
             const BuildEnv& env) override {
    hosts_ = topo.num_hosts();
    if (hosts_ <= 0) {
      section_.fail("matrix traffic needs a host-addressable topology "
                    "(fat_tree, bcube)");
    }
    std::vector<std::pair<int, int>> tm;
    if (!matrix_) {
      tm = topo.neighbor_pairs();
      if (tm.empty()) {
        section_.fail("this topology has no neighbour traffic matrix");
      }
    } else {
      for (const auto& p : matrix_(hosts_)) tm.emplace_back(p.src, p.dst);
    }

    mptcp::ConnectionConfig ccfg;
    ccfg.subflow.min_rto = min_rto_;
    ccfg.recv_buffer_pkts = recv_buffer_pkts_;
    ccfg.scheduler = env.scheduler;
    int idx = 0;
    for (const auto& [src, dst] : tm) {
      auto conn = std::make_unique<mptcp::MptcpConnection>(
          events, "f" + std::to_string(idx), *algo.cc, ccfg);
      auto paths =
          topo.host_paths(src, dst, algo.single_path ? 1 : subflows_, rng);
      for (auto& pr : paths) {
        conn->add_subflow(pr.first, pr.second);
      }
      conn->start(from_ms(0.5 * static_cast<double>(idx % 997)));
      conns_.push_back(std::move(conn));
      ++idx;
    }
  }

  int host_count() const override { return hosts_; }

 private:
  Section section_;  // diagnostics
  Matrix matrix_;
  int subflows_ = 8;
  SimTime min_rto_;
  std::uint64_t recv_buffer_pkts_;
  int hosts_ = 0;
};

// The arrival process of the Poisson-arrival models. A kind without a
// static heavy_rate_per_sec default alternates nothing: heavy = light.
traffic::PoissonConfig arrivals(const Args& a) {
  traffic::PoissonConfig c;
  c.light_rate_per_sec = a.get_number("light_rate_per_sec");
  c.heavy_rate_per_sec = a.has("heavy_rate_per_sec")
                             ? a.get_number("heavy_rate_per_sec")
                             : c.light_rate_per_sec;
  c.pareto_shape = a.get_number("pareto_shape");
  c.mean_flow_bytes = a.get_number("mean_flow_bytes");
  return c;
}

// `s`'s phase at this run's --scale: the arrival process divides by it.
SimTime scaled_phase(const Section& s, SimTime phase, const BuildEnv& env) {
  const SimTime scaled = env.scaled(phase);
  if (scaled <= 0) s.fail_at(s.find("phase")->line, "phase must be positive");
  return scaled;
}

// §3's dynamic server workload: Poisson single-path arrivals on path 0,
// one long-lived TCP on path 1, and a set of multipath companions using
// both paths — all simultaneously, as the paper ran them. The run seed
// drives the arrival process, so [run] seeds sweeps arrival randomness.
class PoissonTraffic final : public TrafficModel {
 public:
  explicit PoissonTraffic(const Args& a)
      : section_(a),
        pcfg_(arrivals(a)),
        phase_(a.get_time("phase")),
        long_tcp_(a.get_bool("long_tcp")),
        companions_(a.get_string_array("companions")) {}

  void build(EventList& events, topo::Topology& topo,
             const AlgorithmInstance& algo, Rng& rng,
             const BuildEnv& env) override {
    (void)algo;  // per-companion algorithms below
    (void)rng;
    pcfg_.phase_duration = scaled_phase(section_, phase_, env);
    pcfg_.seed = env.seed;
    auto pairs = topo.flow_paths(0, 2);
    if (pairs.size() < 2) {
      section_.fail("poisson traffic needs a two-path flow slot");
    }
    gen_ = std::make_unique<traffic::PoissonFlowGenerator>(
        events, "poisson", pcfg_,
        [&events, pairs](const std::string& name, std::uint64_t pkts) {
          mptcp::ConnectionConfig cfg;
          cfg.app_limit_pkts = pkts;
          auto conn = mptcp::make_single_path_tcp(
              events, name, pairs[0].first, pairs[0].second, cfg);
          conn->start(events.now());
          return conn;
        });
    if (long_tcp_) {
      conns_.push_back(mptcp::make_single_path_tcp(
          events, "long", pairs[1].first, pairs[1].second));
    }
    mptcp::ConnectionConfig comp_cfg;
    comp_cfg.scheduler = env.scheduler;
    for (const std::string& kind : companions_) {
      AlgorithmInstance inst = algorithm_at_defaults(kind, section_);
      auto conn = std::make_unique<mptcp::MptcpConnection>(events, kind,
                                                           *inst.cc,
                                                           comp_cfg);
      conn->add_subflow(pairs[0].first, pairs[0].second);
      conn->add_subflow(pairs[1].first, pairs[1].second);
      conns_.push_back(std::move(conn));
      owned_algos_.push_back(std::move(inst.cc));
    }
    // Start stagger: generator at 0, long TCP at 3 ms, companions at 7,
    // 13, 19, ... ms.
    gen_->start(0);
    std::size_t c = 0;
    for (auto& conn : conns_) {
      if (long_tcp_ && c == 0) {
        conn->start(from_ms(3));
      } else {
        const std::size_t k = c - (long_tcp_ ? 1 : 0);
        conn->start(from_ms(7 + 6 * static_cast<double>(k)));
      }
      ++c;
    }
  }

  void record_metrics(runner::RunContext& ctx) const override {
    if (gen_ == nullptr) return;
    ctx.record("poisson_flows_started",
               static_cast<double>(gen_->flows_started()));
    ctx.record("poisson_flows_completed",
               static_cast<double>(gen_->flows_completed()));
  }

 private:
  Section section_;  // diagnostics
  traffic::PoissonConfig pcfg_;
  SimTime phase_;
  bool long_tcp_;
  std::vector<std::string> companions_;
  std::unique_ptr<traffic::PoissonFlowGenerator> gen_;
  std::vector<std::unique_ptr<const cc::CongestionControl>> owned_algos_;
};

// Fig. 10's server load balancer generalized into a churn workload: Poisson
// arrivals of *finite multipath* connections, each with its own PathManager
// over the two paths of flow slot 0, running against persistent background
// load — `tcp_link1`/`tcp_link2` single-path TCPs pinned to each path and
// `mp_count` long-lived multipath connections under the run's [algorithm].
// Completed arrivals are reclaimed (destroyed, pool/arena state returned)
// once their wire-reference ledger drains, so the connection population
// tracks the live flow count over arbitrarily long runs.
class ChurnTraffic final : public TrafficModel {
 public:
  explicit ChurnTraffic(const Args& a)
      : section_(a),
        pcfg_(arrivals(a)),
        phase_(a.get_time("phase")),
        tcp_link1_(a.get_count<int>("tcp_link1")),
        tcp_link2_(a.get_count<int>("tcp_link2")),
        mp_count_(a.get_count<int>("mp_count")),
        min_rto_(a.has("min_rto") ? a.get_time("min_rto")
                                  : tcp::SubflowConfig{}.min_rto),
        recv_buffer_pkts_(
            a.has("recv_buffer_pkts")
                ? a.get_count<std::uint64_t>("recv_buffer_pkts")
                : mptcp::ConnectionConfig{}.recv_buffer_pkts) {}

  void build(EventList& events, topo::Topology& topo,
             const AlgorithmInstance& algo, Rng& rng,
             const BuildEnv& env) override {
    (void)rng;
    pcfg_.phase_duration = scaled_phase(section_, phase_, env);
    pcfg_.seed = env.seed;
    auto pairs = topo.flow_paths(0, 2);
    if (pairs.size() < 2) {
      section_.fail("churn traffic needs a two-path flow slot");
    }
    mptcp::PathManagerConfig pm_cfg =
        env.path_manager.value_or(mptcp::PathManagerConfig{});
    if (algo.single_path) pm_cfg.max_subflows = 1;

    mptcp::ConnectionConfig ccfg;
    ccfg.subflow.min_rto = min_rto_;
    ccfg.recv_buffer_pkts = recv_buffer_pkts_;
    ccfg.scheduler = env.scheduler;

    const cc::CongestionControl* cc = algo.cc.get();
    gen_ = std::make_unique<traffic::PoissonFlowGenerator>(
        events, "churn", pcfg_,
        [&events, pairs, cc, ccfg, pm_cfg](const std::string& name,
                                           std::uint64_t pkts) {
          mptcp::ConnectionConfig cfg = ccfg;
          cfg.app_limit_pkts = pkts;
          auto conn = std::make_unique<mptcp::MptcpConnection>(events, name,
                                                               *cc, cfg);
          auto& pm = conn->attach_path_manager(pm_cfg);
          pm.add_candidate(pairs[0].first, pairs[0].second);
          pm.add_candidate(pairs[1].first, pairs[1].second);
          conn->start(events.now());
          return conn;
        });
    // PathManager counters die with their reclaimed flow; bank them here so
    // record_metrics can report run totals.
    gen_->on_reclaim = [this](mptcp::MptcpConnection& c) {
      bank_pm(c);
    };

    for (int i = 0; i < tcp_link1_; ++i) {
      conns_.push_back(mptcp::make_single_path_tcp(
          events, "tcp1_" + std::to_string(i), pairs[0].first,
          pairs[0].second, ccfg));
    }
    for (int i = 0; i < tcp_link2_; ++i) {
      conns_.push_back(mptcp::make_single_path_tcp(
          events, "tcp2_" + std::to_string(i), pairs[1].first,
          pairs[1].second, ccfg));
    }
    for (int i = 0; i < mp_count_; ++i) {
      auto conn = std::make_unique<mptcp::MptcpConnection>(
          events, "mp" + std::to_string(i), *algo.cc, ccfg);
      auto& pm = conn->attach_path_manager(pm_cfg);
      pm.add_candidate(pairs[0].first, pairs[0].second);
      pm.add_candidate(pairs[1].first, pairs[1].second);
      conns_.push_back(std::move(conn));
    }

    // Generator at 0; background flows staggered (3, 5, 7, ... ms) only to
    // de-synchronize their slow starts, like the other models do.
    gen_->start(0);
    for (std::size_t i = 0; i < conns_.size(); ++i) {
      conns_[i]->start(from_ms(3 + 2 * static_cast<double>(i)));
    }
  }

  void record_metrics(runner::RunContext& ctx) const override {
    if (gen_ == nullptr) return;
    // Final sweep: anything whose ledger drained by end of run is counted
    // as reclaimed, not as still-held.
    gen_->reclaim_completed();
    ctx.record("churn_flows_started",
               static_cast<double>(gen_->flows_started()));
    ctx.record("churn_flows_completed",
               static_cast<double>(gen_->flows_completed()));
    ctx.record("churn_flows_reclaimed",
               static_cast<double>(gen_->flows_reclaimed()));
    ctx.record("churn_flows_held", static_cast<double>(gen_->flows_held()));
    // Banked counters from reclaimed flows + live counters from everything
    // still alive (held arrivals and the persistent multipath set).
    std::uint64_t opened = pm_opened_;
    std::uint64_t dropped = pm_dropped_;
    std::uint64_t reprobes = pm_reprobes_;
    auto add = [&](const mptcp::MptcpConnection& c) {
      if (const auto* pm = c.path_manager()) {
        opened += pm->subflows_opened();
        dropped += pm->subflows_dropped();
        reprobes += pm->reprobes();
      }
    };
    for (const auto& c : gen_->held()) add(*c);
    for (const auto& c : conns_) add(*c);
    ctx.record("churn_subflows_added", static_cast<double>(opened));
    ctx.record("churn_subflows_dropped", static_cast<double>(dropped));
    ctx.record("churn_subflow_reprobes", static_cast<double>(reprobes));
  }

 private:
  void bank_pm(const mptcp::MptcpConnection& c) {
    if (const auto* pm = c.path_manager()) {
      pm_opened_ += pm->subflows_opened();
      pm_dropped_ += pm->subflows_dropped();
      pm_reprobes_ += pm->reprobes();
    }
  }

  Section section_;  // diagnostics
  traffic::PoissonConfig pcfg_;
  SimTime phase_;
  int tcp_link1_;
  int tcp_link2_;
  int mp_count_;
  SimTime min_rto_;
  std::uint64_t recv_buffer_pkts_;
  std::unique_ptr<traffic::PoissonFlowGenerator> gen_;
  std::uint64_t pm_opened_ = 0;
  std::uint64_t pm_dropped_ = 0;
  std::uint64_t pm_reprobes_ = 0;
};

// An algorithm kind without parameters.
template <typename CC>
AlgorithmBuilder plain(bool single_path = false) {
  return [single_path](const Args&) {
    return AlgorithmInstance{std::make_unique<CC>(), single_path};
  };
}

// ---------------------------------------------------------------------------
// Registrations
// ---------------------------------------------------------------------------

Registry make_builtin_registry() {
  Registry r;

  r.topologies.add(
      "two_link",
      "client/server over two disjoint bottleneck links; optional fixed "
      "loss and on/off CBR per link",
      join(join(link_keys(1), link_keys(2)),
           {{"buffer_bdp", kNumber, "",
             "both buffers at this multiple of their own link's "
             "bandwidth-delay product (default: link<i>_buf)",
             above(0)}}),
      [](topo::Network& net, const Args& a, const BuildEnv& env) {
        std::array<topo::LinkSpec, 2> specs;
        for (std::size_t i = 0; i < 2; ++i) {
          const std::string l = "link" + std::to_string(i + 1);
          topo::LinkSpec& spec = specs[i];
          spec.rate_bps = a.get_rate_bps(l + "_rate");
          spec.one_way_delay = a.get_time(l + "_delay");
          spec.buf_bytes =
              a.has("buffer_bdp")
                  ? topo::bdp_bytes(spec.rate_bps, 2 * spec.one_way_delay,
                                    a.get_number("buffer_bdp"))
                  : a.get_bytes(l + "_buf");
        }
        auto t = std::make_unique<topo::TwoLink>(net, specs[0], specs[1]);
        for (int i = 0; i < 2; ++i) {
          const std::string l = "link" + std::to_string(i + 1);
          // Per run seed s, link i's loss stage draws from stream 4s + 2i
          // and its CBR from 4s + 2i + 1.
          const std::uint64_t seed =
              4 * env.seed + 2 * static_cast<std::uint64_t>(i);
          if (a.has(l + "_loss")) {
            t->add_loss(net, i, a.get_number(l + "_loss"), seed);
          }
          if (a.has(l + "_cbr_rate")) {
            t->add_cbr(net, i, a.get_rate_bps(l + "_cbr_rate"),
                       a.get_time(l + "_cbr_on"), a.get_time(l + "_cbr_off"),
                       seed + 1);
          }
        }
        return t;
      });

  r.topologies.add(
      "triangle", "Fig. 3: three links, three two-path flows in a cycle",
      {{"rates_pps", kNumbers, kRequired, "the three links' rates, packets/s",
        exactly(3), {}, {}, {}, above(0)},
       {"one_way_delay", kTime, "10ms", "every link's one-way delay"},
       {"buffer_bdp", kNumber, "1",
        "every buffer, in bandwidth-delay products of its link", above(0)}},
      [](topo::Network& net, const Args& a, const BuildEnv&) {
        const auto rates = a.get_number_array("rates_pps");
        const SimTime delay = a.get_time("one_way_delay");
        std::vector<topo::RingLink> links;
        for (std::size_t i = 0; i < 3; ++i) {
          const double bps = topo::pkts_per_sec_to_bps(rates[i]);
          links.push_back({"tri" + std::to_string(i), bps, delay,
                           topo::bdp_bytes(bps, 2 * delay,
                                           a.get_number("buffer_bdp"))});
        }
        return std::make_unique<topo::Ring>(net, links);
      });

  r.topologies.add(
      "parking_lot", "Fig. 2: three-link cycle, one-hop vs two-hop paths",
      {{"link_rate", kRate, "48Mbps", "every link's rate", above(0)},
       {"rtt", kTime, "40ms", "every path's propagation RTT"},
       {"buffer", kBytes, "",
        "every buffer (default: one BDP of link_rate x rtt)", kHoldsAPacket}},
      [](topo::Network& net, const Args& a, const BuildEnv&) {
        const double rate = a.get_rate_bps("link_rate");
        const SimTime rtt = a.get_time("rtt");
        const std::uint64_t buf = a.has("buffer") ? a.get_bytes("buffer")
                                                  : topo::bdp_bytes(rate, rtt);
        return std::make_unique<topo::ParkingLot>(net, rate, rtt, buf);
      });

  r.topologies.add(
      "torus", "Fig. 7/8: five-link ring, five two-path flows",
      {{"rate_pps", kNumber, "1000", "links A, B, D and E's rate, packets/s",
        above(0), {}, "rates_pps"},
       {"cap_c", kNumber, "", "link C's rate, packets/s (default: rate_pps)",
        above(0), {}, "rates_pps"},
       {"rates_pps", kNumbers, "",
        "the five links' rates, packets/s (default: rate_pps and cap_c)",
        exactly(5), {}, {}, {}, above(0)}},
      [](topo::Network& net, const Args& a, const BuildEnv&) {
        std::vector<double> rates;
        if (a.has("rates_pps")) {
          rates = a.get_number_array("rates_pps");
        } else {
          const double base = a.get_number("rate_pps");
          const double cap_c = a.has("cap_c") ? a.get_number("cap_c") : base;
          rates = {base, base, cap_c, base, base};
        }
        // Every RTT 100 ms, every buffer one bandwidth-delay product.
        const SimTime rtt = from_ms(100);
        std::vector<topo::RingLink> links;
        for (std::size_t i = 0; i < rates.size(); ++i) {
          const double bps = topo::pkts_per_sec_to_bps(rates[i]);
          links.push_back({"torus" + std::string(1, char('A' + i)), bps,
                           rtt / 2, topo::bdp_bytes(bps, rtt, 1.0)});
        }
        return std::make_unique<topo::Ring>(net, links);
      });

  const KeyTable fabric_keys = {
      {"link_rate", kRate, "100Mbps", "every link's rate", above(0)},
      {"per_hop_delay", kTime, "20us", "every link's one-way delay"},
      {"buffer", kBytes, "100pkt", "every queue's buffer", kHoldsAPacket}};

  r.topologies.add(
      "fat_tree", "§4: k-ary FatTree (k=8 -> 128 hosts, 100 Mb/s links)",
      join({{"k", kCount, "8", "switch arity: k^3/4 hosts",
             Range{.lo = 2, .even = true}}},
           fabric_keys),
      [](topo::Network& net, const Args& a, const BuildEnv&) {
        return std::make_unique<topo::FatTree>(
            net, a.get_count<int>("k"), a.get_rate_bps("link_rate"),
            a.get_time("per_hop_delay"), a.get_bytes("buffer"));
      });

  r.topologies.add(
      "bcube", "§4: BCube(n,k) server-centric fabric (5,2 -> 125 hosts)",
      join({{"n", kCount, "5", "switch ports: n^(k+1) hosts", at_least(2)},
            {"k", kCount, "2", "levels - 1: k+1 interfaces per host"}},
           fabric_keys),
      [](topo::Network& net, const Args& a, const BuildEnv&) {
        return std::make_unique<topo::BCube>(
            net, a.get_count<int>("n"), a.get_count<int>("k"),
            a.get_rate_bps("link_rate"), a.get_time("per_hop_delay"),
            a.get_bytes("buffer"));
      });

  r.topologies.add(
      "wireless",
      "§5: WiFi (path 0) + 3G (path 1) client; [faults] scripts mobility",
      {{"wifi_loss", kNumber, "0.0005", "random loss on the WiFi path"}},
      [](topo::Network& net, const Args& a, const BuildEnv&) {
        return std::make_unique<topo::TwoLink>(
            topo::wireless_client(net, a.get_number("wifi_loss")));
      });

  r.algorithms.add("uncoupled", "independent TCP per subflow", {},
                   plain<cc::Uncoupled>());
  r.algorithms.add(
      "ewtcp", "equally-weighted TCP per subflow (§2.1)",
      {{"weight", kNumber, "0",
        "per-subflow weight; <= 0 = 1/n for n subflows"}},
      [](const Args& a) {
        return AlgorithmInstance{
            std::make_unique<cc::Ewtcp>(a.get_number("weight"))};
      });
  r.algorithms.add("coupled", "fully coupled windows (§2.3)", {},
                   plain<cc::Coupled>());
  r.algorithms.add(
      "semicoupled", "coupled increase, per-path decrease (§2.4)",
      {{"a", kNumber, "1", "aggressiveness: per ACK w_r += a / w_total"}},
      [](const Args& a) {
        return AlgorithmInstance{
            std::make_unique<cc::SemiCoupled>(a.get_number("a"))};
      });
  r.algorithms.add("mptcp", "the paper's final algorithm (§2.5, LIA)", {},
                   plain<cc::MptcpLia>());
  r.algorithms.add("rfc6356", "RFC 6356 standardisation of LIA", {},
                   plain<cc::Rfc6356>());
  r.algorithms.add("olia", "opportunistic LIA (arXiv 1812.03210 §2)", {},
                   plain<cc::Olia>());
  r.algorithms.add("balia", "balanced LIA (arXiv 1812.03210 §3)", {},
                   plain<cc::Balia>());
  r.algorithms.add("coupled_bbr",
                   "rate-based coupled BBR (arXiv 2002.06284): paced "
                   "subflows driven by delivery-rate estimation",
                   {}, plain<cc::CoupledBbr>());
  r.algorithms.add("single", "single-path TCP baseline (1 subflow, uncoupled)",
                   {}, plain<cc::Uncoupled>(/*single_path=*/true));

  r.traffic_models.add(
      "persistent", "long-lived flows on the topology's slots",
      {{"flows", kStrings, "",
        "one '+'-joined path-index set per flow, e.g. \"0+1\" (default: "
        "count flows on paths 0..subflows-1)",
        at_least(1)},
       {"count", kCount, "", "flows (default: the topology's flow slots)",
        {}, {}, "flows"},
       {"subflows", kCount, "2", "paths per flow, the slot's first ones",
        at_least(1), {}, "flows"},
       {"starts", kTimes, "", "one start time per flow"},
       {"start", kTime, "0s", "the first flow's start", {}, {}, "starts"},
       {"stagger", kTime, "0s", "spacing of flow starts", {}, {}, "starts"},
       {"names", kStrings, "", "flow names (default: flow<i>)"},
       {"algos", kStrings, "",
        "per-flow algorithm kinds, at their defaults (default: [algorithm])"},
       {"recv_buffer_pkts", kCount64, "",
        "receive buffer, packets (default: ConnectionConfig's, 2^20)",
        at_least(1)},
       {"app_limit_pkts", kCount64, "0",
        "packets each flow sends; 0 = unlimited"},
       {"min_rto", kTime, "", "RTO floor (default: SubflowConfig's, 200ms)",
        kMinRtoRange}},
      {.path_manager = true, .make = [](const Args& a) {
         return std::make_unique<PersistentTraffic>(a);
       }});

  const KeyTable matrix_keys = {
      {"subflows", kCount, "8", "paths sampled per flow (1 for single)"},
      {"min_rto", kTime, "10ms", "RTO floor", kMinRtoRange},
      {"recv_buffer_pkts", kCount64, "4096", "receive buffer, packets",
       at_least(1)}};
  const KeyTable seeded_keys = join(
      {{"tm_seed", kCount64, kRequired, "seed of the matrix's own rng"}},
      matrix_keys);

  r.traffic_models.add(
      "permutation", "TP1: random derangement of hosts", seeded_keys,
      {.make = [](const Args& a) {
         return std::make_unique<MatrixTraffic>(
             a, [seed = a.get_count<std::uint64_t>("tm_seed")](int hosts) {
               Rng tm(seed);
               return traffic::permutation_tm(hosts, tm);
             });
       }});
  r.traffic_models.add(
      "one_to_many", "TP2 (FatTree): N random destinations per host",
      join(seeded_keys,
           {{"flows_per_host", kCount, "12", "destinations per host"}}),
      {.make = [](const Args& a) {
         return std::make_unique<MatrixTraffic>(
             a, [seed = a.get_count<std::uint64_t>("tm_seed"),
                 n = a.get_count<int>("flows_per_host")](int hosts) {
               Rng tm(seed);
               return traffic::one_to_many_tm(hosts, n, tm);
             });
       }});
  r.traffic_models.add(
      "sparse", "TP3: a fraction of hosts, one flow each",
      join(seeded_keys,
           {{"fraction", kNumber, "0.3", "fraction of hosts that send"}}),
      {.make = [](const Args& a) {
         return std::make_unique<MatrixTraffic>(
             a, [seed = a.get_count<std::uint64_t>("tm_seed"),
                 fraction = a.get_number("fraction")](int hosts) {
               Rng tm(seed);
               return traffic::sparse_tm(hosts, fraction, tm);
             });
       }});
  r.traffic_models.add(
      "neighbors", "TP2 (BCube): every host to its one-digit neighbours",
      matrix_keys, {.make = [](const Args& a) {
        return std::make_unique<MatrixTraffic>(a, nullptr);
      }});

  const KeyTable arrival_keys = {
      {"phase", kTime, "10s",
       "light and heavy arrival phases alternate every phase (scaled)",
       above(0)},
      {"pareto_shape", kNumber, "2", "Pareto shape of flow sizes", above(1)},
      {"mean_flow_bytes", kNumber, "200000", "mean flow size, bytes",
       above(0)}};

  r.traffic_models.add(
      "poisson", "§3: Poisson arrivals + long TCP + multipath companions",
      join({{"light_rate_per_sec", kNumber, "10", "light-phase arrivals/s",
             above(0)},
            {"heavy_rate_per_sec", kNumber, "60", "heavy-phase arrivals/s",
             above(0)},
            {"long_tcp", kBool, "true", "a long-lived TCP on path 1"},
            {"companions", kStrings, R"(["mptcp", "coupled", "ewtcp"])",
             "multipath flows over both paths, by algorithm kind at its "
             "defaults"}},
           arrival_keys),
      {.make = [](const Args& a) {
         return std::make_unique<PoissonTraffic>(a);
       }});
  r.traffic_models.add(
      "churn",
      "Fig. 10 generalized: Poisson multipath arrivals with path "
      "management, reclaimed on completion",
      join({{"light_rate_per_sec", kNumber, "20", "light-phase arrivals/s",
             above(0)},
            {"heavy_rate_per_sec", kNumber, "",
             "heavy-phase arrivals/s (default: light_rate_per_sec)",
             above(0)},
            {"tcp_link1", kCount, "1", "persistent single-path TCPs, path 0"},
            {"tcp_link2", kCount, "1", "persistent single-path TCPs, path 1"},
            {"mp_count", kCount, "2",
             "long-lived multipath flows under [algorithm]"},
            {"min_rto", kTime, "",
             "RTO floor (default: SubflowConfig's, 200ms)", kMinRtoRange},
            {"recv_buffer_pkts", kCount64, "",
             "receive buffer, packets (default: ConnectionConfig's, 2^20)",
             at_least(1)}},
           arrival_keys),
      {.path_manager = true, .make = [](const Args& a) {
         return std::make_unique<ChurnTraffic>(a);
       }});

  // Data-placement policies ([scheduler] kind=...). Policy state lives in
  // mptcp/scheduler.cpp.
  r.schedulers.add("stripe",
                   "lowest-numbered subflow with window space (default)", {},
                   mptcp::DataSchedulerKind::kStripe);
  r.schedulers.add("min_rtt_first",
                   "prefer the active subflow with the smallest srtt", {},
                   mptcp::DataSchedulerKind::kMinRttFirst);
  r.schedulers.add("redundant",
                   "duplicate fresh data across all active subflows", {},
                   mptcp::DataSchedulerKind::kRedundant);
  r.schedulers.add("blest",
                   "BLEST-style: hold fresh data off slow subflows that "
                   "would stall the faster path's send window",
                   {}, mptcp::DataSchedulerKind::kBlest);

  // Fault actions ([faults] script = "<time> <action> [args...] <target>").
  // Which target each takes is fault::accepts().
  r.fault_actions.add("down",
                      "cut a variable-rate queue's rate to 0 until `up`",
                      {}, fault::Action::kDown);
  r.fault_actions.add(
      "up", "bring a downed variable-rate queue back up",
      {{"rate", kRate, "",
        "its new rate (default: its rate before down, or the last rate or "
        "ramp step scripted since)"}},
      fault::Action::kUp);
  r.fault_actions.add("rate", "set a variable-rate queue's rate",
                      {{"rate", kRate, kRequired, "the new rate"}},
                      fault::Action::kRate);
  r.fault_actions.add(
      "ramp", "step a variable-rate queue's rate to `rate` over `duration`",
      {{"rate", kRate, kRequired, "the final rate"},
       {"duration", kTime, kRequired, "the ramp's length (scaled)", above(0)},
       {"steps", kCount, kRequired, "equal steps to get there", at_least(1)}},
      fault::Action::kRamp);
  constexpr Range kProbability{.lo = 0, .hi = 1};
  r.fault_actions.add("loss", "set a loss element's drop probability",
                      {{"probability", kNumber, kRequired,
                        "the drop probability", kProbability}},
                      fault::Action::kLoss);
  r.fault_actions.add(
      "loss_burst",
      "raise a loss element's drop probability for `duration`, then "
      "restore it (or a `loss` scripted meanwhile)",
      {{"probability", kNumber, kRequired, "the drop probability meanwhile",
        kProbability},
       {"duration", kTime, kRequired, "the burst's length (scaled)",
        above(0)}},
      fault::Action::kLossBurst);
  r.fault_actions.add("drain", "drop every packet waiting in a queue", {},
                      fault::Action::kDrain);
  r.fault_actions.add(
      "corrupt", "drop up to `packets` packets waiting in a queue",
      {{"packets", kCount, kRequired, "packets to drop", at_least(1)}},
      fault::Action::kCorrupt);
  r.fault_actions.add(
      "reset", "fire one subflow's RTO now",
      {{"subflow", kCount, kRequired,
        "the subflow's index; one not open yet resets as a no-op"}},
      fault::Action::kReset);

  // Metrics ([output] metrics = ["<metric>[:<arg>...]", ...]), recorded
  // when the measured window closes, in the order the spec lists them.
  r.metrics.add("flow_mbps", "each flow's goodput, as mbps_<flow>", {},
                {.record = [](const auto& in, const auto&, auto& ctx) {
                   for (std::size_t i = 0; i < in.conns.size(); ++i) {
                     ctx.record("mbps_" + in.conns[i]->name(), in.mbps[i]);
                   }
                 }});
  r.metrics.add("total_mbps", "the flows' summed goodput", {},
                {.record = [](const auto& in, const auto&, auto& ctx) {
                   ctx.record("total_mbps", in.total_mbps);
                 }});
  r.metrics.add("jain", "Jain's fairness index over the flows' goodputs", {},
                {.record = [](const auto& in, const auto&, auto& ctx) {
                   ctx.record("jain", stats::jain_index(in.mbps));
                 }});
  r.metrics.add("queue_loss", "each queue's loss rate, as loss_q<i>", {},
                {.record = [](const auto& in, const auto&, auto& ctx) {
                   for (std::size_t i = 0; i < in.queues.size(); ++i) {
                     ctx.record("loss_q" + std::to_string(i),
                                in.queues[i]->loss_rate());
                   }
                 }});
  r.metrics.add(
      "loss_ratio",
      "queue a's loss rate over queue b's (0 when b lost none), as "
      "loss_ratio_<a>_<b>",
      {{"a", kCount, kRequired, "the numerator's queue index"},
       {"b", kCount, kRequired, "the denominator's queue index"}},
      {.record = [](const auto& in, const auto& a, auto& ctx) {
         const std::size_t qa = a.template get_count<std::size_t>("a");
         const std::size_t qb = a.template get_count<std::size_t>("b");
         const double pb = in.queues[qb]->loss_rate();
         ctx.record("loss_ratio_" + std::to_string(qa) + "_" +
                        std::to_string(qb),
                    pb > 0 ? in.queues[qa]->loss_rate() / pb : 0.0);
       }});
  r.metrics.add("per_host_mbps", "summed goodput per host", {},
                {.per_host = true,
                 .record = [](const auto& in, const auto&, auto& ctx) {
                   ctx.record("per_host_mbps", in.total_mbps / in.hosts);
                 }});
  r.metrics.add("per_flow_mean_mbps", "summed goodput per flow", {},
                {.record = [](const auto& in, const auto&, auto& ctx) {
                   const double n = static_cast<double>(in.conns.size());
                   ctx.record("per_flow_mean_mbps",
                              n > 0 ? in.total_mbps / n : 0.0);
                 }});
  r.metrics.add(
      "subflow_mbps", "each subflow's acked goodput, as mbps_<flow>_sub<i>",
      {}, {.record = [](const auto& in, const auto&, auto& ctx) {
        for (std::size_t i = 0; i < in.conns.size(); ++i) {
          const mptcp::MptcpConnection& c = *in.conns[i];
          const auto& base = in.subflow_base[i];
          for (std::size_t s = 0; s < c.num_subflows(); ++s) {
            const std::uint64_t acked = c.subflow(s).packets_acked();
            ctx.record("mbps_" + c.name() + "_sub" + std::to_string(s),
                       stats::pkts_to_mbps(
                           acked - (s < base.size() ? base[s] : 0),
                           in.window));
          }
        }
      }});

  return r;
}

}  // namespace

const Registry& builtin_registry() {
  static const Registry registry = make_builtin_registry();
  return registry;
}

AlgorithmInstance algorithm_at_defaults(const std::string& kind,
                                        const Section& at) {
  const auto& k = builtin_registry().algorithms.find(kind, at);
  AlgorithmInstance a =
      k.build(read_args(Section(at.name(), at.line(), at.file()), {&k.keys}));
  a.name = kind;
  return a;
}

}  // namespace mpsim::scenario
