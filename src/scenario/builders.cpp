// Every builtin registry entry, in one translation unit.
//
// tools/mpsim_analyze's registry-discipline rule pins all add_topology /
// add_algorithm / add_traffic / add_scheduler calls to this file and checks
// the keys are lowercase and unique per kind, so `mpsim list` and the spec
// grammar can never drift apart or collide.
//
// Construction order is part of a spec's output: element construction order
// determines names, event ordering and rng draws. test_scenario_roundtrip
// pins the torus, FatTree and wireless builders against direct C++
// constructions, and the golden traces pin whole runs byte for byte.
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
#include "core/check.hpp"
#include "mptcp/path_manager.hpp"
#include "net/cbr.hpp"
#include "scenario/registry.hpp"
#include "topo/bcube.hpp"
#include "topo/fat_tree.hpp"
#include "topo/network.hpp"
#include "topo/parking_lot.hpp"
#include "topo/torus.hpp"
#include "topo/triangle.hpp"
#include "topo/two_link.hpp"
#include "topo/wireless.hpp"
#include "traffic/poisson_flows.hpp"
#include "traffic/traffic_matrix.hpp"

namespace mpsim::scenario {
namespace {

// ---------------------------------------------------------------------------
// Topologies
// ---------------------------------------------------------------------------

// Truncate a slot's canonical path list to the first n pairs.
std::vector<topo::PathPair> take(std::vector<topo::PathPair> pairs, int n) {
  if (n >= 0 && static_cast<std::size_t>(n) < pairs.size()) {
    pairs.resize(static_cast<std::size_t>(n));
  }
  return pairs;
}

// Two disjoint links, each optionally fronted by a fixed-loss stage (§2.3)
// and carrying on/off CBR cross-traffic (§3 table). Both draw from streams
// derived from the run seed, so [run] seeds sweeps their randomness too.
class TwoLinkTopo final : public BuiltTopology {
 public:
  TwoLinkTopo(topo::Network& net, const topo::LinkSpec& l1,
              const topo::LinkSpec& l2)
      : links_(net, l1, l2) {}

  // Bernoulli loss in front of link `i`'s queue, on every path through it.
  void add_loss(topo::Network& net, int i, double p, std::uint64_t seed) {
    loss_[i] = &net.add_lossy("link" + std::to_string(i + 1) + "/loss", p,
                              seed);
  }

  // On/off CBR through link `i` into a counting sink, started at t = 0.
  void add_cbr(EventList& events, int i, double rate_bps, SimTime mean_on,
               SimTime mean_off, std::uint64_t seed) {
    const std::string name = "link" + std::to_string(i + 1) + "/cbr";
    Cbr& c = cbr_[i];
    c.sink = std::make_unique<net::CountingSink>(name + "/sink");
    topo::Path path = fwd(i);
    path.push_back(c.sink.get());
    c.route = std::make_unique<net::Route>(path);
    c.source = std::make_unique<net::OnOffCbrSource>(
        events, name, *c.route, rate_bps, mean_on, mean_off, seed);
    c.source->start(0);
  }

  int flow_slots() const override { return 1; }

  std::vector<topo::PathPair> flow_paths(int slot, int nsubflows,
                                         Rng& rng) override {
    (void)slot;
    (void)rng;
    return take({{fwd(0), links_.rev(0)}, {fwd(1), links_.rev(1)}},
                nsubflows);
  }

  std::vector<net::Queue*> queues() override {
    return {&links_.queue(0), &links_.queue(1)};
  }

 private:
  struct Cbr {
    std::unique_ptr<net::CountingSink> sink;
    std::unique_ptr<net::Route> route;
    std::unique_ptr<net::OnOffCbrSource> source;
  };

  topo::Path fwd(int i) const {
    topo::Path path = links_.fwd(i);
    if (loss_[i] != nullptr) path.insert(path.begin(), loss_[i]);
    return path;
  }

  topo::TwoLink links_;
  std::array<net::LossyLink*, 2> loss_{};
  std::array<Cbr, 2> cbr_;
};

// link<i>_rate/_delay, plus either link<i>_buf or `buffer_bdp`: both
// buffers at that multiple of their own link's bandwidth-delay product,
// as triangle's buffer_bdp does.
topo::LinkSpec link_spec(const Section& s, const std::string& prefix) {
  topo::LinkSpec spec;
  spec.rate_bps = s.get_rate_bps(prefix + "_rate", spec.rate_bps);
  spec.one_way_delay = s.get_time(prefix + "_delay", spec.one_way_delay);
  if (!s.has("buffer_bdp")) {
    spec.buf_bytes = s.get_bytes(prefix + "_buf", spec.buf_bytes);
    return spec;
  }
  if (s.has(prefix + "_buf")) {
    s.reject(prefix + "_buf", "mutually exclusive with 'buffer_bdp'");
  }
  const double mult = s.get_number("buffer_bdp");
  if (!(mult > 0.0)) s.fail("'buffer_bdp' must be > 0");
  spec.buf_bytes =
      topo::bdp_bytes(spec.rate_bps, 2 * spec.one_way_delay, mult);
  return spec;
}

class TriangleTopo final : public BuiltTopology {
 public:
  TriangleTopo(topo::Network& net, const std::array<double, 3>& rates,
               SimTime delay, const std::array<std::uint64_t, 3>& bufs)
      : tri_(net, rates, delay, bufs) {}

  int flow_slots() const override { return topo::Triangle::kFlows; }

  std::vector<topo::PathPair> flow_paths(int slot, int nsubflows,
                                         Rng& rng) override {
    (void)rng;
    return take({{tri_.fwd(slot, 0), tri_.rev(slot, 0)},
                 {tri_.fwd(slot, 1), tri_.rev(slot, 1)}},
                nsubflows);
  }

  std::vector<net::Queue*> queues() override {
    return {&tri_.queue(0), &tri_.queue(1), &tri_.queue(2)};
  }

 private:
  topo::Triangle tri_;
};

class ParkingLotTopo final : public BuiltTopology {
 public:
  ParkingLotTopo(topo::Network& net, double rate, SimTime rtt,
                 std::uint64_t buf)
      : pl_(net, rate, rtt, buf) {}

  int flow_slots() const override { return topo::ParkingLot::kFlows; }

  // Path 0 = the one-hop path, path 1 = the two-hop detour (Fig. 2's
  // ordering).
  std::vector<topo::PathPair> flow_paths(int slot, int nsubflows,
                                         Rng& rng) override {
    (void)rng;
    return take({{pl_.one_hop_fwd(slot), pl_.one_hop_rev(slot)},
                 {pl_.two_hop_fwd(slot), pl_.two_hop_rev(slot)}},
                nsubflows);
  }

  std::vector<net::Queue*> queues() override {
    return {&pl_.queue(0), &pl_.queue(1), &pl_.queue(2)};
  }

 private:
  topo::ParkingLot pl_;
};

class TorusTopo final : public BuiltTopology {
 public:
  TorusTopo(topo::Network& net,
            const std::array<double, topo::Torus::kLinks>& rates)
      : torus_(net, rates) {}

  int flow_slots() const override { return topo::Torus::kLinks; }

  std::vector<topo::PathPair> flow_paths(int slot, int nsubflows,
                                         Rng& rng) override {
    (void)rng;
    return take({{torus_.fwd(slot, 0), torus_.rev(slot, 0)},
                 {torus_.fwd(slot, 1), torus_.rev(slot, 1)}},
                nsubflows);
  }

  std::vector<net::Queue*> queues() override {
    std::vector<net::Queue*> qs;
    for (int l = 0; l < topo::Torus::kLinks; ++l) {
      qs.push_back(&torus_.queue(l));
    }
    return qs;
  }

 private:
  topo::Torus torus_;
};

class FatTreeTopo final : public BuiltTopology {
 public:
  FatTreeTopo(topo::Network& net, int k, double rate, SimTime delay,
              std::uint64_t buf)
      : ft_(net, k, rate, delay, buf) {}

  int flow_slots() const override { return 0; }  // matrix traffic only

  std::vector<topo::PathPair> flow_paths(int slot, int nsubflows,
                                         Rng& rng) override {
    (void)slot;
    (void)nsubflows;
    (void)rng;
    return {};
  }

  int num_hosts() const override { return ft_.num_hosts(); }

  std::vector<topo::PathPair> host_paths(int src, int dst, int n,
                                         Rng& rng) override {
    return topo::sample_path_pairs(ft_, src, dst, n, rng);
  }

  std::vector<net::Queue*> queues() override {
    // Access then core, the Fig. 13 reporting order.
    std::vector<net::Queue*> qs;
    for (const auto* q : ft_.access_queues()) {
      qs.push_back(const_cast<net::Queue*>(q));
    }
    for (const auto* q : ft_.core_queues()) {
      qs.push_back(const_cast<net::Queue*>(q));
    }
    return qs;
  }

 private:
  topo::FatTree ft_;
};

class BCubeTopo final : public BuiltTopology {
 public:
  BCubeTopo(topo::Network& net, int n, int k, double rate, SimTime delay,
            std::uint64_t buf)
      : bc_(net, n, k, rate, delay, buf) {}

  int flow_slots() const override { return 0; }  // matrix traffic only

  std::vector<topo::PathPair> flow_paths(int slot, int nsubflows,
                                         Rng& rng) override {
    (void)slot;
    (void)nsubflows;
    (void)rng;
    return {};
  }

  int num_hosts() const override { return bc_.num_hosts(); }

  std::vector<topo::PathPair> host_paths(int src, int dst, int n,
                                         Rng& rng) override {
    return topo::sample_path_pairs(bc_, src, dst, n, rng);
  }

  std::vector<std::pair<int, int>> neighbor_pairs() const override {
    // BCube TP2: every host writes to its one-digit neighbours at every
    // level (replica placement close in the topology).
    std::vector<std::pair<int, int>> tm;
    for (int h = 0; h < bc_.num_hosts(); ++h) {
      for (int l = 0; l < bc_.levels(); ++l) {
        for (int d : bc_.neighbors(h, l)) tm.emplace_back(h, d);
      }
    }
    return tm;
  }

  std::vector<net::Queue*> queues() override {
    std::vector<net::Queue*> qs;
    for (const auto* q : bc_.all_queues()) {
      qs.push_back(const_cast<net::Queue*>(q));
    }
    return qs;
  }

 private:
  topo::BCube bc_;
};

class WirelessTopo final : public BuiltTopology {
 public:
  WirelessTopo(topo::Network& net, double wifi_loss)
      : radio_(net, wifi_loss) {}

  int flow_slots() const override { return 1; }

  // Path 0 = WiFi, path 1 = 3G.
  std::vector<topo::PathPair> flow_paths(int slot, int nsubflows,
                                         Rng& rng) override {
    (void)slot;
    (void)rng;
    return take({{radio_.wifi_fwd(), radio_.wifi_rev()},
                 {radio_.g3_fwd(), radio_.g3_rev()}},
                nsubflows);
  }

  std::vector<net::Queue*> queues() override {
    return {&radio_.wifi_q, &radio_.g3_q};
  }

 private:
  topo::WirelessClient radio_;
};

// ---------------------------------------------------------------------------
// Algorithms
// ---------------------------------------------------------------------------

AlgorithmInstance make_algorithm(const std::string& kind,
                                 const Section& at) {
  AlgorithmInstance a;
  a.name = kind;
  if (kind == "uncoupled") {
    a.cc = std::make_unique<cc::Uncoupled>();
  } else if (kind == "ewtcp") {
    a.cc = std::make_unique<cc::Ewtcp>();
  } else if (kind == "coupled") {
    a.cc = std::make_unique<cc::Coupled>();
  } else if (kind == "semicoupled") {
    a.cc = std::make_unique<cc::SemiCoupled>();
  } else if (kind == "mptcp") {
    a.cc = std::make_unique<cc::MptcpLia>();
  } else if (kind == "rfc6356") {
    a.cc = std::make_unique<cc::Rfc6356>();
  } else if (kind == "olia") {
    a.cc = std::make_unique<cc::Olia>();
  } else if (kind == "balia") {
    a.cc = std::make_unique<cc::Balia>();
  } else if (kind == "coupled_bbr") {
    a.cc = std::make_unique<cc::CoupledBbr>();
  } else if (kind == "single") {
    a.cc = std::make_unique<cc::Uncoupled>();
    a.single_path = true;
  } else {
    at.fail("unknown algorithm kind '" + kind + "'");
  }
  return a;
}

// ---------------------------------------------------------------------------
// Traffic models
// ---------------------------------------------------------------------------

// The [path_manager] section -> the policy knobs of mptcp::PathManager.
// Shared by every traffic model that supports path management; models that
// don't simply never read the section and check_all_used() rejects it.
mptcp::PathManagerConfig parse_path_manager(const Section& s) {
  mptcp::PathManagerConfig cfg;
  const std::string strategy = s.get_string("strategy", "threshold");
  if (strategy == "fullmesh") {
    cfg.strategy = mptcp::PathStrategy::kFullMesh;
  } else if (strategy == "ndiffports") {
    cfg.strategy = mptcp::PathStrategy::kNDiffPorts;
  } else if (strategy == "threshold") {
    cfg.strategy = mptcp::PathStrategy::kThreshold;
  } else {
    s.fail("unknown path manager strategy '" + strategy +
           "' (known: fullmesh, ndiffports, threshold)");
  }
  cfg.ndiffports = static_cast<std::size_t>(s.get_int(
      "ndiffports", static_cast<std::int64_t>(cfg.ndiffports)));
  if (cfg.ndiffports < 1) s.fail("'ndiffports' must be >= 1");
  cfg.add_threshold_bytes =
      s.get_bytes("add_threshold", cfg.add_threshold_bytes);
  cfg.max_subflows = static_cast<std::size_t>(s.get_int(
      "max_subflows", static_cast<std::int64_t>(cfg.max_subflows)));
  if (cfg.max_subflows < 1) s.fail("'max_subflows' must be >= 1");
  cfg.scan_period = s.get_time("scan_period", cfg.scan_period);
  cfg.reprobe_backoff = s.get_time("reprobe_backoff", cfg.reprobe_backoff);
  cfg.dead_after_rtos = static_cast<std::uint32_t>(s.get_int(
      "dead_after_rtos", static_cast<std::int64_t>(cfg.dead_after_rtos)));
  if (cfg.dead_after_rtos < 1) s.fail("'dead_after_rtos' must be >= 1");
  return cfg;
}

// The [scheduler] section -> the data-placement policy of the connections
// a traffic model builds. Absent section = the paper's stripe. The kind
// key goes through the registry so an unknown name fails with the
// section's file:line and the list of known kinds.
mptcp::DataSchedulerKind parse_scheduler(const BuildEnv& env) {
  if (env.scheduler == nullptr) return mptcp::DataSchedulerKind::kStripe;
  const Section& s = *env.scheduler;
  const std::string kind = s.get_string("kind", "stripe");
  return builtin_registry().scheduler(kind, s)(s);
}

// "0", "1", "0+1", ... — '+'-joined path indices for one flow.
std::vector<int> parse_path_set(const std::string& text, const Section& s) {
  std::vector<int> idxs;
  std::size_t pos = 0;
  while (pos <= text.size()) {
    const std::size_t plus = text.find('+', pos);
    const std::string part =
        text.substr(pos, plus == std::string::npos ? std::string::npos
                                                   : plus - pos);
    if (part.empty() || part.find_first_not_of("0123456789") !=
                            std::string::npos) {
      s.fail("flow path set '" + text +
             "' must be '+'-joined path indices like \"0+1\"");
    }
    idxs.push_back(std::stoi(part));
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
  explicit PersistentTraffic(const Section& s) {
    if (s.has("flows")) {
      if (s.has("count")) s.reject("count", "mutually exclusive with 'flows'");
      if (s.has("subflows")) {
        s.reject("subflows", "mutually exclusive with 'flows'");
      }
      for (const std::string& f : s.get_string_array("flows")) {
        FlowSpec fs;
        fs.paths = parse_path_set(f, s);
        flows_.push_back(std::move(fs));
      }
      if (flows_.empty()) s.fail("'flows' must not be empty");
    } else {
      count_ = static_cast<int>(s.get_int("count", -1));
      subflows_ = static_cast<int>(s.get_int("subflows", 2));
      if (subflows_ < 1) s.fail("'subflows' must be >= 1");
    }
    const bool has_starts = s.has("starts");
    if (has_starts) {
      if (s.has("start")) s.reject("start", "mutually exclusive with 'starts'");
      if (s.has("stagger")) {
        s.reject("stagger", "mutually exclusive with 'starts'");
      }
      starts_ = s.get_time_array("starts");
    } else {
      start_ = s.get_time("start", 0);
      stagger_ = s.get_time("stagger", 0);
    }
    if (s.has("names")) names_ = s.get_string_array("names");
    if (s.has("algos")) algos_ = s.get_string_array("algos");
    recv_buffer_pkts_ = static_cast<std::uint64_t>(s.get_int(
        "recv_buffer_pkts",
        static_cast<std::int64_t>(mptcp::ConnectionConfig{}.recv_buffer_pkts)));
    app_limit_pkts_ =
        static_cast<std::uint64_t>(s.get_int("app_limit_pkts", 0));
    min_rto_ = s.get_time("min_rto", tcp::SubflowConfig{}.min_rto);
    section_copy_ = &s;  // diagnostics only; outlives the model (Scenario)
  }

  void build(EventList& events, BuiltTopology& topo,
             const AlgorithmInstance& algo, Rng& rng,
             const BuildEnv& env) override {
    std::vector<FlowSpec> flows = flows_;
    if (flows.empty()) {
      const int n = count_ >= 0 ? count_ : topo.flow_slots();
      if (n <= 0) {
        section_copy_->fail(
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
      section_copy_->fail_at(
          section_copy_->find(key)->line,
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
        section_copy_->fail("'starts' must list one time per flow");
      }
      if (i < algos_.size()) flows[i].algo = algos_[i];
    }

    mptcp::ConnectionConfig ccfg;
    ccfg.recv_buffer_pkts = recv_buffer_pkts_;
    ccfg.app_limit_pkts = app_limit_pkts_;
    ccfg.subflow.min_rto = min_rto_;
    ccfg.scheduler = parse_scheduler(env);

    // With a [path_manager] section, the flow's path set becomes the
    // manager's candidate list and the manager decides what actually opens
    // (and when); without one, every listed path opens immediately.
    mptcp::PathManagerConfig pm_cfg;
    if (env.path_manager != nullptr) {
      pm_cfg = parse_path_manager(*env.path_manager);
    }

    const int slots = topo.flow_slots();
    for (std::size_t i = 0; i < flows.size(); ++i) {
      const FlowSpec& fs = flows[i];
      AlgorithmInstance local;
      const AlgorithmInstance* use = &algo;
      if (!fs.algo.empty()) {
        local = make_algorithm(fs.algo, *section_copy_);
        use = &local;
      }
      std::vector<int> paths = fs.paths;
      if (use->single_path && paths.size() > 1) paths = {paths.front()};
      int max_idx = 0;
      for (int p : paths) max_idx = p > max_idx ? p : max_idx;
      const int slot = slots > 0 ? static_cast<int>(i) % slots : 0;
      auto pairs = topo.flow_paths(slot, max_idx + 1, rng);
      if (static_cast<std::size_t>(max_idx) >= pairs.size()) {
        section_copy_->fail("flow " + std::to_string(i) +
                            " references path index " +
                            std::to_string(max_idx) +
                            " but the topology offers only " +
                            std::to_string(pairs.size()));
      }
      auto conn = std::make_unique<mptcp::MptcpConnection>(
          events, fs.name, *use->cc, ccfg);
      if (env.path_manager != nullptr) {
        auto& pm = conn->attach_path_manager(pm_cfg);
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

  std::vector<const mptcp::MptcpConnection*> connections() const override {
    std::vector<const mptcp::MptcpConnection*> out;
    for (const auto& c : conns_) out.push_back(c.get());
    return out;
  }

  std::vector<mptcp::MptcpConnection*> mutable_connections() override {
    std::vector<mptcp::MptcpConnection*> out;
    for (const auto& c : conns_) out.push_back(c.get());
    return out;
  }

 private:
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
  const Section* section_copy_;
  std::vector<std::unique_ptr<mptcp::MptcpConnection>> conns_;
  std::vector<std::unique_ptr<const cc::CongestionControl>> owned_algos_;
};

// The §4 traffic matrices: flow idx gets name "f<idx>", starts at
// 0.5 ms * (idx % 997) (unscaled — starts only de-synchronize), and
// single-path runs sample one path (the paper's ECMP stand-in).
class MatrixTraffic final : public TrafficModel {
 public:
  enum class Kind { kPermutation, kOneToMany, kSparse, kNeighbors };

  MatrixTraffic(Kind kind, const Section& s) : kind_(kind) {
    if (kind_ != Kind::kNeighbors) {
      tm_seed_ = static_cast<std::uint64_t>(s.get_int("tm_seed"));
    }
    if (kind_ == Kind::kOneToMany) {
      flows_per_host_ = static_cast<int>(s.get_int("flows_per_host", 12));
    }
    if (kind_ == Kind::kSparse) {
      fraction_ = s.get_number("fraction", 0.3);
    }
    subflows_ = static_cast<int>(s.get_int("subflows", 8));
    min_rto_ = s.get_time("min_rto", from_ms(10));
    recv_buffer_pkts_ =
        static_cast<std::uint64_t>(s.get_int("recv_buffer_pkts", 4096));
    section_ = &s;
  }

  void build(EventList& events, BuiltTopology& topo,
             const AlgorithmInstance& algo, Rng& rng,
             const BuildEnv& env) override {
    hosts_ = topo.num_hosts();
    if (hosts_ <= 0) {
      section_->fail("matrix traffic needs a host-addressable topology "
                     "(fat_tree, bcube)");
    }
    std::vector<std::pair<int, int>> tm;
    if (kind_ == Kind::kNeighbors) {
      tm = topo.neighbor_pairs();
      if (tm.empty()) {
        section_->fail("this topology has no neighbour traffic matrix");
      }
    } else {
      Rng tm_rng(tm_seed_);
      std::vector<traffic::FlowPair> pairs;
      switch (kind_) {
        case Kind::kPermutation:
          pairs = traffic::permutation_tm(hosts_, tm_rng);
          break;
        case Kind::kOneToMany:
          pairs = traffic::one_to_many_tm(hosts_, flows_per_host_, tm_rng);
          break;
        default:
          pairs = traffic::sparse_tm(hosts_, fraction_, tm_rng);
          break;
      }
      for (const auto& p : pairs) tm.emplace_back(p.src, p.dst);
    }

    mptcp::ConnectionConfig ccfg;
    ccfg.subflow.min_rto = min_rto_;
    ccfg.recv_buffer_pkts = recv_buffer_pkts_;
    ccfg.scheduler = parse_scheduler(env);
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

  std::vector<const mptcp::MptcpConnection*> connections() const override {
    std::vector<const mptcp::MptcpConnection*> out;
    for (const auto& c : conns_) out.push_back(c.get());
    return out;
  }

  std::vector<mptcp::MptcpConnection*> mutable_connections() override {
    std::vector<mptcp::MptcpConnection*> out;
    for (const auto& c : conns_) out.push_back(c.get());
    return out;
  }

  int host_count() const override { return hosts_; }

 private:
  Kind kind_;
  std::uint64_t tm_seed_ = 0;
  int flows_per_host_ = 12;
  double fraction_ = 0.3;
  int subflows_ = 8;
  SimTime min_rto_;
  std::uint64_t recv_buffer_pkts_;
  const Section* section_;
  int hosts_ = 0;
  std::vector<std::unique_ptr<mptcp::MptcpConnection>> conns_;
};

// §3's dynamic server workload: Poisson single-path arrivals on path 0,
// one long-lived TCP on path 1, and a set of multipath companions using
// both paths — all simultaneously, as the paper ran them. The run seed
// drives the arrival process, so [run] seeds sweeps arrival randomness.
class PoissonTraffic final : public TrafficModel {
 public:
  explicit PoissonTraffic(const Section& s) {
    pcfg_.light_rate_per_sec = s.get_number("light_rate_per_sec", 10.0);
    pcfg_.heavy_rate_per_sec = s.get_number("heavy_rate_per_sec", 60.0);
    phase_ = s.get_time("phase", from_sec(10));
    pcfg_.pareto_shape = s.get_number("pareto_shape", 2.0);
    pcfg_.mean_flow_bytes = s.get_number("mean_flow_bytes", 200e3);
    long_tcp_ = s.get_bool("long_tcp", true);
    if (s.has("companions")) {
      companions_ = s.get_string_array("companions");
    } else {
      companions_ = {"mptcp", "coupled", "ewtcp"};
    }
    section_ = &s;
  }

  void build(EventList& events, BuiltTopology& topo,
             const AlgorithmInstance& algo, Rng& rng,
             const BuildEnv& env) override {
    (void)algo;  // per-companion algorithms below
    pcfg_.phase_duration = env.scaled(phase_);
    pcfg_.seed = env.seed;
    auto pairs = topo.flow_paths(0, 2, rng);
    if (pairs.size() < 2) {
      section_->fail("poisson traffic needs a two-path flow slot");
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
      persistent_.push_back(mptcp::make_single_path_tcp(
          events, "long", pairs[1].first, pairs[1].second));
    }
    mptcp::ConnectionConfig comp_cfg;
    comp_cfg.scheduler = parse_scheduler(env);
    for (const std::string& kind : companions_) {
      AlgorithmInstance inst = make_algorithm(kind, *section_);
      auto conn = std::make_unique<mptcp::MptcpConnection>(events, kind,
                                                           *inst.cc,
                                                           comp_cfg);
      conn->add_subflow(pairs[0].first, pairs[0].second);
      conn->add_subflow(pairs[1].first, pairs[1].second);
      persistent_.push_back(std::move(conn));
      owned_algos_.push_back(std::move(inst.cc));
    }
    // Start stagger: generator at 0, long TCP at 3 ms, companions at 7,
    // 13, 19, ... ms.
    gen_->start(0);
    std::size_t c = 0;
    for (auto& conn : persistent_) {
      if (long_tcp_ && c == 0) {
        conn->start(from_ms(3));
      } else {
        const std::size_t k = c - (long_tcp_ ? 1 : 0);
        conn->start(from_ms(7 + 6 * static_cast<double>(k)));
      }
      ++c;
    }
  }

  std::vector<const mptcp::MptcpConnection*> connections() const override {
    std::vector<const mptcp::MptcpConnection*> out;
    for (const auto& c : persistent_) out.push_back(c.get());
    return out;
  }

  std::vector<mptcp::MptcpConnection*> mutable_connections() override {
    std::vector<mptcp::MptcpConnection*> out;
    for (const auto& c : persistent_) out.push_back(c.get());
    return out;
  }

  void record_metrics(runner::RunContext& ctx) const override {
    if (gen_ == nullptr) return;
    ctx.record("poisson_flows_started",
               static_cast<double>(gen_->flows_started()));
    ctx.record("poisson_flows_completed",
               static_cast<double>(gen_->flows_completed()));
  }

 private:
  traffic::PoissonConfig pcfg_;
  SimTime phase_;
  bool long_tcp_;
  std::vector<std::string> companions_;
  const Section* section_;
  std::unique_ptr<traffic::PoissonFlowGenerator> gen_;
  std::vector<std::unique_ptr<mptcp::MptcpConnection>> persistent_;
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
  explicit ChurnTraffic(const Section& s) {
    pcfg_.light_rate_per_sec = s.get_number("light_rate_per_sec", 20.0);
    pcfg_.heavy_rate_per_sec =
        s.get_number("heavy_rate_per_sec", pcfg_.light_rate_per_sec);
    phase_ = s.get_time("phase", from_sec(10));
    pcfg_.pareto_shape = s.get_number("pareto_shape", 2.0);
    pcfg_.mean_flow_bytes = s.get_number("mean_flow_bytes", 200e3);
    tcp_link1_ = static_cast<int>(s.get_int("tcp_link1", 1));
    tcp_link2_ = static_cast<int>(s.get_int("tcp_link2", 1));
    mp_count_ = static_cast<int>(s.get_int("mp_count", 2));
    if (tcp_link1_ < 0 || tcp_link2_ < 0 || mp_count_ < 0) {
      s.fail("background flow counts must be >= 0");
    }
    min_rto_ = s.get_time("min_rto", tcp::SubflowConfig{}.min_rto);
    recv_buffer_pkts_ = static_cast<std::uint64_t>(s.get_int(
        "recv_buffer_pkts",
        static_cast<std::int64_t>(mptcp::ConnectionConfig{}.recv_buffer_pkts)));
    section_ = &s;
  }

  void build(EventList& events, BuiltTopology& topo,
             const AlgorithmInstance& algo, Rng& rng,
             const BuildEnv& env) override {
    pcfg_.phase_duration = env.scaled(phase_);
    pcfg_.seed = env.seed;
    auto pairs = topo.flow_paths(0, 2, rng);
    if (pairs.size() < 2) {
      section_->fail("churn traffic needs a two-path flow slot");
    }
    mptcp::PathManagerConfig pm_cfg;
    if (env.path_manager != nullptr) {
      pm_cfg = parse_path_manager(*env.path_manager);
    }
    if (algo.single_path) pm_cfg.max_subflows = 1;

    mptcp::ConnectionConfig ccfg;
    ccfg.subflow.min_rto = min_rto_;
    ccfg.recv_buffer_pkts = recv_buffer_pkts_;
    ccfg.scheduler = parse_scheduler(env);

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
      persistent_.push_back(mptcp::make_single_path_tcp(
          events, "tcp1_" + std::to_string(i), pairs[0].first,
          pairs[0].second, ccfg));
    }
    for (int i = 0; i < tcp_link2_; ++i) {
      persistent_.push_back(mptcp::make_single_path_tcp(
          events, "tcp2_" + std::to_string(i), pairs[1].first,
          pairs[1].second, ccfg));
    }
    for (int i = 0; i < mp_count_; ++i) {
      auto conn = std::make_unique<mptcp::MptcpConnection>(
          events, "mp" + std::to_string(i), *algo.cc, ccfg);
      auto& pm = conn->attach_path_manager(pm_cfg);
      pm.add_candidate(pairs[0].first, pairs[0].second);
      pm.add_candidate(pairs[1].first, pairs[1].second);
      persistent_.push_back(std::move(conn));
    }

    // Generator at 0; background flows staggered (3, 5, 7, ... ms) only to
    // de-synchronize their slow starts, like the other models do.
    gen_->start(0);
    for (std::size_t i = 0; i < persistent_.size(); ++i) {
      persistent_[i]->start(from_ms(3 + 2 * static_cast<double>(i)));
    }
  }

  std::vector<const mptcp::MptcpConnection*> connections() const override {
    std::vector<const mptcp::MptcpConnection*> out;
    for (const auto& c : persistent_) out.push_back(c.get());
    return out;
  }

  std::vector<mptcp::MptcpConnection*> mutable_connections() override {
    std::vector<mptcp::MptcpConnection*> out;
    for (const auto& c : persistent_) out.push_back(c.get());
    return out;
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
    for (const auto& c : persistent_) add(*c);
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

  traffic::PoissonConfig pcfg_;
  SimTime phase_ = from_sec(10);
  int tcp_link1_ = 1;
  int tcp_link2_ = 1;
  int mp_count_ = 2;
  SimTime min_rto_ = 0;
  std::uint64_t recv_buffer_pkts_ = 0;
  const Section* section_;
  std::unique_ptr<traffic::PoissonFlowGenerator> gen_;
  std::vector<std::unique_ptr<mptcp::MptcpConnection>> persistent_;
  std::uint64_t pm_opened_ = 0;
  std::uint64_t pm_dropped_ = 0;
  std::uint64_t pm_reprobes_ = 0;
};

// ---------------------------------------------------------------------------
// Registrations
// ---------------------------------------------------------------------------

Registry make_builtin_registry() {
  Registry r;

  r.add_topology(
      "two_link",
      "client/server over two disjoint bottleneck links; optional fixed "
      "loss and on/off CBR per link",
      [](topo::Network& net, const Section& s, const BuildEnv& env) {
        auto t = std::make_unique<TwoLinkTopo>(net, link_spec(s, "link1"),
                                               link_spec(s, "link2"));
        for (int i = 0; i < 2; ++i) {
          const std::string link = "link" + std::to_string(i + 1);
          // Per run seed s, link i's loss stage draws from stream 4s + 2i
          // and its CBR from 4s + 2i + 1.
          const std::uint64_t seed =
              4 * env.seed + 2 * static_cast<std::uint64_t>(i);
          if (s.has(link + "_loss")) {
            const double p = s.get_number(link + "_loss");
            if (!(p >= 0.0 && p < 1.0)) {
              s.fail("'" + link + "_loss' must be in [0, 1)");
            }
            t->add_loss(net, i, p, seed);
          }
          if (s.has(link + "_cbr_rate")) {
            const double rate = s.get_rate_bps(link + "_cbr_rate");
            if (!(rate > 0.0)) s.fail("'" + link + "_cbr_rate' must be > 0");
            // Exponential on/off periods with these means ("0s" for both
            // = always on).
            t->add_cbr(net.events(), i, rate, s.get_time(link + "_cbr_on"),
                       s.get_time(link + "_cbr_off"), seed + 1);
          }
        }
        return t;
      });

  r.add_topology(
      "triangle", "Fig. 3: three links, three two-path flows in a cycle",
      [](topo::Network& net, const Section& s, const BuildEnv&) {
        const auto rates = s.get_number_array("rates_pps");
        if (rates.size() != 3) s.fail("'rates_pps' must list 3 link rates");
        const SimTime delay = s.get_time("one_way_delay", from_ms(10));
        std::array<double, 3> bps{};
        std::array<std::uint64_t, 3> bufs{};
        const double bdp_mult = s.get_number("buffer_bdp", 1.0);
        for (int i = 0; i < 3; ++i) {
          bps[static_cast<std::size_t>(i)] = topo::pkts_per_sec_to_bps(
              rates[static_cast<std::size_t>(i)]);
          bufs[static_cast<std::size_t>(i)] = topo::bdp_bytes(
              bps[static_cast<std::size_t>(i)], 2 * delay, bdp_mult);
        }
        return std::make_unique<TriangleTopo>(net, bps, delay, bufs);
      });

  r.add_topology(
      "parking_lot",
      "Fig. 2: three-link cycle, one-hop vs two-hop paths",
      [](topo::Network& net, const Section& s, const BuildEnv&) {
        const double rate = s.get_rate_bps("link_rate", 48e6);
        const SimTime rtt = s.get_time("rtt", from_ms(40));
        const std::uint64_t buf =
            s.get_bytes("buffer", topo::bdp_bytes(rate, rtt));
        return std::make_unique<ParkingLotTopo>(net, rate, rtt, buf);
      });

  r.add_topology(
      "torus", "Fig. 7/8: five-link ring, five two-path flows",
      [](topo::Network& net, const Section& s, const BuildEnv&) {
        std::array<double, topo::Torus::kLinks> rates{};
        if (s.has("rates_pps")) {
          const auto rs = s.get_number_array("rates_pps");
          if (rs.size() != topo::Torus::kLinks) {
            s.fail("'rates_pps' must list 5 link rates");
          }
          for (std::size_t i = 0; i < rs.size(); ++i) rates[i] = rs[i];
        } else {
          const double base = s.get_number("rate_pps", 1000.0);
          const double cap_c = s.get_number("cap_c", base);
          rates = {base, base, cap_c, base, base};
        }
        return std::make_unique<TorusTopo>(net, rates);
      });

  r.add_topology(
      "fat_tree", "§4: k-ary FatTree (k=8 -> 128 hosts, 100 Mb/s links)",
      [](topo::Network& net, const Section& s, const BuildEnv&) {
        const int k = static_cast<int>(s.get_int("k", 8));
        if (k < 2 || k % 2 != 0) s.fail("'k' must be even and >= 2");
        const double rate = s.get_rate_bps("link_rate", 100e6);
        const SimTime delay = s.get_time("per_hop_delay", from_us(20));
        const std::uint64_t buf =
            s.get_bytes("buffer", 100 * net::kDataPacketBytes);
        return std::make_unique<FatTreeTopo>(net, k, rate, delay, buf);
      });

  r.add_topology(
      "bcube", "§4: BCube(n,k) server-centric fabric (5,2 -> 125 hosts)",
      [](topo::Network& net, const Section& s, const BuildEnv&) {
        const int n = static_cast<int>(s.get_int("n", 5));
        const int k = static_cast<int>(s.get_int("k", 2));
        if (n < 2 || k < 0) s.fail("need n >= 2 and k >= 0");
        const double rate = s.get_rate_bps("link_rate", 100e6);
        const SimTime delay = s.get_time("per_hop_delay", from_us(20));
        const std::uint64_t buf =
            s.get_bytes("buffer", 100 * net::kDataPacketBytes);
        return std::make_unique<BCubeTopo>(net, n, k, rate, delay, buf);
      });

  r.add_topology(
      "wireless",
      "§5: WiFi (path 0) + 3G (path 1) client; [faults] scripts mobility",
      [](topo::Network& net, const Section& s, const BuildEnv&) {
        const double wifi_loss = s.get_number("wifi_loss", 0.0005);
        return std::make_unique<WirelessTopo>(net, wifi_loss);
      });

  auto simple_algo = [](const char* kind) {
    return [kind](const Section& s) { return make_algorithm(kind, s); };
  };
  r.add_algorithm("uncoupled", "independent TCP per subflow",
                  simple_algo("uncoupled"));
  r.add_algorithm("ewtcp", "equally-weighted TCP per subflow (§2.1)",
                  [](const Section& s) {
                    AlgorithmInstance a;
                    a.name = "ewtcp";
                    const double w = s.get_number("weight", 0.0);
                    a.cc = std::make_unique<cc::Ewtcp>(w);
                    return a;
                  });
  r.add_algorithm("coupled", "fully coupled windows (§2.3)",
                  simple_algo("coupled"));
  r.add_algorithm("semicoupled",
                  "coupled increase, per-path decrease (§2.4)",
                  [](const Section& s) {
                    AlgorithmInstance a;
                    a.name = "semicoupled";
                    const double aa = s.get_number("a", 1.0);
                    a.cc = std::make_unique<cc::SemiCoupled>(aa);
                    return a;
                  });
  r.add_algorithm("mptcp", "the paper's final algorithm (§2.5, LIA)",
                  simple_algo("mptcp"));
  r.add_algorithm("rfc6356", "RFC 6356 standardisation of LIA",
                  simple_algo("rfc6356"));
  r.add_algorithm("olia", "opportunistic LIA (arXiv 1812.03210 §2)",
                  simple_algo("olia"));
  r.add_algorithm("balia", "balanced LIA (arXiv 1812.03210 §3)",
                  simple_algo("balia"));
  r.add_algorithm("coupled_bbr",
                  "rate-based coupled BBR (arXiv 2002.06284): paced "
                  "subflows driven by delivery-rate estimation",
                  simple_algo("coupled_bbr"));
  r.add_algorithm("single",
                  "single-path TCP baseline (1 subflow, uncoupled)",
                  simple_algo("single"));

  r.add_traffic("persistent", "long-lived flows on the topology's slots",
                [](const Section& s) {
                  return std::make_unique<PersistentTraffic>(s);
                });
  r.add_traffic("permutation", "TP1: random derangement of hosts",
                [](const Section& s) {
                  return std::make_unique<MatrixTraffic>(
                      MatrixTraffic::Kind::kPermutation, s);
                });
  r.add_traffic("one_to_many",
                "TP2 (FatTree): N random destinations per host",
                [](const Section& s) {
                  return std::make_unique<MatrixTraffic>(
                      MatrixTraffic::Kind::kOneToMany, s);
                });
  r.add_traffic("sparse", "TP3: a fraction of hosts, one flow each",
                [](const Section& s) {
                  return std::make_unique<MatrixTraffic>(
                      MatrixTraffic::Kind::kSparse, s);
                });
  r.add_traffic("neighbors",
                "TP2 (BCube): every host to its one-digit neighbours",
                [](const Section& s) {
                  return std::make_unique<MatrixTraffic>(
                      MatrixTraffic::Kind::kNeighbors, s);
                });
  r.add_traffic("poisson",
                "§3: Poisson arrivals + long TCP + multipath companions",
                [](const Section& s) {
                  return std::make_unique<PoissonTraffic>(s);
                });
  r.add_traffic("churn",
                "Fig. 10 generalized: Poisson multipath arrivals with "
                "path management, reclaimed on completion",
                [](const Section& s) {
                  return std::make_unique<ChurnTraffic>(s);
                });

  // Data-placement policies ([scheduler] kind=...). Builders only map the
  // key to a DataSchedulerKind; policy state lives in mptcp/scheduler.cpp.
  auto simple_sched = [](mptcp::DataSchedulerKind kind) {
    return [kind](const Section&) { return kind; };
  };
  r.add_scheduler("stripe",
                  "lowest-numbered subflow with window space (default)",
                  simple_sched(mptcp::DataSchedulerKind::kStripe));
  r.add_scheduler("min_rtt_first",
                  "prefer the active subflow with the smallest srtt",
                  simple_sched(mptcp::DataSchedulerKind::kMinRttFirst));
  r.add_scheduler("redundant",
                  "duplicate fresh data across all active subflows",
                  simple_sched(mptcp::DataSchedulerKind::kRedundant));
  r.add_scheduler("blest",
                  "BLEST-style: hold fresh data off slow subflows that "
                  "would stall the faster path's send window",
                  simple_sched(mptcp::DataSchedulerKind::kBlest));

  return r;
}

}  // namespace

const Registry& builtin_registry() {
  static const Registry registry = make_builtin_registry();
  return registry;
}

}  // namespace mpsim::scenario
