#include "topo/fat_tree.hpp"

#include <numeric>
#include <string>

#include "core/check.hpp"

namespace mpsim::topo {

FatTree::FatTree(Network& net, int k, double link_rate_bps,
                 SimTime per_hop_delay, std::uint64_t buf_bytes)
    : net_(net), k_(k), half_k_(k / 2), per_hop_delay_(per_hop_delay) {
  MPSIM_CHECK(k % 2 == 0 && k >= 2, "fat-tree arity must be even, >= 2");
  const int hosts = num_hosts();
  const int pods = k_;
  const int cores = half_k_ * half_k_;

  auto mk = [&](const std::string& name) {
    return net_.add_link(name, link_rate_bps, per_hop_delay_, buf_bytes);
  };

  host_up_.reserve(hosts);
  host_down_.reserve(hosts);
  for (int h = 0; h < hosts; ++h) {
    host_up_.push_back(mk("ft/h" + std::to_string(h) + "/up"));
    host_down_.push_back(mk("ft/h" + std::to_string(h) + "/down"));
  }

  edge_agg_.resize(pods);
  agg_edge_.resize(pods);
  agg_core_.resize(pods);
  for (int p = 0; p < pods; ++p) {
    edge_agg_[p].resize(half_k_);
    agg_edge_[p].resize(half_k_);
    agg_core_[p].resize(half_k_);
    for (int e = 0; e < half_k_; ++e) {
      for (int a = 0; a < half_k_; ++a) {
        edge_agg_[p][e].push_back(mk("ft/p" + std::to_string(p) + "/e" +
                                     std::to_string(e) + "-a" +
                                     std::to_string(a)));
      }
    }
    for (int a = 0; a < half_k_; ++a) {
      for (int e = 0; e < half_k_; ++e) {
        agg_edge_[p][a].push_back(mk("ft/p" + std::to_string(p) + "/a" +
                                     std::to_string(a) + "-e" +
                                     std::to_string(e)));
      }
      for (int c = 0; c < half_k_; ++c) {
        agg_core_[p][a].push_back(mk("ft/p" + std::to_string(p) + "/a" +
                                     std::to_string(a) + "-c" +
                                     std::to_string(c)));
      }
    }
  }

  core_agg_.resize(cores);
  for (int c = 0; c < cores; ++c) {
    for (int p = 0; p < pods; ++p) {
      core_agg_[c].push_back(
          mk("ft/c" + std::to_string(c) + "-p" + std::to_string(p)));
    }
  }
}

std::vector<int> FatTree::candidates(int src, int dst) const {
  MPSIM_CHECK(src != dst && src >= 0 && dst >= 0 && src < num_hosts() &&
                  dst < num_hosts(),
              "host indices out of range or equal");
  int count = half_k_ * half_k_;  // cross-pod: one per (agg, core) choice
  if (pod_of(src) == pod_of(dst)) {
    // Same pod: one per aggregation switch; same edge switch: one.
    count = edge_of(src) == edge_of(dst) ? 1 : half_k_;
  }
  std::vector<int> c(static_cast<std::size_t>(count));
  std::iota(c.begin(), c.end(), 0);
  return c;
}

Path FatTree::build_path(int src, int dst, int c, net::Pipe& dlv) const {
  const int ps = pod_of(src), pd = pod_of(dst);
  const int es = edge_of(src), ed = edge_of(dst);
  const std::size_t links = ps != pd ? 5 : es != ed ? 3 : 1;
  Path p;
  p.reserve(2 * links + 2);
  append_link(p, host_up_[src]);  // on one edge switch, the only link up
  if (ps != pd) {
    // Cross-pod: candidate c = a*k/2 + i climbs through aggregation switch
    // a to core switch c, which is reachable from aggregation index a in
    // every pod.
    const int a = c / half_k_;
    append_link(p, edge_agg_[ps][es][a]);
    append_link(p, agg_core_[ps][a][c % half_k_]);
    append_link(p, core_agg_[c][pd]);
    append_link(p, agg_edge_[pd][a][ed]);
  } else if (es != ed) {
    // Same pod: up to aggregation switch c and back down.
    append_link(p, edge_agg_[ps][es][c]);
    append_link(p, agg_edge_[ps][c][ed]);
  }
  // Terminal hop: the dst host's access queue, then the call's delivery
  // pipe.
  p.push_back(host_down_[dst].queue);
  p.push_back(&dlv);
  return p;
}

std::vector<Path> FatTree::build_paths(int src, int dst,
                                       const std::vector<int>& choices) {
  // A delivery pipe of this call's own, created before any path: shared by
  // all paths returned (they all end at the same host) but by no other
  // connection.
  net::Pipe& dlv = net_.add_pipe(
      "ft/dlv" + std::to_string(dlv_count_++) + "/p", per_hop_delay_);
  std::vector<Path> out;
  out.reserve(choices.size());
  for (int c : choices) out.push_back(build_path(src, dst, c, dlv));
  return out;
}

std::vector<Path> FatTree::paths(int src, int dst) {
  return build_paths(src, dst, candidates(src, dst));
}

std::vector<Path> FatTree::sample_paths(int src, int dst, int n, Rng& rng) {
  std::vector<int> pick = candidates(src, dst);
  if (static_cast<int>(pick.size()) > n) {
    // Shuffling the candidates' indices draws what shuffling the built
    // paths would, and builds only the n kept.
    rng.shuffle(pick.data(), pick.size());
    pick.resize(static_cast<std::size_t>(n));
  }
  return build_paths(src, dst, pick);
}

Path FatTree::ack_path(const Path& fwd) {
  // Forward paths alternate queue/pipe, so hops = size/2; the ACK pipe
  // carries the same total propagation delay. One pipe per call (see the
  // header).
  const SimTime delay =
      per_hop_delay_ * static_cast<SimTime>(fwd.size() / 2);
  net::Pipe& pipe =
      net_.add_pipe("ft/ack" + std::to_string(ack_count_++), delay);
  return {&pipe};
}

std::vector<const net::Queue*> FatTree::access_queues() const {
  std::vector<const net::Queue*> qs;
  for (const Link& l : host_up_) qs.push_back(l.queue);
  for (const Link& l : host_down_) qs.push_back(l.queue);
  return qs;
}

std::vector<const net::Queue*> FatTree::core_queues() const {
  std::vector<const net::Queue*> qs;
  for (const auto& pod : edge_agg_)
    for (const auto& sw : pod)
      for (const Link& l : sw) qs.push_back(l.queue);
  for (const auto& pod : agg_edge_)
    for (const auto& sw : pod)
      for (const Link& l : sw) qs.push_back(l.queue);
  for (const auto& pod : agg_core_)
    for (const auto& sw : pod)
      for (const Link& l : sw) qs.push_back(l.queue);
  for (const auto& core : core_agg_)
    for (const Link& l : core) qs.push_back(l.queue);
  return qs;
}

std::vector<PathPair> FatTree::host_paths(int src, int dst, int n,
                                          Rng& rng) {
  return sample_path_pairs(*this, src, dst, n, rng);
}

std::vector<net::Queue*> FatTree::queues() {
  std::vector<net::Queue*> qs;
  for (const auto& part : {access_queues(), core_queues()}) {
    for (const auto* q : part) qs.push_back(const_cast<net::Queue*>(q));
  }
  return qs;
}

std::vector<PathPair> sample_path_pairs(FatTree& ft, int src, int dst, int n,
                                        Rng& rng) {
  std::vector<Path> fwd = ft.sample_paths(src, dst, n, rng);
  std::vector<PathPair> out;
  out.reserve(fwd.size());
  for (auto& p : fwd) {
    auto rev = ft.ack_path(p);
    out.emplace_back(std::move(p), std::move(rev));
  }
  return out;
}

}  // namespace mpsim::topo
