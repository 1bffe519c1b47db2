#include "topo/fat_tree.hpp"

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

std::vector<Path> FatTree::paths(int src, int dst) {
  MPSIM_CHECK(src != dst && src >= 0 && dst >= 0 && src < num_hosts() &&
                  dst < num_hosts(),
              "host indices out of range or equal");
  const int ps = pod_of(src), pd = pod_of(dst);
  const int es = edge_of(src), ed = edge_of(dst);
  std::vector<Path> out;

  // Terminal hop: the dst host's access queue, then a delivery pipe of
  // this call's own, shared by all paths returned (they all end at the
  // same host) but by no other connection.
  net::Pipe& dlv = net_.add_pipe(
      "ft/dlv" + std::to_string(dlv_count_++) + "/p", per_hop_delay_);
  auto append_delivery = [&](Path& p) {
    p.push_back(host_down_[dst].queue);
    p.push_back(&dlv);
  };

  if (ps == pd && es == ed) {
    // Same edge switch: one two-hop path through it.
    Path p;
    append_link(p, host_up_[src]);
    append_delivery(p);
    out.push_back(std::move(p));
    return out;
  }

  if (ps == pd) {
    // Same pod: up to an aggregation switch and back down, k/2 choices.
    for (int a = 0; a < half_k_; ++a) {
      Path p;
      append_link(p, host_up_[src]);
      append_link(p, edge_agg_[ps][es][a]);
      append_link(p, agg_edge_[ps][a][ed]);
      append_delivery(p);
      out.push_back(std::move(p));
    }
    return out;
  }

  // Cross-pod: (agg, core) choice; core switch c = a*k/2 + i is reachable
  // from aggregation index a in every pod.
  for (int a = 0; a < half_k_; ++a) {
    for (int i = 0; i < half_k_; ++i) {
      const int core = a * half_k_ + i;
      Path p;
      append_link(p, host_up_[src]);
      append_link(p, edge_agg_[ps][es][a]);
      append_link(p, agg_core_[ps][a][i]);
      append_link(p, core_agg_[core][pd]);
      append_link(p, agg_edge_[pd][a][ed]);
      append_delivery(p);
      out.push_back(std::move(p));
    }
  }
  return out;
}

std::vector<Path> FatTree::sample_paths(int src, int dst, int n, Rng& rng) {
  std::vector<Path> all = paths(src, dst);
  if (static_cast<int>(all.size()) <= n) return all;
  rng.shuffle(all.data(), all.size());
  all.resize(static_cast<std::size_t>(n));
  return all;
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
  std::vector<PathPair> out;
  for (auto& p : ft.sample_paths(src, dst, n, rng)) {
    auto rev = ft.ack_path(p);
    out.emplace_back(std::move(p), std::move(rev));
  }
  return out;
}

}  // namespace mpsim::topo
