#include "topo/bcube.hpp"

#include <string>

#include "core/check.hpp"

namespace mpsim::topo {

BCube::BCube(Network& net, int n, int k, double link_rate_bps,
             SimTime per_hop_delay, std::uint64_t buf_bytes)
    : net_(net), n_(n), k_(k), per_hop_delay_(per_hop_delay) {
  MPSIM_CHECK(n >= 2 && k >= 0, "BCube needs n >= 2 hosts/switch, k >= 0");
  hosts_ = 1;
  for (int l = 0; l <= k; ++l) hosts_ *= n;

  const int lv = levels();
  host_up_.reserve(static_cast<std::size_t>(hosts_) * lv);
  host_down_.reserve(static_cast<std::size_t>(hosts_) * lv);
  for (int h = 0; h < hosts_; ++h) {
    for (int l = 0; l < lv; ++l) {
      const std::string base =
          "bc/h" + std::to_string(h) + "l" + std::to_string(l);
      host_up_.push_back(
          net_.add_link(base + "/up", link_rate_bps, per_hop_delay, buf_bytes));
      host_down_.push_back(net_.add_link(base + "/down", link_rate_bps,
                                         per_hop_delay, buf_bytes));
    }
  }
}

int BCube::digit(int host, int level) const {
  int v = host;
  for (int l = 0; l < level; ++l) v /= n_;
  return v % n_;
}

int BCube::with_digit(int host, int level, int value) const {
  int scale = 1;
  for (int l = 0; l < level; ++l) scale *= n_;
  return host + (value - digit(host, level)) * scale;
}

void BCube::append_correction(Path& path, int cur, int level,
                              int value) const {
  const int next = with_digit(cur, level, value);
  const int lv = levels();
  append_link(path, host_up_[static_cast<std::size_t>(cur) * lv + level]);
  append_link(path, host_down_[static_cast<std::size_t>(next) * lv + level]);
}

Path BCube::single_path(int src, int dst) const {
  MPSIM_CHECK(src != dst, "source and destination must differ");
  Path path;
  int cur = src;
  for (int l = k_; l >= 0; --l) {
    if (digit(cur, l) != digit(dst, l)) {
      append_correction(path, cur, l, digit(dst, l));
      cur = with_digit(cur, l, digit(dst, l));
    }
  }
  return path;
}

std::vector<Path> BCube::paths(int src, int dst, Rng& rng) const {
  MPSIM_CHECK(src != dst, "source and destination must differ");
  const int lv = levels();
  std::vector<Path> out;
  out.reserve(static_cast<std::size_t>(lv));
  for (int i = 0; i < lv; ++i) {
    Path path;
    int cur = src;
    int detour_level = -1;
    if (digit(src, i) == digit(dst, i)) {
      // Digit i already matches: detour through a random sibling at level
      // i so this path still leaves on interface i (and stays disjoint
      // from the other paths' first hops).
      int alt = digit(src, i);
      while (alt == digit(src, i)) {
        alt = static_cast<int>(rng.next_below(static_cast<std::uint64_t>(n_)));
      }
      append_correction(path, cur, i, alt);
      cur = with_digit(cur, i, alt);
      detour_level = i;
    }
    for (int step = 0; step < lv; ++step) {
      const int l = (i + step) % lv;
      if (digit(cur, l) != digit(dst, l) && l != detour_level) {
        append_correction(path, cur, l, digit(dst, l));
        cur = with_digit(cur, l, digit(dst, l));
      }
    }
    if (detour_level >= 0) {
      // Undo the detour digit last.
      append_correction(path, cur, detour_level, digit(dst, detour_level));
      cur = with_digit(cur, detour_level, digit(dst, detour_level));
    }
    MPSIM_CHECK(cur == dst, "path construction must terminate at dst");
    out.push_back(std::move(path));
  }
  return out;
}

Path BCube::ack_path(const Path& fwd) {
  const SimTime delay =
      per_hop_delay_ * static_cast<SimTime>(fwd.size() / 2);
  auto it = ack_pipes_.find(delay);
  if (it == ack_pipes_.end()) {
    net::Pipe& pipe =
        net_.add_pipe("bc/ack" + std::to_string(to_us(delay)), delay);
    it = ack_pipes_.emplace(delay, &pipe).first;
  }
  return {it->second};
}

std::vector<int> BCube::neighbors(int host, int level) const {
  std::vector<int> out;
  for (int v = 0; v < n_; ++v) {
    if (v != digit(host, level)) out.push_back(with_digit(host, level, v));
  }
  return out;
}

std::vector<PathPair> BCube::host_paths(int src, int dst, int n, Rng& rng) {
  return sample_path_pairs(*this, src, dst, n, rng);
}

std::vector<std::pair<int, int>> BCube::neighbor_pairs() const {
  std::vector<std::pair<int, int>> tm;
  for (int h = 0; h < hosts_; ++h) {
    for (int l = 0; l < levels(); ++l) {
      for (int d : neighbors(h, l)) tm.emplace_back(h, d);
    }
  }
  return tm;
}

std::vector<net::Queue*> BCube::queues() {
  std::vector<net::Queue*> qs;
  for (const Link& l : host_up_) qs.push_back(l.queue);
  for (const Link& l : host_down_) qs.push_back(l.queue);
  return qs;
}

std::vector<PathPair> sample_path_pairs(BCube& bc, int src, int dst, int n,
                                        Rng& rng) {
  std::vector<PathPair> out;
  if (n <= 1) {
    auto p = bc.single_path(src, dst);
    auto ack = bc.ack_path(p);
    out.emplace_back(std::move(p), std::move(ack));
    (void)rng;
    return out;
  }
  auto all = bc.paths(src, dst, rng);
  for (int i = 0; i < n && i < static_cast<int>(all.size()); ++i) {
    out.emplace_back(all[static_cast<std::size_t>(i)],
                     bc.ack_path(all[static_cast<std::size_t>(i)]));
  }
  return out;
}

}  // namespace mpsim::topo
