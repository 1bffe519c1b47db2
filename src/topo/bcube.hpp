// BCube(n, k) (Guo et al. [8]), the server-centric topology of §4: hosts
// are addressed by k+1 base-n digits; a level-l switch connects the n hosts
// that share every digit except digit l. Hosts therefore have k+1
// interfaces and relay traffic for each other. The paper simulates
// BCube(5,2): 125 three-interface hosts and 5-port switches (25 per level).
//
// Routing corrects one differing digit per switch hop. The BCube routing
// algorithm yields k+1 paths leaving the source on distinct interfaces
// (hence NIC-disjoint): path i corrects digits in the rotated order
// i, i+1, ..., and when digit i already matches, takes a random detour at
// level i (out and back), matching "choosing the intermediate nodes at
// random when the algorithm needed a choice".
//
// Each (host, level) adjacency contributes two directed links: host ->
// switch (consuming the host's level-l NIC — this models the relay cost)
// and switch -> host.
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "core/rng.hpp"
#include "topo/network.hpp"

namespace mpsim::topo {

class BCube : public Topology {
 public:
  BCube(Network& net, int n, int k, double link_rate_bps = 100e6,
        SimTime per_hop_delay = from_us(20),
        std::uint64_t buf_bytes = 100 * net::kDataPacketBytes);

  int n() const { return n_; }
  int k() const { return k_; }
  int levels() const { return k_ + 1; }
  int num_hosts() const override { return hosts_; }
  int switches_per_level() const { return hosts_ / n_; }

  // The k+1 NIC-disjoint BCube paths from src to dst.
  std::vector<Path> paths(int src, int dst, Rng& rng) const;

  // Single-path routing: the path correcting digits in descending-level
  // order (BCube's default single route), as the ECMP-free baseline.
  Path single_path(int src, int dst) const;

  // Delay-matched ACK return path.
  Path ack_path(const Path& fwd);

  // Hosts adjacent to `host` at `level` (differ only in that digit) — the
  // TP2 destinations.
  std::vector<int> neighbors(int host, int level) const;

  // Matrix traffic only: sample_path_pairs() between hosts; TP2's
  // neighbour matrix, every host writing to its one-digit neighbours at
  // every level (replica placement close in the topology); every queue.
  std::vector<PathPair> host_paths(int src, int dst, int n,
                                   Rng& rng) override;
  std::vector<std::pair<int, int>> neighbor_pairs() const override;
  std::vector<net::Queue*> queues() override;

 private:
  int digit(int host, int level) const;
  int with_digit(int host, int level, int value) const;
  // Appends the two-hop digit correction cur -> (cur with digit l = v).
  void append_correction(Path& path, int cur, int level, int value) const;

  Network& net_;
  int n_;
  int k_;
  int hosts_;
  SimTime per_hop_delay_;

  // Indexed [host * levels + level].
  std::vector<Link> host_up_;    // host NIC at `level` -> its level switch
  std::vector<Link> host_down_;  // level switch -> host

  std::map<SimTime, net::Pipe*> ack_pipes_;
};

// Up to `n` (fwd, ack) path pairs for one connection. n <= 1 takes BCube's
// standard shortest route (digit correction) *without drawing from `rng`*,
// so a single-path run consumes the same rng stream as no run at all —
// multipath and single-path traffic matrices stay seed-comparable.
std::vector<PathPair> sample_path_pairs(BCube& bc, int src, int dst, int n,
                                        Rng& rng);

}  // namespace mpsim::topo
