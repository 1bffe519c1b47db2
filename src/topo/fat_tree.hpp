// k-ary FatTree (Al-Fares et al. [2]), as simulated in §4: with k = 8,
// 128 single-interface hosts and 80 eight-port switches (32 edge, 32
// aggregation, 16 core), every link 100 Mb/s.
//
// Between hosts in different pods there are (k/2)^2 equal-length paths, one
// per (aggregation switch, core switch) choice; within a pod k/2 paths; on
// the same edge switch a single path. The paper's multipath experiments
// select up to 8 of these at random per host pair, and mimic ECMP by
// letting single-path TCP pick one of them at random.
//
// Every directed link is a Queue (serialization/buffer) followed by a Pipe
// (propagation). ACKs return over delay-matched pipes (the reverse
// direction is never the bottleneck in these workloads).
//
// The final delivery pipe and the ACK pipe are created per paths() /
// sample_paths() / ack_path() call, never shared between connections.
// Each pipe is an EventSource, so this construction order fixes every
// canonical event key (core/event_list.hpp); a shared pipe could also
// deliver several connections' packets in one wake-up, changing the event
// count.
#pragma once

#include <cstdint>
#include <vector>

#include "core/rng.hpp"
#include "topo/network.hpp"

namespace mpsim::topo {

class FatTree : public Topology {
 public:
  FatTree(Network& net, int k, double link_rate_bps = 100e6,
          SimTime per_hop_delay = from_us(20),
          std::uint64_t buf_bytes = 100 * net::kDataPacketBytes);

  int k() const { return k_; }
  int num_hosts() const override { return k_ * k_ * k_ / 4; }
  int num_switches() const { return k_ * k_ + k_ * k_ / 4; }

  // All shortest paths src -> dst ((k/2)^2, k/2 or 1 of them). Non-const:
  // each call creates the delivery pipe the returned paths end on.
  std::vector<Path> paths(int src, int dst);

  // A random sample of up to `n` distinct shortest paths: the first n of
  // paths() after a shuffle, but only those n are built.
  std::vector<Path> sample_paths(int src, int dst, int n, Rng& rng);

  // Delay-matched ACK return path for a forward path produced above: one
  // new pipe per call.
  Path ack_path(const Path& fwd);

  // Queue inventory for loss-rate distributions (Fig. 13 separates core
  // from access links).
  std::vector<const net::Queue*> access_queues() const;
  std::vector<const net::Queue*> core_queues() const;

  // Matrix traffic only: sample_path_pairs() between hosts; queues access
  // then core, the Fig. 13 reporting order.
  std::vector<PathPair> host_paths(int src, int dst, int n,
                                   Rng& rng) override;
  std::vector<net::Queue*> queues() override;

 private:
  int pod_of(int host) const { return host / (half_k_ * half_k_); }
  int edge_of(int host) const {  // edge switch index within its pod
    return (host % (half_k_ * half_k_)) / half_k_;
  }
  // Indices of the shortest paths src -> dst, in paths() order.
  std::vector<int> candidates(int src, int dst) const;
  // Candidate `c`, ending on the delivery pipe `dlv`.
  Path build_path(int src, int dst, int c, net::Pipe& dlv) const;
  // The listed candidates, after creating their delivery pipe.
  std::vector<Path> build_paths(int src, int dst,
                                const std::vector<int>& choices);

  Network& net_;
  int k_;
  int half_k_;
  SimTime per_hop_delay_;
  int dlv_count_ = 0;  // names per-call delivery pipes deterministically
  int ack_count_ = 0;  // names per-call ACK pipes deterministically

  // Directed links, addressed structurally.
  std::vector<Link> host_up_;    // host -> edge
  std::vector<Link> host_down_;  // edge -> host
  // [pod][edge][agg] and [pod][agg][edge]
  std::vector<std::vector<std::vector<Link>>> edge_agg_;
  std::vector<std::vector<std::vector<Link>>> agg_edge_;
  // [pod][agg][core-in-group] and [core][pod]
  std::vector<std::vector<std::vector<Link>>> agg_core_;
  std::vector<std::vector<Link>> core_agg_;
};

// Up to `n` sampled (fwd, ack) path pairs for one connection — the path
// selection every §4 FatTree experiment uses (n = 1 is the ECMP stand-in:
// one random shortest path).
std::vector<PathPair> sample_path_pairs(FatTree& ft, int src, int dst, int n,
                                        Rng& rng);

}  // namespace mpsim::topo
