// n bottleneck links in a ring and n two-path flows: flow f stripes over
// link f (path 0) and link (f+1) mod n (path 1), so every link is shared
// by two multipath flows. Each link is a Queue+Pipe with an ACK Pipe of
// equal delay. The paper's two instances:
//
//   Fig. 3, congestion balancing: three links of unequal capacity
//     ("tri0".."tri2"). EWTCP splits each link roughly evenly whatever
//     its congestion, so flow totals and loss rates differ; COUPLED only
//     uses a path with the minimum loss rate among its paths, which
//     equalises loss and gives every flow total capacity / 3; MPTCP lands
//     close to COUPLED.
//   Fig. 7, the torus: five links ("torusA".."torusE"), every RTT 100 ms,
//     buffers one bandwidth-delay product. Shrinking link C pushes its two
//     flows onto B and D, whose flows shift to A and E; with perfect
//     balancing loss rates equalise across the ring (Fig. 8 plots
//     p_A / p_C).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "topo/network.hpp"

namespace mpsim::topo {

struct RingLink {
  std::string name;  // elements <name>/q, <name>/p and <name>/ack
  double rate_bps;
  SimTime one_way_delay;
  std::uint64_t buf_bytes;
};

class Ring : public Topology {
 public:
  // Builds the links in order, each as its queue and pipe, then its ACK
  // pipe.
  Ring(Network& net, const std::vector<RingLink>& links);

  // Flow f's path 0 rides link f, its path 1 link (f+1) mod n.
  Path fwd(int flow, int path) const;
  Path rev(int flow, int path) const;

  net::Queue& queue(int link) { return *links_[link].queue; }

  int flow_slots() const override { return static_cast<int>(links_.size()); }
  std::vector<PathPair> flow_paths(int slot, int n) override {
    return first_paths({{fwd(slot, 0), rev(slot, 0)},
                        {fwd(slot, 1), rev(slot, 1)}},
                       n);
  }
  std::vector<net::Queue*> queues() override;

 private:
  int link_of(int flow, int path) const {
    return (flow + path) % flow_slots();
  }
  std::vector<Link> links_;
  std::vector<net::Pipe*> ack_;
};

}  // namespace mpsim::topo
