// Fig. 7's torus: five bottleneck links (A..E) in a ring, five two-path
// flows, flow i striping over links i and (i+1) mod 5, so each link serves
// two multipath flows. All RTTs 100 ms, buffers one bandwidth-delay
// product. Shrinking link C's capacity should push its two flows onto B
// and D, whose flows shift to A and E — with perfect balancing, loss rates
// equalise across all links (Fig. 8 plots p_A / p_C).
#pragma once

#include <array>

#include "topo/network.hpp"

namespace mpsim::topo {

class Torus : public Topology {
 public:
  static constexpr int kLinks = 5;

  // `rates_pps` per-link capacity in data packets per second (the paper's
  // unit); RTT fixed at 100 ms; buffers one BDP.
  Torus(Network& net, const std::array<double, kLinks>& rates_pps);

  // Flow f in [0,5): path 0 over link f, path 1 over link (f+1)%5.
  Path fwd(int flow, int path) const;
  Path rev(int flow, int path) const;

  net::Queue& queue(int link) { return *links_[link].queue; }
  const net::Queue& queue(int link) const { return *links_[link].queue; }

  int flow_slots() const override { return kLinks; }
  std::vector<PathPair> flow_paths(int slot, int n) override {
    return first_paths({{fwd(slot, 0), rev(slot, 0)},
                        {fwd(slot, 1), rev(slot, 1)}},
                       n);
  }
  std::vector<net::Queue*> queues() override {
    std::vector<net::Queue*> qs;
    for (const Link& l : links_) qs.push_back(l.queue);
    return qs;
  }

  static constexpr SimTime kRtt = from_ms(100);

 private:
  int link_of(int flow, int path) const { return (flow + path) % kLinks; }
  Link links_[kLinks];
  net::Pipe* ack_[kLinks];
};

}  // namespace mpsim::topo
