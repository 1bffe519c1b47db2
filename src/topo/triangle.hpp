// Fig. 3's congestion-balancing scenario: three links of unequal capacity;
// flows A, B, C each stripe over two of them in a cycle (A: links 0,1;
// B: links 1,2; C: links 2,0). Every link is shared by two subflows of
// different flows.
//
// EWTCP splits each link roughly evenly regardless of congestion, so flow
// totals are unequal and loss rates differ across links. COUPLED only uses
// a path if it has the minimum loss rate among its available paths, which
// forces all links to equal loss and all flows to equal throughput
// (total capacity / 3). MPTCP lands close to COUPLED.
#pragma once

#include <array>

#include "topo/network.hpp"

namespace mpsim::topo {

class Triangle : public Topology {
 public:
  Triangle(Network& net, const std::array<double, 3>& rates_bps,
           SimTime one_way_delay, const std::array<std::uint64_t, 3>& bufs);

  static constexpr int kFlows = 3;

  // Flow f's two paths: path 0 rides link f, path 1 rides link (f+1)%3.
  Path fwd(int flow, int path) const;
  Path rev(int flow, int path) const;

  net::Queue& queue(int link) { return *links_[link].queue; }

  int flow_slots() const override { return kFlows; }
  std::vector<PathPair> flow_paths(int slot, int n) override {
    return first_paths({{fwd(slot, 0), rev(slot, 0)},
                        {fwd(slot, 1), rev(slot, 1)}},
                       n);
  }
  std::vector<net::Queue*> queues() override {
    return {&queue(0), &queue(1), &queue(2)};
  }

 private:
  int link_of(int flow, int path) const { return (flow + path) % 3; }
  Link links_[3];
  net::Pipe* ack_[3];
};

}  // namespace mpsim::topo
