// Fig. 2's efficiency scenario: three unidirectional links of equal
// capacity arranged in a cycle; three flows, where flow i can use a one-hop
// path over link i or a two-hop path over links i+1 and i+2.
//
// Splitting evenly gives every flow 8 Mb/s (each link carries three
// subflows); routing all traffic on the one-hop paths gives each flow the
// full 12 Mb/s. An algorithm that prefers less-congested paths finds the
// efficient allocation because the two-hop paths cross two bottlenecks and
// hence see roughly double the loss.
#pragma once

#include "topo/network.hpp"

namespace mpsim::topo {

class ParkingLot : public Topology {
 public:
  // `path_rtt` is the propagation RTT of *every* path, one- or two-hop:
  // per-link pipes carry a small fixed delay and the ACK pipes pad the
  // remainder, as the paper's analysis assumes equal RTTs (otherwise TCP's
  // RTT bias, not congestion, would drive traffic off the two-hop paths).
  ParkingLot(Network& net, double link_rate_bps, SimTime path_rtt,
             std::uint64_t buf_bytes);

  static constexpr int kFlows = 3;

  // Flow i's one-hop data path (link i).
  Path one_hop_fwd(int flow) const;
  // Flow i's two-hop data path (links i+1, i+2).
  Path two_hop_fwd(int flow) const;
  // ACK return paths (uncongested, delay-matched).
  Path one_hop_rev(int flow) const;
  Path two_hop_rev(int flow) const;

  net::Queue& queue(int link) { return *links_[link].queue; }

  // Path 0 = the one-hop path, path 1 = the two-hop detour (Fig. 2's
  // ordering).
  int flow_slots() const override { return kFlows; }
  std::vector<PathPair> flow_paths(int slot, int n) override {
    return first_paths({{one_hop_fwd(slot), one_hop_rev(slot)},
                        {two_hop_fwd(slot), two_hop_rev(slot)}},
                       n);
  }
  std::vector<net::Queue*> queues() override {
    return {&queue(0), &queue(1), &queue(2)};
  }

 private:
  Link links_[3];
  net::Pipe* ack_short_[3];
  net::Pipe* ack_long_[3];
};

}  // namespace mpsim::topo
