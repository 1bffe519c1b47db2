// The two-independent-links scenario that recurs throughout the paper:
// Fig. 1 (shared-bottleneck fairness), Fig. 5/9 (dynamic load), Fig. 10
// (dual-homed server), Fig. 14/15/16 (wireless client / RTT sweep).
//
// A client M reaches a server over two disjoint bottleneck links. Each link
// may carry additional single-path competing flows. The forward direction
// is a Queue+Pipe; the ACK direction a Pipe of equal delay. A link may also
// get a fixed-loss stage in front of its queue (§2.3) and on/off CBR
// cross-traffic (§3 table). The §5 WiFi/3G client is one with radio
// parameters (topo/wireless.hpp).
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <string>

#include "topo/network.hpp"

namespace mpsim::topo {

struct LinkSpec {
  double rate_bps = 100e6;
  SimTime one_way_delay = from_ms(5);  // per direction; RTT = 2x
  std::uint64_t buf_bytes = 50 * net::kDataPacketBytes;

  static LinkSpec pkt_rate(double pps, SimTime one_way, double bdp_mult) {
    LinkSpec s;
    s.rate_bps = pkts_per_sec_to_bps(pps);
    s.one_way_delay = one_way;
    s.buf_bytes = bdp_bytes(s.rate_bps, 2 * one_way, bdp_mult);
    return s;
  }
};

class TwoLink : public Topology {
 public:
  // Link i's elements are <names[i]>/q, /p and /ack, and its loss stage
  // and CBR source <names[i]>/loss and /cbr.
  TwoLink(Network& net, const LinkSpec& link1, const LinkSpec& link2,
          std::array<std::string, 2> names = {"link1", "link2"});

  // Bernoulli loss at probability `p` in front of link i's queue, on every
  // path through it built afterwards.
  void add_loss(Network& net, int link, double p, std::uint64_t seed);

  // On/off CBR through link i into a counting sink, started at t = 0, with
  // exponential on/off periods of these means ("0s" for both = always on).
  void add_cbr(Network& net, int link, double rate_bps, SimTime mean_on,
               SimTime mean_off, std::uint64_t seed);

  // Data path over link i (0 or 1) and the matching ACK return path.
  Path fwd(int link) const;
  Path rev(int link) const;

  // The bottleneck queue of link i (loss statistics, CBR injection point).
  net::Queue& queue(int link) { return *links_[link].queue; }
  const net::Queue& queue(int link) const { return *links_[link].queue; }

  // One flow slot; path i runs over link i.
  int flow_slots() const override { return 1; }
  std::vector<PathPair> flow_paths(int slot, int n) override;
  std::vector<net::Queue*> queues() override {
    return {&queue(0), &queue(1)};
  }

 private:
  struct Cbr {
    std::unique_ptr<net::CountingSink> sink;
    std::unique_ptr<net::Route> route;
    std::unique_ptr<net::OnOffCbrSource> source;
  };

  std::array<std::string, 2> names_;
  Link links_[2];
  net::Pipe* ack_pipes_[2];
  std::array<net::LossyLink*, 2> loss_{};
  std::array<Cbr, 2> cbr_;
};

}  // namespace mpsim::topo
