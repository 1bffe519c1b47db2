// Quickstart: the smallest useful mpsim program.
//
// Build a client with two independent 10 Mb/s paths to a server, run a
// regular TCP on one path and an MPTCP connection over both, and compare
// goodput. Shows the three core steps of the public API:
//
//   1. build a Network (queues/pipes) inside an EventList,
//   2. create connections (congestion control is a pluggable constant),
//   3. run the event loop and read the counters.
//
// Run: ./quickstart
#include <cstdio>

#include "cc/mptcp_lia.hpp"
#include "mptcp/connection.hpp"
#include "topo/network.hpp"
#include "topo/two_link.hpp"

int main() {
  using namespace mpsim;

  EventList events;
  topo::Network net(events);

  // Two 10 Mb/s links, 20 ms RTT each, one bandwidth-delay product of
  // buffering (the classic sweet spot for NewReno).
  topo::LinkSpec spec;
  spec.rate_bps = 10e6;
  spec.one_way_delay = from_ms(10);
  spec.buf_bytes = topo::bdp_bytes(spec.rate_bps, from_ms(20));
  topo::TwoLink links(net, spec, spec);

  // A regular TCP using only link 0.
  auto tcp = mptcp::make_single_path_tcp(events, "plain-tcp", links.fwd(0),
                                         links.rev(0));

  // An MPTCP connection striping over both links with the paper's coupled
  // congestion control (eq. (1), "LIA").
  mptcp::MptcpConnection mptcp(events, "mptcp", cc::mptcp_lia());
  mptcp.add_subflow(links.fwd(0), links.rev(0));
  mptcp.add_subflow(links.fwd(1), links.rev(1));

  tcp->start(0);
  mptcp.start(0);

  // Simulate 30 seconds.
  events.run_until(from_sec(30));

  std::printf("after 30 simulated seconds:\n");
  std::printf("  plain TCP (link 0 only): %6.2f Mb/s\n",
              tcp->delivered_mbps(from_sec(30)));
  std::printf("  MPTCP (links 0 + 1):     %6.2f Mb/s\n",
              mptcp.delivered_mbps(from_sec(30)));
  std::printf("  MPTCP subflow windows:   %.1f / %.1f packets\n",
              mptcp.subflow(0).cwnd(), mptcp.subflow(1).cwnd());
  std::printf(
      "\nNote how MPTCP shares link 0 fairly with the TCP flow while also "
      "filling the idle link 1: its total is ~1.5x the bottleneck rate, "
      "not 2x.\n");
  return 0;
}
