// Example: multipath TCP in a FatTree data center (§4 scenario).
//
// Builds a k=4 FatTree (16 hosts), runs a random permutation of
// host-to-host flows, and compares single-path TCP over ECMP-style random
// routing against MPTCP striping over 4 paths. Prints per-flow goodput
// and utilization — the core story of §4: randomized single paths collide
// in the core and strand capacity; multipath finds it.
//
// Run: ./datacenter_fattree [k] [paths]
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <vector>

#include "cc/mptcp_lia.hpp"
#include "cc/uncoupled.hpp"
#include "core/rng.hpp"
#include "example_trace.hpp"
#include "mptcp/connection.hpp"
#include "stats/monitors.hpp"
#include "stats/summary.hpp"
#include "topo/fat_tree.hpp"
#include "topo/network.hpp"
#include "traffic/traffic_matrix.hpp"

namespace {

using namespace mpsim;

std::vector<double> run(int k, int npaths, bool multipath) {
  EventList events;
  examples::ExampleTrace et(
      events, multipath ? "datacenter_fattree_mptcp"
                        : "datacenter_fattree_single");
  topo::Network net(events);
  topo::FatTree ft(net, k);
  Rng rng(2026);
  auto tm = traffic::permutation_tm(ft.num_hosts(), rng);

  std::vector<std::unique_ptr<mptcp::MptcpConnection>> flows;
  int idx = 0;
  for (const auto& pair : tm) {
    auto conn = std::make_unique<mptcp::MptcpConnection>(
        events, "flow" + std::to_string(idx++),
        multipath ? static_cast<const cc::CongestionControl&>(
                        cc::mptcp_lia())
                  : cc::uncoupled());
    for (auto& path : ft.sample_paths(pair.src, pair.dst,
                                      multipath ? npaths : 1, rng)) {
      auto ack = ft.ack_path(path);
      conn->add_subflow(path, ack);
    }
    conn->start(from_ms(idx % 16));
    flows.push_back(std::move(conn));
  }

  events.run_until(from_sec(1));
  std::vector<std::uint64_t> base;
  for (auto& f : flows) base.push_back(f->delivered_pkts());
  events.run_until(from_sec(4));

  std::vector<double> mbps;
  for (std::size_t i = 0; i < flows.size(); ++i) {
    mbps.push_back(stats::pkts_to_mbps(flows[i]->delivered_pkts() - base[i],
                                       from_sec(3)));
  }
  return mbps;
}

void describe(const char* name, const std::vector<double>& mbps) {
  std::printf("%-24s mean %5.1f  min %5.1f  max %5.1f Mb/s   "
              "utilization %4.1f%%   Jain %.3f\n",
              name, stats::mean(mbps), stats::minimum(mbps),
              stats::maximum(mbps), stats::mean(mbps), /* 100 Mb/s NICs */
              stats::jain_index(mbps));
}

}  // namespace

int main(int argc, char** argv) {
  const int k = argc > 1 ? std::atoi(argv[1]) : 4;
  const int npaths = argc > 2 ? std::atoi(argv[2]) : 4;

  std::printf("FatTree k=%d: %d hosts, permutation traffic, 100 Mb/s links\n\n",
              k, k * k * k / 4);
  describe("single-path TCP (ECMP):", run(k, npaths, false));
  describe("MPTCP:", run(k, npaths, true));
  std::printf(
      "\nMPTCP's min-flow and fairness improve because no flow stays "
      "stuck behind a core collision — see examples/scenarios/"
      "fig13_fattree.toml for the full k=8 paper configuration.\n");
  return 0;
}
