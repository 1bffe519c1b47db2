#include "topo/two_link.hpp"

#include <utility>

namespace mpsim::topo {

TwoLink::TwoLink(Network& net, const LinkSpec& link1, const LinkSpec& link2,
                 std::array<std::string, 2> names)
    : names_(std::move(names)) {
  const LinkSpec* specs[2] = {&link1, &link2};
  for (int i = 0; i < 2; ++i) {
    // Variable-rate queues (identical to fixed-rate ones at a constant
    // rate) so both bottlenecks accept down/up/ramp faults.
    links_[i] = net.add_variable_link(names_[i], specs[i]->rate_bps,
                                      specs[i]->one_way_delay,
                                      specs[i]->buf_bytes);
    ack_pipes_[i] = &net.add_pipe(names_[i] + "/ack", specs[i]->one_way_delay);
  }
}

void TwoLink::add_loss(Network& net, int link, double p, std::uint64_t seed) {
  loss_[link] = &net.add_lossy(names_[link] + "/loss", p, seed);
}

void TwoLink::add_cbr(Network& net, int link, double rate_bps,
                      SimTime mean_on, SimTime mean_off, std::uint64_t seed) {
  const std::string name = names_[link] + "/cbr";
  Cbr& c = cbr_[link];
  c.sink = std::make_unique<net::CountingSink>(name + "/sink");
  Path path = fwd(link);
  path.push_back(c.sink.get());
  c.route = std::make_unique<net::Route>(path);
  c.source = std::make_unique<net::OnOffCbrSource>(
      net.events(), name, *c.route, rate_bps, mean_on, mean_off, seed);
  c.source->start(0);
}

Path TwoLink::fwd(int link) const {
  Path path = path_of({&links_[link]});
  if (loss_[link] != nullptr) path.insert(path.begin(), loss_[link]);
  return path;
}

Path TwoLink::rev(int link) const { return {ack_pipes_[link]}; }

std::vector<PathPair> TwoLink::flow_paths(int /*slot*/, int n) {
  return first_paths({{fwd(0), rev(0)}, {fwd(1), rev(1)}}, n);
}

}  // namespace mpsim::topo
