#include "topo/ring.hpp"

namespace mpsim::topo {

Ring::Ring(Network& net, const std::vector<RingLink>& links) {
  links_.reserve(links.size());
  ack_.reserve(links.size());
  for (const RingLink& l : links) {
    links_.push_back(
        net.add_link(l.name, l.rate_bps, l.one_way_delay, l.buf_bytes));
    ack_.push_back(&net.add_pipe(l.name + "/ack", l.one_way_delay));
  }
}

Path Ring::fwd(int flow, int path) const {
  return path_of({&links_[link_of(flow, path)]});
}

Path Ring::rev(int flow, int path) const {
  return {ack_[link_of(flow, path)]};
}

std::vector<net::Queue*> Ring::queues() {
  std::vector<net::Queue*> qs;
  for (const Link& l : links_) qs.push_back(l.queue);
  return qs;
}

}  // namespace mpsim::topo
