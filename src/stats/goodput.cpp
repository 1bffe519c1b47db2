#include "stats/goodput.hpp"

#include "stats/monitors.hpp"

namespace mpsim::stats {

void GoodputMeter::mark() {
  t0_ = events_.now();
  base_.clear();
  // clear() keeps capacity, so only the first mark() allocates; marks are
  // measurement-window granularity anyway, not per packet.
  // mpsim-analyze: allow(hot-alloc)
  for (const auto* c : conns_) base_.push_back(c->delivered_pkts());
}

std::vector<double> GoodputMeter::mbps() const {
  std::vector<double> out;
  const SimTime elapsed = events_.now() - t0_;
  if (elapsed <= 0) {
    out.assign(conns_.size(), 0.0);
    return out;
  }
  for (std::size_t i = 0; i < conns_.size(); ++i) {
    out.push_back(pkts_to_mbps(conns_[i]->delivered_pkts() - base_[i],
                               elapsed));
  }
  return out;
}

}  // namespace mpsim::stats
