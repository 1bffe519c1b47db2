#include "traffic/poisson_flows.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

namespace mpsim::traffic {

PoissonFlowGenerator::PoissonFlowGenerator(EventList& events,
                                           std::string name,
                                           const PoissonConfig& cfg,
                                           Factory factory)
    : EventSource(events, std::move(name)),
      events_(events),
      cfg_(cfg),
      factory_(std::move(factory)),
      rng_(cfg.seed) {}

void PoissonFlowGenerator::start(SimTime at) {
  started_at_ = at;
  events_.schedule_at(*this, at);
}

std::uint64_t PoissonFlowGenerator::draw_size_pkts() {
  // Pareto(alpha, xm) has mean alpha*xm/(alpha-1); solve xm for the
  // configured mean.
  const double alpha = cfg_.pareto_shape;
  const double xm = cfg_.mean_flow_bytes * (alpha - 1.0) / alpha;
  const double bytes = rng_.pareto(alpha, xm);
  // size_to_pkts owns the >= 1 pkt clamp; see its comment for why a
  // 0-packet flow would never complete.
  return size_to_pkts(bytes);
}

std::size_t PoissonFlowGenerator::reclaim_completed() {
  std::size_t reclaimed = 0;
  auto keep = flows_.begin();
  for (auto& f : flows_) {
    if (f->reclaimable()) {
      if (on_reclaim) on_reclaim(*f);
      // Destruction cancels the flow's pending events and returns its
      // arena rows; the wire-refs gate guarantees no packet still in a
      // queue or pipe can call back into it.
      f.reset();
      ++reclaimed;
    } else {
      *keep++ = std::move(f);
    }
  }
  flows_.erase(keep, flows_.end());
  flows_reclaimed_ += reclaimed;
  return reclaimed;
}

void PoissonFlowGenerator::on_event() {
  const SimTime now = events_.now();

  // Tear down what finished before building more: reclamation at arrival
  // granularity keeps held connections proportional to the live count.
  reclaim_completed();

  // Launch one flow.
  const std::uint64_t size = draw_size_pkts();
  // Flow churn allocates at flow-arrival granularity (Poisson rate, many
  // thousands of packet events apart), not per packet event.
  std::string fname = EventSource::name() + "/f";
  // mpsim-analyze: allow(hot-alloc)
  fname += std::to_string(flows_started_);
  auto conn = factory_(std::move(fname), size);
  ++flows_started_;
  conn->on_complete = [this] { ++flows_completed_; };
  // mpsim-analyze: allow(hot-alloc)
  flows_.push_back(std::move(conn));

  // Schedule the next arrival from the current phase's rate.
  const auto phase = static_cast<std::uint64_t>(
      (now - started_at_) / cfg_.phase_duration);
  const double rate = (phase % 2 == 0) ? cfg_.light_rate_per_sec
                                       : cfg_.heavy_rate_per_sec;
  const SimTime gap = from_sec(rng_.exponential(1.0 / rate));
  events_.schedule_at(*this, now + std::max<SimTime>(1, gap));
}

}  // namespace mpsim::traffic
