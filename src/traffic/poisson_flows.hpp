// Dynamic workload for §3's second server experiment: Poisson flow
// arrivals with Pareto-distributed sizes (mean 200 kB in the paper), and an
// arrival rate that alternates between a light and a heavy phase.
//
// Each arrival creates a finite connection via a caller-supplied factory
// (so the generator is topology-agnostic — single-path TCP or multipath
// with a PathManager, the factory decides); completions are counted.
// Completed flows are reclaimed (destroyed, their pool/arena state
// returned) once the wire-reference ledger shows no packet in flight
// references them — deferred teardown, so memory is bounded by the
// *live* flow count at churn scale rather than the all-time total.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/event_list.hpp"
#include "core/rng.hpp"
#include "mptcp/connection.hpp"

namespace mpsim::traffic {

struct PoissonConfig {
  double light_rate_per_sec = 10.0;
  double heavy_rate_per_sec = 60.0;
  SimTime phase_duration = from_sec(10);  // alternate light/heavy
  double pareto_shape = 2.0;              // alpha > 1 (finite mean)
  double mean_flow_bytes = 200e3;         // paper: 200 kB
  std::uint64_t seed = 1;
};

// A flow size in bytes -> whole packets, clamped to >= 1: a Pareto draw
// can be smaller than one MSS (degenerate configs — shape near 1 or a tiny
// mean — push xm toward 0), and an unclamped 0 would build a connection
// with app_limit_pkts == 0, which means *unlimited*: it never sends its
// (empty) transfer to completion and never counts as completed. A free
// function so the regression test can probe the boundary directly.
inline std::uint64_t size_to_pkts(double bytes) {
  const auto pkts =
      static_cast<std::uint64_t>(std::ceil(bytes / net::kDataPacketBytes));
  return std::max<std::uint64_t>(1, pkts);
}

class PoissonFlowGenerator : public EventSource {
 public:
  // `factory(name, size_pkts)` builds a started connection carrying
  // `size_pkts` packets of application data.
  using Factory = std::function<std::unique_ptr<mptcp::MptcpConnection>(
      const std::string&, std::uint64_t)>;

  PoissonFlowGenerator(EventList& events, std::string name,
                       const PoissonConfig& cfg, Factory factory);

  void start(SimTime at);
  void on_event() override;

  // Destroy every completed flow whose wire-reference ledger reads zero
  // (MptcpConnection::reclaimable()): no packet anywhere in the network
  // still points at its sinks, so teardown cannot leave a dangling
  // reference. Runs automatically at each arrival; public so tests and
  // end-of-run sweeps can force a final pass. Returns flows destroyed.
  std::size_t reclaim_completed();

  // Called on each flow just before reclamation destroys it, so owners can
  // harvest per-flow state (e.g. PathManager counters) that dies with it.
  std::function<void(mptcp::MptcpConnection&)> on_reclaim;

  std::uint64_t flows_started() const { return flows_started_; }
  std::uint64_t flows_completed() const { return flows_completed_; }
  std::uint64_t flows_reclaimed() const { return flows_reclaimed_; }
  // Connections currently owned (live + completed-but-not-yet-reclaimable).
  std::size_t flows_held() const { return flows_.size(); }
  const std::vector<std::unique_ptr<mptcp::MptcpConnection>>& held() const {
    return flows_;
  }

 private:
  std::uint64_t draw_size_pkts();

  EventList& events_;
  PoissonConfig cfg_;
  Factory factory_;
  Rng rng_;
  SimTime started_at_ = 0;
  std::uint64_t flows_started_ = 0;
  std::uint64_t flows_completed_ = 0;
  std::uint64_t flows_reclaimed_ = 0;
  std::vector<std::unique_ptr<mptcp::MptcpConnection>> flows_;
};

}  // namespace mpsim::traffic
