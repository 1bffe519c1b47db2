// A multipath TCP connection: N subflows, a shared congestion-control
// algorithm coupling their windows, a data scheduler striping one
// application stream across them, and the receiving endpoint.
//
// This is the library's primary public type. Typical use:
//
//   EventList events;
//   MptcpConnection conn(events, "flow", cc::mptcp_lia());
//   conn.add_subflow(path1_fwd, path1_rev);
//   conn.add_subflow(path2_fwd, path2_rev);
//   conn.start(from_ms(10));
//   events.run_until(from_sec(30));
//   double mbps = conn.delivered_mbps(from_sec(30));
//
// Paths are the queue/pipe elements *between* the endpoints; the connection
// appends its own receiver (forward) and subflow (reverse) as final hops.
// A single-path regular TCP is simply a connection with one subflow and the
// UNCOUPLED algorithm (to which every coupled algorithm reduces at n = 1).
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "cc/congestion_control.hpp"
#include "core/event_list.hpp"
#include "mptcp/receiver.hpp"
#include "mptcp/scheduler.hpp"
#include "net/packet.hpp"
#include "tcp/subflow.hpp"

namespace mpsim::mptcp {

class PathManager;
struct PathManagerConfig;

struct ConnectionConfig {
  // Shared receive buffer in packets. The default is large enough that flow
  // control only binds in the dedicated §6 experiments.
  std::uint64_t recv_buffer_pkts = 1u << 20;
  // Application data to transfer, in packets; 0 = unlimited (long-lived).
  std::uint64_t app_limit_pkts = 0;
  // Opportunistic head-of-line reinjection: if the data-level cumulative
  // ACK has not advanced for this long while data is outstanding, the
  // oldest outstanding data sequence numbers are retransmitted on sibling
  // subflows. This is how a real MPTCP stack keeps one slow or stalled
  // subflow (deep in a long NewReno recovery, or in a radio outage) from
  // head-of-line-blocking the whole stream. 0 disables.
  SimTime hol_reinject_timeout = from_ms(300);
  // Data-placement policy (mptcp/scheduler.hpp registry). The default is
  // the paper's window-based striping, bit-exact with the pre-registry
  // behaviour.
  DataSchedulerKind scheduler = DataSchedulerKind::kStripe;
  tcp::SubflowConfig subflow;
};

// Implements cc::ConnectionView, which both the congestion controller's
// sibling sweep and the data scheduler's subflow ranking read.
class MptcpConnection : public cc::ConnectionView, public EventSource {
 public:
  MptcpConnection(EventList& events, std::string name,
                  const cc::CongestionControl& cc, ConnectionConfig cfg = {});

  // Teardown cancels every pending event of the connection, its receiver,
  // and its subflows, and returns all arena rows — a destroyed connection
  // leaves nothing behind in the simulation (the lifecycle contract the
  // Poisson churn generator's reclamation relies on). Out of line because
  // PathManager is incomplete here.
  ~MptcpConnection() override;

  // Register a path. `fwd_path` / `rev_path` are the network elements data
  // and ACKs traverse, in order, excluding endpoints. Returns the subflow.
  // May be called on a running connection: the new subflow joins the
  // stripe immediately (starting from its configured initial window) and
  // the coupled congestion controller sees it from the next ACK on.
  tcp::Subflow& add_subflow(const std::vector<net::PacketSink*>& fwd_path,
                            const std::vector<net::PacketSink*>& rev_path);

  // Attach a PathManager policy object (mptcp/path_manager.hpp) that owns
  // this connection's subflow-set decisions: which candidate paths to open
  // at start, when the threshold strategy adds one mid-transfer, and when
  // an RTO-dead subflow is dropped and re-probed. At most one per
  // connection; started together with the connection.
  PathManager& attach_path_manager(const PathManagerConfig& pm_cfg);
  PathManager* path_manager() { return path_manager_.get(); }
  const PathManager* path_manager() const { return path_manager_.get(); }

  // Begin transmitting at simulated time `at`.
  void start(SimTime at);

  // --- called by the subflows (tcp::Subflow) ---
  // Hand out the next data sequence number to transmit on this subflow, or
  // return false if none is available (application-limited,
  // flow-controlled, or complete).
  bool next_data(std::uint32_t subflow_id, std::uint64_t& data_seq);
  // Additive increase (in packets) per newly acked packet during
  // congestion avoidance on this subflow.
  double ca_increase(std::uint32_t subflow_id);
  // New congestion window after a loss event on this subflow.
  double window_after_loss(std::uint32_t subflow_id);
  // A (possibly updated) data-level cumulative ACK / receive window
  // arrived.
  void on_data_ack(std::uint64_t data_cum_ack, std::uint64_t rcv_window);
  // The subflow suffered a retransmission timeout; `outstanding` lists the
  // data sequence numbers still unacknowledged on it (candidates for
  // reinjection on sibling subflows).
  void on_subflow_rto(std::uint32_t subflow_id,
                      const std::vector<std::uint64_t>& outstanding);
  // Progress happened on this subflow (ACK processed): pump data into
  // sibling subflows whose constraints changed.
  void on_subflow_progress(std::uint32_t subflow_id);
  // Rate mode: feed the delivery-rate sample to the controller, then apply
  // the model it answers with (pacing rate into the subflow's RateHot row,
  // target inflight cap onto its window).
  void on_ack_sample(std::uint32_t subflow_id,
                     const cc::DeliveryRateSample& sample);

  // --- cc::ConnectionView (read by the congestion controller and the
  // data scheduler) ---
  // The coupled increase term sweeps every sibling on every ACK; these read
  // the subflows' SoA arena rows (cached in hot_) so the sweep walks
  // consecutive cache lines instead of dereferencing Subflow objects.
  std::size_t num_subflows() const override { return subflows_.size(); }
  // The congestion window as seen by coupled congestion control. During
  // NewReno fast recovery the cwnd is *inflated* by one packet per dupack
  // (the self-clocking transmit rule) and can transiently dwarf the real
  // window; the semantically meaningful value there is ssthresh, the
  // post-loss target the window deflates to on the full ACK.
  double cwnd_pkts(std::size_t r) const override {
    const SubflowHot& h = *hot_[r];
    return h.in_recovery != 0 ? std::min(h.cwnd, h.ssthresh) : h.cwnd;
  }
  double srtt_sec(std::size_t r) const override;
  bool subflow_active(std::size_t r) const override {
    return hot_[r]->active != 0;
  }
  double inflight_pkts(std::size_t r) const override {
    const SubflowHot& h = *hot_[r];
    return static_cast<double>(h.snd_nxt - h.snd_una);
  }
  RateHot* rate_state(std::size_t r) const override { return rate_hot_[r]; }
  double loss_interval_pkts(std::size_t r) const override {
    return subflows_[r]->loss_interval_pkts();
  }

  // --- EventSource (start trigger) ---
  void on_event() override;

  // Administrative subflow reset (fault injection): the subflow reacts as
  // if its RTO fired now — min window, go-back-N, backoff — and its
  // outstanding data becomes eligible for reinjection on siblings. `r` is
  // below subflow_cap(); a subflow not opened yet, like a dropped one, has
  // no timer to fire, so its reset does nothing.
  void reset_subflow(std::size_t r);
  // How many subflows this connection can ever have: the ones open now,
  // or up to its path manager's max_subflows.
  std::size_t subflow_cap() const;

  // --- subflow-set lifecycle (driven by the PathManager, or directly) ---
  // Drop subflow r from the live set: its outstanding data is handed to
  // the scheduler for sibling reinjection and the subflow stops sending
  // and is excluded from the coupled controller's sweeps. The row is never
  // erased (ids are positional: the receiver demuxes on them), so a
  // dropped subflow can later be re-probed. Emits a kSubflowDrop record.
  void drop_subflow(std::size_t r, bool rto_dead);
  // Re-probe a dropped subflow: fresh slow start on the same path.
  // Emits a kSubflowAdd record.
  void reactivate_subflow(std::size_t r);
  std::size_t num_active_subflows() const {
    std::size_t n = 0;
    for (const SubflowHot* h : hot_) n += (h->active != 0) ? 1 : 0;
    return n;
  }

  // --- observability ---
  tcp::Subflow& subflow(std::size_t r) { return *subflows_[r]; }
  const tcp::Subflow& subflow(std::size_t r) const { return *subflows_[r]; }
  MptcpReceiver& receiver() { return receiver_; }
  const MptcpReceiver& receiver() const { return receiver_; }
  const DataScheduler& scheduler() const { return *scheduler_; }
  const cc::CongestionControl& algorithm() const { return cc_; }
  std::uint32_t flow_id() const { return flow_id_; }

  // In-order goodput delivered to the receiving application.
  std::uint64_t delivered_pkts() const { return receiver_.delivered(); }
  double delivered_mbps(SimTime elapsed) const;
  bool complete() const { return scheduler_->complete(); }
  SimTime started_at() const { return start_time_; }
  SimTime completed_at() const { return completed_at_; }

  // Invoked once when an app-limited stream is fully acknowledged.
  std::function<void()> on_complete;

  // Wire-reference ledger: packets this connection's endpoints put on the
  // wire that the pool has not yet taken back (in a queue, in a pipe, or
  // being delivered). Zero means no packet anywhere references this
  // connection's sinks or routes.
  std::uint64_t wire_refs() const { return wire_refs_; }
  // Safe-teardown predicate for flow reclamation: the transfer is fully
  // acknowledged and nothing in flight can call back into this object.
  bool reclaimable() const { return complete() && wire_refs_ == 0; }

 private:
  void pump_all();
  void maybe_reinject_head_of_line();

  EventList& events_;
  const cc::CongestionControl& cc_;
  ConnectionConfig cfg_;
  std::uint32_t flow_id_;
  std::unique_ptr<DataScheduler> scheduler_;
  MptcpReceiver receiver_;
  std::vector<std::unique_ptr<tcp::Subflow>> subflows_;
  std::vector<const SubflowHot*> hot_;  // subflows_[r]->hot(), stable rows
  // subflows_[r]'s arena RateHot row, or nullptr outside rate mode (the
  // controller reaches it through ConnectionView::rate_state).
  std::vector<RateHot*> rate_hot_;
  std::vector<std::unique_ptr<net::Route>> routes_;
  SimTime start_time_ = 0;
  SimTime completed_at_ = kNever;
  bool started_ = false;
  bool completion_fired_ = false;
  bool pumping_ = false;
  // Head-of-line stall tracking.
  std::uint64_t last_data_cum_ = 0;
  SimTime last_data_advance_ = 0;
  SimTime last_hol_reinject_ = 0;

  // Flight recorder, cached at construction (nullptr = tracing off).
  trace::TraceRecorder* trace_ = nullptr;
  std::uint16_t trace_id_ = 0;

  std::uint64_t wire_refs_ = 0;

  // Declared last: destroyed first, while the subflows and receiver it
  // observes are still alive.
  std::unique_ptr<PathManager> path_manager_;
};

// Convenience: a regular single-path TCP (one subflow, UNCOUPLED).
std::unique_ptr<MptcpConnection> make_single_path_tcp(
    EventList& events, std::string name,
    const std::vector<net::PacketSink*>& fwd_path,
    const std::vector<net::PacketSink*>& rev_path, ConnectionConfig cfg = {});

}  // namespace mpsim::mptcp
