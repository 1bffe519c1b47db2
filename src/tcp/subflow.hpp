// One TCP subflow: the full windowed NewReno sender machinery, with the
// additive-increase and multiplicative-decrease *amounts* delegated to the
// owning connection (which consults a pluggable congestion-control algorithm
// that may couple the subflows, per §2 of the paper).
//
// Implemented behaviour:
//   * slow start (cwnd += 1 per acked packet below ssthresh),
//   * congestion avoidance (cwnd += host-supplied increase per acked packet),
//   * duplicate-ACK counting, fast retransmit at 3 dupacks,
//   * NewReno fast recovery with window inflation and partial-ACK hole
//     retransmission,
//   * retransmission timeout with exponential backoff and go-back-N resend,
//   * Karn's rule (no RTT samples from retransmitted segments),
//   * a scoreboard mapping subflow sequence numbers to connection-level data
//     sequence numbers (§6: the two sequence spaces are separate).
//
// Windows are kept in packets as doubles (the paper states all windows in
// packets); transmission is quantised to whole packets.
#pragma once

#include <algorithm>
#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "core/arena.hpp"
#include "core/event_list.hpp"
#include "net/packet.hpp"
#include "tcp/delivery_rate.hpp"
#include "tcp/rtt_estimator.hpp"
#include "trace/trace.hpp"

namespace mpsim::tcp {

struct SubflowConfig {
  double init_cwnd = 2.0;       // packets
  double init_ssthresh = 1e9;   // effectively infinite
  double min_cwnd = 1.0;        // paper: windows bounded >= 1 pkt (probing)
  double max_cwnd = 1e9;
  std::uint32_t dupack_threshold = 3;
  SimTime min_rto = from_ms(200);
  SimTime max_rto = from_sec(60);
  // RFC 3042 Limited Transmit: send one new segment per dupack before the
  // fast-retransmit threshold, keeping the ACK clock alive at small
  // windows (where three dupacks may never materialise).
  bool limited_transmit = false;
  // The paper's kernel optimisation: "we compute the increase parameter
  // only when the congestion windows grow to accommodate one more packet,
  // rather than every ACK". Off = evaluate eq. (1) per ACK.
  bool quantized_increase = false;
};

// Connection-level services a subflow needs. Implemented by
// mptcp::MptcpConnection; the tcp layer has no knowledge of multipath.
class SubflowHost {
 public:
  virtual ~SubflowHost() = default;

  // Hand out the next data sequence number to transmit on this subflow, or
  // return false if none is available (application-limited, flow-controlled,
  // or complete).
  virtual bool next_data(std::uint32_t subflow_id, std::uint64_t& data_seq) = 0;

  // Additive increase (in packets) to apply per newly acked packet during
  // congestion avoidance on this subflow.
  virtual double ca_increase(std::uint32_t subflow_id) = 0;

  // New congestion window after a loss event on this subflow.
  virtual double window_after_loss(std::uint32_t subflow_id) = 0;

  // A (possibly updated) data-level cumulative ACK / receive window arrived.
  virtual void on_data_ack(std::uint64_t data_cum_ack,
                           std::uint64_t rcv_window) = 0;

  // The subflow suffered a retransmission timeout; `outstanding` lists the
  // data sequence numbers still unacknowledged on it (candidates for
  // reinjection on sibling subflows).
  virtual void on_subflow_rto(std::uint32_t subflow_id,
                              const std::vector<std::uint64_t>& outstanding) = 0;

  // Progress happened on this subflow (ACK processed); the connection may
  // want to pump data into sibling subflows whose constraints changed.
  virtual void on_subflow_progress(std::uint32_t subflow_id) = 0;

  // A delivery-rate sample (rate mode only): the cumulative ACK advanced
  // and the estimator produced an unambiguous measurement. The host feeds
  // its rate-based congestion controller and republishes pacing rate and
  // target window. Default no-op keeps window-mode hosts oblivious.
  virtual void on_ack_sample(std::uint32_t /*subflow_id*/,
                             const cc::DeliveryRateSample& /*sample*/) {}
};

class Subflow : public net::PacketSink, public EventSource {
 public:
  Subflow(EventList& events, std::string name, SubflowHost& host,
          std::uint32_t flow_id, std::uint32_t subflow_id,
          const SubflowConfig& cfg);

  // Teardown cancels any pending retransmission wake-up and returns the
  // arena row to the free list, so short-lived connections (Poisson churn)
  // leave no residue in the event scheduler or the SoA columns.
  ~Subflow() override;

  // The forward route this subflow's data packets travel (must end at the
  // connection's receiver). ACKs arrive back at this object.
  void set_route(const net::Route& fwd) { route_ = &fwd; }

  // Wire-reference ledger (net::Packet::wire_refs): every packet this
  // subflow emits increments `*c`; the pool decrements it when the packet
  // dies anywhere in the network. Set by the owning connection.
  void set_wire_counter(std::uint64_t* c) { wire_counter_ = c; }

  // --- lifecycle (driven by mptcp::PathManager via the connection) ------
  // An inactive subflow sends nothing, arms no timer, and is excluded from
  // the coupled controller's eq. (1) sweep; late ACKs for packets already
  // on the wire still advance its cumulative-ACK state. Deactivation is
  // how a subflow is "dropped" — rows are positional (the receiver demuxes
  // by subflow id), so subflows are never erased from the connection.
  bool active() const { return h_.active != 0; }
  void deactivate();
  // Re-probe a dropped path: restart as a fresh slow-start sender (initial
  // window, cleared backoff/recovery state, go-back-N over anything still
  // unacknowledged at subflow level).
  void reactivate();

  // Transmit as much as the congestion window / available data allow.
  void try_send();

  // PacketSink: ACKs from the receiver.
  void receive(net::Packet& pkt) override;
  const std::string& sink_name() const override { return EventSource::name(); }

  // EventSource: retransmission timer.
  void on_event() override;

  // Administrative reset (fault injection): react exactly as if the RTO
  // fired right now — collapse to the minimum window, go-back-N, back off,
  // and hand the outstanding data to the host for sibling reinjection.
  // Unlike the timer path this fires even with nothing outstanding.
  void force_timeout();

  // --- inspection ---
  double cwnd() const { return h_.cwnd; }
  // The congestion window as seen by coupled congestion control. During
  // NewReno fast recovery the cwnd is *inflated* by one packet per dupack
  // (the self-clocking transmit rule) and can transiently dwarf the real
  // window; the semantically meaningful value there is ssthresh, the
  // post-loss target the window deflates to on the full ACK.
  double effective_cwnd() const {
    return h_.in_recovery != 0 ? std::min(h_.cwnd, h_.ssthresh) : h_.cwnd;
  }
  void set_cwnd(double w);  // for tests and warm starts
  double ssthresh() const { return h_.ssthresh; }
  bool in_recovery() const { return h_.in_recovery != 0; }
  std::uint64_t inflight() const { return h_.snd_nxt - h_.snd_una; }
  const RttEstimator& rtt() const { return rtt_; }
  std::uint32_t id() const { return subflow_id_; }
  // This subflow's SoA row (core/arena.hpp): the congestion controller's
  // per-ACK sibling sweep reads rows instead of chasing object pointers.
  const SubflowHot& hot() const { return h_; }
  std::uint32_t hot_id() const { return hot_id_; }

  std::uint64_t packets_sent() const { return packets_sent_; }
  std::uint64_t packets_acked() const { return h_.snd_una; }
  std::uint64_t retransmits() const { return retransmits_; }
  std::uint64_t timeouts() const { return timeouts_; }
  std::uint64_t loss_events() const { return loss_events_; }

  // Data sequence numbers assigned to this subflow and not yet cum-acked.
  std::vector<std::uint64_t> outstanding_data() const;

  // --- rate mode (pacing + delivery-rate estimation) --------------------
  // Switch this subflow from ACK-clocked window growth to rate-based
  // operation: every launch is recorded by a DeliveryRateEstimator, every
  // cumulative-ACK advance produces a sample for SubflowHost::on_ack_sample
  // (instead of running slow start / ca_increase), and transmission is
  // spaced by the pacing rate the controller publishes into this subflow's
  // arena RateHot row. Must be called before any data is sent; sticky for
  // the subflow's lifetime (reactivation keeps it).
  void enable_rate_mode();
  bool rate_mode() const { return rate_ != nullptr; }
  // This subflow's RateHot row (valid only in rate mode).
  RateHot& rate_hot() { return *rate_; }
  const RateHot& rate_hot() const { return *rate_; }
  const DeliveryRateEstimator& delivery_estimator() const { return rate_est_; }

  // OLIA's inter-loss interval l_r, in packets: the larger of the packets
  // acked since the last loss event and the interval between the previous
  // two losses (the RFC-draft's smoothing against a single early loss).
  double loss_interval_pkts() const {
    return static_cast<double>(
        std::max<std::uint64_t>(1, std::max(acked_since_loss_,
                                            prev_loss_interval_)));
  }

 private:
  void handle_ack(net::Packet& ack);
  void send_packet(std::uint64_t subflow_seq, bool is_retransmit);
  void enter_recovery();
  void handle_timeout();
  void arm_rto();
  void cancel_rto() { rto_armed_ = false; }
  // Lazy wake-up scheduling shared by the RTO and the pacer: keep at most
  // one pending scheduler entry, pulled earlier when a nearer deadline
  // appears; on_event re-arms forward for whichever deadline moved later.
  void schedule_wakeup(SimTime t) {
    if (next_fire_ == kNever || next_fire_ > t) {
      next_fire_ = t;
      events_.schedule_at(*this, t);
    }
  }
  bool pacing_active() const {
    return rate_ != nullptr && rate_->pacing_rate > 0.0;
  }
  void arm_pacer(SimTime t) {
    pace_armed_ = true;
    pace_deadline_ = t;
    schedule_wakeup(t);
  }
  void clamp_cwnd();
  void check_invariants() const;
  // Keep the arena's srtt/rto mirror in sync after an RttEstimator update.
  void sync_rtt_mirror() {
    h_.srtt = rtt_.has_sample() ? rtt_.srtt() : 0;
    h_.rto = rtt_.rto();
    h_.rtt_valid = rtt_.has_sample() ? 1 : 0;
  }
  // Current sender phase, as the flight recorder labels it.
  trace::TcpPhase phase() const {
    if (h_.in_recovery != 0) return trace::TcpPhase::kFastRecovery;
    return h_.cwnd < h_.ssthresh ? trace::TcpPhase::kSlowStart
                                 : trace::TcpPhase::kCongestionAvoidance;
  }

  EventList& events_;
  SubflowHost& host_;
  const net::Route* route_ = nullptr;
  std::uint64_t* wire_counter_ = nullptr;
  std::uint32_t flow_id_;
  std::uint32_t subflow_id_;
  SubflowConfig cfg_;

  // Hot state — windows (packets), sequence edges, recovery flag, RTT
  // mirror — lives in the per-EventList arena; h_ is this subflow's row.
  std::uint32_t hot_id_;
  SubflowHot& h_;

  // Sequence state not needed by siblings. The scoreboard holds the
  // data_seq for every subflow seq in [scoreboard_base_, high_water_).
  std::uint64_t high_water_ = 0; // highest subflow seq ever assigned + 1
  std::uint64_t scoreboard_base_ = 0;
  std::deque<std::uint64_t> scoreboard_;  // subflow seq -> data seq

  // NewReno recovery state.
  std::uint32_t dupacks_ = 0;
  std::uint64_t recover_ = 0;  // recovery ends when snd_una >= recover_

  // Quantized-increase cache (cfg_.quantized_increase).
  double cached_increase_ = 0.0;
  double increase_quantum_ = -1.0;

  // RTO state.
  RttEstimator rtt_;
  bool rto_armed_ = false;
  SimTime rto_deadline_ = 0;
  SimTime next_fire_ = kNever;  // earliest pending scheduler wake-up
  int backoff_ = 0;

  // Rate mode (null/false in window mode — every hot-path branch below
  // stays provably dead, keeping window-mode traces bit-identical).
  std::uint32_t rate_id_ = 0;
  RateHot* rate_ = nullptr;     // arena row; owned (released in dtor)
  DeliveryRateEstimator rate_est_;
  bool pace_armed_ = false;
  SimTime pace_deadline_ = 0;
  SimTime pace_next_send_ = 0;  // earliest time pacing admits the next launch

  // OLIA inter-loss intervals (tracked in every mode; ~free).
  std::uint64_t acked_since_loss_ = 0;
  std::uint64_t prev_loss_interval_ = 0;

  // Stats.
  std::uint64_t packets_sent_ = 0;
  std::uint64_t retransmits_ = 0;
  std::uint64_t timeouts_ = 0;
  std::uint64_t loss_events_ = 0;

  // Flight recorder, cached at construction (nullptr = tracing off).
  trace::TraceRecorder* trace_ = nullptr;
  std::uint16_t trace_id_ = 0;
};

}  // namespace mpsim::tcp
