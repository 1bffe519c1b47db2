#include "tcp/subflow.hpp"

#include <algorithm>
#include <cstdint>
#include <utility>

#include "core/check.hpp"
#include "mptcp/connection.hpp"

namespace mpsim::tcp {

namespace {

// Windows in packets. A fresh or re-probed subflow slow-starts from
// kInitCwnd with no ssthresh ceiling; the paper bounds every window below
// by one packet so each path keeps being probed.
constexpr double kInitCwnd = 2.0;
constexpr double kInitSsthresh = 1e9;
constexpr double kMinCwnd = 1.0;
constexpr double kMaxCwnd = 1e9;
constexpr std::uint32_t kDupackThreshold = 3;

}  // namespace

Subflow::Subflow(EventList& events, std::string name,
                 mptcp::MptcpConnection& conn, std::uint32_t flow_id,
                 std::uint32_t subflow_id, const SubflowConfig& cfg)
    : EventSource(events, std::move(name)),
      events_(events),
      conn_(conn),
      flow_id_(flow_id),
      subflow_id_(subflow_id),
      cfg_(cfg),
      hot_id_(SimArena::of(events).add_subflow()),
      h_(SimArena::of(events).subflow(hot_id_)),
      rtt_(cfg.min_rto, cfg.max_rto) {
  h_.cwnd = kInitCwnd;
  h_.ssthresh = kInitSsthresh;
  sync_rtt_mirror();
  // The recorder must be installed before the topology is built; a subflow
  // constructed earlier records nothing (by design: one branch, no lookup,
  // on every hot path below).
  trace_ = trace::TraceRecorder::find(events);
  if (trace_ != nullptr) {
    trace_id_ = trace_->register_object(EventSource::name());
  }
}

Subflow::~Subflow() {
  // Remove any pending RTO wake-up before the object goes away, then hand
  // the hot row back for reuse by the next subflow built on this
  // simulation. h_ dangles afterwards; nothing below touches it.
  events_.cancel(*this);
  if (rate_ != nullptr) SimArena::of(events_).release_rate(rate_id_);
  SimArena::of(events_).release_subflow(hot_id_);
}

void Subflow::enable_rate_mode() {
  if (rate_ != nullptr) return;
  MPSIM_CHECK(high_water_ == 0,
              "rate mode must be enabled before the first transmission");
  // Once per subflow open, at path-management granularity, never per
  // packet.
  // mpsim-analyze: allow(hot-alloc)
  rate_est_.emplace();
  rate_id_ = SimArena::of(events_).add_rate();
  rate_ = &SimArena::of(events_).rate(rate_id_);
}

void Subflow::deactivate() {
  if (h_.active == 0) return;
  cancel_rto();
  pace_armed_ = false;  // a stale pacer wake-up fires as a no-op
  dupacks_ = 0;
  h_.active = 0;
}

void Subflow::reactivate() {
  MPSIM_CHECK(h_.active == 0, "reactivating a subflow that is still active");
  h_.active = 1;
  h_.cwnd = kInitCwnd;
  h_.ssthresh = kInitSsthresh;
  h_.in_recovery = 0;
  dupacks_ = 0;
  backoff_ = 0;
  recover_ = high_water_;  // stale dupacks must not trigger a loss reaction
  // Go-back-N over anything assigned before the drop: the data seqs were
  // reinjected on siblings at drop time, but the *subflow* sequence space
  // must still be repaired for the cumulative ACK to advance.
  h_.snd_nxt = h_.snd_una;
  try_send();
}

void Subflow::set_cwnd(double w) {
  h_.cwnd = w;
  clamp_cwnd();
}

void Subflow::clamp_cwnd() {
  h_.cwnd = std::clamp(h_.cwnd, kMinCwnd, kMaxCwnd);
}

void Subflow::try_send() {
  if (route_ == nullptr || h_.active == 0) return;
  const auto window = static_cast<std::uint64_t>(h_.cwnd);
  while (h_.snd_nxt - h_.snd_una < window) {
    if (pacing_active()) {
      // Pacing gate: one launch per 1/pacing_rate seconds. When the next
      // credit lies in the future, park the remainder of the burst on the
      // pacer timer instead of emitting it back-to-back.
      const SimTime now = events_.now();
      if (now < pace_next_send_) {
        arm_pacer(pace_next_send_);
        MPSIM_TRACE(trace_, trace::pacing_wait(now, trace_id_, flow_id_,
                                               subflow_id_, pace_next_send_,
                                               rate_->pacing_rate));
        break;
      }
    }
    if (h_.snd_nxt < high_water_) {
      // Go-back-N resend of a segment assigned before an RTO rewind.
      send_packet(h_.snd_nxt, /*is_retransmit=*/true);
      ++h_.snd_nxt;
    } else {
      std::uint64_t dseq = 0;
      if (!conn_.next_data(subflow_id_, dseq)) {
        if (rate_ != nullptr) {
          rate_est_->on_app_limited(h_.snd_nxt - h_.snd_una);
        }
        break;
      }
      // Deque block allocation once per ~512 bytes of scoreboard growth,
      // amortized across hundreds of packets; the scoreboard itself must
      // grow with the window.
      // mpsim-analyze: allow(hot-alloc)
      scoreboard_.push_back(dseq);
      ++high_water_;
      send_packet(h_.snd_nxt, /*is_retransmit=*/false);
      ++h_.snd_nxt;
    }
    if (pacing_active()) {
      const SimTime gap = from_sec(1.0 / rate_->pacing_rate);
      pace_next_send_ = std::max(pace_next_send_, events_.now()) + gap;
    }
  }
  if (h_.snd_una < high_water_ && !rto_armed_) arm_rto();
}

void Subflow::send_packet(std::uint64_t subflow_seq, bool is_retransmit) {
  MPSIM_CHECK(subflow_seq >= scoreboard_base_ &&
                  subflow_seq - scoreboard_base_ < scoreboard_.size(),
              "subflow seq outside the scoreboard's data-seq map");
  net::Packet& pkt = net::Packet::alloc(events_);
  pkt.type = net::PacketType::kData;
  pkt.flow_id = flow_id_;
  pkt.subflow_id = subflow_id_;
  pkt.subflow_seq = subflow_seq;
  pkt.data_seq = scoreboard_[subflow_seq - scoreboard_base_];
  pkt.size_bytes = net::kDataPacketBytes;
  pkt.ts_echo = events_.now();
  pkt.is_retransmit = is_retransmit;
  if (wire_counter_ != nullptr) {
    ++*wire_counter_;
    pkt.wire_refs = wire_counter_;
  }
  ++packets_sent_;
  if (is_retransmit) ++retransmits_;
  if (rate_ != nullptr) {
    rate_est_->on_send(subflow_seq, events_.now(), is_retransmit);
  }
  pkt.send_on(*route_);
}

void Subflow::receive(net::Packet& pkt) {
  MPSIM_CHECK(pkt.type == net::PacketType::kAck,
              "subflow sender can only receive ACKs");
  handle_ack(pkt);
  pkt.release();
}

void Subflow::handle_ack(net::Packet& ack) {
  if (h_.active == 0) {
    // Late ACK for a packet that was on the wire when this subflow was
    // dropped. Its data-level fields are still authoritative and its
    // subflow cumulative ACK still retires scoreboard state, but the
    // congestion machinery stays frozen: no RTT sample, no window growth
    // (so the coupled controller is never consulted for an inactive row),
    // no dupack/recovery logic, no timer, no transmission.
    conn_.on_data_ack(ack.data_cum_ack, ack.rcv_window);
    const std::uint64_t cum = ack.subflow_cum_ack;
    if (cum > h_.snd_una) {
      h_.snd_una = cum;
      h_.snd_nxt = std::max(h_.snd_nxt, h_.snd_una);
      while (scoreboard_base_ < h_.snd_una) {
        scoreboard_.pop_front();
        ++scoreboard_base_;
      }
    }
    check_invariants();
    conn_.on_subflow_progress(subflow_id_);
    return;
  }
  // Karn's rule: only time unambiguous (non-retransmitted) segments.
  if (!ack.is_retransmit) {
    rtt_.add_sample(events_.now() - ack.ts_echo);
    sync_rtt_mirror();
  }
  conn_.on_data_ack(ack.data_cum_ack, ack.rcv_window);

  const std::uint64_t cum = ack.subflow_cum_ack;
  if (cum > h_.snd_una) {
    const std::uint64_t newly = cum - h_.snd_una;
    h_.snd_una = cum;
    h_.snd_nxt = std::max(h_.snd_nxt, h_.snd_una);
    while (scoreboard_base_ < h_.snd_una) {
      scoreboard_.pop_front();
      ++scoreboard_base_;
    }
    dupacks_ = 0;
    backoff_ = 0;
    acked_since_loss_ += newly;

    if (rate_ != nullptr) {
      // Rate mode: the estimator retires the acked span and (when the
      // timing is unambiguous) hands the connection a delivery-rate sample.
      // Its controller answers by republishing pacing rate and target
      // window — the window is model-driven, so the ACK-clocked growth
      // below is skipped.
      cc::DeliveryRateSample sample;
      if (rate_est_->on_ack(cum, events_.now(), sample)) {
        conn_.on_ack_sample(subflow_id_, sample);
      }
    }

    if (h_.in_recovery) {
      if (h_.snd_una >= recover_) {
        // Full ACK: recovery complete, deflate to ssthresh.
        h_.in_recovery = false;
        h_.cwnd = h_.ssthresh;
        clamp_cwnd();
        arm_rto();
        MPSIM_TRACE(trace_, trace::state_transition(
                                events_.now(), trace_id_, flow_id_,
                                subflow_id_, trace::TcpPhase::kFastRecovery,
                                phase()));
      } else {
        // NewReno partial ACK: retransmit the next hole, deflate by the
        // amount acked (keeping the one retransmission in flight).
        // RFC 6582 "Slow-but-Steady": every partial ACK restarts the
        // retransmission timer, so a many-hole recovery proceeds at one
        // hole per RTT without RTO interruption. (The connection-level
        // head-of-line reinjection keeps the *data stream* from stalling
        // behind such a recovery on one subflow.)
        h_.cwnd =
            std::max(h_.ssthresh, h_.cwnd - static_cast<double>(newly) + 1.0);
        clamp_cwnd();
        if (h_.snd_una < high_water_) send_packet(h_.snd_una, true);
        arm_rto();
      }
    } else {
      if (rate_ == nullptr) {
        for (std::uint64_t i = 0; i < newly; ++i) {
          if (h_.cwnd < h_.ssthresh) {
            h_.cwnd += 1.0;  // slow start
          } else {
            h_.cwnd += conn_.ca_increase(subflow_id_);
          }
        }
        clamp_cwnd();
      }
      arm_rto();  // forward progress restarts the retransmission timer
    }
  } else if (h_.snd_una < high_water_ && !ack.is_window_update) {
    // Duplicate ACK while data is outstanding (window updates are not
    // dupacks, RFC 5681).
    ++dupacks_;
    if (!h_.in_recovery && dupacks_ == kDupackThreshold &&
        h_.snd_una > recover_) {
      // RFC 6582: react to three dupacks only when the cumulative ACK has
      // passed `recover_` — dupack bursts from packets sent before the
      // previous loss reaction must not trigger another one.
      ++loss_events_;
      enter_recovery();
    } else if (h_.in_recovery) {
      h_.cwnd += 1.0;  // window inflation: each dupack signals a departure
      clamp_cwnd();
    }
  }

  if (h_.snd_una >= high_water_) {
    cancel_rto();
  } else if (!rto_armed_) {
    arm_rto();
  }
  // (Duplicate ACKs and later partial ACKs deliberately do NOT restart an
  // armed timer — otherwise a long dupack stream keeps the RTO at bay
  // forever and a stalled recovery can never escape.)
  MPSIM_TRACE(trace_, trace::cwnd_sample(events_.now(), trace_id_, flow_id_,
                                         subflow_id_, phase(), h_.cwnd,
                                         h_.ssthresh, rtt_.srtt(), rtt_.rto()));
  try_send();
  check_invariants();
  conn_.on_subflow_progress(subflow_id_);
}

// The subflow<->data sequence map and window invariants (paper 6: the two
// sequence spaces are separate but must stay consistent; 2.4: windows are
// bounded below so every path keeps being probed).
void Subflow::check_invariants() const {
  MPSIM_CHECK(h_.snd_una <= h_.snd_nxt && h_.snd_nxt <= high_water_,
              "sequence order violated: need snd_una <= snd_nxt <= high_water");
  MPSIM_CHECK(scoreboard_base_ == h_.snd_una,
              "scoreboard base must track the cumulative ACK");
  MPSIM_CHECK(scoreboard_.size() == high_water_ - scoreboard_base_,
              "scoreboard must map every un-acked subflow seq to a data seq");
  MPSIM_CHECK(h_.cwnd >= kMinCwnd,
              "cwnd below the paper's >= 1 pkt probing bound");
}

void Subflow::enter_recovery() {
  prev_loss_interval_ = acked_since_loss_;  // OLIA: rotate the l_r interval
  acked_since_loss_ = 0;
  const bool in_slow_start = h_.cwnd < h_.ssthresh;
  const trace::TcpPhase from = phase();
  h_.ssthresh =
      std::max(kMinCwnd, conn_.window_after_loss(subflow_id_));
  recover_ = h_.snd_nxt;  // dupacks below this must not re-trigger (RFC 6582)
  if (in_slow_start || rate_ != nullptr) {
    // Loss during slow start means the exponential overshoot dumped a
    // large burst: potentially hundreds of holes, which NewReno (no SACK)
    // would repair at one per RTT. Do a Tahoe-style go-back-N instead —
    // refilling via slow start to the halved ssthresh is far faster.
    // Rate mode always takes this path: a paced STARTUP overshoot leaves a
    // window's worth of holes too, hole-per-RTT recovery would park the
    // paced pipe for seconds, and the resend cannot re-flood because the
    // pacer spaces it. The window itself stays model-driven (loss is not a
    // primary congestion signal for a rate-based controller).
    if (rate_ == nullptr) h_.cwnd = kMinCwnd;
    h_.snd_nxt = h_.snd_una;
    h_.in_recovery = false;
    dupacks_ = 0;
    MPSIM_TRACE(trace_, trace::state_transition(events_.now(), trace_id_,
                                                flow_id_, subflow_id_, from,
                                                phase()));
    arm_rto();
    try_send();
    return;
  }
  h_.cwnd = h_.ssthresh + static_cast<double>(kDupackThreshold);
  clamp_cwnd();
  h_.in_recovery = true;
  MPSIM_TRACE(trace_, trace::state_transition(events_.now(), trace_id_,
                                              flow_id_, subflow_id_, from,
                                              trace::TcpPhase::kFastRecovery));
  if (h_.snd_una < high_water_) send_packet(h_.snd_una, true);
}

void Subflow::arm_rto() {
  // Saturate the exponential backoff before comparing against max_rto:
  // `rtt_.rto() << shift` is evaluated first, and for a large base RTO even
  // shift <= 16 overflows the signed SimTime (UB, and the wrapped negative
  // value would win the std::min and put the deadline in the past).
  const int shift = std::min(backoff_, 16);
  const SimTime base = h_.rto;  // arena mirror of rtt_.rto()
  const SimTime rto = (base > (cfg_.max_rto >> shift))
                          ? cfg_.max_rto
                          : std::min<SimTime>(cfg_.max_rto, base << shift);
  rto_deadline_ = events_.now() + rto;
  rto_armed_ = true;
  schedule_wakeup(rto_deadline_);
  // If an earlier wake-up is already pending, schedule_wakeup keeps it; it
  // will re-arm itself forward to rto_deadline_ when it fires (lazy
  // rescheduling keeps the event list from accumulating one stale entry
  // per ACK).
}

void Subflow::on_event() {
  next_fire_ = kNever;
  if (pace_armed_) {
    if (events_.now() >= pace_deadline_) {
      // Pacer credit matured: release the parked burst. try_send re-arms
      // the pacer and/or the RTO via schedule_wakeup as needed.
      pace_armed_ = false;
      try_send();
    } else {
      schedule_wakeup(pace_deadline_);
    }
  }
  if (!rto_armed_) return;
  if (events_.now() < rto_deadline_) {
    // The deadline moved later since this wake-up was scheduled.
    schedule_wakeup(rto_deadline_);
    return;
  }
  rto_armed_ = false;
  if (h_.snd_una >= high_water_) return;  // nothing outstanding after all
  handle_timeout();
}

void Subflow::force_timeout() {
  if (h_.active == 0) return;  // a dropped subflow has no timer to fire
  rto_armed_ = false;
  handle_timeout();
}

void Subflow::handle_timeout() {
  // Retransmission timeout. If it strikes mid-recovery, ssthresh was
  // already set from the pre-loss window at recovery entry; recomputing it
  // from the inflated cwnd would wildly overshoot.
  ++timeouts_;
  ++loss_events_;
  prev_loss_interval_ = acked_since_loss_;  // OLIA: rotate the l_r interval
  acked_since_loss_ = 0;
  MPSIM_TRACE(trace_, trace::state_transition(events_.now(), trace_id_,
                                              flow_id_, subflow_id_, phase(),
                                              trace::TcpPhase::kRtoRecovery));
  if (!h_.in_recovery) {
    h_.ssthresh =
        std::max(kMinCwnd, conn_.window_after_loss(subflow_id_));
  }
  // Window mode restarts from one packet and slow-starts back. Rate mode
  // keeps the model-driven window: the go-back-N resend below is spaced by
  // the pacer (so it cannot re-flood the path the way an ACK-clocked burst
  // would), and collapsing here would wedge the repair at one packet per
  // RTT — every resend ACK is Karn-ambiguous, so no delivery sample
  // arrives to republish the controller's target until the hole train is
  // fully repaired.
  if (rate_ == nullptr) h_.cwnd = kMinCwnd;
  h_.in_recovery = false;
  dupacks_ = 0;
  recover_ = high_water_;  // RFC 6582: no fast retransmit for pre-RTO acks
  h_.snd_nxt = h_.snd_una;     // go-back-N: resend everything outstanding
  ++backoff_;
  conn_.on_subflow_rto(subflow_id_, outstanding_data());
  try_send();
  if (h_.snd_una < high_water_ && !rto_armed_) arm_rto();
}

std::vector<std::uint64_t> Subflow::outstanding_data() const {
  std::vector<std::uint64_t> out;
  // Called only on the RTO / HoL-rescue recovery paths (timeout
  // granularity), never on the per-ACK fast path.
  // mpsim-analyze: allow(hot-alloc)
  out.reserve(high_water_ - h_.snd_una);
  for (std::uint64_t seq = h_.snd_una; seq < high_water_; ++seq) {
    // mpsim-analyze: allow(hot-alloc)
    out.push_back(scoreboard_[seq - scoreboard_base_]);
  }
  return out;
}

}  // namespace mpsim::tcp
