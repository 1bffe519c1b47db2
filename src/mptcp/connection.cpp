#include "mptcp/connection.hpp"

#include <algorithm>
#include <utility>
#include <vector>

#include "cc/uncoupled.hpp"
#include "core/check.hpp"
#include "mptcp/path_manager.hpp"

namespace mpsim::mptcp {

namespace {

// The smoothed RTT congestion control sees before a subflow's first sample.
constexpr SimTime kFallbackRtt = from_sec(0.1);
// At most this many data seqs are reinjected per head-of-line stall check.
constexpr std::size_t kHolReinjectBatch = 64;

}  // namespace

MptcpConnection::MptcpConnection(EventList& events, std::string name,
                                 const cc::CongestionControl& cc,
                                 ConnectionConfig cfg)
    : EventSource(events, std::move(name)),
      events_(events),
      cc_(cc),
      cfg_(cfg),
      flow_id_(events.alloc_flow_id()),
      scheduler_(make_data_scheduler(cfg.scheduler, cfg.app_limit_pkts,
                                     cfg.recv_buffer_pkts)),
      receiver_(events, EventSource::name() + "/rx", flow_id_,
                cfg.recv_buffer_pkts) {
  scheduler_->set_view(this);
  trace_ = trace::TraceRecorder::find(events);
  if (trace_ != nullptr) {
    trace_id_ = trace_->register_object(EventSource::name());
    // Reinjection decisions happen inside the scheduler (which owns the
    // dedup); give it its own object id so those records are attributable.
    scheduler_->set_trace(
        &events_, trace_,
        trace_->register_object(EventSource::name() + "/sched"), flow_id_);
  }
  receiver_.set_wire_counter(&wire_refs_);
}

MptcpConnection::~MptcpConnection() {
  // Remove the pending start/pump wake-up, if any. The receiver and the
  // subflows cancel their own events (and release their arena rows) in
  // their destructors, which member destruction order runs next.
  events_.cancel(*this);
}

tcp::Subflow& MptcpConnection::add_subflow(
    const std::vector<net::PacketSink*>& fwd_path,
    const std::vector<net::PacketSink*>& rev_path) {
  // Subflow opens happen at path-management granularity — a handful per
  // connection lifetime, never per packet — so constructing the subflow
  // and its routes may allocate even when reached from a PathManager scan.
  const auto id = static_cast<std::uint32_t>(subflows_.size());
  // mpsim-analyze: allow(hot-alloc)
  auto sub = std::make_unique<tcp::Subflow>(
      // mpsim-analyze: allow(hot-alloc)
      events_, EventSource::name() + "/sf" + std::to_string(id), *this,
      flow_id_, id, cfg_.subflow);
  // A rate-based controller needs every subflow in rate mode from its
  // first transmission: estimator board armed, pacer live, window
  // model-driven.
  if (cc_.rate_based()) sub->enable_rate_mode();

  // mpsim-analyze: allow(hot-alloc)
  auto fwd = std::make_unique<net::Route>(fwd_path, &receiver_);
  // mpsim-analyze: allow(hot-alloc)
  auto rev = std::make_unique<net::Route>(rev_path, sub.get());

  fwd->set_reverse(rev.get());
  rev->set_reverse(fwd.get());

  sub->set_route(*fwd);
  sub->set_wire_counter(&wire_refs_);
  receiver_.add_subflow(*rev);

  // mpsim-analyze: allow(hot-alloc)
  routes_.push_back(std::move(fwd));
  // mpsim-analyze: allow(hot-alloc)
  routes_.push_back(std::move(rev));
  // mpsim-analyze: allow(hot-alloc)
  subflows_.push_back(std::move(sub));
  // mpsim-analyze: allow(hot-alloc)
  hot_.push_back(&subflows_.back()->hot());
  // mpsim-analyze: allow(hot-alloc)
  rate_hot_.push_back(subflows_.back()->rate_mode()
                          ? &subflows_.back()->rate_hot()
                          : nullptr);

  // Record subflow-set changes of a *live* connection only: build-time
  // path registration is structural configuration, not a lifecycle event
  // (and predates any interesting timeline anyway).
  if (started_) {
    MPSIM_TRACE(trace_,
                trace::subflow_add(events_.now(), trace_id_, flow_id_, id,
                                   num_active_subflows(), subflows_.size()));
  }

  // Subflows may join an already-running connection (§6: "additional
  // subflows can be initiated"; e.g. a newly acquired basestation). Kick
  // the pump so the newcomer starts pulling data immediately.
  if (started_ && events_.now() >= start_time_) {
    events_.schedule_at(*this, events_.now());
  }
  return *subflows_.back();
}

PathManager& MptcpConnection::attach_path_manager(
    const PathManagerConfig& pm_cfg) {
  MPSIM_CHECK(path_manager_ == nullptr,
              "connection already has a path manager");
  path_manager_ =
      std::make_unique<PathManager>(events_, *this, pm_cfg);
  if (started_) {
    path_manager_->start(std::max(events_.now(), start_time_));
  }
  return *path_manager_;
}

void MptcpConnection::start(SimTime at) {
  started_ = true;
  start_time_ = at;
  events_.schedule_at(*this, at);
  if (path_manager_ != nullptr) path_manager_->start(at);
}

void MptcpConnection::on_event() {
  if (last_data_advance_ == 0) last_data_advance_ = events_.now();
  pump_all();
}

void MptcpConnection::pump_all() {
  if (pumping_) return;  // try_send below re-enters via on_subflow_progress
  pumping_ = true;
  for (auto& sub : subflows_) sub->try_send();
  pumping_ = false;
}

bool MptcpConnection::next_data(std::uint32_t subflow_id,
                                std::uint64_t& data_seq) {
  return scheduler_->next_data(subflow_id, data_seq);
}

double MptcpConnection::ca_increase(std::uint32_t subflow_id) {
  return cc_.increase_per_ack(*this, subflow_id);
}

double MptcpConnection::window_after_loss(std::uint32_t subflow_id) {
  return cc_.window_after_loss(*this, subflow_id);
}

void MptcpConnection::on_data_ack(std::uint64_t data_cum_ack,
                                  std::uint64_t rcv_window) {
  // A data-level cumulative ACK can never pass the highest data sequence
  // the scheduler has handed out (the receiver acks only what was sent).
  MPSIM_CHECK(data_cum_ack <= scheduler_->next_new(),
              "data-level ACK beyond the highest data seq ever sent");
  scheduler_->on_data_ack(data_cum_ack, rcv_window);
  if (scheduler_->data_cum_ack() > last_data_cum_) {
    last_data_cum_ = scheduler_->data_cum_ack();
    last_data_advance_ = events_.now();
    MPSIM_TRACE(trace_,
                trace::data_ack(events_.now(), trace_id_, flow_id_,
                                last_data_cum_, scheduler_->right_edge()));
  }
  if (scheduler_->complete() && !completion_fired_) {
    completion_fired_ = true;
    completed_at_ = events_.now();
    if (on_complete) on_complete();
  }
}

void MptcpConnection::reset_subflow(std::size_t r) {
  MPSIM_CHECK(r < subflow_cap(), "reset_subflow index out of range");
  if (r < subflows_.size()) subflows_[r]->force_timeout();
}

std::size_t MptcpConnection::subflow_cap() const {
  return path_manager_ == nullptr
             ? subflows_.size()
             : std::max(subflows_.size(), path_manager_->config().max_subflows);
}

void MptcpConnection::drop_subflow(std::size_t r, bool rto_dead) {
  MPSIM_CHECK(r < subflows_.size(), "drop_subflow index out of range");
  tcp::Subflow& sf = *subflows_[r];
  if (!sf.active()) return;
  // Strand nothing: everything still unacknowledged on the dying subflow
  // becomes a reinjection candidate for the survivors (already-acked seqs
  // are filtered by the scheduler). If no sibling is currently active the
  // seqs wait in the queue for the next reactivation.
  const std::vector<std::uint64_t> outstanding = sf.outstanding_data();
  sf.deactivate();
  scheduler_->reinject(outstanding);
  // Entries targeting data the receiver already has must not linger in the
  // dedup set now that no ACK from this subflow will retire them promptly.
  scheduler_->purge_acked();
  MPSIM_TRACE(trace_,
              trace::subflow_drop(events_.now(), trace_id_, flow_id_,
                                  static_cast<std::uint32_t>(r),
                                  rto_dead ? trace::kDropRtoDead
                                           : trace::kDropAdmin,
                                  outstanding.size()));
  pump_all();
}

void MptcpConnection::reactivate_subflow(std::size_t r) {
  MPSIM_CHECK(r < subflows_.size(), "reactivate_subflow index out of range");
  tcp::Subflow& sf = *subflows_[r];
  if (sf.active()) return;
  sf.reactivate();
  MPSIM_TRACE(trace_, trace::subflow_add(events_.now(), trace_id_, flow_id_,
                                         static_cast<std::uint32_t>(r),
                                         num_active_subflows(),
                                         subflows_.size()));
  pump_all();
}

void MptcpConnection::on_subflow_rto(
    std::uint32_t subflow_id,
    const std::vector<std::uint64_t>& outstanding) {
  // Only reinject if an *active* sibling exists to carry the data; the
  // timed-out subflow itself still go-back-N retransmits on its own
  // schedule.
  if (num_active_subflows() > 1) scheduler_->reinject(outstanding);
  // A reset is also the moment stale pending entries (queued for data the
  // receiver meanwhile acknowledged) are guaranteed purgeable.
  scheduler_->purge_acked();
  (void)subflow_id;
  pump_all();
}

void MptcpConnection::on_ack_sample(std::uint32_t subflow_id,
                                    const cc::DeliveryRateSample& sample) {
  cc_.on_ack_sample(*this, subflow_id, sample);
  RateHot* rh = rate_hot_[subflow_id];
  MPSIM_CHECK(rh != nullptr && rh->pacing_rate > 0.0,
              "a rate-based controller must publish a positive pacing rate "
              "on every delivery sample");
  tcp::Subflow& sf = *subflows_[subflow_id];
  sf.set_cwnd(cc_.target_cwnd_pkts(*this, subflow_id));
  MPSIM_TRACE(trace_,
              trace::rate_sample(events_.now(), trace_id_, flow_id_,
                                 subflow_id, sample.delivery_rate,
                                 rh->pacing_rate, sample.delivered_pkts,
                                 sample.app_limited));
}

void MptcpConnection::on_subflow_progress(std::uint32_t /*subflow_id*/) {
  // An ACK freed window or advanced the flow-control edge; siblings may now
  // be able to transmit (window-based striping).
  maybe_reinject_head_of_line();
  pump_all();
}

void MptcpConnection::maybe_reinject_head_of_line() {
  if (subflows_.size() < 2 || cfg_.hol_reinject_timeout <= 0) return;
  const SimTime now = events_.now();
  // A stall shorter than a couple of round trips on the slowest path is
  // normal reordering delay, not head-of-line blocking; only react beyond
  // that (otherwise long-RTT paths trigger wasteful duplicates).
  SimTime threshold = cfg_.hol_reinject_timeout;
  for (const auto& sub : subflows_) {
    threshold = std::max(threshold, 2 * sub->rtt().srtt());
  }
  if (now - last_data_advance_ < threshold) return;
  if (now - last_hol_reinject_ < threshold) return;

  // The stream is blocked on data seq == data_cum_ack, which lives in some
  // subflow's outstanding window (possibly deep in a long recovery there).
  // Reinject the oldest outstanding data so siblings can fill the holes.
  std::vector<std::uint64_t> outstanding;
  for (const auto& sub : subflows_) {
    for (std::uint64_t seq : sub->outstanding_data()) {
      // Head-of-line rescue: rate-limited to one sweep per stall threshold
      // (an RTT-scale interval), so scratch allocation here is off the
      // per-packet path by construction.
      // mpsim-analyze: allow(hot-alloc)
      if (seq >= scheduler_->data_cum_ack()) outstanding.push_back(seq);
    }
  }
  if (outstanding.empty()) return;
  std::sort(outstanding.begin(), outstanding.end());
  if (outstanding.size() > kHolReinjectBatch) {
    // mpsim-analyze: allow(hot-alloc)
    outstanding.resize(kHolReinjectBatch);
  }
  scheduler_->reinject(outstanding);
  last_hol_reinject_ = now;
}

double MptcpConnection::srtt_sec(std::size_t r) const {
  const SubflowHot& h = *hot_[r];
  return to_sec(h.rtt_valid != 0 ? h.srtt : kFallbackRtt);
}

double MptcpConnection::delivered_mbps(SimTime elapsed) const {
  if (elapsed <= 0) return 0.0;
  const double bits = static_cast<double>(receiver_.delivered()) *
                      net::kDataPacketBytes * 8.0;
  return bits / to_sec(elapsed) / 1e6;
}

std::unique_ptr<MptcpConnection> make_single_path_tcp(
    EventList& events, std::string name,
    const std::vector<net::PacketSink*>& fwd_path,
    const std::vector<net::PacketSink*>& rev_path, ConnectionConfig cfg) {
  auto conn = std::make_unique<MptcpConnection>(events, std::move(name),
                                                cc::uncoupled(), cfg);
  conn->add_subflow(fwd_path, rev_path);
  return conn;
}

}  // namespace mpsim::mptcp
