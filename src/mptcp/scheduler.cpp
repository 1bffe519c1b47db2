#include "mptcp/scheduler.hpp"

#include <algorithm>
#include <limits>

#include "core/check.hpp"

namespace mpsim::mptcp {

bool DataScheduler::next_reinject(std::uint64_t& data_seq) {
  while (!reinject_q_.empty()) {
    const std::uint64_t seq = reinject_q_.front();
    reinject_q_.pop_front();
    reinject_pending_.erase(seq);
    if (seq < data_cum_ack_) continue;  // acked meanwhile; obsolete
    data_seq = seq;
    return true;
  }
  return false;
}

bool DataScheduler::next_fresh(std::uint64_t& data_seq) {
  if (app_limited() && next_new_ >= app_limit_) return false;
  if (next_new_ >= right_edge_) return false;  // receiver-buffer limited
  data_seq = next_new_++;
  return true;
}

std::uint64_t DataScheduler::fresh_window_pkts() const {
  std::uint64_t limit = right_edge_;
  if (app_limited()) limit = std::min(limit, app_limit_);
  return limit > next_new_ ? limit - next_new_ : 0;
}

bool DataScheduler::next_data(std::uint32_t /*subflow_id*/,
                              std::uint64_t& data_seq) {
  // Stripe: reinjections first (these unblock the receiver's
  // head-of-line), then fresh data to whoever asked first.
  return next_reinject(data_seq) || next_fresh(data_seq);
}

void DataScheduler::on_data_ack(std::uint64_t data_cum_ack,
                                std::uint64_t rcv_window) {
  const std::uint64_t before = data_cum_ack_;
  data_cum_ack_ = std::max(data_cum_ack_, data_cum_ack);
  right_edge_ = std::max(right_edge_, data_cum_ack + rcv_window);
  // (data_cum_ack <= highest-assigned is checked by MptcpConnection, which
  // owns both ends; the scheduler alone may be driven abstractly in tests.)
  MPSIM_CHECK(data_cum_ack_ <= right_edge_,
              "flow-control right edge fell behind the cumulative ACK");
  // Eager cleanup: queued reinjections the ACK just retired would otherwise
  // wait for a next_data() pull that may never come (all target subflows
  // dead, or the connection complete), pinning reinject_pending_ entries.
  if (data_cum_ack_ != before && !reinject_q_.empty()) purge_acked();
}

std::uint64_t DataScheduler::purge_acked() {
  std::uint64_t purged = 0;
  std::size_t kept = 0;
  for (std::size_t i = 0; i < reinject_q_.size(); ++i) {
    const std::uint64_t seq = reinject_q_[i];
    if (seq < data_cum_ack_) {
      reinject_pending_.erase(seq);
      ++purged;
      continue;
    }
    reinject_q_[kept++] = seq;
  }
  // Shrinking resize: never allocates, only trims the compacted tail.
  // mpsim-analyze: allow(hot-alloc)
  reinject_q_.resize(kept);
  purged_total_ += purged;
  return purged;
}

void DataScheduler::reinject(const std::vector<std::uint64_t>& data_seqs) {
  std::uint64_t accepted = 0;
  std::uint64_t first = 0;
  for (std::uint64_t seq : data_seqs) {
    if (seq < data_cum_ack_) continue;
    // Reinjection is the exceptional path (HoL stall or subflow death),
    // rate-limited by the caller; bounded by the connection's batch per sweep.
    // mpsim-analyze: allow(hot-alloc)
    if (!reinject_pending_.insert(seq).second) continue;  // already queued
    // mpsim-analyze: allow(hot-alloc)
    reinject_q_.push_back(seq);
    if (accepted == 0) first = seq;
    ++accepted;
  }
  reinjected_total_ += accepted;
  if (accepted > 0) {
    MPSIM_TRACE(trace_, trace::reinject(trace_events_->now(), trace_id_,
                                        trace_flow_, accepted, first));
  }
}

bool MinRttFirstScheduler::next_data(std::uint32_t subflow_id,
                                     std::uint64_t& data_seq) {
  if (next_reinject(data_seq)) return true;
  if (view_ != nullptr) {
    // Defer fresh data on this subflow while a strictly faster active
    // sibling (ties broken toward the lower id, so equal-srtt races are
    // deterministic) still has free congestion window: the faster path
    // gets first claim on the stream.
    const double own_srtt = view_->srtt_sec(subflow_id);
    for (std::size_t s = 0; s < view_->num_subflows(); ++s) {
      if (s == subflow_id || !view_->subflow_active(s)) continue;
      if (view_->cwnd_pkts(s) - view_->inflight_pkts(s) < 1.0) continue;
      const double srtt = view_->srtt_sec(s);
      if (srtt < own_srtt || (srtt == own_srtt && s < subflow_id)) {
        return false;
      }
    }
  }
  return next_fresh(data_seq);
}

bool RedundantScheduler::next_data(std::uint32_t subflow_id,
                                   std::uint64_t& data_seq) {
  if (next_reinject(data_seq)) return true;
  if (cursor_.size() <= subflow_id) {
    // Grows once per subflow over the connection's life.
    // mpsim-analyze: allow(hot-alloc)
    cursor_.resize(subflow_id + 1, 0);
  }
  std::uint64_t& cur = cursor_[subflow_id];
  // Skip data the receiver already has: duplicating delivered packets
  // serves nobody.
  cur = std::max(cur, data_cum_ack_);
  if (app_limited() && cur >= app_limit_) return false;
  if (cur >= right_edge_) return false;
  data_seq = cur++;
  // The shared fresh edge is the farthest any subflow has reached, so the
  // connection-level "cum ack never passes what was assigned" invariant
  // keeps holding.
  next_new_ = std::max(next_new_, cur);
  return true;
}

bool BlestScheduler::next_data(std::uint32_t subflow_id,
                               std::uint64_t& data_seq) {
  if (next_reinject(data_seq)) return true;
  if (view_ != nullptr) {
    // BLEST (Ferlin et al.): sending on a slow path blocks the receive
    // window for one slow-path RTT. If the fastest sibling's projected
    // capacity over that RTT covers everything the window still admits,
    // the slow transmission can only cause HoL blocking — wait instead.
    // Fastest strictly-faster active sibling; equal-srtt ties go to the
    // lowest id (strict `<` below), keeping the choice deterministic.
    const double own_srtt = view_->srtt_sec(subflow_id);
    std::size_t fast = std::numeric_limits<std::size_t>::max();
    double fast_srtt = 0.0;
    for (std::size_t s = 0; s < view_->num_subflows(); ++s) {
      if (s == subflow_id || !view_->subflow_active(s)) continue;
      const double srtt = view_->srtt_sec(s);
      if (srtt >= own_srtt) continue;
      if (fast == std::numeric_limits<std::size_t>::max() ||
          srtt < fast_srtt) {
        fast = s;
        fast_srtt = srtt;
      }
    }
    if (fast != std::numeric_limits<std::size_t>::max() &&
        fast_srtt > 0.0) {
      const double projected =
          view_->cwnd_pkts(fast) * (own_srtt / fast_srtt);
      if (projected >= static_cast<double>(fresh_window_pkts())) {
        return false;
      }
    }
  }
  return next_fresh(data_seq);
}

std::unique_ptr<DataScheduler> make_data_scheduler(
    DataSchedulerKind kind, std::uint64_t app_limit_pkts,
    std::uint64_t initial_window) {
  switch (kind) {
    case DataSchedulerKind::kStripe:
      return std::make_unique<DataScheduler>(app_limit_pkts, initial_window);
    case DataSchedulerKind::kMinRttFirst:
      return std::make_unique<MinRttFirstScheduler>(app_limit_pkts,
                                                    initial_window);
    case DataSchedulerKind::kRedundant:
      return std::make_unique<RedundantScheduler>(app_limit_pkts,
                                                  initial_window);
    case DataSchedulerKind::kBlest:
      return std::make_unique<BlestScheduler>(app_limit_pkts, initial_window);
  }
  MPSIM_CHECK(false, "unknown DataSchedulerKind");
  return nullptr;
}

}  // namespace mpsim::mptcp
