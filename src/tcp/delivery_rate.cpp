#include "tcp/delivery_rate.hpp"

#include <algorithm>

#include "core/check.hpp"

namespace mpsim::tcp {

void DeliveryRateEstimator::on_send(std::uint64_t seq, SimTime now,
                                    bool is_retransmit) {
  if (seq < base_) return;  // already cumulatively acked; nothing to track
  const std::uint64_t off = seq - base_;
  if (off < board_.size()) {
    // Go-back-N or fast retransmit resend: the original launch record is
    // still on the board. Karn — a later ACK of this seq is ambiguous.
    Entry& e = board_[off];
    e.retransmitted = true;
    e.sent_at = now;
    e.delivered_at_send = delivered_;
    e.delivered_time_at_send = delivered_time_;
    return;
  }
  MPSIM_CHECK(off == board_.size(),
              "delivery board must record sends in sequence order");
  // An empty board means nothing is in flight: restart the delivery clock
  // so an idle gap is not billed to the first sample of the new flight.
  if (board_.empty()) delivered_time_ = now;
  Entry e;
  e.delivered_at_send = delivered_;
  e.sent_at = now;
  e.delivered_time_at_send = delivered_time_;
  e.app_limited = app_limited();
  e.retransmitted = is_retransmit;
  // Deque chunk growth is amortized across a window's worth of sends; in
  // steady state pops recycle the chunks the pushes consume.
  // mpsim-analyze: allow(hot-alloc)
  board_.push_back(e);
}

bool DeliveryRateEstimator::on_ack(std::uint64_t cum, SimTime now,
                                   cc::DeliveryRateSample& out) {
  if (cum <= base_) return false;
  const std::uint64_t popped =
      std::min<std::uint64_t>(cum - base_, board_.size());
  if (popped == 0) return false;
  const Entry last = board_[popped - 1];
  board_.erase(board_.begin(),
               board_.begin() + static_cast<std::ptrdiff_t>(popped));
  base_ += popped;
  const std::uint64_t before = delivered_;
  delivered_ += popped;
  delivered_time_ = now;
  MPSIM_CHECK(delivered_ > before && delivered_ > last.delivered_at_send,
              "delivered counter must advance monotonically past the "
              "sample's send-time snapshot");
  if (!app_limited()) app_limited_until_ = 0;

  // One "round" = one window's worth of delivery: the newest retired packet
  // was launched at or after the point the previous round's marker was set.
  const bool round_start = last.delivered_at_send >= next_round_delivered_;
  if (round_start) next_round_delivered_ = delivered_;

  if (last.retransmitted) return false;  // Karn: ambiguous timing
  const SimTime rtt = now - last.sent_at;
  // Delivery-clock interval (>= the packet's round trip): the span over
  // which the credited packets were actually delivered. A hole-filling
  // cumulative jump credits many packets at once, but their parking time
  // behind the hole is inside this interval, so the rate stays bounded by
  // what the path carried.
  const SimTime interval = now - last.delivered_time_at_send;
  if (rtt <= 0 || interval <= 0) return false;
  out.delivery_rate =
      static_cast<double>(delivered_ - last.delivered_at_send) /
      to_sec(interval);
  out.rtt_sec = to_sec(rtt);
  out.now_sec = to_sec(now);
  out.delivered_pkts = delivered_;
  out.acked_pkts = popped;
  out.app_limited = last.app_limited;
  out.round_start = round_start;
  return true;
}

}  // namespace mpsim::tcp
