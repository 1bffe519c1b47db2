// Per-subflow delivery-rate sampling, BBR-style: every packet launch
// snapshots the delivery process (cumulative delivered count and the time
// of the most recent delivery); every cumulative-ACK advance retires those
// records and measures, over the newest retired packet P,
//
//   delivery_rate = (delivered_now - P.delivered_at_send)
//                       / (now - P.delivered_time_at_send)
//
// — the average rate of the delivery process across P's lifetime. Using
// the delivery-clock interval (not P's own round trip) is what keeps the
// estimate honest when a cumulative ACK fills a retransmitted hole: the
// packets that were parked behind the hole are credited all at once, but
// the interval then spans the stall that parked them, so the sample can
// never exceed what the path actually carried (cf. the BBR delivery-rate
// draft's ack_elapsed). Samples from retransmitted packets are suppressed
// (Karn's ambiguity), and samples taken while the sender had window space
// but no data are flagged app-limited so a rate-based controller's max
// filter is not dragged down by the application.
//
// The board is a deque parallel to the subflow's scoreboard, keyed by
// subflow sequence number; it grows with the window and reuses the same
// amortized-allocation argument.
#pragma once

#include <cstdint>
#include <deque>

#include "cc/congestion_control.hpp"
#include "core/time.hpp"

namespace mpsim::tcp {

class DeliveryRateEstimator {
 public:
  // Record the launch of subflow seq `seq` at `now`. Fresh sends append to
  // the board (seq must be exactly the next unrecorded one); go-back-N and
  // fast-retransmit resends overwrite their slot and mark it ambiguous.
  void on_send(std::uint64_t seq, SimTime now, bool is_retransmit);

  // The sender ran out of application data with window space left:
  // delivery measured until the current outstanding packets drain tells us
  // about the app, not the path. `inflight_pkts` bounds the tainted span.
  void on_app_limited(std::uint64_t inflight_pkts) {
    app_limited_until_ = delivered_ + inflight_pkts;
  }

  // The cumulative ACK advanced to `cum`: retire every record below it,
  // credit the delivered counter, and produce a rate sample in `out`.
  // Returns false (leaving `out` untouched) when no unambiguous sample
  // exists — the newest retired packet was a retransmit, or its measured
  // interval is empty.
  bool on_ack(std::uint64_t cum, SimTime now, cc::DeliveryRateSample& out);

  // Monotone count of packets delivered (cumulatively acked) on this
  // subflow since the estimator was created.
  std::uint64_t delivered_pkts() const { return delivered_; }
  bool app_limited() const { return delivered_ < app_limited_until_; }

 private:
  struct Entry {
    std::uint64_t delivered_at_send = 0;
    SimTime sent_at = 0;
    SimTime delivered_time_at_send = 0;  // delivery clock when launched
    bool app_limited = false;
    bool retransmitted = false;
  };

  std::deque<Entry> board_;    // board_[i] describes seq base_ + i
  std::uint64_t base_ = 0;
  std::uint64_t delivered_ = 0;
  SimTime delivered_time_ = 0;  // when delivered_ last advanced (or the
                                // pipe restarted from idle)
  std::uint64_t app_limited_until_ = 0;
  std::uint64_t next_round_delivered_ = 0;
};

}  // namespace mpsim::tcp
