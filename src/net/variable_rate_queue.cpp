#include "net/variable_rate_queue.hpp"

#include <cmath>
#include <utility>

#include "core/check.hpp"

namespace mpsim::net {

VariableRateQueue::VariableRateQueue(EventList& events, std::string name,
                                     double rate_bps, std::uint64_t max_bytes)
    : Queue(events, std::move(name), rate_bps, max_bytes) {}

void VariableRateQueue::receive(Packet& pkt) {
  if (admit(pkt) && !busy_ && rate_bps_ > 0.0) begin_service();
}

void VariableRateQueue::begin_service() {
  start_service();
  fraction_done_ = 0.0;
  fraction_as_of_ = events_.now();
}

void VariableRateQueue::set_rate(double rate_bps) {
  MPSIM_CHECK(rate_bps >= 0.0, "link rate must be non-negative");
  const SimTime now = events_.now();
  if (busy_) {
    // Bank progress made at the old rate before switching.
    if (rate_bps_ > 0.0) {
      const double total = static_cast<double>(
          from_sec(static_cast<double>(in_service_->size_bytes) * 8.0 /
                   rate_bps_));
      // A rate so high the whole packet serializes in under 1 ns truncates
      // `total` to 0; dividing by it would poison fraction_done_ with
      // NaN/inf and reschedule_head would cast that to SimTime (UB). A
      // sub-ns transmission is simply finished.
      if (total > 0.0) {
        fraction_done_ += static_cast<double>(now - fraction_as_of_) / total;
      } else {
        fraction_done_ = 1.0;
      }
      if (fraction_done_ > 1.0) fraction_done_ = 1.0;
    }
    fraction_as_of_ = now;
  }
  rate_bps_ = rate_bps;
  MPSIM_TRACE(trace_, trace::rate_change(now, trace_id_, rate_bps_));
  if (busy_) {
    reschedule_head();
  } else if (rate_bps_ > 0.0 && !fifo_.empty()) {
    begin_service();
  }
}

void VariableRateQueue::reschedule_head() {
  MPSIM_CHECK(busy_, "reschedule_head requires a packet in service");
  if (rate_bps_ == 0.0) {
    service_done_at_ = kNever;  // frozen; stale wake-ups self-discard
    return;
  }
  const double total = static_cast<double>(from_sec(
      static_cast<double>(in_service_->size_bytes) * 8.0 / rate_bps_));
  const double remaining = (1.0 - fraction_done_) * total;
  MPSIM_CHECK(std::isfinite(remaining) && remaining >= 0.0,
              "drain-time computation produced a non-finite or negative "
              "remaining service time");
  service_done_at_ = events_.now() + static_cast<SimTime>(remaining);
  events_.schedule_at(*this, service_done_at_);
}

void VariableRateQueue::on_event() {
  if (!busy_ || events_.now() < service_done_at_) return;
  Packet* pkt = depart();
  if (!fifo_.empty() && rate_bps_ > 0.0) begin_service();
  pkt->advance();
}

RateSchedule::RateSchedule(EventList& events, VariableRateQueue& target,
                           std::vector<Change> changes)
    : EventSource(events, "rate-schedule[" + target.sink_name() + "]"),
      events_(events),
      target_(target),
      changes_(std::move(changes)) {
  if (!changes_.empty()) events_.schedule_at(*this, changes_.front().at);
}

void RateSchedule::on_event() {
  while (next_ < changes_.size() && changes_[next_].at <= events_.now()) {
    target_.set_rate(changes_[next_].rate_bps);
    ++next_;
  }
  if (next_ < changes_.size()) {
    events_.schedule_at(*this, changes_[next_].at);
  }
}

}  // namespace mpsim::net
