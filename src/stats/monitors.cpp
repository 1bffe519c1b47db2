#include "stats/monitors.hpp"

#include "core/check.hpp"
#include "net/packet.hpp"

namespace mpsim::stats {

PeriodicSampler::PeriodicSampler(EventList& events, std::string name,
                                 SimTime interval,
                                 std::function<void(SimTime)> fn)
    : EventSource(events, std::move(name)),
      events_(events),
      interval_(interval),
      fn_(std::move(fn)) {}

PeriodicSampler::~PeriodicSampler() { stop(); }

void PeriodicSampler::start(SimTime at) {
  MPSIM_CHECK(!running_, "PeriodicSampler::start while already running");
  running_ = true;
  events_.schedule_at(*this, at);
}

void PeriodicSampler::stop() {
  running_ = false;
  // Eager, not lazy: the wake-up must not outlive this object (the event
  // list would dispatch a dangling pointer) and must not keep a
  // run-until-empty loop ticking on a sampler that does nothing.
  events_.cancel(*this);
}

void PeriodicSampler::on_event() {
  fn_(events_.now());
  // fn_ may have called stop(); rescheduling would silently restart it.
  if (running_) events_.schedule_in(*this, interval_);
}

double pkts_to_mbps(std::uint64_t pkts, SimTime elapsed) {
  if (elapsed <= 0) return 0.0;
  return static_cast<double>(pkts) * net::kDataPacketBytes * 8.0 /
         to_sec(elapsed) / 1e6;
}

}  // namespace mpsim::stats
