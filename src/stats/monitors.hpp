// Measurement instruments: a periodic sampler that polls counters in
// simulated time (goodput samples, timelines), and the packets-to-Mb/s
// conversion every goodput metric uses.
#pragma once

#include <cstdint>
#include <functional>
#include <string>

#include "core/event_list.hpp"

namespace mpsim::stats {

// Invokes a callback every `interval` of simulated time.
class PeriodicSampler : public EventSource {
 public:
  PeriodicSampler(EventList& events, std::string name, SimTime interval,
                  std::function<void(SimTime)> fn);
  // Cancels any pending wake-up: a sampler may be destroyed while armed
  // without leaving a dangling EventSource* in the event list.
  ~PeriodicSampler() override;

  void start(SimTime at);
  // Eagerly removes the pending wake-up, so a stopped sampler cannot keep a
  // run-until-empty simulation alive. Safe to call from inside the sampling
  // callback (the tick in progress will not reschedule) and when idle.
  void stop();
  bool running() const { return running_; }
  void on_event() override;

 private:
  EventList& events_;
  SimTime interval_;
  std::function<void(SimTime)> fn_;
  bool running_ = false;
};

// Mb/s represented by `pkts` data packets over `elapsed`.
double pkts_to_mbps(std::uint64_t pkts, SimTime elapsed);

}  // namespace mpsim::stats
