// A drop-tail queue whose service rate can change at runtime, including to
// zero (an outage). This is the substitute for the paper's wireless testbed
// links (§5): WiFi fading, 3G speed bursts, and the mobile walk of Fig. 17
// are all expressed as scripted rate changes on one of these queues.
//
// Rate changes take effect immediately: the packet currently in service has
// its remaining transmission time rescaled to the new rate. During an outage
// the head packet is frozen and resumes when the rate becomes nonzero.
#pragma once

#include <string>
#include <vector>

#include "net/queue.hpp"

namespace mpsim::net {

class VariableRateQueue : public Queue {
 public:
  VariableRateQueue(EventList& events, std::string name, double rate_bps,
                    std::uint64_t max_bytes);

  // Change the link speed now. `rate_bps == 0` suspends service (outage).
  void set_rate(double rate_bps);

  void receive(Packet& pkt) override;
  void on_event() override;

  bool in_outage() const { return rate_bps_ == 0.0; }

 private:
  // Fraction of the in-service packet already transmitted when the last
  // rate change happened, plus when that was.
  double fraction_done_ = 0.0;
  SimTime fraction_as_of_ = 0;

  // Start serving the head packet from its first bit.
  void begin_service();
  void reschedule_head();
};

// Applies a scripted sequence of rate changes to a VariableRateQueue.
// Entries must be sorted by time. Used to model mobility traces.
class RateSchedule : public EventSource {
 public:
  struct Change {
    SimTime at;
    double rate_bps;
  };

  RateSchedule(EventList& events, VariableRateQueue& target,
               std::vector<Change> changes);

  void on_event() override;

 private:
  EventList& events_;
  VariableRateQueue& target_;
  std::vector<Change> changes_;
  std::size_t next_ = 0;
};

}  // namespace mpsim::net
