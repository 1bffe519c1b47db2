// Propagation-delay element: delivers every packet `delay` after arrival,
// preserving order. Pipes never drop.
//
// Service is head-armed: at most ONE pending wake-up per pipe, armed at the
// head packet's delivery time; each wake delivers the entire due-now
// prefix, then re-arms at the new head. This keeps scheduler occupancy at
// one entry per pipe instead of one per packet in flight — the dominant
// per-event constant on dense datacenter topologies.
//
// set_batched(false) restores the per-packet discipline (one wake per
// packet), kept only as the tests' reference. The two are dispatch-order
// identical: all of a pipe's same-time events carry canonical keys (pipe
// order id, seq) that share the same high 32 bits, so no other source's
// same-time event can interleave between them (key adjacency) — delivering
// the whole due-now prefix inside one dispatch performs the same downstream
// calls in the same global order as one dispatch per packet.
#pragma once

#include <string>

#include "core/event_list.hpp"
#include "net/packet.hpp"

namespace mpsim::net {

class Pipe : public PacketSink, public EventSource {
 public:
  Pipe(EventList& events, std::string name, SimTime delay);

  void receive(Packet& pkt) override;
  void on_event() override;
  const std::string& sink_name() const override { return EventSource::name(); }

  SimTime delay() const { return delay_; }

  // Test reference: false switches this pipe to one wake-up per packet.
  void set_batched(bool batched) { batched_ = batched; }

 private:
  EventList& events_;
  SimTime delay_;
  bool batched_ = true;
  PacketFifo in_flight_;  // FIFO by arrival; link_due is the delivery time
};

}  // namespace mpsim::net
