// Bernoulli random-loss element.
//
// Used to model paths whose loss is not congestion-induced: the fixed-loss
// WiFi/3G thought experiment of §2.3 (p1 = 4%, p2 = 1%) and corruption loss
// on wireless links. Each arriving packet is independently dropped with
// probability `loss_prob`; survivors advance immediately (no queueing, no
// serialization delay — combine with a Queue when both are wanted).
#pragma once

#include <string>

#include "core/event_list.hpp"
#include "core/rng.hpp"
#include "net/packet.hpp"
#include "trace/trace.hpp"

namespace mpsim::net {

class LossyLink : public PacketSink {
 public:
  // Registers with the simulation's flight recorder (if installed) so
  // random drops show up in traces as kLinkDrop, distinguishable from
  // congestive queue drops.
  LossyLink(EventList& events, std::string name, double loss_prob,
            std::uint64_t seed)
      : events_(events),
        name_(std::move(name)),
        loss_prob_(loss_prob),
        rng_(seed),
        trace_(trace::TraceRecorder::find(events)) {
    if (trace_ != nullptr) trace_id_ = trace_->register_object(name_);
  }

  void receive(Packet& pkt) override {
    ++arrivals_;
    if (rng_.chance(loss_prob_)) {
      ++drops_;
      MPSIM_TRACE(trace_,
                  trace::link_drop(events_.now(), trace_id_, pkt.flow_id,
                                   pkt.subflow_id, pkt.size_bytes));
      pkt.release();
      return;
    }
    pkt.advance();
  }

  const std::string& sink_name() const override { return name_; }

  void set_loss_prob(double p) { loss_prob_ = p; }
  double loss_prob() const { return loss_prob_; }
  std::uint64_t arrivals() const { return arrivals_; }
  std::uint64_t drops() const { return drops_; }

 private:
  EventList& events_;
  std::string name_;
  double loss_prob_;
  Rng rng_;
  std::uint64_t arrivals_ = 0;
  std::uint64_t drops_ = 0;

  // Flight recorder, cached at construction (nullptr = tracing off).
  trace::TraceRecorder* trace_;
  std::uint16_t trace_id_ = 0;
};

}  // namespace mpsim::net
