// Drop-tail FIFO queue with a finite byte buffer and a fixed service rate.
//
// The queue models the serialization of packets onto a link: one packet is
// "in service" at a time and departs after size*8/rate seconds, at which
// point it advances to the next hop (normally a Pipe carrying the link's
// propagation delay). Arrivals that would overflow the buffer are dropped at
// the tail and counted, giving each link's loss rate.
#pragma once

#include <cstdint>
#include <string>

#include "core/arena.hpp"
#include "core/event_list.hpp"
#include "net/packet.hpp"
#include "trace/trace.hpp"

namespace mpsim::net {

class Queue : public PacketSink, public EventSource {
 public:
  // `rate_bps` link speed; `max_bytes` buffer capacity (queued + in service).
  Queue(EventList& events, std::string name, double rate_bps,
        std::uint64_t max_bytes);

  void receive(Packet& pkt) override;
  void on_event() override;
  const std::string& sink_name() const override { return EventSource::name(); }

  // Fault-injection primitive: drop up to `max_pkts` waiting packets from
  // the tail (the packet in service is not interrupted). Models buffer
  // corruption (small counts) and a full drain (SIZE_MAX). Dropped packets
  // count as drops and emit queue_drop trace records, exactly like
  // drop-tail losses. Returns how many packets were dropped.
  std::size_t drop_waiting(std::size_t max_pkts);

  // --- statistics ---
  std::uint64_t arrivals() const { return h_.arrivals; }
  std::uint64_t drops() const { return h_.drops; }
  std::uint64_t departures() const { return h_.departures; }
  std::uint64_t bytes_forwarded() const { return h_.bytes_forwarded; }
  double loss_rate() const {
    return h_.arrivals == 0 ? 0.0
                            : static_cast<double>(h_.drops) / h_.arrivals;
  }
  void reset_stats();

  std::uint64_t queued_bytes() const { return h_.queued_bytes; }
  std::size_t queued_packets() const { return fifo_.size() + (busy_ ? 1 : 0); }
  double rate_bps() const { return rate_bps_; }

 protected:
  // Serialization delay of `pkt` at the current rate. Nearly all packets are
  // full-MSS data or minimum-size ACKs, so the two results are memoized per
  // rate (start_service runs once per packet per hop; the recompute-on-match
  // expressions are the exact FP operations of the fallback, so memoized and
  // direct answers are bit-identical). The memo revalidates against
  // rate_bps_, which VariableRateQueue::set_rate may change mid-run.
  SimTime service_time(const Packet& pkt) const {
    if (rate_bps_ != memo_rate_) {
      memo_rate_ = rate_bps_;
      memo_data_st_ = from_sec(static_cast<double>(kDataPacketBytes) * 8.0 /
                               rate_bps_);
      memo_ack_st_ = from_sec(static_cast<double>(kAckPacketBytes) * 8.0 /
                              rate_bps_);
    }
    if (pkt.size_bytes == kDataPacketBytes) return memo_data_st_;
    if (pkt.size_bytes == kAckPacketBytes) return memo_ack_st_;
    return from_sec(static_cast<double>(pkt.size_bytes) * 8.0 / rate_bps_);
  }
  void start_service();
  // Admission and departure bookkeeping, shared with VariableRateQueue so
  // both keep the same checks, counters and trace records. admit() counts
  // the arrival and either tail-drops the packet (returning false) or
  // queues it; depart() takes the in-service packet off the server,
  // accounts for it and returns it for the caller to advance.
  bool admit(Packet& pkt);
  Packet* depart();

  EventList& events_;
  PacketFifo fifo_;  // waiting packets; head-of-line is in service
  double rate_bps_;
  std::uint64_t max_bytes_;
  bool busy_ = false;
  Packet* in_service_ = nullptr;
  SimTime service_done_at_ = 0;

  // service_time() memo; memo_rate_ = -1 forces a fill on first use.
  mutable double memo_rate_ = -1.0;
  mutable SimTime memo_data_st_ = 0;
  mutable SimTime memo_ack_st_ = 0;

  // Occupancy and flow counters live in the per-EventList arena; h_ is this
  // queue's row.
  std::uint32_t hot_id_;
  QueueHot& h_;

  // Flight recorder, cached at construction (nullptr = tracing off).
  trace::TraceRecorder* trace_ = nullptr;
  std::uint16_t trace_id_ = 0;
};

}  // namespace mpsim::net
