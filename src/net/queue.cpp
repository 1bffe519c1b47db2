#include "net/queue.hpp"

#include <utility>

#include "core/check.hpp"

namespace mpsim::net {

Queue::Queue(EventList& events, std::string name, double rate_bps,
             std::uint64_t max_bytes)
    : EventSource(events, std::move(name)),
      events_(events),
      rate_bps_(rate_bps),
      max_bytes_(max_bytes),
      hot_id_(SimArena::of(events).add_queue()),
      h_(SimArena::of(events).queue(hot_id_)) {
  MPSIM_CHECK(rate_bps_ > 0, "queue service rate must be positive");
  trace_ = trace::TraceRecorder::find(events);
  if (trace_ != nullptr) {
    trace_id_ = trace_->register_object(EventSource::name());
  }
}

void Queue::receive(Packet& pkt) {
  if (admit(pkt) && !busy_) start_service();
}

bool Queue::admit(Packet& pkt) {
  MPSIM_CHECK(h_.queued_bytes <= max_bytes_,
              "queue occupancy exceeds buffer capacity");
  ++h_.arrivals;
  if (h_.queued_bytes + pkt.size_bytes > max_bytes_) {
    ++h_.drops;
    MPSIM_TRACE(trace_,
                trace::queue_drop(events_.now(), trace_id_, pkt.flow_id,
                                  pkt.subflow_id, h_.queued_bytes,
                                  pkt.size_bytes));
    pkt.release();
    return false;
  }
  h_.queued_bytes += pkt.size_bytes;
  // Intrusive PacketFifo: links through the packet's embedded pointers,
  // no heap allocation despite the container-idiom name.
  // mpsim-analyze: allow(hot-alloc)
  fifo_.push_back(pkt);
  MPSIM_TRACE(trace_, trace::queue_sample(events_.now(), trace_id_,
                                          h_.queued_bytes, queued_packets()));
  return true;
}

void Queue::start_service() {
  MPSIM_CHECK(!busy_ && !fifo_.empty(),
              "start_service needs an idle server and a waiting packet");
  busy_ = true;
  in_service_ = fifo_.pop_front();
  service_done_at_ = events_.now() + service_time(*in_service_);
  events_.schedule_at(*this, service_done_at_);
}

void Queue::on_event() {
  // Lazy-cancellation guard: VariableRateQueue reschedules completions when
  // the rate changes, which can leave stale wake-ups in the event list.
  if (!busy_ || events_.now() < service_done_at_) return;
  Packet* pkt = depart();
  if (!fifo_.empty()) start_service();
  pkt->advance();
}

Packet* Queue::depart() {
  Packet* pkt = in_service_;
  MPSIM_CHECK(pkt != nullptr, "busy queue must have a packet in service");
  in_service_ = nullptr;
  busy_ = false;
  MPSIM_CHECK(h_.queued_bytes >= pkt->size_bytes,
              "queue byte accounting underflow on departure");
  h_.queued_bytes -= pkt->size_bytes;
  ++h_.departures;
  h_.bytes_forwarded += pkt->size_bytes;
  MPSIM_TRACE(trace_, trace::queue_sample(events_.now(), trace_id_,
                                          h_.queued_bytes, queued_packets()));
  return pkt;
}

std::size_t Queue::drop_waiting(std::size_t max_pkts) {
  std::size_t dropped = 0;
  while (dropped < max_pkts && !fifo_.empty()) {
    Packet* pkt = fifo_.pop_back();
    MPSIM_CHECK(h_.queued_bytes >= pkt->size_bytes,
                "queue byte accounting underflow on fault drop");
    h_.queued_bytes -= pkt->size_bytes;
    ++h_.drops;
    ++dropped;
    MPSIM_TRACE(trace_,
                trace::queue_drop(events_.now(), trace_id_, pkt->flow_id,
                                  pkt->subflow_id, h_.queued_bytes,
                                  pkt->size_bytes));
    pkt->release();
  }
  if (dropped > 0) {
    MPSIM_TRACE(trace_, trace::queue_sample(events_.now(), trace_id_,
                                            h_.queued_bytes, queued_packets()));
  }
  return dropped;
}

void Queue::reset_stats() {
  h_.arrivals = 0;
  h_.drops = 0;
  h_.departures = 0;
  h_.bytes_forwarded = 0;
}

}  // namespace mpsim::net
