#include "net/pipe.hpp"

#include "core/check.hpp"

namespace mpsim::net {

Pipe::Pipe(EventList& events, std::string name, SimTime delay)
    : EventSource(events, std::move(name)), events_(events), delay_(delay) {
  MPSIM_CHECK(delay_ >= 0, "propagation delay must be non-negative");
}

void Pipe::receive(Packet& pkt) {
  const bool was_empty = in_flight_.empty();
  pkt.link_due = events_.now() + delay_;
  // Intrusive PacketFifo: links through the packet's embedded pointers,
  // no heap allocation despite the container-idiom name.
  // mpsim-analyze: allow(hot-alloc)
  in_flight_.push_back(pkt);
  // Head-armed: one pending wake per pipe, at the head's delivery time;
  // on_event re-arms after each batch, so a push onto a non-empty fifo
  // never needs to schedule. Per-packet reference: one wake per packet.
  if (was_empty || !batched_) events_.schedule_at(*this, pkt.link_due);
}

void Pipe::on_event() {
  MPSIM_CHECK(!in_flight_.empty(), "pipe wake-up with nothing in flight");
  if (!batched_) {
    // One wake-up was scheduled per packet, so exactly the due head is
    // delivered here; arrivals are FIFO because delay is constant.
    Packet* pkt = in_flight_.pop_front();
    MPSIM_CHECK(pkt->link_due == events_.now(),
                "pipe delivery must fire exactly on time");
    pkt->advance();
    return;
  }
  // Deliver the entire due-now prefix, then re-arm at the new head. A
  // delivery's downstream effects may push more packets onto this pipe at
  // the same instant (zero-delay paths); the loop re-tests the head so
  // those go out in this same dispatch — exactly where their canonical
  // keys would have dispatched them one wake per packet (key adjacency).
  MPSIM_CHECK(in_flight_.front()->link_due == events_.now(),
              "pipe delivery must fire exactly on time");
  while (!in_flight_.empty() &&
         in_flight_.front()->link_due == events_.now()) {
    in_flight_.pop_front()->advance();
  }
  if (!in_flight_.empty()) {
    events_.schedule_at(*this, in_flight_.front()->link_due);
  }
}

}  // namespace mpsim::net
