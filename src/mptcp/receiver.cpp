#include "mptcp/receiver.hpp"

#include <utility>

#include "core/check.hpp"

namespace mpsim::mptcp {

MptcpReceiver::MptcpReceiver(EventList& events, std::string name,
                             std::uint32_t flow_id, std::uint64_t buffer_pkts)
    : EventSource(events, std::move(name)),
      events_(events),
      flow_id_(flow_id),
      capacity_(buffer_pkts),
      data_reorder_(&ReorderLedger::of(events)) {
  trace_ = trace::TraceRecorder::find(events);
  if (trace_ != nullptr) trace_id_ = trace_->register_object(this->name());
}

void MptcpReceiver::add_subflow(const net::Route& ack_route) {
  // Subflow-open granularity (see MptcpConnection::add_subflow): the
  // receive path proper never reaches this.
  SubflowRx rx{&ack_route, ReorderWindow(&ReorderLedger::of(events_))};
  // mpsim-analyze: allow(hot-alloc)
  subflows_.push_back(std::move(rx));
}

void MptcpReceiver::set_app_read_rate(double pkts_per_sec) {
  app_read_rate_ = pkts_per_sec;
  last_drain_ = events_.now();
  if (app_read_rate_ > 0.0 && next_drain_at_ == kNever) {
    next_drain_at_ = events_.now() + kDrainInterval;
    events_.schedule_at(*this, next_drain_at_);
  }
}

void MptcpReceiver::receive(net::Packet& pkt) {
  MPSIM_CHECK(pkt.type == net::PacketType::kData,
              "receiver can only accept data packets");
  MPSIM_CHECK(pkt.flow_id == flow_id_,
              "packet delivered to the wrong connection's receiver");
  MPSIM_CHECK(pkt.subflow_id < subflows_.size(),
              "data packet names an unregistered subflow");
  ++packets_received_;

  // --- subflow-level reassembly (drives loss detection at the sender) ---
  ReorderWindow& sub = subflows_[pkt.subflow_id].reorder;
  if (pkt.subflow_seq == sub.edge()) {
    sub.advance();
  } else if (pkt.subflow_seq > sub.edge()) {
    sub.add(pkt.subflow_seq);
  }
  // (subflow_seq below the edge: duplicate from go-back-N, nothing to track)

  // --- data-level reassembly into the shared buffer ---
  const std::uint64_t dseq = pkt.data_seq;
  if (dseq < data_reorder_.edge() || data_reorder_.contains(dseq)) {
    ++duplicate_data_;  // reinjected or go-back-N copy; already have it
  } else if (buffer_occupancy() >= capacity_) {
    // No room. A sender honouring the advertised window cannot trigger
    // this; counted so tests can assert the invariant.
    ++window_violations_;
  } else if (dseq == data_reorder_.edge()) {
    data_reorder_.advance();
    drain_to_app();
  } else {
    data_reorder_.add(dseq);
  }

  MPSIM_CHECK(buffer_occupancy() <= capacity_,
              "shared receive buffer overflow (6 deadlock-avoidance bound)");
  MPSIM_CHECK(app_read_seq_ <= data_reorder_.edge(),
              "application cannot read past the in-order edge");
  MPSIM_TRACE(trace_, trace::rcv_buffer(events_.now(), trace_id_, flow_id_,
                                        buffer_occupancy(),
                                        advertised_window()));
  emit_ack(pkt.subflow_id, pkt.ts_echo, pkt.is_retransmit, false);
  pkt.release();
}

void MptcpReceiver::emit_ack(std::uint32_t subflow_id, SimTime ts_echo,
                             bool is_retx, bool window_update) {
  SubflowRx& sub = subflows_[subflow_id];
  net::Packet& ack = net::Packet::alloc(events_);
  ack.type = net::PacketType::kAck;
  ack.flow_id = flow_id_;
  ack.subflow_id = subflow_id;
  ack.subflow_cum_ack = sub.reorder.edge();
  ack.data_cum_ack = data_reorder_.edge();
  ack.rcv_window = advertised_window();
  ack.size_bytes = net::kAckPacketBytes;
  ack.ts_echo = ts_echo;
  ack.is_retransmit = is_retx;
  ack.is_window_update = window_update;
  if (ack.rcv_window == 0) advertised_zero_ = true;
  if (wire_counter_ != nullptr) {
    ++*wire_counter_;
    ack.wire_refs = wire_counter_;
  }
  ack.send_on(*sub.ack_route);
}

void MptcpReceiver::maybe_send_window_update() {
  // The sender of a zero-window advertisement stops transmitting, so no
  // further data will arrive to carry the reopened window back — the
  // receiver must volunteer it (the simulator's stand-in for TCP's
  // window-update / persist machinery).
  if (!advertised_zero_ || subflows_.empty()) return;
  if (advertised_window() == 0) return;
  advertised_zero_ = false;
  ++window_updates_sent_;
  emit_ack(0, events_.now(), /*is_retx=*/true, /*window_update=*/true);
}

void MptcpReceiver::drain_to_app() {
  if (app_read_rate_ <= 0.0) {
    // Infinitely fast application: in-order data leaves the buffer at once.
    app_read_seq_ = data_reorder_.edge();
    return;
  }
  const SimTime now = events_.now();
  read_credit_ += app_read_rate_ * to_sec(now - last_drain_);
  last_drain_ = now;
  while (read_credit_ >= 1.0 && app_read_seq_ < data_reorder_.edge()) {
    read_credit_ -= 1.0;
    ++app_read_seq_;
  }
  // No banking ahead: a reader with nothing left to read keeps no credit.
  if (app_read_seq_ >= data_reorder_.edge()) read_credit_ = 0.0;
  maybe_send_window_update();
}

void MptcpReceiver::on_event() {
  // The periodic app drain; the chain stops once the read rate is back to
  // infinite.
  if (app_read_rate_ > 0.0) {
    drain_to_app();
    next_drain_at_ = events_.now() + kDrainInterval;
    events_.schedule_at(*this, next_drain_at_);
  } else {
    next_drain_at_ = kNever;
  }
}

}  // namespace mpsim::mptcp
