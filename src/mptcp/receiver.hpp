// The receiving end of a multipath connection, implementing the §6 design
// decisions the paper settled on after its deadlock analysis:
//
//   * separate sequence spaces: subflow sequence numbers for loss detection
//     (per-subflow cumulative ACK), data sequence numbers for stream
//     reassembly;
//   * a single shared receive buffer pool for all subflows (per-subflow
//     pools can deadlock when one subflow stalls);
//   * an explicit data-level cumulative ACK on every ACK (inferring it from
//     subflow ACKs mis-tracks the window's trailing edge when ACKs reorder
//     across paths);
//   * the receive window advertised relative to the data sequence space.
//
// An ACK is generated for every arriving data packet (including duplicates
// — the sender's fast-retransmit needs the dupacks).
//
// The application read rate is configurable: infinitely fast by default
// (occupancy is then only reorder buffering), or a finite rate so tests can
// reproduce the flow-control corner cases of §6.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/event_list.hpp"
#include "mptcp/reorder_window.hpp"
#include "net/packet.hpp"
#include "trace/trace.hpp"

namespace mpsim::mptcp {

class MptcpReceiver : public net::PacketSink, public EventSource {
 public:
  MptcpReceiver(EventList& events, std::string name, std::uint32_t flow_id,
                std::uint64_t buffer_pkts);

  // Teardown cancels any pending delayed-ACK / app-drain wake-up so a
  // reclaimed connection leaves no dangling event behind.
  ~MptcpReceiver() override { events_.cancel(*this); }

  // Register the ACK return route for the next subflow (call order defines
  // subflow ids, matching the sender side).
  void add_subflow(const net::Route& ack_route);

  // Wire-reference ledger shared with the sender side (see
  // net::Packet::wire_refs): every ACK this receiver emits increments it.
  void set_wire_counter(std::uint64_t* c) { wire_counter_ = c; }

  // PacketSink: data packets from any subflow.
  void receive(net::Packet& pkt) override;
  const std::string& sink_name() const override { return EventSource::name(); }

  // EventSource: periodic application reads when the read rate is finite.
  void on_event() override;

  // 0 = infinite (default): the app consumes data the instant it is in
  // order. Finite rates make in-order data occupy the shared buffer until
  // read, shrinking the advertised window.
  void set_app_read_rate(double pkts_per_sec);

  // Delayed ACKs (RFC 1122-style): acknowledge every second in-order
  // segment, or after `delay` if only one is pending. Out-of-order
  // arrivals are always acked immediately (the sender needs the dupacks).
  // Off by default — the paper-era simulators ack per packet.
  void set_delayed_ack(bool enabled, SimTime delay = from_ms(40));

  // --- observability ---
  std::uint64_t data_cum_ack() const { return data_reorder_.edge(); }
  // In-order data packets that have reached the application.
  std::uint64_t delivered() const { return app_read_seq_; }
  std::uint64_t buffer_capacity() const { return capacity_; }
  std::uint64_t buffer_occupancy() const {
    return (data_reorder_.edge() - app_read_seq_) + data_reorder_.size();
  }
  std::uint64_t advertised_window() const {
    return capacity_ - buffer_occupancy();
  }
  // Packets that arrived with no buffer space (must stay 0 if the sender
  // honours flow control; asserted by tests).
  std::uint64_t window_violations() const { return window_violations_; }
  std::uint64_t packets_received() const { return packets_received_; }
  std::uint64_t duplicates() const { return duplicate_data_; }
  std::uint64_t acks_sent() const { return acks_sent_; }
  std::uint64_t window_updates_sent() const { return window_updates_sent_; }

 private:
  void send_ack(const net::Packet& data_pkt);
  void emit_ack(std::uint32_t subflow_id, SimTime ts_echo, bool is_retx,
                bool window_update);
  void drain_to_app();
  void flush_delayed_acks();
  void maybe_send_window_update();

  EventList& events_;
  std::uint32_t flow_id_;
  std::uint64_t capacity_;
  std::uint64_t* wire_counter_ = nullptr;

  // Data-level reassembly. The window's edge is the next expected data seq
  // (the data-level cumulative ACK); it holds what arrived beyond it. It
  // allocates nothing while data arrives in order, and its ring grows with
  // the widest data-level reorder span, which flow control bounds by
  // capacity_.
  ReorderWindow data_reorder_;
  std::uint64_t app_read_seq_ = 0;  // next data seq the app will read

  // Application read model.
  double app_read_rate_ = 0.0;  // pkts/s; 0 = infinite
  double read_credit_ = 0.0;
  SimTime last_drain_ = 0;
  SimTime next_drain_at_ = kNever;
  static constexpr SimTime kDrainInterval = from_ms(1);

  // Delayed-ACK state.
  bool delayed_ack_ = false;
  SimTime delack_delay_ = from_ms(40);
  SimTime delack_deadline_ = kNever;

  // Zero-window tracking for gratuitous window updates.
  bool advertised_zero_ = false;

  // Per-subflow reassembly for the subflow-level cumulative ACK.
  struct SubflowRx {
    const net::Route* ack_route = nullptr;
    // Edge: the next expected subflow seq (the subflow's cumulative ACK).
    ReorderWindow reorder;
    // Delayed-ACK bookkeeping.
    int pending_acks = 0;
    SimTime pending_ts_echo = 0;
    bool pending_is_retx = false;
  };
  std::vector<SubflowRx> subflows_;

  std::uint64_t packets_received_ = 0;
  std::uint64_t duplicate_data_ = 0;
  std::uint64_t window_violations_ = 0;
  std::uint64_t acks_sent_ = 0;
  std::uint64_t window_updates_sent_ = 0;

  // Flight recorder, cached at construction (nullptr = tracing off).
  trace::TraceRecorder* trace_ = nullptr;
  std::uint16_t trace_id_ = 0;
};

}  // namespace mpsim::mptcp
