// The flight recorder's record schema.
//
// One Record is a fixed-size 56-byte POD cell: a timestamp, a type tag, the
// ids of the object/flow/subflow it describes, and a small typed payload
// (two integers, two reals). Fixed size keeps the ring buffer a flat
// preallocated array — appending is a bump-and-store, never an allocation —
// and gives every CSV row the same column set.
//
// Payload conventions per type: `flow, sub` or `flow` first where the type
// names a connection and subflow, then its payload; every other column is
// zero (tools/check_trace_schema.py fails a row that sets one):
//   kCwnd       flow, sub; a=srtt ns, b=rto ns, x=cwnd pkts,
//               y=ssthresh pkts, phase=current TcpPhase
//   kState      flow, sub; a=from TcpPhase, phase=to TcpPhase
//   kQueue      a=queued bytes, b=queued packets
//   kQueueDrop  flow, sub; a=queued bytes at drop, b=dropped packet bytes
//   kLinkDrop   flow, sub; b=dropped packet bytes (random, not congestive)
//   kRate       x=new link rate, bits/s
//   kDataAck    flow; a=data-level cumulative ACK, b=flow-control right
//               edge
//   kRcvBuf     flow; a=buffer occupancy pkts, b=advertised window pkts
//   kReinject   flow; a=data seqs queued for reinjection, b=first such seq
//   kGoodput    flow, sub; x=delivered goodput since the last sample, Mb/s
//   kFault      a=fault::Action enum, b=aux (duration ns, packets dropped,
//               or subflow index per action), x=value (rate bps or drop
//               probability per action)
//   kSubflowAdd  flow, sub; a=active subflows after the add, b=total
//                subflows ever opened on the connection (a brand-new join
//                grows b; a re-probe repeats an earlier sub id with b
//                unchanged)
//   kSubflowDrop flow, sub; a=drop reason (0 = administrative/policy, 1 =
//                declared dead after repeated RTOs without progress),
//                b=data seqs handed to the scheduler for sibling
//                reinjection
//   kRateSample  flow, sub; a=estimator's delivered counter pkts, b=sample
//                was app-limited (0/1), x=measured delivery rate pkts/s,
//                y=pacing rate republished by the controller, pkts/s
//   kPacing      flow, sub; a=pacer deadline ns (burst parked until then),
//                x=pacing rate gating the launch, pkts/s
#pragma once

#include <cstdint>

#include "core/time.hpp"

namespace mpsim::trace {

enum class RecordType : std::uint8_t {
  kCwnd = 0,   // subflow congestion state sample (per processed ACK)
  kState,      // subflow phase transition (loss reaction, recovery exit)
  kQueue,      // queue occupancy after an enqueue or departure
  kQueueDrop,  // drop-tail loss
  kLinkDrop,   // random (non-congestive) loss on a LossyLink
  kRate,       // VariableRateQueue rate change (outage = 0)
  kDataAck,    // MPTCP data-level cumulative ACK advanced
  kRcvBuf,     // receiver shared-buffer occupancy sample
  kReinject,   // data seqs queued for reinjection on sibling subflows
  kGoodput,    // periodic delivered-goodput sample ([output] sample_interval)
  kFault,      // fault-injection action applied to a target
  kSubflowAdd,   // a subflow joined (or re-joined) a live connection
  kSubflowDrop,  // a subflow was dropped from a live connection
  kRateSample,   // delivery-rate estimator sample fed to a rate-based CC
  kPacing,       // the pacer parked a transmission burst until a deadline
};
inline constexpr int kRecordTypeCount = 15;

// Sender phases, as the paper's Fig. 5-style cwnd plots label them.
enum class TcpPhase : std::uint8_t {
  kSlowStart = 0,
  kCongestionAvoidance,
  kFastRecovery,   // NewReno dupack recovery
  kRtoRecovery,    // timeout + go-back-N
};

// Stable lowercase names, used by the CSV trace and the schema validator
// (tools/check_trace_schema.py must list the same set).
const char* record_type_name(RecordType t);

struct Record {
  SimTime t = 0;
  RecordType type = RecordType::kCwnd;
  std::uint8_t phase = 0;   // TcpPhase payload where applicable
  std::uint16_t obj = 0;    // recorder-registered object id
  std::uint32_t flow = 0;   // connection id, 0 = none
  std::uint32_t sub = 0;    // subflow id within the connection
  std::uint64_t a = 0;      // integer payload
  std::uint64_t b = 0;      // integer payload
  double x = 0.0;           // real payload
  double y = 0.0;           // real payload
};
static_assert(sizeof(Record) == 56, "ring memory is sized in 56-byte records");

// --- builders -------------------------------------------------------------
// One per record type, so instrumentation sites read as prose and cannot
// mix up payload slots. Builders are cheap but not free; call them only
// inside MPSIM_TRACE's enabled branch.

inline Record cwnd_sample(SimTime t, std::uint16_t obj, std::uint32_t flow,
                          std::uint32_t sub, TcpPhase phase, double cwnd,
                          double ssthresh, SimTime srtt, SimTime rto) {
  Record r;
  r.t = t;
  r.type = RecordType::kCwnd;
  r.phase = static_cast<std::uint8_t>(phase);
  r.obj = obj;
  r.flow = flow;
  r.sub = sub;
  r.a = static_cast<std::uint64_t>(srtt);
  r.b = static_cast<std::uint64_t>(rto);
  r.x = cwnd;
  r.y = ssthresh;
  return r;
}

inline Record state_transition(SimTime t, std::uint16_t obj,
                               std::uint32_t flow, std::uint32_t sub,
                               TcpPhase from, TcpPhase to) {
  Record r;
  r.t = t;
  r.type = RecordType::kState;
  r.phase = static_cast<std::uint8_t>(to);
  r.obj = obj;
  r.flow = flow;
  r.sub = sub;
  r.a = static_cast<std::uint64_t>(from);
  return r;
}

inline Record queue_sample(SimTime t, std::uint16_t obj,
                           std::uint64_t queued_bytes,
                           std::uint64_t queued_pkts) {
  Record r;
  r.t = t;
  r.type = RecordType::kQueue;
  r.obj = obj;
  r.a = queued_bytes;
  r.b = queued_pkts;
  return r;
}

inline Record queue_drop(SimTime t, std::uint16_t obj, std::uint32_t flow,
                         std::uint32_t sub, std::uint64_t queued_bytes,
                         std::uint64_t pkt_bytes) {
  Record r;
  r.t = t;
  r.type = RecordType::kQueueDrop;
  r.obj = obj;
  r.flow = flow;
  r.sub = sub;
  r.a = queued_bytes;
  r.b = pkt_bytes;
  return r;
}

inline Record link_drop(SimTime t, std::uint16_t obj, std::uint32_t flow,
                        std::uint32_t sub, std::uint64_t pkt_bytes) {
  Record r;
  r.t = t;
  r.type = RecordType::kLinkDrop;
  r.obj = obj;
  r.flow = flow;
  r.sub = sub;
  r.b = pkt_bytes;
  return r;
}

inline Record rate_change(SimTime t, std::uint16_t obj, double rate_bps) {
  Record r;
  r.t = t;
  r.type = RecordType::kRate;
  r.obj = obj;
  r.x = rate_bps;
  return r;
}

inline Record data_ack(SimTime t, std::uint16_t obj, std::uint32_t flow,
                       std::uint64_t cum_ack, std::uint64_t right_edge) {
  Record r;
  r.t = t;
  r.type = RecordType::kDataAck;
  r.obj = obj;
  r.flow = flow;
  r.a = cum_ack;
  r.b = right_edge;
  return r;
}

inline Record rcv_buffer(SimTime t, std::uint16_t obj, std::uint32_t flow,
                         std::uint64_t occupancy, std::uint64_t advertised) {
  Record r;
  r.t = t;
  r.type = RecordType::kRcvBuf;
  r.obj = obj;
  r.flow = flow;
  r.a = occupancy;
  r.b = advertised;
  return r;
}

inline Record reinject(SimTime t, std::uint16_t obj, std::uint32_t flow,
                       std::uint64_t count, std::uint64_t first_seq) {
  Record r;
  r.t = t;
  r.type = RecordType::kReinject;
  r.obj = obj;
  r.flow = flow;
  r.a = count;
  r.b = first_seq;
  return r;
}

inline Record goodput_sample(SimTime t, std::uint16_t obj,
                             std::uint32_t flow, std::uint32_t sub,
                             double mbps) {
  Record r;
  r.t = t;
  r.type = RecordType::kGoodput;
  r.obj = obj;
  r.flow = flow;
  r.sub = sub;
  r.x = mbps;
  return r;
}

inline Record fault_event(SimTime t, std::uint16_t obj, std::uint32_t action,
                          double value, std::uint64_t aux) {
  Record r;
  r.t = t;
  r.type = RecordType::kFault;
  r.obj = obj;
  r.a = action;
  r.b = aux;
  r.x = value;
  return r;
}

inline Record subflow_add(SimTime t, std::uint16_t obj, std::uint32_t flow,
                          std::uint32_t sub, std::uint64_t active,
                          std::uint64_t total) {
  Record r;
  r.t = t;
  r.type = RecordType::kSubflowAdd;
  r.obj = obj;
  r.flow = flow;
  r.sub = sub;
  r.a = active;
  r.b = total;
  return r;
}

// Drop reasons for kSubflowDrop's `a` payload.
inline constexpr std::uint64_t kDropAdmin = 0;
inline constexpr std::uint64_t kDropRtoDead = 1;

inline Record subflow_drop(SimTime t, std::uint16_t obj, std::uint32_t flow,
                           std::uint32_t sub, std::uint64_t reason,
                           std::uint64_t reinjected) {
  Record r;
  r.t = t;
  r.type = RecordType::kSubflowDrop;
  r.obj = obj;
  r.flow = flow;
  r.sub = sub;
  r.a = reason;
  r.b = reinjected;
  return r;
}

inline Record rate_sample(SimTime t, std::uint16_t obj, std::uint32_t flow,
                          std::uint32_t sub, double delivery_rate,
                          double pacing_rate, std::uint64_t delivered,
                          bool app_limited) {
  Record r;
  r.t = t;
  r.type = RecordType::kRateSample;
  r.obj = obj;
  r.flow = flow;
  r.sub = sub;
  r.a = delivered;
  r.b = app_limited ? 1 : 0;
  r.x = delivery_rate;
  r.y = pacing_rate;
  return r;
}

inline Record pacing_wait(SimTime t, std::uint16_t obj, std::uint32_t flow,
                          std::uint32_t sub, SimTime deadline,
                          double pacing_rate) {
  Record r;
  r.t = t;
  r.type = RecordType::kPacing;
  r.obj = obj;
  r.flow = flow;
  r.sub = sub;
  r.a = static_cast<std::uint64_t>(deadline);
  r.x = pacing_rate;
  return r;
}

}  // namespace mpsim::trace
