// Connection-level data scheduling (§2 box: "An MPTCP sender stripes
// packets across these subflows as space in the subflow windows becomes
// available").
//
// The scheduler owns the data sequence space: it hands out new data
// sequence numbers on demand, tracks the data-level cumulative ACK and the
// receiver-advertised window, and queues reinjections: data stranded on a
// timed-out subflow that should be retransmitted on a sibling (§6 / the
// mobile scenario of §5).
//
// DataScheduler is a small registry of policies, all sharing the sequence
// bookkeeping above and differing only in *which* subflow a fresh packet
// is granted to:
//
//   stripe        the base class: whichever subflow has window space first
//                 gets the next packet (window-based striping — the
//                 paper's behaviour, bit-exact with the pre-registry code)
//   min_rtt_first fresh data is deferred on a subflow while an active
//                 sibling with lower srtt (ties: lower id) still has free
//                 window — reinjections always go through
//   redundant     every subflow independently walks the same fresh data
//                 stream, so each packet rides every active path and the
//                 receiver suppresses the duplicates (lowest latency,
//                 paid in capacity)
//   blest         BLEST-style blocking estimation: a slow subflow is
//                 refused fresh data when the fastest active sibling's
//                 projected capacity over one slow-path RTT covers the
//                 remaining send window anyway (avoids HoL at the
//                 receiver window)
//
// Policies that rank subflows read them through cc::ConnectionView, the
// same view congestion control sweeps, implemented by MptcpConnection over
// the arena rows; without a view every policy degenerates to stripe.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <unordered_set>
#include <vector>

#include "cc/congestion_control.hpp"
#include "core/event_list.hpp"
#include "trace/trace.hpp"

namespace mpsim::mptcp {

// Selectable scheduling policy (scenario spec: [scheduler] kind = "...").
// Named DataSchedulerKind to keep it apart from the *event* scheduler
// (core/event_list.hpp); these pick data placement.
enum class DataSchedulerKind { kStripe, kMinRttFirst, kRedundant, kBlest };

class DataScheduler {
 public:
  // `app_limit_pkts == 0` means an unlimited (long-lived) stream.
  // `initial_window` seeds the flow-control right edge (the receiver's
  // buffer size, learned exactly from the first data ACK onward).
  DataScheduler(std::uint64_t app_limit_pkts, std::uint64_t initial_window)
      : app_limit_(app_limit_pkts),
        right_edge_(initial_window) {}
  virtual ~DataScheduler() = default;

  // Next data sequence number for `subflow_id` to transmit: queued
  // reinjections first (these unblock the receiver's head-of-line and are
  // never policy-gated), then fresh data subject to the data-level
  // flow-control window, the application limit, and the policy's placement
  // rule. Returns false if this subflow may send nothing now.
  virtual bool next_data(std::uint32_t subflow_id, std::uint64_t& data_seq);

  // Single-subflow convenience (tests, abstract drivers): stripe-equivalent.
  bool next_data(std::uint64_t& data_seq) { return next_data(0, data_seq); }

  // Install the subflow-ranking view. Optional: policies fall back to
  // stripe placement without one. Not owned; must outlive the scheduler.
  void set_view(const cc::ConnectionView* view) { view_ = view; }

  // Process a data-level cumulative ACK + receive window. The right edge
  // (ack + window) only ever moves forward: ACKs may be reordered across
  // subflows with different RTTs (§6), and TCP never shrinks the window.
  void on_data_ack(std::uint64_t data_cum_ack, std::uint64_t rcv_window);

  // Queue data sequence numbers for retransmission on another subflow.
  // Already-acked and already-queued sequences are skipped.
  void reinject(const std::vector<std::uint64_t>& data_seqs);

  // Drop every queued reinjection the cumulative ACK has already passed,
  // releasing its reinject_pending_ entry. Without this, a seq queued for
  // a subflow that dies (or a connection that completes) before any
  // next_data() call drains it stays in reinject_pending_ forever — and a
  // later, genuine reinjection of the same seq is silently refused by the
  // duplicate filter. Called on every cum-ACK advance and on subflow
  // reset/drop. Returns the number of entries purged.
  std::uint64_t purge_acked();

  // Wire the owning connection's flight recorder in. The scheduler has no
  // clock of its own, so it borrows the connection's EventList for record
  // timestamps; kReinject records are emitted here (not in the connection)
  // because this is where duplicate suppression decides what is actually
  // queued.
  void set_trace(EventList* events, trace::TraceRecorder* rec,
                 std::uint16_t trace_id, std::uint32_t flow_id) {
    trace_events_ = events;
    trace_ = rec;
    trace_id_ = trace_id;
    trace_flow_ = flow_id;
  }

  std::uint64_t data_cum_ack() const { return data_cum_ack_; }
  std::uint64_t next_new() const { return next_new_; }
  std::uint64_t right_edge() const { return right_edge_; }
  std::uint64_t reinject_backlog() const { return reinject_q_.size(); }
  // Data seqs ever accepted for reinjection (duplicates excluded).
  std::uint64_t reinjected_total() const { return reinjected_total_; }
  // Stale entries removed by purge_acked() over the connection's life.
  std::uint64_t purged_total() const { return purged_total_; }

  bool app_limited() const { return app_limit_ != 0; }
  // All application data sent and acknowledged.
  bool complete() const {
    return app_limited() && data_cum_ack_ >= app_limit_;
  }

 protected:
  // The two placement primitives subclasses compose: drain the reinject
  // queue / advance the fresh-data edge under flow control. Base
  // next_data() is exactly next_reinject || next_fresh.
  bool next_reinject(std::uint64_t& data_seq);
  bool next_fresh(std::uint64_t& data_seq);
  // Remaining fresh packets the limits admit right now (for BLEST).
  std::uint64_t fresh_window_pkts() const;

  const cc::ConnectionView* view_ = nullptr;

  std::uint64_t app_limit_;
  std::uint64_t right_edge_;
  std::uint64_t next_new_ = 0;
  std::uint64_t data_cum_ack_ = 0;

 private:
  std::deque<std::uint64_t> reinject_q_;
  std::unordered_set<std::uint64_t> reinject_pending_;
  std::uint64_t reinjected_total_ = 0;
  std::uint64_t purged_total_ = 0;

  // Flight recorder wiring (set_trace); trace_ != nullptr implies
  // trace_events_ != nullptr.
  EventList* trace_events_ = nullptr;
  trace::TraceRecorder* trace_ = nullptr;
  std::uint16_t trace_id_ = 0;
  std::uint32_t trace_flow_ = 0;
};

class MinRttFirstScheduler : public DataScheduler {
 public:
  using DataScheduler::DataScheduler;
  using DataScheduler::next_data;
  bool next_data(std::uint32_t subflow_id, std::uint64_t& data_seq) override;
};

class RedundantScheduler : public DataScheduler {
 public:
  using DataScheduler::DataScheduler;
  using DataScheduler::next_data;
  bool next_data(std::uint32_t subflow_id, std::uint64_t& data_seq) override;

 private:
  // Per-subflow cursor into the shared fresh stream; each subflow sends
  // every (not-yet-delivered) data seq, and the receiver's reorder set
  // counts the suppressed duplicates.
  std::vector<std::uint64_t> cursor_;
};

class BlestScheduler : public DataScheduler {
 public:
  using DataScheduler::DataScheduler;
  using DataScheduler::next_data;
  bool next_data(std::uint32_t subflow_id, std::uint64_t& data_seq) override;
};

std::unique_ptr<DataScheduler> make_data_scheduler(
    DataSchedulerKind kind, std::uint64_t app_limit_pkts,
    std::uint64_t initial_window);

}  // namespace mpsim::mptcp
