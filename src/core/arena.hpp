// SoA arena for per-simulation hot state.
//
// The per-subflow congestion state, the rate-mode pacing state and the
// per-queue counters live in dense, cache-line-sized rows allocated per
// EventList (so parallel runner jobs share nothing). Objects keep their
// interfaces and hold a reference to their row; cold state stays on the
// object. No code walks a column: every row is reached through its
// owner's reference, or through the pointers an MPTCP connection caches to
// its subflows' rows for the congestion controller's per-ACK sibling
// sweep.
//
// Why it stays: a prototype that deleted SimArena, moving SubflowHot into
// Subflow, QueueHot into Queue and RateHot (rate mode only) into Subflow,
// passed every test and every perfbench pin but ran slower. Over 10
// alternating `perfbench --workload fattree_tp1 --seconds 5` pairs at
// seed 1 on a 4-core x86-64 host, run_s went from 0.708 to 0.777 s (1.10x;
// the arena was faster in 8 of 10 pairs) and setup_s from 1.86 to 2.13 ms
// (1.15x; 10 of 10). The cause is not yet isolated. The candidates are row
// adjacency, which LIA's sweep over a connection's 8 subflows may exploit,
// and chunked construction versus 64-byte-aligned heap objects.
//
// Storage is chunked (fixed-size arrays of rows) rather than one
// std::vector so rows never move: components cache `SubflowHot&` at
// construction, and connections can join a *running* simulation (Poisson
// arrivals construct subflows from event callbacks) without invalidating
// references held by objects already in the event loop. Rows constructed
// consecutively (e.g. one connection's subflows) land consecutively in the
// same chunk, which is what the per-ACK sibling sweep iterates.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "core/event_list.hpp"
#include "core/time.hpp"

namespace mpsim {

// Per-subflow congestion state, one 64-byte cache line per subflow. Written
// by tcp::Subflow (the owning object), read by the congestion controller's
// per-ACK sibling sweep via mptcp::MptcpConnection.
struct alignas(64) SubflowHot {
  double cwnd = 0.0;           // packets
  double ssthresh = 0.0;       // packets
  SimTime srtt = 0;            // mirror of RttEstimator::srtt()
  SimTime rto = 0;             // mirror of RttEstimator::rto()
  std::uint64_t snd_una = 0;   // first unacked subflow seq
  std::uint64_t snd_nxt = 0;   // next subflow seq to send
  std::uint32_t in_recovery = 0;  // bool; 32-bit to keep the row packed
  std::uint32_t rtt_valid = 0;    // RttEstimator::has_sample()
  std::uint32_t active = 1;       // participates in sending and eq. (1)
};
static_assert(sizeof(SubflowHot) == 64, "one cache line per subflow");

// Per-subflow rate-control state, two cache lines per subflow. Allocated
// only for connections whose congestion controller is rate-based
// (cc::CongestionControl::rate_based()): written by the controller's
// on_ack_sample() and read by the subflow's pacer on every launch decision
// and by coupled controllers sweeping sibling bandwidth shares. Times are
// kept in double seconds — this row only feeds floating-point rate math,
// never the event scheduler.
struct alignas(64) RateHot {
  double btl_bw = 0.0;         // bottleneck-bw estimate, pkts/sec (max filter)
  double bw_filter[3] = {0.0, 0.0, 0.0};  // per-round max shift registers
  double min_rtt_sec = 0.0;    // windowed min RTT (0 = no sample yet)
  double min_rtt_at_sec = 0.0; // when min_rtt_sec was last lowered/refreshed
  double cycle_start_sec = 0.0;  // PROBE_BW gain-cycle phase start
  double pacing_rate = 0.0;    // pkts/sec the pacer spaces launches at
  double pacing_gain = 0.0;    // current gain applied to btl_bw
  double cwnd_gain = 0.0;      // window gain applied to the BDP
  double full_bw = 0.0;        // STARTUP bw-plateau tracker
  std::uint64_t delivered_pkts = 0;  // mirror of the estimator's counter
  std::uint32_t mode = 0;        // controller-defined state-machine phase
  std::uint32_t cycle_index = 0;   // PROBE_BW gain-cycle position
  std::uint32_t full_bw_count = 0; // rounds without bw growth in STARTUP
};
static_assert(sizeof(RateHot) == 128, "two cache lines per rate-mode subflow");

// Per-queue occupancy and flow counters, one cache line per queue. Written
// by net::Queue on every arrival/departure.
struct alignas(64) QueueHot {
  std::uint64_t queued_bytes = 0;
  std::uint64_t arrivals = 0;
  std::uint64_t drops = 0;
  std::uint64_t departures = 0;
  std::uint64_t bytes_forwarded = 0;
};
static_assert(sizeof(QueueHot) == 64, "one cache line per queue");

class SimArena final : public EventList::Service {
 public:
  // The arena of `events`, attached lazily on first use (like the packet
  // pool): the first Subflow or Queue built on a simulation creates it.
  static SimArena& of(EventList& events);

  std::uint32_t add_subflow() { return subflows_.add(); }
  SubflowHot& subflow(std::uint32_t id) { return subflows_[id]; }
  const SubflowHot& subflow(std::uint32_t id) const { return subflows_[id]; }

  // Returns a subflow row to the column's free list; the next add_subflow()
  // reuses it (value-reinitialised). Called from tcp::Subflow's destructor
  // so flow churn — thousands of short connections opening and closing —
  // keeps the arena's footprint at the *live* subflow count instead of the
  // all-time total.
  void release_subflow(std::uint32_t id) { subflows_.release(id); }
  std::uint32_t free_subflow_rows() const { return subflows_.free_rows(); }

  std::uint32_t add_queue() { return queues_.add(); }
  QueueHot& queue(std::uint32_t id) { return queues_[id]; }
  const QueueHot& queue(std::uint32_t id) const { return queues_[id]; }

  // Rate-control rows, allocated per subflow only when the connection's
  // congestion controller is rate-based; same stable-address/free-list
  // lifecycle as the subflow rows.
  std::uint32_t add_rate() { return rates_.add(); }
  RateHot& rate(std::uint32_t id) { return rates_[id]; }
  const RateHot& rate(std::uint32_t id) const { return rates_[id]; }
  void release_rate(std::uint32_t id) { rates_.release(id); }

 private:
  // A growable column of rows with stable addresses: chunks are allocated
  // once and never moved or freed until the arena dies. 64 rows x 64 bytes
  // = one 4 KiB page per chunk. Released rows go on a LIFO free list and
  // are handed back (value-reinitialised) before the column grows, so its
  // footprint is the high-water mark of *concurrently live* rows, not a
  // count of every row ever created.
  template <typename T>
  class Column {
   public:
    std::uint32_t add() {
      if (!free_.empty()) {
        const std::uint32_t id = free_.back();
        free_.pop_back();
        (*this)[id] = T{};
        return id;
      }
      if ((count_ & kMask) == 0) {
        chunks_.push_back(std::make_unique<Chunk>());
      }
      return count_++;
    }
    // Subflow-teardown granularity; the free list's growth is amortized
    // and bounded by the high-water row count.
    // mpsim-analyze: allow(hot-alloc)
    void release(std::uint32_t id) { free_.push_back(id); }
    T& operator[](std::uint32_t id) {
      return (*chunks_[id >> kShift])[id & kMask];
    }
    const T& operator[](std::uint32_t id) const {
      return (*chunks_[id >> kShift])[id & kMask];
    }
    std::uint32_t free_rows() const {
      return static_cast<std::uint32_t>(free_.size());
    }

   private:
    static constexpr std::uint32_t kShift = 6;
    static constexpr std::uint32_t kMask = (1u << kShift) - 1;
    using Chunk = std::array<T, kMask + 1>;
    std::vector<std::unique_ptr<Chunk>> chunks_;
    std::vector<std::uint32_t> free_;
    std::uint32_t count_ = 0;
  };

  Column<SubflowHot> subflows_;
  Column<QueueHot> queues_;
  Column<RateHot> rates_;
};

}  // namespace mpsim
