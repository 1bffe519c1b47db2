// Packets, routes, the sink interface, and the per-simulation packet pool.
//
// A Packet travels along a Route: an ordered list of PacketSinks (queues,
// pipes, loss elements) terminated by an endpoint (a TCP receiver, a TCP
// sender receiving an ACK, or a CBR sink). Packets are pool-allocated —
// simulations push tens of millions of packets, so per-packet heap churn
// would dominate the profile.
//
// Forwarding is memory-bound: a queue or pipe does almost no arithmetic per
// packet and waits on the packet's cache lines. So a Packet is laid out by
// use. Its first 64-byte line is the hop header (PacketHop: FIFO links, due
// time, route, next hop, pool, size, ids, type and flags), everything a
// hop touches; the endpoint fields (sequence numbers, cumulative ACKs,
// window, timestamp echo, wire refs) fill the second line, read only at the
// ends of a route. The pool stores packets in line-aligned slabs, so each
// line of a packet is exactly one cache line.
//
// The pool is instance-scoped: each EventList (one simulation) owns its own
// PacketPool, attached lazily as the EventList's service. There is no global
// mutable state in the data path, so fully independent simulations can run
// concurrently on separate threads (see runner::ExperimentRunner).
//
// Sequence numbers are counted in packets (one MSS of payload each), matching
// the paper, which states all windows in packets. Byte sizes are carried
// separately for queue occupancy and serialization-time computation.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <type_traits>
#include <vector>

#include "core/check.hpp"
#include "core/event_list.hpp"
#include "core/time.hpp"

namespace mpsim::net {

class Packet;
class PacketPool;

// Anything a packet can be delivered to.
class PacketSink {
 public:
  virtual ~PacketSink() = default;
  // Takes logical ownership of `pkt`: the sink must eventually forward it
  // (pkt.advance()) or release it back to the pool (pkt.release()).
  virtual void receive(Packet& pkt) = 0;
  virtual const std::string& sink_name() const = 0;
};

// An ordered list of sinks. The final element is the destination endpoint.
// Routes are immutable once built and shared by all packets of a subflow.
class Route {
 public:
  Route() = default;
  explicit Route(std::vector<PacketSink*> hops) : hops_(std::move(hops)) {}

  void push_back(PacketSink* s) { hops_.push_back(s); }
  std::size_t size() const { return hops_.size(); }
  PacketSink* at(std::size_t i) const { return hops_[i]; }

  // The route ACKs travel back on (and vice versa).
  const Route* reverse() const { return reverse_; }
  void set_reverse(const Route* r) { reverse_ = r; }

 private:
  std::vector<PacketSink*> hops_;
  const Route* reverse_ = nullptr;
};

// FIFO of packets chained through their intrusive link hooks. O(1)
// push/pop at both ends, no allocation ever (the hot-path discipline
// tools/mpsim_lint.py enforces on queues). The caller guarantees a packet
// is in at most one PacketFifo at a time; pop_* require a non-empty list.
class PacketFifo {
 public:
  bool empty() const { return head_ == nullptr; }
  std::size_t size() const { return size_; }
  Packet* front() const { return head_; }
  void push_back(Packet& p);
  Packet* pop_front();
  Packet* pop_back();

 private:
  Packet* head_ = nullptr;
  Packet* tail_ = nullptr;
  std::size_t size_ = 0;
};

enum class PacketType : std::uint8_t {
  kData,  // TCP data segment (one MSS)
  kAck,   // TCP acknowledgment (subflow cum-ack + data-level cum-ack)
  kCbr,   // constant-bit-rate background traffic, unacknowledged
};

inline constexpr std::uint32_t kDataPacketBytes = 1500;
inline constexpr std::uint32_t kAckPacketBytes = 40;

// The hop header: every field a queue, pipe or loss element reads or writes
// while forwarding a packet, packed into the packet's first cache line so a
// hop touches one line. The endpoint fields follow in the second line (see
// Packet); forwarding never reads them.
class alignas(64) PacketHop {
 public:
  // --- container hooks (owned by whichever element holds the packet) ----
  // Intrusive FIFO links for PacketFifo (a Queue's waiting list or a Pipe's
  // in-flight list). A packet sits in at most one such list at a time, so a
  // single pair of hooks suffices; `link_due` is the Pipe's absolute
  // delivery time. Chaining through the packets themselves keeps the
  // per-hop path allocation-free and avoids deque block bookkeeping.
  Packet* link_next = nullptr;
  Packet* link_prev = nullptr;
  SimTime link_due = 0;

  // --- identity and size ---
  std::uint32_t size_bytes = kDataPacketBytes;
  std::uint32_t flow_id = 0;     // connection id
  std::uint32_t subflow_id = 0;  // index of subflow within the connection
  PacketType type = PacketType::kData;

  // --- flags ---
  bool is_retransmit = false;  // suppresses RTT sampling (Karn's rule)
  // Gratuitous window update (receive buffer reopened after advertising
  // zero). Not a duplicate ACK for loss-detection purposes (RFC 5681
  // excludes window-changing segments from the dupack definition).
  bool is_window_update = false;

 private:
  friend class Packet;
  friend class PacketPool;

  // Route traversal and pool bookkeeping (see Packet).
  const Route* route_ = nullptr;
  PacketPool* pool_ = nullptr;  // owning pool, set once when first carved
  std::uint32_t next_hop_ = 0;
  bool in_pool_ = false;        // double-free detector (see PacketPool)
};

class Packet : public PacketHop {
 public:
  // --- sequence numbers (in packets) ---
  std::uint64_t subflow_seq = 0;  // per-subflow sequence (loss detection)
  std::uint64_t data_seq = 0;     // connection-level data sequence (reassembly)

  // --- ACK fields (valid when type == kAck) ---
  std::uint64_t subflow_cum_ack = 0;  // next subflow seq expected
  std::uint64_t data_cum_ack = 0;     // next data seq expected
  std::uint64_t rcv_window = 0;       // packets beyond data_cum_ack allowed

  SimTime ts_echo = 0;  // sender timestamp, echoed by the ACK

  // Wire-reference ledger hook. Endpoints that want to know when every
  // packet they put on the wire is gone (delivered, dropped, or released
  // any other way) point this at a counter and increment it at send time;
  // PacketPool::release() decrements it on the way back to the pool. A
  // connection is safe to destroy only when its counter reads zero — the
  // gate PoissonFlowGenerator's deferred reclamation uses so no in-flight
  // packet can reference a torn-down flow's sinks or routes.
  std::uint64_t* wire_refs = nullptr;

  // Route traversal -----------------------------------------------------
  // Starts the packet down `route` (delivers to the first hop).
  void send_on(const Route& route);
  // Delivers the packet to the next hop on its route.
  void advance();
  const Route* route() const { return route_; }

  // Pool management ------------------------------------------------------
  // Fetch a zeroed packet from the pool owned by `events`' simulation.
  static Packet& alloc(EventList& events);
  // Return this packet to the pool that allocated it.
  void release();
  // Live packets of `events`' pool (leak detector); 0 if no pool attached.
  static std::size_t pool_outstanding(const EventList& events);

  // Construct via alloc(); direct construction is reserved for the pool.
  Packet() = default;

 private:
  void reset();
};

// One line of hop header, one line of endpoint fields: a forwarding hop
// touches only the first.
static_assert(sizeof(PacketHop) == 64, "the hop header fills one cache line");
static_assert(alignof(Packet) == 64, "packets start on a cache line");
static_assert(sizeof(Packet) == 128, "a packet is two cache lines");
// Slabs are freed as raw storage, without running packet destructors.
static_assert(std::is_trivially_destructible_v<Packet>);

// Free-list pool of one simulation instance. Owned by the EventList as its
// attached service and created lazily by Packet::alloc(). Single-threaded
// within one simulation, so no locking; separate simulations get separate
// pools. Packets live in contiguous, line-aligned slabs of kSlabPackets and
// are recycled through a LIFO free list, never freed; a new packet is
// constructed in the last slab only when the free list is empty, so peak
// usage is bounded by total in-flight packets across all queues and pipes.
class PacketPool final : public EventList::Service {
 public:
  static constexpr std::size_t kSlabPackets = 256;  // 32 KiB per slab

  PacketPool() = default;
  ~PacketPool() override = default;

  Packet& alloc();
  void release(Packet& p);

  std::size_t outstanding() const { return outstanding_; }
  std::size_t peak_outstanding() const { return peak_; }
  // Packets constructed in the slabs so far (live or on the free list).
  std::size_t capacity() const { return carved_; }
  std::size_t slabs() const { return slabs_.size(); }

  // Conservation ledger: every alloc() and release() is counted, and the
  // invariant  total_allocated == total_released + outstanding  (equivalently
  // outstanding + free == capacity) is MPSIM_CHECKed on every pool
  // operation. At teardown, outstanding() is exactly the packets still in
  // flight inside queues and pipes — a nonzero value with a drained event
  // list indicates a leak (asserted by tests).
  std::uint64_t total_allocated() const { return total_allocated_; }
  std::uint64_t total_released() const { return total_released_; }

  // The pool of `events`' simulation, attached lazily on first use.
  static PacketPool& of(EventList& events);
  // Like of(), but nullptr when no pool has been attached yet.
  static PacketPool* find(const EventList& events);

 private:
  void add_slab();

  // Raw slab storage; packets are constructed in it on first use.
  std::vector<std::unique_ptr<std::byte[]>> slabs_;
  Packet* carve_ = nullptr;      // next unused slot of the last slab
  Packet* carve_end_ = nullptr;  // one past the last slab's final slot
  std::size_t carved_ = 0;
  std::vector<Packet*> free_;
  std::size_t outstanding_ = 0;
  std::size_t peak_ = 0;
  std::uint64_t total_allocated_ = 0;
  std::uint64_t total_released_ = 0;
};

inline void PacketFifo::push_back(Packet& p) {
  p.link_next = nullptr;
  p.link_prev = tail_;
  if (tail_ != nullptr) {
    tail_->link_next = &p;
  } else {
    head_ = &p;
  }
  tail_ = &p;
  ++size_;
}

inline Packet* PacketFifo::pop_front() {
  Packet* p = head_;
  head_ = p->link_next;
  if (head_ != nullptr) {
    head_->link_prev = nullptr;
  } else {
    tail_ = nullptr;
  }
  --size_;
  return p;
}

inline Packet* PacketFifo::pop_back() {
  Packet* p = tail_;
  tail_ = p->link_prev;
  if (tail_ != nullptr) {
    tail_->link_next = nullptr;
  } else {
    head_ = nullptr;
  }
  --size_;
  return p;
}

// --- inline hot path -----------------------------------------------------
// send_on/advance/release run once per hop for tens of millions of packets
// per simulation; defined here so each call site compiles straight to the
// checks plus the virtual dispatch, without an intermediate call.

inline void Packet::send_on(const Route& route) {
  MPSIM_CHECK(route.size() > 0, "cannot send on an empty route");
  MPSIM_CHECK(!in_pool_, "sending a packet that lives in the pool");
  route_ = &route;
  next_hop_ = 1;
  route.at(0)->receive(*this);
}

inline void Packet::advance() {
  MPSIM_CHECK(route_ != nullptr && next_hop_ < route_->size(),
              "advance past the end of the route");
  MPSIM_CHECK(!in_pool_, "advancing a packet that lives in the pool");
  PacketSink* sink = route_->at(next_hop_++);
  sink->receive(*this);
}

inline void Packet::release() {
  MPSIM_CHECK(pool_ != nullptr, "packet was not pool-allocated");
  pool_->release(*this);
}

}  // namespace mpsim::net
