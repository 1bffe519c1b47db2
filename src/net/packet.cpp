#include "net/packet.hpp"

#include <memory>

#include "core/check.hpp"

namespace mpsim::net {

Packet& PacketPool::alloc() {
  Packet* p;
  if (free_.empty()) {
    if (carve_ == carve_end_) add_slab();
    p = std::construct_at(carve_++);
    ++carved_;
    p->pool_ = this;
  } else {
    p = free_.back();
    free_.pop_back();
    MPSIM_CHECK(p->in_pool_, "free-list packet not marked as pooled");
  }
  p->in_pool_ = false;
  ++outstanding_;
  ++total_allocated_;
  if (outstanding_ > peak_) peak_ = outstanding_;
  MPSIM_CHECK(outstanding_ + free_.size() == carved_,
              "packet conservation: outstanding + free != capacity");
  return *p;
}

void PacketPool::add_slab() {
  // Plain storage aligned by hand: aligned operator new (memalign) splits a
  // small free chunk off every slab, and the heap of a process that runs
  // one simulation after another then grew from run to run. Left
  // uninitialised, fresh slab pages become resident only as packets are
  // first carved from them.
  constexpr std::size_t kSlabBytes = kSlabPackets * sizeof(Packet);
  std::size_t space = kSlabBytes + alignof(Packet);
  // Pool growth: one heap allocation per kSlabPackets new high-water
  // packets in flight, amortized to zero once the simulation reaches
  // steady state — never one per packet.
  // mpsim-analyze: allow(hot-alloc)
  slabs_.push_back(std::make_unique_for_overwrite<std::byte[]>(space));
  void* first = slabs_.back().get();
  first = std::align(alignof(Packet), kSlabBytes, first, space);
  carve_ = static_cast<Packet*>(first);
  carve_end_ = carve_ + kSlabPackets;
  // Keep free_ able to hold every packet the slabs can carve, so release()
  // on the per-hop hot path can never reallocate the free list. Sized from
  // slabs_' capacity, so it grows geometrically with it.
  // mpsim-analyze: allow(hot-alloc)
  free_.reserve(slabs_.capacity() * kSlabPackets);
}

void PacketPool::release(Packet& p) {
  MPSIM_CHECK(p.pool_ == this, "packet released to a foreign pool");
  MPSIM_CHECK(!p.in_pool_, "packet double-released to pool");
  MPSIM_CHECK(outstanding_ > 0, "release with no outstanding packets");
  if (p.wire_refs != nullptr) {
    MPSIM_CHECK(*p.wire_refs > 0, "wire-reference ledger underflow");
    --*p.wire_refs;
    p.wire_refs = nullptr;
  }
  p.in_pool_ = true;
  --outstanding_;
  ++total_released_;
  // Within capacity by construction: alloc() reserves free_ for every
  // packet it ever creates, so this push never allocates.
  // mpsim-analyze: allow(hot-alloc)
  free_.push_back(&p);
  MPSIM_CHECK(outstanding_ + free_.size() == carved_,
              "packet conservation: outstanding + free != capacity");
}

PacketPool& PacketPool::of(EventList& events) {
  // kPacketPoolSlot holds a PacketPool or nothing, so the downcast is safe
  // by construction.
  if (EventList::Service* s = events.service(EventList::kPacketPoolSlot)) {
    return *static_cast<PacketPool*>(s);
  }
  // Lazy attach: once per simulation instance, on its very first packet.
  // mpsim-analyze: allow(hot-alloc)
  auto pool = std::make_unique<PacketPool>();
  return static_cast<PacketPool&>(
      events.attach_service(EventList::kPacketPoolSlot, std::move(pool)));
}

PacketPool* PacketPool::find(const EventList& events) {
  return static_cast<PacketPool*>(
      events.service(EventList::kPacketPoolSlot));
}

void Packet::reset() {
  type = PacketType::kData;
  flow_id = 0;
  subflow_id = 0;
  subflow_seq = 0;
  data_seq = 0;
  subflow_cum_ack = 0;
  data_cum_ack = 0;
  rcv_window = 0;
  is_window_update = false;
  size_bytes = kDataPacketBytes;
  ts_echo = 0;
  is_retransmit = false;
  wire_refs = nullptr;
  route_ = nullptr;
  next_hop_ = 0;
  link_next = nullptr;
  link_prev = nullptr;
  link_due = 0;
}

Packet& Packet::alloc(EventList& events) {
  Packet& p = PacketPool::of(events).alloc();
  p.reset();
  return p;
}

std::size_t Packet::pool_outstanding(const EventList& events) {
  const PacketPool* pool = PacketPool::find(events);
  return pool ? pool->outstanding() : 0;
}

}  // namespace mpsim::net
