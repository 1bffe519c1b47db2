// Reorder windows: the sequence numbers a receiver holds past its in-order
// edge, kept as a bitmap ring anchored at that edge.
//
// The receiver tracks out-of-order arrivals twice (§6): per subflow, to
// derive each subflow's cumulative ACK, and at data level, against the
// shared receive buffer. Both sets have the same shape. Every held seq lies
// just past a moving edge, an arrival at the edge releases the contiguous
// run behind it, and nothing below the edge is ever held. So a window is
// the edge plus a ring of 64-bit words in which bit (s mod 64) of word
// (s / 64 mod words) says whether seq s is held:
//
//   * add() and contains() are one shift and mask on one word;
//   * advance() moves the edge past the arrival and the run behind it,
//     clearing up to 64 held seqs per word it visits;
//   * the ring holds every s with edge < s < edge + 64 * words. An arrival
//     past that doubles the ring (widen(), amortized), so its memory
//     follows the widest reorder span the receiver has seen, not the
//     receive buffer's bound. A window allocates nothing until its first
//     out-of-order arrival and never shrinks.
//
// Each simulation's windows report the bytes they hold to one
// ReorderLedger, whose peak the runner reports as reorder_bytes_peak.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>

#include "core/check.hpp"
#include "core/event_list.hpp"

namespace mpsim::mptcp {

// Bytes held by one simulation's reorder windows: live now, and the most
// at once (reclaimed connections included). Attached lazily to the
// EventList by the first receiver built on it.
class ReorderLedger final : public EventList::Service {
 public:
  void charge(std::size_t bytes) {
    live_ += bytes;
    if (live_ > peak_) peak_ = live_;
  }
  void refund(std::size_t bytes) {
    MPSIM_CHECK(bytes <= live_, "reorder ledger underflow");
    live_ -= bytes;
  }
  std::size_t live_bytes() const { return live_; }
  std::size_t peak_bytes() const { return peak_; }

  // The ledger of `events`' simulation, attached lazily on first use.
  static ReorderLedger& of(EventList& events);
  // Like of(), but nullptr when no receiver has attached one.
  static const ReorderLedger* find(const EventList& events);

 private:
  std::size_t live_ = 0;
  std::size_t peak_ = 0;
};

class ReorderWindow {
 public:
  // `ledger` (may be null) is charged for every byte the ring holds.
  explicit ReorderWindow(ReorderLedger* ledger = nullptr) : ledger_(ledger) {}
  ~ReorderWindow() {
    if (ledger_ != nullptr) ledger_->refund(bytes());
  }
  ReorderWindow(ReorderWindow&& o) noexcept
      : ring_(std::move(o.ring_)),
        words_(std::exchange(o.words_, 0)),
        edge_(o.edge_),
        held_(std::exchange(o.held_, 0)),
        ledger_(o.ledger_) {}
  ReorderWindow(const ReorderWindow&) = delete;
  ReorderWindow& operator=(const ReorderWindow&) = delete;
  ReorderWindow& operator=(ReorderWindow&&) = delete;

  // The next seq expected in order; every seq below it has arrived.
  std::uint64_t edge() const { return edge_; }
  // Seqs held past the edge.
  std::size_t size() const { return held_; }
  bool empty() const { return held_ == 0; }
  // Bytes of ring storage (a power-of-two number of words, or none).
  std::size_t bytes() const { return words_ * sizeof(std::uint64_t); }

  bool contains(std::uint64_t s) const {
    return s > edge_ && s - edge_ < span() && ((word(s) >> (s & 63)) & 1) != 0;
  }

  // Holds `s`, which must lie past the edge; returns false (and holds
  // nothing new) if it is already held.
  bool add(std::uint64_t s) {
    MPSIM_CHECK(s > edge_, "reorder window holds only seqs past its edge");
    if (s - edge_ >= span()) widen(s);
    std::uint64_t& w = word(s);
    const std::uint64_t bit = std::uint64_t{1} << (s & 63);
    if ((w & bit) != 0) return false;
    w |= bit;
    ++held_;
    return true;
  }

  // The seq at the edge arrived: moves the edge past it and past the run of
  // held seqs that follows, and returns how far the edge moved (>= 1).
  std::uint64_t advance() {
    const std::uint64_t from = edge_++;
    while (held_ != 0) {
      std::uint64_t& w = word(edge_);
      const unsigned b = static_cast<unsigned>(edge_ & 63);
      // Bits below b belong to the seqs one ring length ahead; the run
      // starts at b and, when it reaches bit 63, goes on in the next word.
      const unsigned run = static_cast<unsigned>(std::countr_one(w >> b));
      if (run == 0) break;
      w &= ~(low_bits(run) << b);
      edge_ += run;
      held_ -= run;
      if (b + run < 64) break;
    }
    return edge_ - from;
  }

 private:
  // The lowest n bits set, for 0 <= n <= 64 (no shift by 64).
  static std::uint64_t low_bits(unsigned n) {
    return n == 0 ? 0 : ~std::uint64_t{0} >> (64 - n);
  }
  std::uint64_t span() const { return std::uint64_t{words_} * 64; }
  std::uint64_t& word(std::uint64_t s) {
    return ring_[(s >> 6) & (words_ - 1)];
  }
  std::uint64_t word(std::uint64_t s) const {
    return ring_[(s >> 6) & (words_ - 1)];
  }
  // Doubles the ring until it reaches `s` and re-places the held seqs.
  void widen(std::uint64_t s);

  std::unique_ptr<std::uint64_t[]> ring_;
  std::size_t words_ = 0;  // ring length: a power of two, or 0 (no ring)
  std::uint64_t edge_ = 0;
  std::size_t held_ = 0;
  ReorderLedger* ledger_;
};

}  // namespace mpsim::mptcp
