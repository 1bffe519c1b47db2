#include "mptcp/reorder_window.hpp"

#include <memory>
#include <utility>

namespace mpsim::mptcp {

ReorderLedger& ReorderLedger::of(EventList& events) {
  // kReorderLedgerSlot holds a ReorderLedger or nothing, so the downcast is
  // safe by construction (same scheme as the packet pool).
  if (EventList::Service* s = events.service(EventList::kReorderLedgerSlot)) {
    return static_cast<ReorderLedger&>(*s);
  }
  // Once per simulation: connections opened at run time (flow churn) take
  // the early return above; only the first receiver pays the attach.
  return static_cast<ReorderLedger&>(events.attach_service(
      // mpsim-analyze: allow(hot-alloc)
      EventList::kReorderLedgerSlot, std::make_unique<ReorderLedger>()));
}

const ReorderLedger* ReorderLedger::find(const EventList& events) {
  return static_cast<const ReorderLedger*>(
      events.service(EventList::kReorderLedgerSlot));
}

void ReorderWindow::widen(std::uint64_t s) {
  // Flow control bounds a data-level span by the receive buffer and a
  // subflow's by its window; a span this wide is a sequence-space bug.
  constexpr std::uint64_t kMaxSpan = std::uint64_t{1} << 40;
  const std::uint64_t d = s - edge_;
  MPSIM_CHECK(d < kMaxSpan, "reorder span beyond any receive buffer");
  const std::size_t old_words = words_;
  // The shortest power-of-two ring that reaches s: more than d / 64 words.
  // widen() runs only for d >= 64 * old_words, so the ring at least doubles.
  const std::size_t words =
      std::bit_ceil(static_cast<std::size_t>(d / 64) + 1);
  // Widening is amortized: it runs once per doubling of the widest reorder
  // span this receiver has seen, never once per packet.
  // mpsim-analyze: allow(hot-alloc)
  auto ring = std::make_unique<std::uint64_t[]>(words);  // zeroed
  // A longer ring maps held seqs to other words, so they are copied over
  // one old word at a time. The old ring covers the absolute words
  // edge/64 .. edge/64 + old_words; the first and the last of them share a
  // ring word, split at the edge's bit.
  if (held_ != 0) {
    const std::uint64_t first = edge_ >> 6;
    const std::uint64_t below = low_bits(static_cast<unsigned>(edge_ & 63));
    for (std::uint64_t a = first; a <= first + old_words; ++a) {
      std::uint64_t bits = ring_[a & (old_words - 1)];
      if (a == first) bits &= ~below;
      if (a == first + old_words) bits &= below;
      ring[a & (words - 1)] |= bits;
    }
  }
  if (ledger_ != nullptr) {
    ledger_->charge((words - old_words) * sizeof(std::uint64_t));
  }
  ring_ = std::move(ring);
  words_ = words;
}

}  // namespace mpsim::mptcp
