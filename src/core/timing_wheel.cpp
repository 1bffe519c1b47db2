#include "core/timing_wheel.hpp"

#include <algorithm>
#include <bit>

#include "core/check.hpp"

namespace mpsim {

namespace {

struct SeqLess {
  bool operator()(const TimingWheel::Entry& a,
                  const TimingWheel::Entry& b) const {
    return a.seq < b.seq;
  }
};

}  // namespace

TimingWheel::TimingWheel() {
  for (Level& level : levels_) {
    level.bitmap.fill(0);
    level.summary = 0;
  }
}

void TimingWheel::cascade(int lv, int idx) {
  std::uint32_t n = slot(lv, idx).head;
  unmark(levels_[static_cast<std::size_t>(lv)], idx);
  // Relink in FIFO order, so each destination slot receives this slot's
  // entries as one subsequence of their arrival order. Every entry shares
  // the slot's epoch with cur_ (the caller moved cur_ to the slot base), so
  // each lands strictly below `lv`.
  while (n != kNil) {
    const std::uint32_t next = pool_[n].next;
    pool_[n].next = kNil;
    link(level_of(static_cast<std::uint64_t>(pool_[n].e.time)), n);
    ++stats_.cascaded;
    n = next;
  }
}

void TimingWheel::open_tick(int idx) {
  const std::uint32_t first = slot(0, idx).head;
  const std::uint32_t last = slot(0, idx).tail;
  open_.clear();
  open_pos_ = 0;
  runs_.clear();
  // One pass gathers the entries and records where each ascending run
  // starts. Buffer growth is amortized like the pool's: capacity persists
  // across ticks, so growth stops at the busiest tick's size.
  for (std::uint32_t n = first;; n = pool_[n].next) {
    const Entry& e = pool_[n].e;
    if (open_.empty() || e.seq < open_.back().seq) {
      // mpsim-analyze: allow(hot-alloc)
      runs_.push_back(static_cast<std::uint32_t>(open_.size()));
    }
    // mpsim-analyze: allow(hot-alloc)
    open_.push_back(e);
    if (n == last) break;
  }
  free_nodes(first, last);
  unmark(levels_[0], idx);
  wheel_size_ -= open_.size();
  if (runs_.size() == 1) return;

  // Bottom-up merge of neighbouring runs, ping-ponging between open_ and
  // merge_: ceil(log2(runs)) passes instead of a comparison sort.
  stats_.runs_merged += runs_.size() - 1;
  const auto n = static_cast<std::uint32_t>(open_.size());
  // mpsim-analyze: allow(hot-alloc)
  runs_.push_back(n);  // sentinel: run i spans [runs_[i], runs_[i + 1])
  // mpsim-analyze: allow(hot-alloc)
  merge_.resize(n);
  for (std::size_t nruns = runs_.size() - 1; nruns > 1;) {
    std::size_t kept = 0;
    for (std::size_t i = 0; i < nruns; i += 2) {
      const std::uint32_t a = runs_[i];
      const std::uint32_t b = runs_[i + 1];
      const std::uint32_t c = i + 1 < nruns ? runs_[i + 2] : b;
      std::merge(open_.begin() + a, open_.begin() + b, open_.begin() + b,
                 open_.begin() + c, merge_.begin() + a, SeqLess{});
      runs_[kept++] = a;
    }
    runs_[kept] = n;
    nruns = kept;
    open_.swap(merge_);
  }
}

void TimingWheel::insert_open(const Entry& e) {
  // A source dispatching at this very tick scheduled another same-tick
  // event. Its canonical key may be smaller than a pending entry's, so it
  // goes where the (time, seq) order puts it, not at the end.
  const auto pending = open_.begin() + static_cast<std::ptrdiff_t>(open_pos_);
  // Same amortized growth as open_tick()'s gather.
  // mpsim-analyze: allow(hot-alloc)
  open_.insert(std::upper_bound(pending, open_.end(), e, SeqLess{}), e);
}

int TimingWheel::find_slot(const Level& lv, int from) const {
  if (from >= kSlots) return -1;
  int w = from >> 6;
  const std::uint64_t word =
      lv.bitmap[static_cast<std::size_t>(w)] & (~0ull << (from & 63));
  if (word != 0) return (w << 6) + std::countr_zero(word);
  // Jump straight to the next non-empty bitmap word via the summary.
  if (++w == kBitmapWords) return -1;
  const std::uint32_t rest =
      lv.summary & (~0u << w);  // w in [1, 31]: shift is well-defined
  if (rest == 0) return -1;
  w = std::countr_zero(rest);
  return (w << 6) + std::countr_zero(lv.bitmap[static_cast<std::size_t>(w)]);
}

std::size_t TimingWheel::cancel_in_slot(int lv, int idx,
                                        const EventSource* src) {
  Slot& s = slot(lv, idx);
  std::size_t removed = 0;
  std::uint32_t prev = kNil;
  for (std::uint32_t n = s.head; n != kNil;) {
    const std::uint32_t next = pool_[n].next;
    if (pool_[n].e.src == src) {
      // Unlink, keeping the survivors' FIFO order.
      if (prev == kNil) {
        s.head = next;
      } else {
        pool_[prev].next = next;
      }
      if (n == s.tail) s.tail = prev;
      free_nodes(n, n);
      ++removed;
    } else {
      prev = n;
    }
    n = next;
  }
  if (s.head == kNil) unmark(levels_[static_cast<std::size_t>(lv)], idx);
  return removed;
}

std::size_t TimingWheel::cancel(const EventSource* src) {
  std::size_t removed = 0;
  if (open_pos_ < open_.size()) {
    // Only the pending suffix; erasing keeps it in seq order.
    const auto it = std::remove_if(
        open_.begin() + static_cast<std::ptrdiff_t>(open_pos_), open_.end(),
        [src](const Entry& e) { return e.src == src; });
    removed += static_cast<std::size_t>(open_.end() - it);
    open_.erase(it, open_.end());
  }
  std::size_t from_levels = 0;
  for (int lv = 0; lv < kLevels; ++lv) {
    const Level& level = levels_[static_cast<std::size_t>(lv)];
    // Iterate over copies of the bitmap words: cancel_in_slot may clear
    // the bits it visits.
    for (std::uint32_t words = level.summary; words != 0;
         words &= words - 1) {
      const int w = std::countr_zero(words);
      for (std::uint64_t bits = level.bitmap[static_cast<std::size_t>(w)];
           bits != 0; bits &= bits - 1) {
        from_levels +=
            cancel_in_slot(lv, (w << 6) + std::countr_zero(bits), src);
      }
    }
  }
  wheel_size_ -= from_levels;
  removed += from_levels;
  if (!overflow_.empty()) {
    std::vector<Entry> keep;
    keep.reserve(overflow_.size());
    while (!overflow_.empty()) {
      if (overflow_.top().src == src) {
        ++removed;
      } else {
        keep.push_back(overflow_.top());
      }
      overflow_.pop();
    }
    overflow_ = decltype(overflow_)(EntryGreater(), std::move(keep));
    overflow_empty_ = overflow_.empty();
  }
  size_ -= removed;
  return removed;
}

bool TimingWheel::pop_if_before(SimTime limit, Entry& out) {
  const auto lim = static_cast<std::uint64_t>(limit);
  if (open_pos_ < open_.size()) {
    // Draining the open tick: the common case on a busy simulation.
    if (cur_ > lim) return false;
    out = open_[open_pos_++];
    --size_;
    return true;
  }
  if (size_ == 0) return false;
  for (;;) {
    const int idx =
        find_slot(levels_[0], static_cast<int>(cur_ & (kSlots - 1)));
    if (idx >= 0) {
      const std::uint64_t tick =
          (cur_ & ~static_cast<std::uint64_t>(kSlots - 1)) |
          static_cast<std::uint64_t>(idx);
      if (tick > lim) return false;
      cur_ = tick;
      ++stats_.ticks_opened;
      const Slot& s = slot(0, idx);
      if (s.head == s.tail) {
        // A lone entry needs no buffer: pop it straight off the slot.
        const std::uint32_t head = s.head;
        out = pool_[head].e;
        free_nodes(head, head);
        unmark(levels_[0], idx);
        --wheel_size_;
      } else {
        open_tick(idx);
        out = open_[open_pos_++];
      }
      --size_;
      return true;
    }
    if (wheel_size_ > 0) {
      // Advance into the next occupied slot of the lowest occupied level
      // and cascade it down; the loop then rescans level 0. Every entry in
      // that slot (and, by the level-ordering invariant, every pending
      // wheel entry) has time >= the slot's base tick, so if the base is
      // past the limit there is nothing to pop and — crucially — cur_ has
      // not moved past `limit` either.
      bool advanced = false;
      for (int lv = 1; lv < kLevels; ++lv) {
        Level& level = levels_[static_cast<std::size_t>(lv)];
        const int il =
            static_cast<int>((cur_ >> (kSlotBits * lv)) & (kSlots - 1));
        const int j = find_slot(level, il + 1);
        if (j < 0) continue;
        const Slot& s = slot(lv, j);
        if (s.head == s.tail) {
          // Sparse fast path: the sole entry of the first occupied slot of
          // the lowest occupied level is the wheel's minimum (every lower
          // level is empty, higher levels and the overflow sort after it),
          // so pop it directly instead of cascading it down level by level
          // only to pop it from level 0 a few scans later. This is the
          // dominant dispatch shape for sparse simulations (a handful of
          // timers spread over a wide horizon).
          const std::uint32_t head = s.head;
          const Entry e = pool_[head].e;
          if (static_cast<std::uint64_t>(e.time) > lim) return false;
          free_nodes(head, head);
          unmark(level, j);
          cur_ = static_cast<std::uint64_t>(e.time);
          --wheel_size_;
          --size_;
          out = e;
          return true;
        }
        const std::uint64_t epoch_mask =
            ~((1ull << (kSlotBits * (lv + 1))) - 1);
        const std::uint64_t slot_base =
            (cur_ & epoch_mask) |
            (static_cast<std::uint64_t>(j) << (kSlotBits * lv));
        if (slot_base > lim) return false;
        cur_ = slot_base;
        cascade(lv, j);
        advanced = true;
        break;
      }
      MPSIM_CHECK(advanced, "occupied wheel must have a next slot");
      (void)advanced;
      continue;
    }
    // Wheel drained: rebase onto the overflow heap's next epoch and pull in
    // every far-future event that now fits under the horizon.
    MPSIM_CHECK(!overflow_empty_,
                "size_ > 0 with drained wheel implies overflow entries");
    if (static_cast<std::uint64_t>(overflow_.top().time) > lim) return false;
    cur_ = static_cast<std::uint64_t>(overflow_.top().time);
    while (!overflow_.empty() &&
           (static_cast<std::uint64_t>(overflow_.top().time) >>
            kHorizonBits) == (cur_ >> kHorizonBits)) {
      place(overflow_.top());
      overflow_.pop();
    }
    overflow_empty_ = overflow_.empty();
  }
}

}  // namespace mpsim
