// Hierarchical timing wheel (calendar queue) — the EventList's scheduler.
//
// Three levels of 2048 slots each cover a ~8.6 s (2^33 ns) horizon above
// the wheel's current position; events beyond the horizon wait in a small
// overflow heap and are pulled in when the wheel advances into their epoch.
// schedule() and pop_if_before() are amortized O(1): an entry is linked
// into exactly one slot per level it cascades through (at most kLevels
// times over its lifetime), and finding the next occupied slot is a bitmap
// scan.
//
// Storage: every slot is an intrusive FIFO list threaded through one shared
// node pool with a free list, so memory is O(peak pending entries) rather
// than O(slots x peak slot size), and a cascade relinks nodes instead of
// copying entries. A slot's head/tail words are read only while its bitmap
// bit is set, so construction clears the 768 bytes of bitmaps and never
// touches the 48 KB of slots: a run touches only the slot pages it uses.
//
// Determinism contract: events dispatch in (time, seq) order, where seq is
// the EventList's canonical (source order id, per-source counter) key. A
// level-0 slot holds one tick, but canonical keys are not monotone across
// sources, so its entries arrive as several ascending runs: each earlier
// dispatch tick (and each cascade) appends its schedules in key order. When
// dispatch reaches a level-0 tick it *opens* it: the slot's entries are
// gathered once into a reusable buffer and their runs merged. A schedule for
// the open tick is inserted into that buffer at its key position, exactly
// where a global (time, seq) order would put it.
#pragma once

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <queue>
#include <vector>

#include "core/check.hpp"
#include "core/time.hpp"

namespace mpsim {

class EventSource;

class TimingWheel {
 public:
  struct Entry {
    SimTime time;
    std::uint64_t seq;  // canonical tie-break for equal timestamps
    EventSource* src;
  };

  // Deterministic work counters: a pure function of the schedule/dispatch
  // sequence, so they read identically whatever thread runs the simulation.
  struct Stats {
    std::uint64_t cascaded = 0;      // entries moved down a level by a cascade
    std::uint64_t ticks_opened = 0;  // level-0 ticks dispatch reached
    std::uint64_t runs_merged = 0;   // run merges while opening ticks
    std::uint64_t peak_pending = 0;  // most entries pending at once

    // Calls f(name, value) for each counter, in the order above.
    template <typename F>
    void for_each(F&& f) const {
      f("cascaded", cascaded);
      f("ticks_opened", ticks_opened);
      f("runs_merged", runs_merged);
      f("peak_pending", peak_pending);
    }
  };

  // Clears the bitmaps only; see the storage note above.
  TimingWheel();

  TimingWheel(const TimingWheel&) = delete;
  TimingWheel& operator=(const TimingWheel&) = delete;

  // Insert an event. `t` must be >= the time of the last popped entry.
  void schedule(SimTime t, std::uint64_t seq, EventSource* src);

  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }
  const Stats& stats() const { return stats_; }

  // Pop the earliest entry into `out` iff its time is <= limit; returns
  // false (and pops nothing) otherwise. The wheel never advances past
  // `limit`, so callers may keep scheduling any t >= limit afterwards;
  // kNever pops unconditionally.
  bool pop_if_before(SimTime limit, Entry& out);

  // Remove every pending entry whose source is `src`; returns how many were
  // dropped. Visits the open tick, every occupied slot (found through the
  // bitmaps) and the overflow heap — a teardown/cold-path operation.
  std::size_t cancel(const EventSource* src);

 private:
  // 2^11-slot levels keep sub-2-us timers (pipe hops, queue drains) on
  // level 0 — inserted and popped with zero cascades — while three levels
  // still cover a 2^33 ns (~8.6 s) horizon.
  static constexpr int kSlotBits = 11;
  static constexpr int kSlots = 1 << kSlotBits;  // 2048
  static constexpr int kLevels = 3;
  static constexpr int kHorizonBits = kSlotBits * kLevels;
  static constexpr int kBitmapWords = kSlots / 64;
  static constexpr std::uint32_t kNil = 0xFFFFFFFFu;  // ends a node list

  struct Node {
    Entry e;
    std::uint32_t next;  // next node of the slot list or the free list
  };

  // First and last node of a slot's FIFO list. Valid only while the
  // slot's bitmap bit is set; never initialized otherwise.
  struct Slot {
    std::uint32_t head;
    std::uint32_t tail;
  };

  struct Level {
    std::array<std::uint64_t, kBitmapWords> bitmap;
    // Bit w set iff bitmap[w] != 0 — makes find_slot O(1) instead of a
    // linear scan over the bitmap words.
    std::uint32_t summary;
  };
  static_assert(kBitmapWords <= 32, "summary bitmap is a uint32");

  // Level of the wheel that an entry at tick `t` belongs on: the lowest
  // level whose epoch (the bits above its slot index) matches cur_'s —
  // equivalently, the level holding the highest bit where t and cur_
  // differ. kLevels or more means beyond the horizon.
  int level_of(std::uint64_t t) const {
    const std::uint64_t diff = t ^ cur_;
    return diff == 0 ? 0 : (63 - std::countl_zero(diff)) / kSlotBits;
  }
  // Place a new entry into the wheel or the overflow heap.
  void place(const Entry& e);
  // Append node `n` to the tail of its slot on level `lv`.
  void link(int lv, std::uint32_t n);
  // Move every entry of slot `idx` on level `lv` down into lower levels.
  void cascade(int lv, int idx);
  // Gather the >= 2 entries of level-0 slot `idx` into open_ and merge
  // their ascending runs.
  void open_tick(int idx);
  // Insert `e` into the open tick's pending suffix at its key position.
  void insert_open(const Entry& e);
  // Drop the matching entries of one occupied slot; returns how many.
  std::size_t cancel_in_slot(int lv, int idx, const EventSource* src);
  // First occupied slot index >= from at `lv`, or -1.
  int find_slot(const Level& lv, int from) const;

  Slot& slot(int lv, int idx) {
    return slots_[static_cast<std::size_t>(lv)][static_cast<std::size_t>(idx)];
  }
  static bool marked(const Level& lv, int idx) {
    return (lv.bitmap[static_cast<std::size_t>(idx >> 6)] >> (idx & 63)) & 1;
  }
  static void mark(Level& lv, int idx) {
    lv.bitmap[static_cast<std::size_t>(idx >> 6)] |= 1ull << (idx & 63);
    lv.summary |= 1u << (idx >> 6);
  }
  static void unmark(Level& lv, int idx) {
    std::uint64_t& word = lv.bitmap[static_cast<std::size_t>(idx >> 6)];
    word &= ~(1ull << (idx & 63));
    if (word == 0) lv.summary &= ~(1u << (idx >> 6));
  }
  // Push a list of nodes, first..last, onto the free list.
  void free_nodes(std::uint32_t first, std::uint32_t last) {
    pool_[last].next = free_;
    free_ = first;
  }

  struct EntryGreater {
    bool operator()(const Entry& a, const Entry& b) const {
      if (a.time != b.time) return a.time > b.time;
      return a.seq > b.seq;
    }
  };

  // Scalars and buffers first, the 48 KB slot array last: every schedule
  // and pop touches the first group, each only the slot it needs.
  std::uint64_t cur_ = 0;       // tick of the last popped entry
  std::size_t wheel_size_ = 0;  // entries linked into the wheel levels
  std::size_t size_ = 0;        // open tick + wheel + overflow
  // Cached overflow_.empty(): the drained-wheel branch of pop_if_before
  // consults it instead of probing the heap adaptor each time.
  bool overflow_empty_ = true;
  std::uint32_t free_ = kNil;  // head of the free-node list
  Stats stats_;
  std::vector<Node> pool_;  // every slot's nodes; grows to peak pending
  // The open level-0 tick (at cur_): [open_pos_, end) is pending, in seq
  // order; [0, open_pos_) was dispatched. merge_ and runs_ are open_tick()
  // scratch. All three keep their capacity from tick to tick.
  std::vector<Entry> open_;
  std::size_t open_pos_ = 0;
  std::vector<Entry> merge_;
  std::vector<std::uint32_t> runs_;
  std::priority_queue<Entry, std::vector<Entry>, EntryGreater> overflow_;
  std::array<Level, kLevels> levels_;
  std::array<std::array<Slot, kSlots>, kLevels> slots_;
};

// Inline: schedule() runs once per event and link() once more per cascade
// level — together the hottest wheel operations, so they live in the header
// (the pop side stays out of line; its slot-scan loop dwarfs call overhead).
inline void TimingWheel::link(int lv, std::uint32_t n) {
  const auto t = static_cast<std::uint64_t>(pool_[n].e.time);
  const int idx = static_cast<int>((t >> (kSlotBits * lv)) & (kSlots - 1));
  Level& level = levels_[static_cast<std::size_t>(lv)];
  Slot& s = slot(lv, idx);
  if (marked(level, idx)) {
    pool_[s.tail].next = n;
  } else {
    s.head = n;
    mark(level, idx);
  }
  s.tail = n;
}

inline void TimingWheel::place(const Entry& e) {
  const int lv = level_of(static_cast<std::uint64_t>(e.time));
  if (lv >= kLevels) {
    overflow_.push(e);  // beyond the wheel horizon
    overflow_empty_ = false;
    return;
  }
  std::uint32_t n = free_;
  if (n != kNil) {
    free_ = pool_[n].next;
    pool_[n] = Node{e, kNil};
  } else {
    MPSIM_CHECK(pool_.size() < kNil, "timing-wheel node index space exhausted");
    n = static_cast<std::uint32_t>(pool_.size());
    // Amortized: the pool only grows while pending entries reach a new
    // peak; after that every node comes off the free list.
    // mpsim-analyze: allow(hot-alloc)
    pool_.push_back(Node{e, kNil});
  }
  link(lv, n);
  ++wheel_size_;
}

inline void TimingWheel::schedule(SimTime t, std::uint64_t seq,
                                  EventSource* src) {
  MPSIM_CHECK(static_cast<std::uint64_t>(t) >= cur_ || size_ == 0,
              "wheel entries must not precede the current tick");
  if (++size_ > stats_.peak_pending) stats_.peak_pending = size_;
  if (static_cast<std::uint64_t>(t) == cur_ && open_pos_ < open_.size()) {
    insert_open(Entry{t, seq, src});
  } else {
    place(Entry{t, seq, src});
  }
}

}  // namespace mpsim
