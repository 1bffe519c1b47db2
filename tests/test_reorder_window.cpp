#include "mptcp/reorder_window.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <iterator>
#include <random>
#include <set>

#include "core/event_list.hpp"

namespace mpsim::mptcp {
namespace {

// The receiver's reorder state is a ReorderWindow; these pin the semantics
// of the sorted set it replaced: ordered, unique, released in order from
// the edge.

TEST(ReorderWindowTest, OrderedUniqueReleasedFromTheEdge) {
  ReorderWindow w;
  EXPECT_TRUE(w.empty());
  EXPECT_EQ(w.bytes(), 0u);  // nothing allocated before the first hold
  EXPECT_TRUE(w.add(5));
  EXPECT_TRUE(w.add(2));
  EXPECT_TRUE(w.add(9));
  EXPECT_FALSE(w.add(5));  // duplicate rejected
  EXPECT_EQ(w.size(), 3u);
  EXPECT_TRUE(w.contains(2));
  EXPECT_TRUE(w.contains(9));
  EXPECT_FALSE(w.contains(4));
  EXPECT_FALSE(w.contains(0));  // the edge itself is never held
  EXPECT_EQ(w.advance(), 1u);   // 0 arrives; 1 is missing
  EXPECT_EQ(w.edge(), 1u);
  EXPECT_EQ(w.advance(), 2u);   // 1 arrives and releases 2
  EXPECT_EQ(w.edge(), 3u);
  EXPECT_EQ(w.size(), 2u);
  EXPECT_EQ(w.advance(), 1u);   // 3
  EXPECT_EQ(w.advance(), 2u);   // 4 releases 5
  EXPECT_EQ(w.advance(), 1u);   // 6
  EXPECT_EQ(w.advance(), 1u);   // 7
  EXPECT_EQ(w.advance(), 2u);   // 8 releases 9
  EXPECT_EQ(w.edge(), 10u);
  EXPECT_TRUE(w.empty());
}

TEST(ReorderWindowTest, EdgeCrossesWordsAndWrapsTheRing) {
  ReorderWindow w;
  // Many rounds of four held seqs released by one arrival move the edge
  // across word boundaries and around the ring many times; the contents
  // and the ring's size must be unaffected throughout.
  for (int round = 0; round < 200; ++round) {
    const std::uint64_t e = w.edge();
    for (std::uint64_t k = 1; k <= 4; ++k) EXPECT_TRUE(w.add(e + k));
    EXPECT_FALSE(w.contains(e));
    EXPECT_TRUE(w.contains(e + 1));
    EXPECT_EQ(w.advance(), 5u);
    EXPECT_TRUE(w.empty());
    EXPECT_FALSE(w.contains(e + 4));  // released seqs are really gone
  }
  EXPECT_EQ(w.edge(), 1000u);
  EXPECT_EQ(w.bytes(), sizeof(std::uint64_t));  // one word was enough
}

TEST(ReorderWindowTest, DescendingAddsAndAddsAfterARelease) {
  ReorderWindow w;
  // Descending adds: each lands below everything held so far.
  for (std::uint64_t v : {70u, 30u, 50u, 10u, 60u, 20u, 40u}) w.add(v);
  for (std::uint64_t e = 0; e < 9; ++e) EXPECT_EQ(w.advance(), 1u);
  EXPECT_EQ(w.advance(), 2u);  // 9 releases 10
  EXPECT_EQ(w.edge(), 11u);
  EXPECT_TRUE(w.add(15));  // below the smallest held seq, after a release
  for (std::uint64_t e = 11; e < 14; ++e) w.advance();
  EXPECT_EQ(w.advance(), 2u);  // 14 releases 15
  EXPECT_EQ(w.edge(), 16u);
  EXPECT_TRUE(w.contains(70));
  EXPECT_FALSE(w.contains(10));
  EXPECT_FALSE(w.contains(15));
  EXPECT_EQ(w.size(), 6u);
}

TEST(ReorderWindowTest, RunOfAFullWordAndMore) {
  ReorderWindow w;
  // Every seq of three whole words past the edge: one arrival releases
  // all of them, a word at a time, with shifts of 0 and of 64 - 1.
  for (std::uint64_t s = 1; s <= 192; ++s) w.add(s);
  EXPECT_EQ(w.advance(), 193u);
  EXPECT_TRUE(w.empty());
  // The same from an edge in the middle of a word.
  for (std::uint64_t s = w.edge() + 1; s <= w.edge() + 150; ++s) w.add(s);
  EXPECT_EQ(w.advance(), 151u);
  EXPECT_EQ(w.edge(), 344u);
}

TEST(ReorderWindowTest, RingDoublesToReachAFarArrival) {
  ReorderWindow w;
  w.add(3);
  EXPECT_EQ(w.bytes(), 8u);
  w.add(1000);  // past the one-word ring: doubles to 16 words
  EXPECT_EQ(w.bytes(), 16u * 8u);
  EXPECT_TRUE(w.contains(3));
  EXPECT_TRUE(w.contains(1000));
  EXPECT_FALSE(w.contains(999));
  w.add(1001);
  EXPECT_EQ(w.bytes(), 16u * 8u);  // 1001 - 0 < 1024: no growth
}

TEST(ReorderWindowTest, LedgerTracksLiveAndPeakBytes) {
  ReorderLedger ledger;
  {
    ReorderWindow a(&ledger);
    ReorderWindow b(&ledger);
    a.add(100);  // 2 words
    b.add(1);    // 1 word
    EXPECT_EQ(ledger.live_bytes(), 24u);
    ReorderWindow moved(std::move(a));  // a move transfers, not copies
    EXPECT_EQ(ledger.live_bytes(), 24u);
    EXPECT_TRUE(moved.contains(100));
  }
  EXPECT_EQ(ledger.live_bytes(), 0u);
  EXPECT_EQ(ledger.peak_bytes(), 24u);
}

TEST(ReorderWindowTest, LedgerIsPerSimulation) {
  EventList a;
  EventList b;
  EXPECT_EQ(ReorderLedger::find(a), nullptr);
  ReorderLedger& la = ReorderLedger::of(a);
  EXPECT_EQ(&ReorderLedger::of(a), &la);
  EXPECT_EQ(ReorderLedger::find(a), &la);
  EXPECT_EQ(ReorderLedger::find(b), nullptr);
}

// Differential oracle: a window and a std::set model (edge + held seqs)
// under the same seeded operations. Covers in-order arrivals, duplicates,
// bursts released as multi-word runs, near inserts that cross words and
// the ring's wrap, and inserts far past the edge that force several
// doublings. Size, edge, run length and membership are compared after
// every operation.
TEST(ReorderWindowTest, MatchesStdSetUnderRandomOperations) {
  std::mt19937_64 rng(20260417);
  auto below = [&rng](std::uint64_t n) {
    return std::uniform_int_distribution<std::uint64_t>(0, n - 1)(rng);
  };
  constexpr int kWindows = 40;         // fresh windows keep doubling
  constexpr int kOpsPerWindow = 5000;  // 2 * 10^5 operations in all
  std::size_t doublings = 0;
  std::size_t multi_word_runs = 0;
  for (int win = 0; win < kWindows; ++win) {
    ReorderWindow w;
    std::set<std::uint64_t> held;
    // Start each window with its edge just short of a word boundary.
    std::uint64_t edge = 64 * below(1000) + 60;
    for (std::uint64_t s = 0; s < edge; ++s) w.advance();
    for (int op = 0; op < kOpsPerWindow; ++op) {
      const std::size_t bytes_before = w.bytes();
      std::uint64_t probe = edge;
      const std::uint64_t kind = below(100);
      if (kind < 40) {
        // In-order arrival at the edge.
        const std::uint64_t from = edge;
        ++edge;
        while (held.erase(edge) == 1) ++edge;
        const std::uint64_t run = w.advance();
        ASSERT_EQ(run, edge - from) << "op " << op;
        if (run > 64) ++multi_word_runs;
        probe = from;
      } else if (kind < 48 && !held.empty()) {
        // Duplicate of a held seq.
        auto it = held.begin();
        std::advance(it, static_cast<long>(below(
                             std::min<std::size_t>(held.size(), 16))));
        ASSERT_FALSE(w.add(*it)) << "op " << op;
        probe = *it;
      } else if (kind < 53) {
        // A burst that overtook a late seq: a block of up to 200
        // consecutive seqs just past the edge, which the next arrivals at
        // the edge release as one run across several words.
        const std::uint64_t first = edge + 1 + below(3);
        const std::uint64_t len = 1 + below(200);
        for (std::uint64_t s = first; s < first + len; ++s) {
          ASSERT_EQ(w.add(s), held.insert(s).second) << "op " << op;
        }
        probe = first + len - 1;
      } else if (kind < 95) {
        // Near insert: within a few words of the edge.
        const std::uint64_t s = edge + 1 + below(200);
        ASSERT_EQ(w.add(s), held.insert(s).second) << "op " << op;
        probe = s;
      } else {
        // Far insert: up to 2^14 past the edge.
        const std::uint64_t s = edge + 1 + below(std::uint64_t{1} << 14);
        ASSERT_EQ(w.add(s), held.insert(s).second) << "op " << op;
        probe = s;
      }
      if (w.bytes() > bytes_before) ++doublings;
      ASSERT_EQ(w.edge(), edge) << "op " << op;
      ASSERT_EQ(w.size(), held.size()) << "op " << op;
      ASSERT_EQ(w.empty(), held.empty()) << "op " << op;
      ASSERT_TRUE(w.bytes() == 0 || std::has_single_bit(w.bytes()));
      if (!held.empty()) {
        ASSERT_LT(*held.rbegin() - edge, w.bytes() * 8) << "op " << op;
      }
      for (std::uint64_t s : {probe, probe + 1, probe + 63, probe + 64,
                              edge - 1, edge, edge + 1, edge + below(4096)}) {
        ASSERT_EQ(w.contains(s), held.count(s) == 1)
            << "op " << op << " seq " << s;
      }
      if (op % 97 == 0) {
        const std::uint64_t hi = held.empty() ? edge : *held.rbegin();
        for (std::uint64_t s = edge - 70; s <= hi + 70; ++s) {
          ASSERT_EQ(w.contains(s), held.count(s) == 1)
              << "op " << op << " seq " << s;
        }
      }
    }
  }
  EXPECT_GT(doublings, 100u);
  EXPECT_GT(multi_word_runs, 10u);
}

}  // namespace
}  // namespace mpsim::mptcp
