#include "core/rng.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>
#include <vector>

namespace mpsim {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next_u64() == b.next_u64()) ++same;
  }
  EXPECT_LT(same, 4);
}

TEST(Rng, DoubleInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double d = rng.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Rng, DoubleMeanNearHalf) {
  Rng rng(11);
  double sum = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += rng.next_double();
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Rng, NextBelowRespectsBound) {
  Rng rng(3);
  for (std::uint64_t bound : {1ull, 2ull, 7ull, 1000ull}) {
    for (int i = 0; i < 1000; ++i) EXPECT_LT(rng.next_below(bound), bound);
  }
}

TEST(Rng, NextBelowZeroIsZero) {
  Rng rng(3);
  EXPECT_EQ(rng.next_below(0), 0u);
}

TEST(Rng, NextBelowCoversAllValues) {
  Rng rng(5);
  std::vector<int> seen(10, 0);
  for (int i = 0; i < 10000; ++i) ++seen[rng.next_below(10)];
  for (int count : seen) EXPECT_GT(count, 800);  // ~1000 expected
}

TEST(Rng, UniformIntInclusiveRange) {
  Rng rng(9);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 5000; ++i) {
    const auto v = rng.uniform_int(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    saw_lo |= (v == -3);
    saw_hi |= (v == 3);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, ChanceExtremes) {
  Rng rng(13);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.chance(0.0));
    EXPECT_TRUE(rng.chance(1.0));
  }
}

TEST(Rng, ChanceFrequency) {
  Rng rng(17);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    if (rng.chance(0.2)) ++hits;
  }
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.2, 0.01);
}

TEST(Rng, ExponentialMean) {
  Rng rng(19);
  double sum = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) sum += rng.exponential(5.0);
  EXPECT_NEAR(sum / n, 5.0, 0.1);
}

TEST(Rng, ExponentialPositive) {
  Rng rng(23);
  for (int i = 0; i < 10000; ++i) EXPECT_GT(rng.exponential(1.0), 0.0);
}

TEST(Rng, ParetoMeanMatchesFormula) {
  // mean = alpha*xm/(alpha-1); alpha=3, xm=2 -> 3.
  Rng rng(29);
  double sum = 0.0;
  const int n = 400000;
  for (int i = 0; i < n; ++i) sum += rng.pareto(3.0, 2.0);
  EXPECT_NEAR(sum / n, 3.0, 0.1);
}

TEST(Rng, ParetoNeverBelowScale) {
  Rng rng(31);
  for (int i = 0; i < 10000; ++i) EXPECT_GE(rng.pareto(2.0, 1.5), 1.5);
}

TEST(Rng, ShuffleIsPermutation) {
  Rng rng(37);
  std::vector<int> v(50);
  std::iota(v.begin(), v.end(), 0);
  rng.shuffle(v.data(), v.size());
  std::vector<int> sorted = v;
  std::sort(sorted.begin(), sorted.end());
  for (int i = 0; i < 50; ++i) EXPECT_EQ(sorted[static_cast<size_t>(i)], i);
}

TEST(Rng, ShuffleActuallyMoves) {
  Rng rng(41);
  std::vector<int> v(100);
  std::iota(v.begin(), v.end(), 0);
  rng.shuffle(v.data(), v.size());
  int fixed = 0;
  for (int i = 0; i < 100; ++i) {
    if (v[static_cast<size_t>(i)] == i) ++fixed;
  }
  EXPECT_LT(fixed, 10);
}

// An element that counts its copies; moves are free.
struct CopyCounted {
  int v = 0;
  int* copies = nullptr;
  CopyCounted(int value, int* counter) : v(value), copies(counter) {}
  CopyCounted(const CopyCounted& o) : v(o.v), copies(o.copies) { ++*copies; }
  CopyCounted& operator=(const CopyCounted& o) {
    v = o.v;
    copies = o.copies;
    ++*copies;
    return *this;
  }
  CopyCounted(CopyCounted&&) noexcept = default;
  CopyCounted& operator=(CopyCounted&&) noexcept = default;
};

TEST(Rng, ShuffleSwapsWithoutCopyingAndKeepsItsPermutation) {
  int copies = 0;
  std::vector<CopyCounted> v;
  v.reserve(10);
  for (int i = 0; i < 10; ++i) v.emplace_back(i, &copies);
  Rng rng(43);
  rng.shuffle(v.data(), v.size());
  EXPECT_EQ(copies, 0);
  // The permutation seed 43 has always drawn: FatTree path samples and
  // permutation traffic matrices depend on it.
  const std::vector<int> pinned = {2, 1, 3, 9, 5, 6, 4, 7, 0, 8};
  for (std::size_t i = 0; i < v.size(); ++i) EXPECT_EQ(v[i].v, pinned[i]);
}

}  // namespace
}  // namespace mpsim
