#include "refkernel.hpp"

#include <chrono>
#include <cstddef>

namespace perfbench {

namespace {

constexpr std::size_t kHeapSize = 20000;
constexpr std::size_t kTableWords =
    (std::size_t{4} << 20) / sizeof(std::uint64_t);
constexpr int kOpsPerPass = 40000;

std::uint64_t xorshift(std::uint64_t& s) {
  s ^= s << 13;
  s ^= s >> 7;
  s ^= s << 17;
  return s;
}

}  // namespace

RefKernel::RefKernel() : heap_(kHeapSize), table_(kTableWords) {
  // Timestamps 0, 3, 6, ... already satisfy the heap property.
  for (std::size_t i = 0; i < kHeapSize; ++i) heap_[i] = 3 * i;
  for (auto& w : table_) w = xorshift(rng_);
}

// Replace the minimum with `t` and sift it down.
void RefKernel::pop_push(std::uint64_t t) {
  const std::size_t n = heap_.size();
  std::size_t i = 0;
  for (;;) {
    std::size_t c = 2 * i + 1;
    if (c >= n) break;
    if (c + 1 < n && heap_[c + 1] < heap_[c]) ++c;
    if (heap_[c] >= t) break;
    heap_[i] = heap_[c];
    i = c;
  }
  heap_[i] = t;
}

double RefKernel::pass() {
  // Warm: touch every word so the previous slice's cache footprint does
  // not decide how many of this pass's accesses miss.
  std::uint64_t acc = 0;
  for (std::uint64_t w : table_) acc += w;
  for (std::uint64_t h : heap_) acc ^= h;

  const auto t0 = std::chrono::steady_clock::now();
  for (int k = 0; k < kOpsPerPass; ++k) {
    const std::uint64_t r = xorshift(rng_);
    const std::uint64_t top = heap_[0];
    pop_push(top + 1 + (r & 1023));
    std::uint64_t& cell = table_[(r >> 12) % kTableWords];
    cell = cell * 6364136223846793005ULL + top;
    acc += cell;
  }
  const auto t1 = std::chrono::steady_clock::now();
  sink_ += acc;
  return std::chrono::duration<double>(t1 - t0).count();
}

}  // namespace perfbench
