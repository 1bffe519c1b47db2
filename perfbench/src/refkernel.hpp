// Frozen reference kernel: the yardstick every host-time metric is divided
// by. It mimics the simulator's hot mix — a binary heap of timestamps
// (pop the earliest, push a later one) plus a random read-modify-write in a
// 4 MiB table — so host drift that slows the simulator slows it too.
//
// This code is part of the benchmark, not of the simulator, and must never
// change: a faster kernel would make every normalised figure look slower.
#pragma once

#include <cstdint>
#include <vector>

namespace perfbench {

class RefKernel {
 public:
  RefKernel();

  // Warms the kernel's own data (untimed), then times one fixed pass.
  // Returns the pass's host seconds.
  double pass();

 private:
  void pop_push(std::uint64_t t);

  std::vector<std::uint64_t> heap_;   // binary min-heap of timestamps
  std::vector<std::uint64_t> table_;  // 4 MiB of random-access words
  std::uint64_t rng_ = 0x2545F4914F6CDD1DULL;
  std::uint64_t sink_ = 0;
};

}  // namespace perfbench
