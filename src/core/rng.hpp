// Deterministic random number generation for experiments.
//
// All stochastic behaviour in the simulator (drop decisions, traffic
// matrices, on/off burst durations, ...) draws from a seeded Rng so every
// experiment is exactly reproducible. The generator is xoshiro256**, which is
// fast, tiny, and has no discernible statistical defects at this scale.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>

namespace mpsim {

// One splitmix64 step: advance `x` by the golden-ratio increment and
// return it mixed. Rng expands its seed with four steps; fault processes
// that share a run seed draw their own seeds with one.
std::uint64_t splitmix64(std::uint64_t& x);

class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ULL);

  // Uniform over all 64-bit values.
  std::uint64_t next_u64();

  // Uniform in [0, 1).
  double next_double();

  // Uniform integer in [0, n).
  std::uint64_t next_below(std::uint64_t n);

  // Uniform integer in [lo, hi] inclusive.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);

  // Bernoulli trial with success probability p.
  bool chance(double p) { return next_double() < p; }

  // Exponential with the given mean (> 0).
  double exponential(double mean);

  // Pareto with shape `alpha` (> 1 for a finite mean) and scale `xm`:
  // P(X > x) = (xm/x)^alpha for x >= xm. Mean = alpha*xm/(alpha-1).
  double pareto(double alpha, double xm);

  // Fisher-Yates shuffle of [first, first+n), by swaps: no element is
  // copied.
  template <typename T>
  void shuffle(T* first, std::size_t n) {
    for (std::size_t i = n; i > 1; --i) {
      std::size_t j = static_cast<std::size_t>(next_below(i));
      std::swap(first[i - 1], first[j]);
    }
  }

 private:
  std::uint64_t s_[4];
};

}  // namespace mpsim
