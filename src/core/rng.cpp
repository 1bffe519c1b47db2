#include "core/rng.hpp"

#include <cmath>

namespace mpsim {

std::uint64_t splitmix64(std::uint64_t& x) {
  std::uint64_t z = (x += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

namespace {
inline std::uint64_t rotl(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}
}  // namespace

Rng::Rng(std::uint64_t seed) {
  for (auto& s : s_) s = splitmix64(seed);
}

std::uint64_t Rng::next_u64() {
  const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

double Rng::next_double() {
  // 53 top bits -> double in [0, 1).
  return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
}

std::uint64_t Rng::next_below(std::uint64_t n) {
  if (n == 0) return 0;
  // Rejection sampling to avoid modulo bias.
  const std::uint64_t limit = UINT64_MAX - UINT64_MAX % n;
  std::uint64_t v;
  do {
    v = next_u64();
  } while (v >= limit);
  return v % n;
}

std::int64_t Rng::uniform_int(std::int64_t lo, std::int64_t hi) {
  return lo + static_cast<std::int64_t>(
                  next_below(static_cast<std::uint64_t>(hi - lo + 1)));
}

double Rng::exponential(double mean) {
  double u;
  do {
    u = next_double();
  } while (u == 0.0);
  return -mean * std::log(u);
}

double Rng::pareto(double alpha, double xm) {
  double u;
  do {
    u = next_double();
  } while (u == 0.0);
  return xm / std::pow(u, 1.0 / alpha);
}

}  // namespace mpsim
