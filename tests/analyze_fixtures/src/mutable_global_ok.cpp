// Fixture (negative control): shared state that cannot race, at every
// scope. None of it may be reported.
#include <atomic>
#include <cstdint>

namespace fixture {

const int kLimit = 4;
constexpr double kGain = 2.0;
std::atomic<int> g_checks{0};
thread_local int t_depth = 0;

struct Tables {
  static const int kRows = 8;
  static constexpr std::uint64_t kBytes = 64;
  static std::atomic<std::uint64_t> opened;
  int per_object = 0;  // not static: one per instance
  static int rows();   // a declaration, not a variable
};

int Tables::rows() {
  static const int cached = kRows * kLimit;
  static constexpr int kScale = 2;
  thread_local static int calls = 0;
  return cached * kScale + ++calls;
}

}  // namespace fixture
