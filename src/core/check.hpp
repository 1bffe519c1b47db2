// Runtime invariant checking.
//
// MPSIM_CHECK(cond, msg) is the simulator's always-on assertion: unlike
// assert() it stays active in RelWithDebInfo (the tier-1 test configuration),
// so protocol invariants — sequence-space consistency, packet conservation,
// queue occupancy, the cwnd bounds implied by eq. (1) — are enforced during
// every test and benchmark run, not only in debug builds.
//
// MPSIM_CHECKS=off (environment, read once) disables all checks at runtime
// for perf measurements; unset or "on" enables them, and any other value
// stops the process with a diagnostic.
//
// Failure behaviour: by default a failed check prints file:line, the
// expression, and the message to stderr and aborts. Tests that deliberately
// violate invariants (tests/test_invariants.cpp) install a throwing handler
// with ScopedCheckHandler so the failure can be asserted on instead of
// killing the process. The handler slot is thread_local: parallel
// ExperimentRunner jobs each keep the default aborting behaviour and a
// handler installed on the test thread never leaks into workers.
#pragma once

#include <atomic>
#include <stdexcept>
#include <string>

namespace mpsim {

namespace detail {
// 0 = not yet read from the environment, 1 = on, 2 = off. Zero-initialized,
// so it is safe to query during static initialization; relaxed is enough
// because every writer stores the same value (derived from the same env).
extern std::atomic<int> g_checks_state;
bool checks_enabled_slow();
}  // namespace detail

// True unless the environment says MPSIM_CHECKS=off (cached on first call).
// Inline fast path: MPSIM_CHECK sites compile to a single load + predicted
// branch instead of a function call (this gate runs ~10x per event).
inline bool checks_enabled() {
  const int s = detail::g_checks_state.load(std::memory_order_relaxed);
  if (s != 0) [[likely]] return s == 1;
  return detail::checks_enabled_slow();
}

// Called on a failed check. Must not return; if it does, the process aborts.
using CheckHandler = void (*)(const char* file, int line, const char* expr,
                              const char* msg);

// Routes a failure to the current thread's handler (default: print + abort).
[[noreturn]] void check_failed(const char* file, int line, const char* expr,
                               const char* msg);

// Installs `h` as this thread's failure handler for the scope's lifetime.
class ScopedCheckHandler {
 public:
  explicit ScopedCheckHandler(CheckHandler h);
  ~ScopedCheckHandler();

  ScopedCheckHandler(const ScopedCheckHandler&) = delete;
  ScopedCheckHandler& operator=(const ScopedCheckHandler&) = delete;

 private:
  CheckHandler prev_;
};

// Thrown by the handler ScopedThrowingChecks installs.
class CheckFailureError : public std::runtime_error {
 public:
  explicit CheckFailureError(const std::string& what)
      : std::runtime_error(what) {}
};

// Convenience for tests: failed checks on this thread throw CheckFailureError
// (whose what() contains file:line, expression, and message).
class ScopedThrowingChecks : public ScopedCheckHandler {
 public:
  ScopedThrowingChecks();
};

}  // namespace mpsim

#define MPSIM_CHECK(cond, msg)                                   \
  do {                                                           \
    if (::mpsim::checks_enabled() && !(cond)) [[unlikely]] {     \
      ::mpsim::check_failed(__FILE__, __LINE__, #cond, (msg));   \
    }                                                            \
  } while (0)
