#include "core/check.hpp"

#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace mpsim {

namespace {

thread_local CheckHandler g_handler = nullptr;

[[noreturn]] void default_handler(const char* file, int line, const char* expr,
                                  const char* msg) {
  std::fprintf(stderr, "MPSIM_CHECK failed at %s:%d: %s (%s)\n", file, line,
               expr, msg);
  std::fflush(stderr);
  std::abort();
}

[[noreturn]] void throwing_handler(const char* file, int line,
                                   const char* expr, const char* msg) {
  throw CheckFailureError(std::string(file) + ":" + std::to_string(line) +
                          ": " + expr + " (" + msg + ")");
}

}  // namespace

namespace detail {

std::atomic<int> g_checks_state{0};

bool checks_enabled_slow() {
  // The simulator's one environment read (the analyzer's determinism-env
  // rule rejects any other): MPSIM_CHECKS=off turns checks off for
  // profiling, unset or "on" leaves them on, anything else is a typo that
  // would silently run the wrong configuration, so it stops the process.
  // mpsim-analyze: allow(determinism-env)
  const char* raw = std::getenv("MPSIM_CHECKS");
  if (raw != nullptr && std::strcmp(raw, "on") != 0 &&
      std::strcmp(raw, "off") != 0) {
    std::fprintf(stderr,
                 "mpsim: MPSIM_CHECKS='%s' is invalid: expected on or off\n",
                 raw);
    std::exit(2);
  }
  const bool enabled = raw == nullptr || std::strcmp(raw, "off") != 0;
  g_checks_state.store(enabled ? 1 : 2, std::memory_order_relaxed);
  return enabled;
}

}  // namespace detail

void check_failed(const char* file, int line, const char* expr,
                  const char* msg) {
  if (g_handler != nullptr) g_handler(file, line, expr, msg);
  default_handler(file, line, expr, msg);
}

ScopedCheckHandler::ScopedCheckHandler(CheckHandler h) : prev_(g_handler) {
  g_handler = h;
}

ScopedCheckHandler::~ScopedCheckHandler() { g_handler = prev_; }

ScopedThrowingChecks::ScopedThrowingChecks()
    : ScopedCheckHandler(&throwing_handler) {}

}  // namespace mpsim
