// Fixture: wall-clock read inside an event handler -> determinism-clock.
#include <chrono>

struct LatencyProbe {
  long long last_ns = 0;

  void on_event() {
    const auto now = std::chrono::steady_clock::now();
    last_ns = now.time_since_epoch().count();
  }
};
