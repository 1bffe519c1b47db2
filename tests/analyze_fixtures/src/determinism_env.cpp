// Fixture: a tuning knob read from the environment -> determinism-env.
#include <cstdlib>

struct BurstConfig {
  int burst = 1;

  void load() {
    if (const char* raw = std::getenv("BURST")) burst = std::atoi(raw);
  }
};
