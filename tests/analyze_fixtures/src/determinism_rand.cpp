// Fixture: unseeded randomness inside an event handler -> determinism-rand.
#include <cstdlib>

struct JitterSource {
  int jitter = 0;

  void on_event() {
    jitter = rand() % 7;
  }
};
