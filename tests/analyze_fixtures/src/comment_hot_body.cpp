// Fixture (negative control): an allocating call inside a block comment in
// a hot handler.
#include <vector>

struct QuietSampler {
  std::vector<int> samples;
  int ticks = 0;

  void on_event() {
    /* samples.push_back(1); grows on the dispatch path, so it is off */
    ++ticks;
  }
};
