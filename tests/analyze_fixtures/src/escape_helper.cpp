// Fixture (second half of escape.cpp): allocation in a helper that is only
// hot because a handler in another file calls it -> hot-alloc here.
#include <memory>

void escape_helper(int n) {
  auto scratch = std::make_unique<int[]>(static_cast<unsigned>(n));
  scratch[0] = n;
}
