// Fixture: code after a block comment closes, on the comment's last line
// -> determinism-rand.
#include <cstdlib>

int roll_twice() {
  /* the seeded mpsim::Rng is not used
     here */ int y = rand();
  return y + y;
}
