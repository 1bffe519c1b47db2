// Fixture: a bare assert(), which compiles away under NDEBUG ->
// no-bare-assert.
#include <cassert>

int checked_half(int v) {
  assert(v % 2 == 0);
  return v / 2;
}
