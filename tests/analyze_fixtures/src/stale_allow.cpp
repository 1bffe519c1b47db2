// Fixture: an allow comment in a cold function suppresses nothing ->
// stale-allow.
#include <vector>

struct ColdSetup {
  std::vector<int> table;

  void build() {
    // mpsim-analyze: allow(hot-alloc)
    table.push_back(1);
  }
};
