// Fixture: mutable static data members, declared indented inside a class,
// in both specifier orders -> mutable-global (twice).
#include <cstdint>

struct FlowIds {
  static inline int calls = 0;
  inline static std::uint64_t total = 0;
};
