// Fixture: a handler constructs a Batch by name (an edge to its
// constructor), and the constructor's member-initializer list calls an
// allocating helper. Only init-list call edges make the helper hot
// -> hot-alloc in make_slots.
#include <vector>

std::vector<int> make_slots(int n) {
  std::vector<int> slots;
  slots.resize(static_cast<unsigned>(n));
  return slots;
}

class Batch {
 public:
  explicit Batch(int n) : slots_(make_slots(n)) {}
  int size() const { return static_cast<int>(slots_.size()); }

 private:
  std::vector<int> slots_;
};

struct Refill {
  int total = 0;

  void on_event() {
    const Batch batch = Batch(8);
    total += batch.size();
  }
};
