// Fixture: a handler builds an object with make_unique (allowed: once per
// flow open), and that object's constructor allocates. Only an edge from
// make_unique<T> to T's constructor puts the constructor in the hot set
// -> hot-alloc in Window::Window.
#include <memory>
#include <vector>

class Window {
 public:
  explicit Window(int n) {
    slots_.reserve(static_cast<unsigned>(n));
  }

 private:
  std::vector<int> slots_;
};

struct FlowOpener {
  std::unique_ptr<Window> window;

  void on_event() {
    // mpsim-analyze: allow(hot-alloc)
    window = std::make_unique<Window>(64);
  }
};
