// Fixture: a handler builds an object with make_unique (allowed: once per
// flow open), and that object's constructor allocates in its
// member-initializer list, not its body. The hot rules scan the list as
// part of the constructor -> hot-alloc in Label::Label.
#include <memory>
#include <string>

class Label {
 public:
  explicit Label(int n) : text_(std::to_string(n)) {}

 private:
  std::string text_;
};

struct Namer {
  std::unique_ptr<Label> label;

  void on_event() {
    // mpsim-analyze: allow(hot-alloc)
    label = std::make_unique<Label>(3);
  }
};
