// Fixture: the handler itself is clean; the violation hides in a helper
// defined in another translation unit. A hard-coded list of hot files could
// never see this — the call graph must carry hotness across TUs into
// escape_helper.cpp.
void escape_helper(int n);

struct Delegator {
  void on_event() {
    escape_helper(3);
  }
};

// A hot static member function defined on one line: the `static` belongs
// to a function, not a variable, so mutable-global must stay quiet.
struct Bits {
  static int low(int v) { return v & 1; }
  void on_event() { last = low(last + 1); }
  int last = 0;
};
