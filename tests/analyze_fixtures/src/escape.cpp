// Fixture: the handler itself is clean; the violation hides in a helper
// defined in another translation unit. The hard-coded-file-list lint could
// never see this — the call graph must carry hotness across TUs into
// escape_helper.cpp.
void escape_helper(int n);

struct Delegator {
  void on_event() {
    escape_helper(3);
  }
};

// A hot static member function defined on one line: the `static` belongs
// to its signature, not its body, so hot-static must stay quiet.
struct Bits {
  static int low(int v) { return v & 1; }
  void on_event() { last = low(last + 1); }
  int last = 0;
};
