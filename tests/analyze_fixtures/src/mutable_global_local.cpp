// Fixture: function-local static mutable state in a cold function ->
// mutable-global. Simulations on other worker threads run the same setup
// code, so coldness does not make the counter race-free.
struct TopologyCounter {
  int next_id() {
    static int calls = 0;
    return ++calls;
  }
};
