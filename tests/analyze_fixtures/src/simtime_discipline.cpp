// Fixture: hand-scaled SimTime unit factor -> simtime-discipline.
using SimTime = long long;

struct Rescheduler {
  SimTime next = 0;

  void on_event() {
    const double seconds = 0.25;
    next = static_cast<SimTime>(seconds * 1e9);
  }
};
