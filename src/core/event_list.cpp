#include "core/event_list.hpp"

#include "core/check.hpp"

namespace mpsim {

EventList::EventList() = default;

EventList::Service& EventList::attach_service(std::size_t slot,
                                              std::unique_ptr<Service> s) {
  MPSIM_CHECK(slot < kServiceSlots, "service slot out of range");
  MPSIM_CHECK(!services_[slot], "simulation service already attached");
  services_[slot] = std::move(s);
  return *services_[slot];
}

std::size_t EventList::cancel(const EventSource& src) {
  return wheel_.cancel(&src);
}

bool EventList::run_one() {
  TimingWheel::Entry e{};
  if (!wheel_.pop_if_before(kNever, e)) return false;
  dispatch(e);
  return true;
}

void EventList::run_until(SimTime t) {
  TimingWheel::Entry e{};
  while (wheel_.pop_if_before(t, e)) dispatch(e);
  if (now_ < t) now_ = t;
}

void EventList::run_all() {
  while (run_one()) {
  }
}

}  // namespace mpsim
