#include "trace/trace.hpp"

#include <string>
#include <utility>

#include "core/check.hpp"
#include "core/env.hpp"

namespace mpsim::trace {

TraceRecorder::TraceRecorder(Config cfg) {
  MPSIM_CHECK(cfg.capacity > 0, "trace ring capacity must be positive");
  ring_.resize(cfg.capacity);
}

TraceRecorder& TraceRecorder::install(EventList& events, Config cfg) {
  MPSIM_CHECK(find(events) == nullptr,
              "TraceRecorder::install: recorder already attached");
  // kTraceRecorderSlot holds a TraceRecorder or nothing, so the downcast is
  // safe by construction (same contract as PacketPool's slot).
  return static_cast<TraceRecorder&>(events.attach_service(
      EventList::kTraceRecorderSlot, std::make_unique<TraceRecorder>(cfg)));
}

TraceRecorder* TraceRecorder::find(const EventList& events) {
  return static_cast<TraceRecorder*>(
      events.service(EventList::kTraceRecorderSlot));
}

std::uint16_t TraceRecorder::register_object(std::string name) {
  MPSIM_CHECK(names_.size() < 0xffff, "trace object id space exhausted");
  // Registration: once per traced object at topology-construction time
  // (reachable from receive() only via lazy first-touch registration).
  // mpsim-analyze: allow(hot-alloc)
  names_.push_back(std::move(name));
  return static_cast<std::uint16_t>(names_.size() - 1);
}

const std::string& TraceRecorder::object_name(std::uint16_t id) const {
  // Records carry obj=0 by default; a stream mixing registered and
  // anonymous objects still flushes cleanly.
  static const std::string kUnknown = "?";
  return id < names_.size() ? names_[id] : kUnknown;
}

void TraceRecorder::flush(TraceSink& sink) const {
  sink.begin();
  std::size_t i = (write_ + ring_.size() - size_) % ring_.size();
  for (std::size_t n = 0; n < size_; ++n) {
    const Record& r = ring_[i];
    sink.record(r, object_name(r.obj));
    if (++i == ring_.size()) i = 0;
  }
  sink.finish();
}

SinkKind sink_from_env() {
  const std::string s = env::env_choice(
      "MPSIM_TRACE", "off", {"csv", "jsonl", "null", "off", "1", "on"});
  if (s == "csv" || s == "1" || s == "on") return SinkKind::kCsv;
  if (s == "jsonl") return SinkKind::kJsonl;
  if (s == "null") return SinkKind::kNull;
  return SinkKind::kNone;
}

TraceRecorder::Config config_from_env() {
  TraceRecorder::Config cfg;
  const std::int64_t n = env::env_int("MPSIM_TRACE_CAPACITY", 0, 0,
                                      std::int64_t{1} << 32);
  if (n > 0) cfg.capacity = static_cast<std::size_t>(n);
  return cfg;
}

}  // namespace mpsim::trace
