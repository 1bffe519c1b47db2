// The flight recorder: a per-simulation, fixed-memory event trace.
//
// A TraceRecorder is an EventList service (one per simulation instance,
// like net::PacketPool), so parallel ExperimentRunner jobs each record into
// private memory and trace output is exactly as deterministic as the
// simulation itself — byte-identical across runs and thread counts.
//
// Design:
//   * Preallocated ring buffer of POD Records (trace/record.hpp). Appending
//     is a bump-and-store; when full, the oldest record is overwritten
//     (flight-recorder semantics) and counted, so a long run always keeps
//     its most recent window and never allocates mid-flight.
//   * Instrumentation sites go through MPSIM_TRACE(rec, builder): with no
//     recorder installed the site costs one predicted-not-taken branch on a
//     cached pointer — nothing is constructed, nothing is called.
//     (tools/mpsim_analyze's trace-discipline rule enforces that src/
//     never calls append_unchecked() directly outside src/trace/.)
//   * Nothing is formatted or written during the run; flush(sink) replays
//     the ring chronologically into a TraceSink (CSV/JSONL/null) at run
//     end.
//
// Lifetime contract: install() the recorder immediately after constructing
// the EventList, *before* building queues/connections — instrumented
// objects capture the recorder pointer at construction and an object built
// earlier records nothing.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "core/event_list.hpp"
#include "trace/record.hpp"
#include "trace/sinks.hpp"

namespace mpsim::trace {

class TraceRecorder final : public EventList::Service {
 public:
  struct Config {
    // Ring capacity in records (56 B each; the default holds the last
    // ~256k records in ~14 MB). A spec's [output] trace_capacity sets it
    // for `mpsim run`.
    std::size_t capacity = std::size_t{1} << 18;
  };

  explicit TraceRecorder(Config cfg);

  // Attach a recorder to `events`' simulation. Exactly once per EventList,
  // and before the instrumented topology is built.
  static TraceRecorder& install(EventList& events, Config cfg);
  static TraceRecorder& install(EventList& events) {
    return install(events, Config{});
  }
  // The simulation's recorder, or nullptr when tracing is disabled. This is
  // what instrumented constructors cache.
  static TraceRecorder* find(const EventList& events);

  // Interns `name` and returns the id instrumentation stamps into records.
  std::uint16_t register_object(std::string name);
  const std::string& object_name(std::uint16_t id) const;
  std::size_t object_count() const { return names_.size(); }

  // Raw ring append. Call via MPSIM_TRACE only — the macro is the null
  // check and the trace-discipline boundary.
  void append_unchecked(const Record& r) {
    ring_[write_] = r;
    if (++write_ == ring_.size()) write_ = 0;
    if (size_ < ring_.size()) {
      ++size_;
    } else {
      ++overwritten_;
    }
  }

  // Replay the held records, oldest first, through `sink` (begin/record*/
  // finish). const: flushing twice, or to several sinks, is fine.
  void flush(TraceSink& sink) const;

  std::size_t capacity() const { return ring_.size(); }
  std::size_t size() const { return size_; }
  // Records ever appended / lost to ring wraparound.
  std::uint64_t total_records() const { return size_ + overwritten_; }
  std::uint64_t overwritten() const { return overwritten_; }

 private:
  std::vector<Record> ring_;
  std::size_t write_ = 0;  // next append position
  std::size_t size_ = 0;   // records held (== capacity once wrapped)
  std::uint64_t overwritten_ = 0;
  std::vector<std::string> names_;
};

}  // namespace mpsim::trace

// The only sanctioned instrumentation hook. `rec` is the object's cached
// TraceRecorder pointer (nullptr = tracing off); `builder` is a
// trace/record.hpp builder call, evaluated only when tracing is on.
// Parenthesize builder calls whose argument lists contain template commas.
#define MPSIM_TRACE(rec, builder)            \
  do {                                       \
    if ((rec) != nullptr) [[unlikely]] {     \
      (rec)->append_unchecked(builder);      \
    }                                        \
  } while (0)
