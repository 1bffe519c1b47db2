#include "trace/trace.hpp"

#include <cinttypes>
#include <cstdio>
#include <string>
#include <utility>

#include "core/check.hpp"

namespace mpsim::trace {

namespace {

void append_real(std::string& out, double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.10g", v);
  out += buf;
}

void append_u64(std::string& out, std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%" PRIu64, v);
  out += buf;
}

void append_i64(std::string& out, std::int64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%" PRId64, v);
  out += buf;
}

}  // namespace

const char* record_type_name(RecordType t) {
  switch (t) {
    case RecordType::kCwnd: return "cwnd";
    case RecordType::kState: return "state";
    case RecordType::kQueue: return "queue";
    case RecordType::kQueueDrop: return "queue_drop";
    case RecordType::kLinkDrop: return "link_drop";
    case RecordType::kRate: return "rate";
    case RecordType::kDataAck: return "data_ack";
    case RecordType::kRcvBuf: return "rcv_buf";
    case RecordType::kReinject: return "reinject";
    case RecordType::kGoodput: return "goodput";
    case RecordType::kFault: return "fault";
    case RecordType::kSubflowAdd: return "subflow_add";
    case RecordType::kSubflowDrop: return "subflow_drop";
    case RecordType::kRateSample: return "rate_sample";
    case RecordType::kPacing: return "pacing";
  }
  return "unknown";
}

TraceRecorder::TraceRecorder(std::size_t capacity) {
  MPSIM_CHECK(capacity > 0, "trace ring capacity must be positive");
  ring_.resize(capacity);
}

TraceRecorder& TraceRecorder::install(EventList& events,
                                      std::size_t capacity) {
  MPSIM_CHECK(find(events) == nullptr,
              "TraceRecorder::install: recorder already attached");
  // kTraceRecorderSlot holds a TraceRecorder or nothing, so the downcast is
  // safe by construction (same contract as PacketPool's slot).
  return static_cast<TraceRecorder&>(events.attach_service(
      EventList::kTraceRecorderSlot,
      std::make_unique<TraceRecorder>(capacity)));
}

TraceRecorder* TraceRecorder::find(const EventList& events) {
  return static_cast<TraceRecorder*>(
      events.service(EventList::kTraceRecorderSlot));
}

std::uint16_t TraceRecorder::register_object(std::string name) {
  MPSIM_CHECK(names_.size() < 0xffff, "trace object id space exhausted");
  // Object names are simulator identifiers ("mp/sf0", "wifi"): no commas,
  // quotes or newlines by construction; checked rather than escaped.
  MPSIM_CHECK(name.find_first_of(",\"\n") == std::string::npos,
              "trace object name would corrupt the CSV row");
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

std::string TraceRecorder::csv() const {
  std::string out = kCsvHeader;
  out += '\n';
  std::size_t i = (write_ + ring_.size() - size_) % ring_.size();
  for (std::size_t n = 0; n < size_; ++n) {
    const Record& r = ring_[i];
    append_i64(out, r.t);
    out += ',';
    out += record_type_name(r.type);
    out += ',';
    out += object_name(r.obj);
    out += ',';
    append_u64(out, r.flow);
    out += ',';
    append_u64(out, r.sub);
    out += ',';
    append_u64(out, r.phase);
    out += ',';
    append_u64(out, r.a);
    out += ',';
    append_u64(out, r.b);
    out += ',';
    append_real(out, r.x);
    out += ',';
    append_real(out, r.y);
    out += '\n';
    if (++i == ring_.size()) i = 0;
  }
  return out;
}

}  // namespace mpsim::trace
