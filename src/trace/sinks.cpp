#include "trace/sinks.hpp"

#include <cinttypes>
#include <cstdio>

#include "core/check.hpp"

namespace mpsim::trace {

namespace {

// %.10g round-trips every value the simulator produces (windows are sums of
// small rationals, rates are configured constants) while keeping rows
// readable; printf %g is locale-independent for the "C" decimal point the
// simulator never changes.
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

void CsvSink::begin() {
  out_ += kHeader;
  out_ += '\n';
}

void CsvSink::record(const Record& r, std::string_view obj_name) {
  // Object names are simulator identifiers ("mp/sf0", "wifi") — no commas,
  // quotes, or newlines by construction; checked rather than escaped.
  MPSIM_CHECK(obj_name.find_first_of(",\"\n") == std::string_view::npos,
              "trace object name would corrupt the CSV row");
  append_i64(out_, r.t);
  out_ += ',';
  out_ += record_type_name(r.type);
  out_ += ',';
  out_.append(obj_name.data(), obj_name.size());
  out_ += ',';
  append_u64(out_, r.flow);
  out_ += ',';
  append_u64(out_, r.sub);
  out_ += ',';
  append_u64(out_, r.phase);
  out_ += ',';
  append_u64(out_, r.a);
  out_ += ',';
  append_u64(out_, r.b);
  out_ += ',';
  append_real(out_, r.x);
  out_ += ',';
  append_real(out_, r.y);
  out_ += '\n';
}

void JsonlSink::record(const Record& r, std::string_view obj_name) {
  MPSIM_CHECK(obj_name.find_first_of("\"\\\n") == std::string_view::npos,
              "trace object name would corrupt the JSONL row");
  out_ += "{\"t\":";
  append_i64(out_, r.t);
  out_ += ",\"type\":\"";
  out_ += record_type_name(r.type);
  out_ += "\",\"obj\":\"";
  out_.append(obj_name.data(), obj_name.size());
  out_ += "\",\"flow\":";
  append_u64(out_, r.flow);
  out_ += ",\"sub\":";
  append_u64(out_, r.sub);
  out_ += ",\"phase\":";
  append_u64(out_, r.phase);
  out_ += ",\"a\":";
  append_u64(out_, r.a);
  out_ += ",\"b\":";
  append_u64(out_, r.b);
  out_ += ",\"x\":";
  append_real(out_, r.x);
  out_ += ",\"y\":";
  append_real(out_, r.y);
  out_ += "}\n";
}

std::unique_ptr<TraceSink> make_sink(SinkKind kind) {
  MPSIM_CHECK(kind != SinkKind::kNone,
              "make_sink(kNone): caller must gate on the sink kind");
  if (kind == SinkKind::kJsonl) return std::make_unique<JsonlSink>();
  return std::make_unique<CsvSink>();
}

const char* sink_extension(SinkKind kind) {
  return kind == SinkKind::kJsonl ? ".jsonl" : ".csv";
}

bool write_text_file(const std::string& path, const std::string& body) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  bool ok = f != nullptr &&
            std::fwrite(body.data(), 1, body.size(), f) == body.size();
  if (f != nullptr) ok = std::fclose(f) == 0 && ok;
  if (!ok) std::fprintf(stderr, "error: cannot write %s\n", path.c_str());
  return ok;
}

}  // namespace mpsim::trace
