// Output formats for the flight recorder.
//
// A sink turns the recorder's chronological record stream into text. Sinks
// format into an in-memory buffer — flushing happens once, at run end, so a
// sink never does I/O (or anything else nondeterministic) while the
// simulation is running — and the buffer is then either inspected (tests)
// or written to a file (runner). Two formats plus a null
// sink:
//
//   CsvSink    header + one comma-separated row per record; the schema
//              tools/check_trace_schema.py validates in CI.
//   JsonlSink  one JSON object per line, keys matching the CSV columns.
//   NullSink   discards everything (measures recorder-side overhead).
//
// Formatting is locale-independent printf with fixed precision, so equal
// record streams produce byte-identical text on every platform/thread
// count — the property the determinism tests assert.
#pragma once

#include <memory>
#include <string>
#include <string_view>

#include "trace/record.hpp"

namespace mpsim::trace {

class TraceSink {
 public:
  virtual ~TraceSink() = default;

  virtual void begin() {}
  virtual void record(const Record& r, std::string_view obj_name) = 0;
  virtual void finish() {}

  // Everything formatted so far (empty for the null sink).
  const std::string& text() const { return out_; }

 protected:
  std::string out_;
};

class NullSink final : public TraceSink {
 public:
  void record(const Record&, std::string_view) override {}
};

class CsvSink final : public TraceSink {
 public:
  // The column set; header() == kHeader + '\n' starts every CSV trace.
  static constexpr const char* kHeader =
      "t_ns,type,obj,flow,sub,phase,a,b,x,y";

  void begin() override;
  void record(const Record& r, std::string_view obj_name) override;
};

class JsonlSink final : public TraceSink {
 public:
  void record(const Record& r, std::string_view obj_name) override;
};

enum class SinkKind : std::uint8_t { kNone = 0, kCsv, kJsonl, kNull };

std::unique_ptr<TraceSink> make_sink(SinkKind kind);  // not kNone
const char* sink_extension(SinkKind kind);            // ".csv" / ".jsonl"

// Write `body` to `path` (truncating); false, with the path on stderr,
// when the file cannot be written in full.
bool write_text_file(const std::string& path, const std::string& body);

}  // namespace mpsim::trace
