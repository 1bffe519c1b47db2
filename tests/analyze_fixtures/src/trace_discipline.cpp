// Fixture: an instrumentation site that bypasses MPSIM_TRACE ->
// trace-discipline.
#include "trace/trace.hpp"

struct NoisyQueue {
  mpsim::trace::TraceRecorder* trace_ = nullptr;

  void sample(const mpsim::trace::Record& record) {
    trace_->append_unchecked(record);
  }
};
