// Goodput measurement over a set of connections: snapshot delivered
// counters at mark(), read per-connection Mb/s later. The scenario engine
// meters every run with it; the tests use the same arithmetic.
#pragma once

#include <cstdint>
#include <vector>

#include "core/event_list.hpp"
#include "mptcp/connection.hpp"

namespace mpsim::stats {

// Measure the delivered goodput of each connection between warmup and end.
class GoodputMeter {
 public:
  explicit GoodputMeter(EventList& events) : events_(events) {}

  void track(const mptcp::MptcpConnection& conn) { conns_.push_back(&conn); }

  void mark();

  // Per-connection Mb/s since mark(). A zero-length measurement window
  // (mark() at measurement end, or mark() never called after time advanced)
  // yields 0.0 per connection rather than a NaN/inf rate.
  std::vector<double> mbps() const;

  std::size_t tracked() const { return conns_.size(); }

 private:
  EventList& events_;
  std::vector<const mptcp::MptcpConnection*> conns_;
  std::vector<std::uint64_t> base_;
  SimTime t0_ = 0;
};

}  // namespace mpsim::stats
