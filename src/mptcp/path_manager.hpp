// Path management: the policy layer that decides which paths a multipath
// connection uses, mirroring the component the MPTCP Linux kernel work
// treats as a peer of the coupled congestion controller (and htsim's
// SubflowControl scan loop).
//
// A PathManager owns a connection's subflow-*set* decisions while the
// connection owns the subflows themselves:
//
//   * which candidate paths to open when the connection starts
//     (`fullmesh` opens all of them, `ndiffports(n)` opens n subflows
//     cycling over the registered paths, `threshold` starts with one);
//   * when to add one mid-transfer (the `threshold` strategy opens the
//     next unused candidate each time another `add_threshold_bytes` of
//     data is delivered — the byte-counter trigger htsim uses);
//   * when to declare a subflow dead (RTOs keep firing with no forward
//     progress) and drop it, and when to re-probe it after a backoff.
//
// The manager is a periodic EventSource: every `scan_period` it inspects
// the per-subflow timeout/ack counters the subflows already maintain. It
// keeps no per-packet state and does nothing on the data path, so its cost
// is O(subflows) per scan regardless of rate. Scanning stops once the
// connection's transfer completes, letting the event list drain (a
// prerequisite for churn-scale flow reclamation).
#pragma once

#include <cstdint>
#include <vector>

#include "core/event_list.hpp"
#include "core/time.hpp"
#include "net/packet.hpp"

namespace mpsim::mptcp {

class MptcpConnection;

enum class PathStrategy : std::uint8_t {
  kFullMesh,    // open every registered candidate path at start
  kNDiffPorts,  // open exactly n subflows, cycling over the candidates
  kThreshold,   // start with one; add per delivered-bytes threshold
};

struct PathManagerConfig {
  PathStrategy strategy = PathStrategy::kThreshold;
  // kNDiffPorts: subflows to open (candidates are reused modulo their
  // count, like ndiffports' multiple 5-tuples over one physical path).
  std::size_t ndiffports = 2;
  // kThreshold: delivered bytes per additional subflow; 0 disables adds.
  std::uint64_t add_threshold_bytes = 1u << 20;
  // Hard cap on the connection's subflow count, all strategies.
  std::size_t max_subflows = 8;
  // Scan cadence for the byte-counter and dead-path checks.
  SimTime scan_period = from_ms(100);
  // How long a dropped subflow stays down before being re-probed.
  SimTime reprobe_backoff = from_sec(1);
  // Consecutive RTOs with no new packets acked before a subflow is
  // declared dead (only ever dropped while an active sibling remains).
  std::uint32_t dead_after_rtos = 3;
};

class PathManager final : public EventSource {
 public:
  // `conn` must outlive the manager; in practice the connection owns it
  // (MptcpConnection::attach_path_manager).
  PathManager(EventList& events, MptcpConnection& conn,
              const PathManagerConfig& cfg);
  ~PathManager() override;

  // Register a path the manager may open a subflow on. `fwd`/`rev` are
  // the network elements between the endpoints, exactly as passed to
  // MptcpConnection::add_subflow. Candidates are opened in registration
  // order; subflows the caller opened directly are left alone (they are
  // still watched for death/re-probe).
  void add_candidate(std::vector<net::PacketSink*> fwd,
                     std::vector<net::PacketSink*> rev);

  // Begin managing at `at`: the strategy's initial subflows are opened at
  // that time, then scans run every scan_period. Called automatically by
  // MptcpConnection::start for an attached manager.
  void start(SimTime at);

  // EventSource: the periodic scan.
  void on_event() override;

  const PathManagerConfig& config() const { return cfg_; }

  // --- stats ---
  std::uint64_t subflows_opened() const { return opened_; }
  std::uint64_t subflows_dropped() const { return dropped_; }
  std::uint64_t reprobes() const { return reprobes_; }

 private:
  struct Candidate {
    std::vector<net::PacketSink*> fwd;
    std::vector<net::PacketSink*> rev;
  };
  // Dead-path detection state, one per connection subflow (positional).
  struct Watch {
    std::uint64_t last_timeouts = 0;
    std::uint64_t last_acked = 0;
    std::uint32_t stalled_rtos = 0;  // RTOs since the last acked advance
    SimTime dropped_at = kNever;     // set while the manager holds it down
  };

  void open_initial();
  void open_next_candidate();
  void scan();

  EventList& events_;
  MptcpConnection& conn_;
  PathManagerConfig cfg_;
  std::vector<Candidate> candidates_;
  std::size_t next_candidate_ = 0;
  std::vector<Watch> watch_;
  bool started_ = false;
  bool opened_initial_ = false;
  std::uint64_t last_add_bytes_ = 0;
  std::uint64_t opened_ = 0;
  std::uint64_t dropped_ = 0;
  std::uint64_t reprobes_ = 0;
};

}  // namespace mpsim::mptcp
