// Element factory/owner for building topologies.
//
// A Network owns queues, pipes and loss elements; topology classes use it
// to assemble directed links and hand out Paths (ordered element lists) for
// connections to ride. A unidirectional "link" is a Queue (serialization +
// buffering) feeding a Pipe (propagation).
//
// ACK return paths in the experiment topologies are pipes only: 40-byte
// ACKs at the data rates simulated here load the reverse direction by under
// 3%, and none of the paper's scenarios congest the ACK direction. This
// halves the event count of every experiment.
#pragma once

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/event_list.hpp"
#include "core/rng.hpp"
#include "fault/fault.hpp"
#include "net/cbr.hpp"
#include "net/lossy_link.hpp"
#include "net/packet.hpp"
#include "net/pipe.hpp"
#include "net/queue.hpp"
#include "net/variable_rate_queue.hpp"

namespace mpsim::topo {

using Path = std::vector<net::PacketSink*>;

// (forward, ACK-return) element lists for one subflow.
using PathPair = std::pair<Path, Path>;

// One direction of a link.
struct Link {
  net::Queue* queue = nullptr;
  net::Pipe* pipe = nullptr;
};

class Network {
 public:
  explicit Network(EventList& events) : events_(events) {}

  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  EventList& events() { return events_; }

  net::Queue& add_queue(const std::string& name, double rate_bps,
                        std::uint64_t buf_bytes) {
    queues_.push_back(
        std::make_unique<net::Queue>(events_, name, rate_bps, buf_bytes));
    faults_.add_queue(name, *queues_.back());
    return *queues_.back();
  }

  net::VariableRateQueue& add_variable_queue(const std::string& name,
                                             double rate_bps,
                                             std::uint64_t buf_bytes) {
    vqueues_.push_back(std::make_unique<net::VariableRateQueue>(
        events_, name, rate_bps, buf_bytes));
    faults_.add_variable_queue(name, *vqueues_.back());
    return *vqueues_.back();
  }

  net::Pipe& add_pipe(const std::string& name, SimTime delay) {
    pipes_.push_back(std::make_unique<net::Pipe>(events_, name, delay));
    return *pipes_.back();
  }

  // Test reference: switch every pipe created so far to one wake-up per
  // packet (false) or back to head-armed service (true). Call after all
  // topology and per-path elements exist, before the run.
  void set_pipes_batched(bool batched) {
    for (auto& p : pipes_) p->set_batched(batched);
  }

  net::LossyLink& add_lossy(const std::string& name, double loss_prob,
                            std::uint64_t seed) {
    lossy_.push_back(
        std::make_unique<net::LossyLink>(events_, name, loss_prob, seed));
    faults_.add_lossy(name, *lossy_.back());
    return *lossy_.back();
  }

  // Queue -> Pipe pair modelling one direction of a link.
  Link add_link(const std::string& name, double rate_bps, SimTime delay,
                std::uint64_t buf_bytes) {
    Link link;
    link.queue = &add_queue(name + "/q", rate_bps, buf_bytes);
    link.pipe = &add_pipe(name + "/p", delay);
    return link;
  }

  // Like add_link, but with a variable-rate queue so the link is a valid
  // target for down/up/rate/ramp faults. Identical behaviour at a constant
  // rate.
  Link add_variable_link(const std::string& name, double rate_bps,
                         SimTime delay, std::uint64_t buf_bytes) {
    Link link;
    link.queue = &add_variable_queue(name + "/q", rate_bps, buf_bytes);
    link.pipe = &add_pipe(name + "/p", delay);
    return link;
  }

  // Fault-target name -> element map, populated as elements are built.
  fault::TargetRegistry& fault_targets() { return faults_; }
  const fault::TargetRegistry& fault_targets() const { return faults_; }

 private:
  EventList& events_;
  fault::TargetRegistry faults_;
  std::vector<std::unique_ptr<net::Queue>> queues_;
  std::vector<std::unique_ptr<net::VariableRateQueue>> vqueues_;
  std::vector<std::unique_ptr<net::Pipe>> pipes_;
  std::vector<std::unique_ptr<net::LossyLink>> lossy_;
};

// What traffic needs from a built topology: its natural flow slots (5 ring
// flows on the torus, 1 client on a two-link), each with an ordered list
// of candidate paths; host addressing for datacenter fabrics; and a queue
// inventory for loss metrics. Every topology class implements it.
class Topology {
 public:
  virtual ~Topology() = default;

  // Natural flow slots for persistent traffic; 0 = matrix traffic only.
  virtual int flow_slots() const { return 0; }

  // Up to `n` (fwd, rev) path pairs for flow slot `slot`, in the
  // topology's canonical path order (so "path 0"/"path 1" in a spec mean
  // what the paper's figures mean).
  virtual std::vector<PathPair> flow_paths(int /*slot*/, int /*n*/) {
    return {};
  }

  // Host-addressable fabrics (FatTree, BCube): up to `n` sampled path
  // pairs from host `src` to `dst`; 0 hosts = not addressable.
  virtual int num_hosts() const { return 0; }
  virtual std::vector<PathPair> host_paths(int /*src*/, int /*dst*/,
                                           int /*n*/, Rng& /*rng*/) {
    return {};
  }

  // BCube TP2-style neighbour traffic matrix; empty = unsupported.
  virtual std::vector<std::pair<int, int>> neighbor_pairs() const {
    return {};
  }

  // Bottleneck queues in a stable order, for loss metrics and stat resets.
  virtual std::vector<net::Queue*> queues() = 0;
};

// Path assembly helpers.
inline void append_link(Path& path, const Link& link) {
  path.push_back(link.queue);
  path.push_back(link.pipe);
}

inline Path path_of(std::initializer_list<const Link*> links) {
  Path p;
  for (const Link* l : links) append_link(p, *l);
  return p;
}

// The first `n` of a flow slot's canonical path pairs.
inline std::vector<PathPair> first_paths(std::vector<PathPair> pairs, int n) {
  if (n >= 0 && static_cast<std::size_t>(n) < pairs.size()) {
    pairs.resize(static_cast<std::size_t>(n));
  }
  return pairs;
}

// Buffer sizing helper: `bdp_multiple` bandwidth-delay products, in bytes.
inline std::uint64_t bdp_bytes(double rate_bps, SimTime rtt,
                               double bdp_multiple = 1.0) {
  const double bytes = rate_bps / 8.0 * to_sec(rtt) * bdp_multiple;
  return static_cast<std::uint64_t>(bytes) + net::kDataPacketBytes;
}

inline double pkts_per_sec_to_bps(double pps) {
  return pps * net::kDataPacketBytes * 8.0;
}

}  // namespace mpsim::topo
