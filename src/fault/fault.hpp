// Deterministic fault injection (§5 robustness: "uses unreliable paths well
// and moves traffic away from failed ones").
//
// A FaultPlan is a declarative list of typed fault events — link down/up,
// rate steps and ramps, loss bursts, queue drains and corrupt-drops, subflow
// resets — plus scripted flap trains and seeded-random outage processes.
// Events name topology elements; a TargetRegistry (populated by
// topo::Network as elements are built, and by the scenario engine for
// connections) resolves names to objects. The FaultInjector replays the
// plan inside the simulation's own EventList, so fault timing is exact,
// reproducible, and byte-identical across runner thread counts: random
// processes draw from a per-simulation Rng seeded from the run seed, never
// from shared state.
//
// A RecoveryMonitor (optional) watches the injector's outage edges and the
// tracked connections' delivered counters to measure what the paper's §5
// claims qualitatively: time-to-first-recovery after each outage, goodput
// retained while degraded, and how much data had to be reinjected.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/event_list.hpp"
#include "core/rng.hpp"
#include "core/time.hpp"

namespace mpsim::net {
class Queue;
class VariableRateQueue;
class LossyLink;
}  // namespace mpsim::net

namespace mpsim::mptcp {
class MptcpConnection;
}  // namespace mpsim::mptcp

namespace mpsim::trace {
class TraceRecorder;
}  // namespace mpsim::trace

namespace mpsim::fault {

// What a fault event does. The first block is the spec-facing grammar; the
// trailing entries are internal steps the injector synthesizes (loss-burst
// restores, ramp steps) and are never parsed from a plan.
enum class Action : std::uint8_t {
  kDown = 0,     // variable queue -> rate 0, remembering the prior rate
  kUp,           // restore the remembered rate (or an explicit one)
  kRate,         // set an explicit rate
  kRamp,         // step the rate to a target over a duration
  kLoss,         // set a LossyLink's drop probability
  kLossBurst,    // raise the drop probability for a duration, then restore
  kDrain,        // drop every waiting packet in a queue
  kCorrupt,      // drop up to N waiting packets (tail corruption)
  kReset,        // administratively reset one subflow of a connection
  kLossRestore,  // internal: end of a loss burst
  kRampStep,     // internal: one step of a ramp
};
const char* action_name(Action a);

// What kind of element a registered target is.
enum class TargetKind : std::uint8_t {
  kQueue,
  kVariableQueue,
  kLossyLink,
  kConnection,
};
const char* target_kind_name(TargetKind k);

struct Target {
  std::string name;
  TargetKind kind = TargetKind::kQueue;
  net::Queue* queue = nullptr;           // kQueue and kVariableQueue
  net::VariableRateQueue* vqueue = nullptr;  // kVariableQueue only
  net::LossyLink* lossy = nullptr;       // kLossyLink only
  mptcp::MptcpConnection* conn = nullptr;  // kConnection only
};

// Name -> element map. topo::Network registers queues, variable-rate
// queues and loss elements as it constructs them; connections are added by
// whoever owns them (the scenario engine, a test).
class TargetRegistry {
 public:
  void add_queue(const std::string& name, net::Queue& q);
  void add_variable_queue(const std::string& name, net::VariableRateQueue& q);
  void add_lossy(const std::string& name, net::LossyLink& l);
  void add_connection(const std::string& name, mptcp::MptcpConnection& c);

  const Target* find(const std::string& name) const;
  std::size_t size() const { return targets_.size(); }
  const std::vector<Target>& targets() const { return targets_; }
  // Comma-joined registered names, for "unknown target" diagnostics.
  std::string known_names() const;

 private:
  void add(Target t);
  std::vector<Target> targets_;
};

// One scripted fault. Interpretation of value/duration/count per action:
//   kDown                                   (none)
//   kUp         value = rate bps, or < 0 to restore the pre-down rate
//   kRate       value = rate bps
//   kRamp       value = target rate bps, duration = ramp time, count = steps
//   kLoss       value = drop probability
//   kLossBurst  value = drop probability, duration = burst length
//   kDrain                                  (none)
//   kCorrupt    count = packets to drop
//   kReset      count = subflow index
struct FaultEvent {
  SimTime at = 0;
  Action action = Action::kDown;
  std::string target;
  double value = -1.0;
  SimTime duration = 0;
  int count = 0;
};

// A seeded-random outage process on one variable-rate queue: alternating
// exponential up/down periods, generated until `until`. `salt` is mixed
// with the run seed so two processes in one plan draw independent streams
// while the whole plan stays a pure function of the run seed.
struct RandomOutage {
  std::string target;
  SimTime mean_up = 0;
  SimTime mean_down = 0;
  SimTime until = 0;
  std::uint64_t salt = 0;
};

struct FaultPlan {
  std::vector<FaultEvent> events;
  std::vector<RandomOutage> random;

  bool empty() const { return events.empty() && random.empty(); }
};

// Expand a flap train (down `down_time` out of every `period`, `count`
// times, starting at `start`) into its down/up event pairs.
std::vector<FaultEvent> flap_train(const std::string& target, SimTime start,
                                   SimTime period, SimTime down_time,
                                   int count);

class RecoveryMonitor;

// Replays a FaultPlan against a TargetRegistry. Construct after the
// topology (and any connection targets) exist and before running; the
// injector schedules itself for the first event and walks the timeline.
// Every applied action emits a kFault trace record when a flight recorder
// is installed.
class FaultInjector final : public EventSource {
 public:
  FaultInjector(EventList& events, const TargetRegistry& targets,
                FaultPlan plan, std::uint64_t run_seed,
                RecoveryMonitor* monitor = nullptr);

  void on_event() override;

  std::uint64_t events_applied() const { return applied_; }

 private:
  struct Step {
    SimTime at = 0;
    Action action = Action::kDown;
    const Target* target = nullptr;
    double value = -1.0;
    SimTime duration = 0;
    int count = 0;
  };
  // Per-target state the injector remembers across steps.
  struct TargetState {
    double saved_rate = -1.0;  // rate before kDown (< 0 = not down)
    double saved_loss = -1.0;  // probability before kLossBurst
    std::uint16_t trace_id = 0;
  };

  void apply(const Step& s);
  void schedule_next();
  TargetState& state_of(const Target* t);

  EventList& events_;
  std::vector<Step> timeline_;  // sorted by time, plan order within a tick
  std::size_t next_ = 0;
  std::vector<const Target*> state_keys_;
  std::vector<TargetState> states_;
  RecoveryMonitor* monitor_;
  std::uint64_t applied_ = 0;
  trace::TraceRecorder* trace_ = nullptr;
};

// Recovery accounting over a set of connections. The injector reports
// degradation edges (outage/burst starts and ends); the monitor samples the
// connections' cumulative delivered counters at those edges and, after each
// outage ends, polls until delivery advances to measure time-to-recovery.
// Polls are read-only: they never perturb simulation behaviour.
class RecoveryMonitor final : public EventSource {
 public:
  RecoveryMonitor(EventList& events, SimTime poll_interval);

  void track(const mptcp::MptcpConnection& conn);

  // Degradation edges, called by the injector (kDown/kUp, kLossBurst and
  // its restore). Nesting is ref-counted: overlapping faults on different
  // targets extend one degraded interval.
  void on_degradation_start();
  void on_degradation_end();
  // Outage edges (kDown/kUp only): each completed outage starts a
  // time-to-recovery watch.
  void on_outage_start();
  void on_outage_end();

  void on_event() override;

  // Close the books at the end of the measurement. Idempotent.
  void finalize();

  // --- results --------------------------------------------------------
  std::uint64_t outages() const { return outages_; }
  std::uint64_t recoveries() const { return recoveries_; }
  double mean_ttr_sec() const;
  double max_ttr_sec() const { return max_ttr_sec_; }
  double degraded_sec() const { return to_sec(degraded_time_); }
  // Goodput rate while degraded relative to the clean-period rate, in
  // [0, inf); 1.0 when nothing was degraded (or nothing was clean).
  double degraded_goodput_fraction() const;

 private:
  std::uint64_t delivered_now() const;

  EventList& events_;
  SimTime poll_interval_;
  std::vector<const mptcp::MptcpConnection*> conns_;

  SimTime tracked_from_ = 0;
  int depth_ = 0;
  SimTime degraded_from_ = 0;
  std::uint64_t degraded_base_pkts_ = 0;
  SimTime degraded_time_ = 0;
  std::uint64_t degraded_pkts_ = 0;
  SimTime finalized_at_ = kNever;

  std::uint64_t outages_ = 0;
  std::uint64_t recoveries_ = 0;
  double ttr_total_sec_ = 0.0;
  double max_ttr_sec_ = 0.0;

  // Pending time-to-recovery watches (outage end times), oldest first.
  std::vector<SimTime> watches_;
  std::uint64_t watch_base_pkts_ = 0;
  bool poll_pending_ = false;
};

}  // namespace mpsim::fault
