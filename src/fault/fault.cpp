#include "fault/fault.hpp"

#include <algorithm>
#include <functional>
#include <limits>
#include <utility>

#include "core/check.hpp"
#include "mptcp/connection.hpp"
#include "net/lossy_link.hpp"
#include "net/queue.hpp"
#include "net/variable_rate_queue.hpp"
#include "trace/record.hpp"
#include "trace/trace.hpp"

namespace mpsim::fault {

const char* target_kind_name(TargetKind k) {
  switch (k) {
    case TargetKind::kQueue: return "queue";
    case TargetKind::kVariableQueue: return "variable-rate queue";
    case TargetKind::kLossyLink: return "loss element";
    case TargetKind::kConnection: return "connection";
  }
  return "unknown";
}

bool accepts(Action a, TargetKind k) {
  switch (a) {
    case Action::kDown:
    case Action::kUp:
    case Action::kRate:
    case Action::kRamp:
      return k == TargetKind::kVariableQueue;
    case Action::kLoss:
    case Action::kLossBurst:
      return k == TargetKind::kLossyLink;
    case Action::kDrain:
    case Action::kCorrupt:
      return k == TargetKind::kQueue || k == TargetKind::kVariableQueue;
    case Action::kReset:
      return k == TargetKind::kConnection;
    case Action::kLossRestore:
    case Action::kRampStep:
      break;
  }
  return false;
}

std::size_t TargetRegistry::slot_of(std::string_view name) const {
  const std::size_t mask = index_.size() - 1;
  std::size_t slot = std::hash<std::string_view>{}(name) & mask;
  while (index_[slot] != 0 && targets_[index_[slot] - 1].name != name) {
    slot = (slot + 1) & mask;
  }
  return slot;
}

void TargetRegistry::add(Target t) {
  if (2 * (targets_.size() + 1) > index_.size()) {
    // Double and re-index in registration order, so a name listed twice
    // (checks off, below) still indexes its first registration.
    index_.assign(std::max<std::size_t>(16, 2 * index_.size()), 0);
    for (std::size_t i = 0; i < targets_.size(); ++i) {
      std::uint32_t& pos = index_[slot_of(targets_[i].name)];
      if (pos == 0) pos = static_cast<std::uint32_t>(i + 1);
    }
  }
  std::uint32_t& pos = index_[slot_of(t.name)];
  MPSIM_CHECK(pos == 0, "fault target names must be unique per simulation");
  // With checks off a duplicate is listed but not indexed: find() keeps
  // answering with the first registration of its name.
  if (pos == 0) pos = static_cast<std::uint32_t>(targets_.size() + 1);
  targets_.push_back(std::move(t));
}

void TargetRegistry::add_queue(const std::string& name, net::Queue& q) {
  Target t;
  t.name = name;
  t.kind = TargetKind::kQueue;
  t.queue = &q;
  add(std::move(t));
}

void TargetRegistry::add_variable_queue(const std::string& name,
                                        net::VariableRateQueue& q) {
  Target t;
  t.name = name;
  t.kind = TargetKind::kVariableQueue;
  t.queue = &q;
  t.vqueue = &q;
  add(std::move(t));
}

void TargetRegistry::add_lossy(const std::string& name, net::LossyLink& l) {
  Target t;
  t.name = name;
  t.kind = TargetKind::kLossyLink;
  t.lossy = &l;
  add(std::move(t));
}

void TargetRegistry::add_connection(const std::string& name,
                                    mptcp::MptcpConnection& c) {
  Target t;
  t.name = name;
  t.kind = TargetKind::kConnection;
  t.conn = &c;
  add(std::move(t));
}

const Target* TargetRegistry::find(const std::string& name) const {
  if (index_.empty()) return nullptr;
  const std::uint32_t pos = index_[slot_of(name)];
  return pos == 0 ? nullptr : &targets_[pos - 1];
}

std::string TargetRegistry::known_names() const {
  std::string out;
  for (const Target& t : targets_) {
    if (!out.empty()) out += ", ";
    out += t.name;
  }
  return out;
}

std::vector<FaultEvent> flap_train(const std::string& target, SimTime start,
                                   SimTime period, SimTime down_time,
                                   int count) {
  MPSIM_CHECK(period > down_time && down_time > 0 && count >= 1,
              "flap train needs 0 < down < period and count >= 1");
  std::vector<FaultEvent> events;
  events.reserve(static_cast<std::size_t>(count) * 2);
  for (int k = 0; k < count; ++k) {
    const SimTime t = start + static_cast<SimTime>(k) * period;
    FaultEvent down;
    down.at = t;
    down.action = Action::kDown;
    down.target = target;
    events.push_back(down);
    FaultEvent up;
    up.at = t + down_time;
    up.action = Action::kUp;
    up.target = target;
    events.push_back(up);
  }
  return events;
}

FaultInjector::FaultInjector(EventList& events, const TargetRegistry& targets,
                             FaultPlan plan, std::uint64_t run_seed,
                             RecoveryMonitor* monitor)
    : EventSource(events, "fault/injector"), events_(events), monitor_(monitor) {
  auto resolve = [&targets](const std::string& name) {
    const Target* t = targets.find(name);
    MPSIM_CHECK(t != nullptr, "fault plan names an unregistered target");
    return t;
  };
  for (const FaultEvent& e : plan.events) {
    Step s;
    s.at = e.at;
    s.action = e.action;
    s.target = resolve(e.target);
    s.value = e.value;
    s.duration = e.duration;
    s.count = e.count;
    MPSIM_CHECK(accepts(s.action, s.target->kind),
                "fault action does not act on its target's kind");
    timeline_.push_back(s);
    if (e.action == Action::kLossBurst) {
      MPSIM_CHECK(e.duration > 0, "loss burst duration must be positive");
      Step restore;
      restore.at = e.at + e.duration;
      restore.action = Action::kLossRestore;
      restore.target = s.target;
      timeline_.push_back(restore);
    }
  }

  // Random outage processes, generated up front so the whole timeline is a
  // pure function of (plan, run seed) — independent of execution order.
  for (const RandomOutage& ro : plan.random) {
    const Target* t = resolve(ro.target);
    MPSIM_CHECK(accepts(Action::kDown, t->kind),
                "random outages need a variable-rate queue target");
    MPSIM_CHECK(ro.mean_up > 0 && ro.mean_down > 0 && ro.until > 0,
                "random outage needs positive mean_up/mean_down/until");
    // Decorrelate outage processes sharing a run seed: each draws from
    // output salt + 1 of the splitmix64 stream the run seed starts (any
    // bit of either input flips ~half the output).
    std::uint64_t x = run_seed + 0x9E3779B97F4A7C15ULL * ro.salt;
    Rng rng(splitmix64(x));
    SimTime at = from_sec(rng.exponential(to_sec(ro.mean_up)));
    while (at < ro.until) {
      const SimTime down_for = std::max<SimTime>(
          1, from_sec(rng.exponential(to_sec(ro.mean_down))));
      Step down;
      down.at = at;
      down.action = Action::kDown;
      down.target = t;
      timeline_.push_back(down);
      Step up;
      up.at = at + down_for;
      up.action = Action::kUp;
      up.target = t;
      timeline_.push_back(up);
      at = up.at + from_sec(rng.exponential(to_sec(ro.mean_up)));
    }
  }

  std::stable_sort(timeline_.begin(), timeline_.end(),
                   [](const Step& a, const Step& b) { return a.at < b.at; });

  trace_ = trace::TraceRecorder::find(events_);
  for (const Step& s : timeline_) state_of(s.target);  // pre-register ids
  schedule_next();
}

FaultInjector::TargetState& FaultInjector::state_of(const Target* t) {
  for (std::size_t i = 0; i < state_keys_.size(); ++i) {
    if (state_keys_[i] == t) return states_[i];
  }
  // First touch of a fault target: runs once per (injector, target) pair
  // over a whole run, not per event.
  // mpsim-analyze: allow(hot-alloc)
  state_keys_.push_back(t);
  TargetState st;
  if (trace_ != nullptr) {
    st.trace_id = trace_->register_object("fault/" + t->name);
  }
  // mpsim-analyze: allow(hot-alloc)
  states_.push_back(st);
  return states_.back();
}

void FaultInjector::schedule_next() {
  if (next_ < timeline_.size()) {
    events_.schedule_at(*this, timeline_[next_].at);
  }
}

void FaultInjector::on_event() {
  while (next_ < timeline_.size() && timeline_[next_].at <= events_.now()) {
    // Copy before applying: a ramp inserts its steps into timeline_.
    const Step s = timeline_[next_];
    ++next_;
    apply(s);
  }
  schedule_next();
}

void FaultInjector::apply(const Step& s) {
  const Target* t = s.target;
  TargetState& st = state_of(t);
  std::uint64_t aux = 0;
  double traced_value = s.value;
  switch (s.action) {
    case Action::kDown: {
      // A second `down` while already down would clobber the remembered
      // rate and make the matching `up` restore 0 — a stuck link that the
      // plan author almost certainly did not mean. The scenario layer
      // rejects overlapping down/down at parse time; this guards direct
      // API users and random processes colliding with scripts.
      MPSIM_CHECK(st.scripted_rate < 0.0,
                  "overlapping down/down fault on one target");
      st.scripted_rate = t->vqueue->rate_bps();
      t->vqueue->set_rate(0.0);
      traced_value = 0.0;
      if (monitor_ != nullptr) {
        monitor_->on_outage_start();
        monitor_->on_degradation_start();
      }
      break;
    }
    case Action::kUp: {
      const double rate = s.value >= 0.0 ? s.value : st.scripted_rate;
      MPSIM_CHECK(rate >= 0.0, "'up' fault without a preceding 'down'");
      st.scripted_rate = -1.0;
      t->vqueue->set_rate(rate);
      traced_value = rate;
      if (monitor_ != nullptr) {
        monitor_->on_outage_end();
        monitor_->on_degradation_end();
      }
      break;
    }
    case Action::kRate:
      MPSIM_CHECK(s.value >= 0.0, "rate fault needs a non-negative rate");
      [[fallthrough]];
    case Action::kRampStep:
      // Under a down, a scripted rate only changes what the `up` restores.
      if (st.scripted_rate >= 0.0) {
        st.scripted_rate = s.value;
      } else {
        t->vqueue->set_rate(s.value);
      }
      break;
    case Action::kRamp: {
      MPSIM_CHECK(s.value >= 0.0 && s.duration > 0 && s.count >= 1,
                  "ramp fault needs a rate, a positive duration and steps");
      const double from = st.scripted_rate >= 0.0 ? st.scripted_rate
                                                  : t->vqueue->rate_bps();
      const SimTime dt = s.duration / s.count;
      for (int k = 1; k <= s.count; ++k) {
        Step step;
        step.at = s.at + static_cast<SimTime>(k) * dt;
        step.action = Action::kRampStep;
        step.target = t;
        step.value = k == s.count
                         ? s.value
                         : from + (s.value - from) * k / s.count;
        const auto pos = std::upper_bound(
            timeline_.begin() + static_cast<std::ptrdiff_t>(next_),
            timeline_.end(), step,
            [](const Step& a, const Step& b) { return a.at < b.at; });
        // Ramp expansion: once per ramp step at fault-schedule granularity
        // (seconds apart), not per packet event.
        // mpsim-analyze: allow(hot-alloc)
        timeline_.insert(pos, step);
      }
      aux = static_cast<std::uint64_t>(s.duration);
      break;
    }
    case Action::kLoss:
      MPSIM_CHECK(s.value >= 0.0 && s.value <= 1.0,
                  "loss fault needs a probability in [0, 1]");
      // Under a burst, a scripted probability only changes what the
      // burst's end restores.
      if (st.scripted_loss >= 0.0) {
        st.scripted_loss = s.value;
      } else {
        t->lossy->set_loss_prob(s.value);
      }
      break;
    case Action::kLossBurst:
      MPSIM_CHECK(s.value >= 0.0 && s.value <= 1.0,
                  "loss burst needs a probability in [0, 1]");
      MPSIM_CHECK(st.scripted_loss < 0.0,
                  "overlapping loss bursts on one target");
      st.scripted_loss = t->lossy->loss_prob();
      t->lossy->set_loss_prob(s.value);
      aux = static_cast<std::uint64_t>(s.duration);
      if (monitor_ != nullptr) monitor_->on_degradation_start();
      break;
    case Action::kLossRestore:
      MPSIM_CHECK(st.scripted_loss >= 0.0,
                  "loss restore without a preceding burst");
      t->lossy->set_loss_prob(st.scripted_loss);
      traced_value = st.scripted_loss;
      st.scripted_loss = -1.0;
      if (monitor_ != nullptr) monitor_->on_degradation_end();
      break;
    case Action::kDrain:
      aux = t->queue->drop_waiting(std::numeric_limits<std::size_t>::max());
      break;
    case Action::kCorrupt:
      MPSIM_CHECK(s.count >= 1, "corrupt fault needs a packet count >= 1");
      aux = t->queue->drop_waiting(static_cast<std::size_t>(s.count));
      break;
    case Action::kReset:
      // A subflow a path manager has not opened yet resets as a no-op.
      MPSIM_CHECK(s.count >= 0 && static_cast<std::size_t>(s.count) <
                                      t->conn->subflow_cap(),
                  "subflow reset index out of range");
      t->conn->reset_subflow(static_cast<std::size_t>(s.count));
      aux = static_cast<std::uint64_t>(s.count);
      break;
  }
  ++applied_;
  MPSIM_TRACE(trace_, trace::fault_event(
                          events_.now(), st.trace_id,
                          static_cast<std::uint32_t>(s.action), traced_value,
                          aux));
}

RecoveryMonitor::RecoveryMonitor(EventList& events, SimTime poll_interval)
    : EventSource(events, "fault/recovery"),
      events_(events),
      poll_interval_(std::max<SimTime>(1, poll_interval)) {
  tracked_from_ = events_.now();
}

void RecoveryMonitor::track(const mptcp::MptcpConnection& conn) {
  conns_.push_back(&conn);
}

std::uint64_t RecoveryMonitor::delivered_now() const {
  std::uint64_t sum = 0;
  for (const auto* c : conns_) sum += c->delivered_pkts();
  return sum;
}

void RecoveryMonitor::on_degradation_start() {
  if (depth_++ == 0) {
    degraded_from_ = events_.now();
    degraded_base_pkts_ = delivered_now();
  }
}

void RecoveryMonitor::on_degradation_end() {
  MPSIM_CHECK(depth_ > 0, "degradation end without a matching start");
  if (--depth_ == 0) {
    degraded_time_ += events_.now() - degraded_from_;
    degraded_pkts_ += delivered_now() - degraded_base_pkts_;
  }
}

void RecoveryMonitor::on_outage_start() { ++outages_; }

void RecoveryMonitor::on_outage_end() {
  // An older watch may already be satisfied (delivery advanced on other
  // paths since it was opened); settle it before rebasing the watermark.
  if (!watches_.empty() && delivered_now() > watch_base_pkts_) on_event();
  // One recovery watch per outage end — fault-schedule granularity.
  // mpsim-analyze: allow(hot-alloc)
  watches_.push_back(events_.now());
  watch_base_pkts_ = delivered_now();
  if (!poll_pending_) {
    poll_pending_ = true;
    events_.schedule_in(*this, poll_interval_);
  }
}

void RecoveryMonitor::on_event() {
  poll_pending_ = false;
  if (watches_.empty()) return;
  if (delivered_now() > watch_base_pkts_) {
    for (SimTime w : watches_) {
      const double ttr = to_sec(events_.now() - w);
      ++recoveries_;
      ttr_total_sec_ += ttr;
      max_ttr_sec_ = std::max(max_ttr_sec_, ttr);
    }
    watches_.clear();
    return;
  }
  poll_pending_ = true;
  events_.schedule_in(*this, poll_interval_);
}

void RecoveryMonitor::finalize() {
  if (finalized_at_ != kNever) return;
  finalized_at_ = events_.now();
  if (depth_ > 0) {
    degraded_time_ += finalized_at_ - degraded_from_;
    degraded_pkts_ += delivered_now() - degraded_base_pkts_;
    depth_ = 0;
  }
}

double RecoveryMonitor::mean_ttr_sec() const {
  return recoveries_ == 0 ? 0.0
                          : ttr_total_sec_ / static_cast<double>(recoveries_);
}

double RecoveryMonitor::degraded_goodput_fraction() const {
  if (degraded_time_ <= 0) return 1.0;
  const SimTime end = finalized_at_ == kNever ? events_.now() : finalized_at_;
  const SimTime clean_time = (end - tracked_from_) - degraded_time_;
  if (clean_time <= 0) return 1.0;
  const double degraded_rate =
      static_cast<double>(degraded_pkts_) / to_sec(degraded_time_);
  const double clean_rate =
      static_cast<double>(delivered_now() - degraded_pkts_) /
      to_sec(clean_time);
  if (clean_rate <= 0.0) return degraded_rate > 0.0 ? 1.0 : 0.0;
  return degraded_rate / clean_rate;
}

}  // namespace mpsim::fault
