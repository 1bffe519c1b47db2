#include "scenario/faults.hpp"

#include <algorithm>
#include <string>
#include <vector>

#include "mptcp/connection.hpp"

namespace mpsim::scenario {

using enum KeyType;

const KeyTable& flap_keys() {
  static const KeyTable keys = {
      {"start", kTime, kRequired, "the first down (scaled)"},
      {"period", kTime, kRequired, "one down/up cycle (scaled)", above(0)},
      {"down", kTime, kRequired,
       "the down part of each cycle (scaled), less than period", above(0)},
      {"count", kCount, kRequired, "cycles", at_least(1)}};
  return keys;
}

const KeyTable& random_outage_keys() {
  static const KeyTable keys = {
      {"mean_up", kTime, kRequired, "mean up period (scaled)", above(0)},
      {"mean_down", kTime, kRequired, "mean down period (scaled)", above(0)},
      {"until", kTime, kRequired, "no outage starts from here on (scaled)",
       above(0)},
      {"seed", kCount64, "",
       "stream salt, mixed with the run seed (default: the entry's index "
       "among the random_outage entries)"}};
  return keys;
}

namespace {

std::vector<std::string> split_tokens(const std::string& text) {
  std::vector<std::string> tokens;
  std::size_t i = 0;
  while (i < text.size()) {
    while (i < text.size() && (text[i] == ' ' || text[i] == '\t')) ++i;
    std::size_t start = i;
    while (i < text.size() && text[i] != ' ' && text[i] != '\t') ++i;
    if (i > start) tokens.push_back(text.substr(start, i - start));
  }
  return tokens;
}

// The string entries of `key` (its table declares an array of strings;
// a bare string is a one-entry array).
std::vector<Value> entries_of(const Section& sec, const std::string& key) {
  const Value* v = sec.find(key);
  if (v == nullptr) return {};
  return v->kind == Value::Kind::kArray ? v->items : std::vector<Value>{*v};
}

// Target `name`, which `action` (written `what`) must act on. A mismatch
// names the first target kind the action accepts: a variable-rate queue
// is a queue too.
const fault::Target& target_of(const Section& at,
                               const fault::TargetRegistry& targets,
                               const std::string& name, fault::Action action,
                               const std::string& what) {
  const fault::Target* t = targets.find(name);
  if (t == nullptr) {
    at.fail("unknown fault target '" + name +
            "' (known: " + targets.known_names() + ")");
  }
  using enum fault::TargetKind;
  for (fault::TargetKind k : {kQueue, kVariableQueue, kLossyLink,
                              kConnection}) {
    if (!fault::accepts(action, t->kind) && fault::accepts(action, k)) {
      at.fail("fault target '" + name + "' is a " +
              fault::target_kind_name(t->kind) + "; '" + what +
              "' needs a " + fault::target_kind_name(k));
    }
  }
  return *t;
}

// Time key `key` of `entry` at this run's --scale: a duration, so one the
// scale rounds to 0 fails.
SimTime scaled_duration(const Args& entry, const std::string& key,
                        const BuildEnv& env) {
  const SimTime t = env.scaled(entry.get_time(key));
  if (t <= 0) entry.fail(key + " must be positive");
  return t;
}

// A flap or random_outage entry (`key`, at `at`): its target, which
// these processes take down, and its key=value tokens read against
// `table`.
std::pair<std::string, Args> read_process(
    const Section& at, const std::string& key, const std::string& entry,
    const KeyTable& table, const fault::TargetRegistry& targets) {
  const std::vector<std::string> tok = split_tokens(entry);
  if (tok.empty()) at.fail(key + " entry needs '<target> <key>=<value>...'");
  target_of(at, targets, tok[0], fault::Action::kDown, key);
  return {tok[0],
          read_keyed(Section("faults." + key, at.line(), at.file()),
                     std::vector<std::string>(tok.begin() + 1, tok.end()),
                     table)};
}

// Rules that span entries, each failing at the later entry's line: a
// random outage goes on a target nothing else takes down; a target is not
// taken down while down, nor brought up unless down; and two loss bursts
// on one loss element do not overlap. `lines[i]` is the line of the entry
// plan.events[i] came from, `outage_lines[i]` that of plan.random[i].
void check_overlaps(const Section& sec, const fault::FaultPlan& plan,
                    const std::vector<int>& lines,
                    const std::vector<int>& outage_lines) {
  const std::vector<fault::FaultEvent>& evs = plan.events;
  for (std::size_t i = 0; i < plan.random.size(); ++i) {
    const std::string& target = plan.random[i].target;
    for (std::size_t j = 0; j < i; ++j) {
      if (plan.random[j].target == target) {
        sec.fail_at(outage_lines[i], "target '" + target +
                                         "' already has a random outage "
                                         "process");
      }
    }
    for (const fault::FaultEvent& e : evs) {
      if (e.target == target && (e.action == fault::Action::kDown ||
                                 e.action == fault::Action::kUp)) {
        sec.fail_at(outage_lines[i],
                    "target '" + target +
                        "' has both a random outage process and scripted "
                        "down/up events; keep them on separate targets");
      }
    }
  }

  // Plan indices in time order; within a tick the injector keeps plan
  // order, and so does this walk.
  std::vector<std::size_t> order(evs.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(), [&](std::size_t a,
                                                   std::size_t b) {
    return evs[a].at < evs[b].at;
  });
  std::vector<std::string> down;
  // Per loss element, the plan index of its latest burst.
  std::vector<std::pair<std::string, std::size_t>> burst;
  for (const std::size_t i : order) {
    const fault::FaultEvent& e = evs[i];
    if (e.action == fault::Action::kDown || e.action == fault::Action::kUp) {
      const auto it = std::find(down.begin(), down.end(), e.target);
      if (e.action == fault::Action::kDown) {
        if (it != down.end()) {
          sec.fail_at(lines[i], "overlapping 'down'/'down' on target '" +
                                    e.target + "' (it is already down)");
        }
        down.push_back(e.target);
      } else {
        if (it == down.end()) {
          sec.fail_at(lines[i], "'up' without a preceding 'down' on target '" +
                                    e.target + "'");
        }
        down.erase(it);
      }
    } else if (e.action == fault::Action::kLossBurst) {
      const auto it =
          std::find_if(burst.begin(), burst.end(),
                       [&](const auto& b) { return b.first == e.target; });
      if (it == burst.end()) {
        burst.emplace_back(e.target, i);
        continue;
      }
      // The earlier burst's restore lands at its end, after every step
      // the plan lists before it: a burst starting on that tick must come
      // later in the plan.
      const fault::FaultEvent& prev = evs[it->second];
      const SimTime end = prev.at + prev.duration;
      if (e.at < end) {
        sec.fail_at(lines[i], "overlapping loss bursts on target '" +
                                  e.target + "'");
      }
      if (e.at == end && i < it->second) {
        sec.fail_at(lines[i], "loss burst on target '" + e.target +
                                  "' starts as one listed after it ends; "
                                  "list it later");
      }
      it->second = i;
    }
  }
}

}  // namespace

ParsedFaults parse_fault_plan(const Args& sec,
                              const fault::TargetRegistry& targets,
                              const BuildEnv& env) {
  ParsedFaults out;
  out.recovery_poll = env.scaled(sec.get_time("recovery_poll"));
  if (out.recovery_poll <= 0) {
    sec.fail("recovery_poll must be positive");
  }

  const KindSet<ActionBuilder>& actions = builtin_registry().fault_actions;
  std::vector<int> lines;  // per plan event, its entry's line
  for (const Value& item : entries_of(sec, "script")) {
    const Section at("faults", item.line, sec.file());
    const std::vector<std::string> tok = split_tokens(item.str);
    if (tok.size() < 3) {
      at.fail("fault script entry needs '<time> <action> [args...] "
              "<target>', got '" + item.str + "'");
    }
    fault::FaultEvent ev;
    ev.at = env.scaled(parse_time(tok[0], sec.file(), item.line));
    if (ev.at < 0) at.fail("fault time must be non-negative");
    const Kind<ActionBuilder>& action = actions.find(tok[1], at);
    ev.action = action.build;
    ev.target = tok.back();
    const fault::Target& target =
        target_of(at, targets, ev.target, ev.action, action.key);

    const Args args = read_positional(
        Section("faults." + action.key, item.line, sec.file()),
        std::vector<std::string>(tok.begin() + 2, tok.end() - 1),
        action.keys);
    for (const Key& k : action.keys) {
      if (!args.has(k.name)) continue;
      switch (k.type) {
        case kRate: ev.value = args.get_rate_bps(k.name); break;
        case kNumber: ev.value = args.get_number(k.name); break;
        case kTime: ev.duration = scaled_duration(args, k.name, env); break;
        default: ev.count = args.get_count<int>(k.name); break;
      }
    }
    if (target.conn != nullptr &&
        static_cast<std::size_t>(ev.count) >= target.conn->subflow_cap()) {
      args.fail("subflow index " + std::to_string(ev.count) +
                " out of range for connection '" + ev.target +
                "' (has at most " +
                std::to_string(target.conn->subflow_cap()) + " subflows)");
    }
    out.plan.events.push_back(std::move(ev));
    lines.push_back(item.line);
  }

  for (const Value& item : entries_of(sec, "flap")) {
    const auto [target, a] =
        read_process(Section("faults", item.line, sec.file()), "flap",
                     item.str, flap_keys(), targets);
    const SimTime period = scaled_duration(a, "period", env);
    const SimTime down = scaled_duration(a, "down", env);
    if (down >= period) a.fail("'down' must be < 'period'");
    for (fault::FaultEvent& ev :
         fault::flap_train(target, env.scaled(a.get_time("start")), period,
                           down, a.get_count<int>("count"))) {
      out.plan.events.push_back(std::move(ev));
      lines.push_back(item.line);
    }
  }

  std::vector<int> outage_lines;
  for (const Value& item : entries_of(sec, "random_outage")) {
    const auto [target, a] =
        read_process(Section("faults", item.line, sec.file()),
                     "random_outage", item.str, random_outage_keys(),
                     targets);
    fault::RandomOutage ro;
    ro.target = target;
    ro.mean_up = scaled_duration(a, "mean_up", env);
    ro.mean_down = scaled_duration(a, "mean_down", env);
    ro.until = scaled_duration(a, "until", env);
    ro.salt = a.has("seed") ? a.get_count<std::uint64_t>("seed")
                            : out.plan.random.size();
    out.plan.random.push_back(std::move(ro));
    outage_lines.push_back(item.line);
  }

  check_overlaps(sec, out.plan, lines, outage_lines);
  return out;
}

}  // namespace mpsim::scenario
