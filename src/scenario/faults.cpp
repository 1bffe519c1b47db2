#include "scenario/faults.hpp"

#include <algorithm>
#include <cstdlib>
#include <string>
#include <vector>

#include "mptcp/connection.hpp"

namespace mpsim::scenario {

namespace {

constexpr const char* kKnownActions =
    "down, up, rate, ramp, loss, loss_burst, drain, corrupt, reset";

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

double parse_number_token(const Section& sec, int line,
                          const std::string& token, const char* what) {
  const char* begin = token.c_str();
  char* end = nullptr;
  const double v = std::strtod(begin, &end);
  if (end == begin || *end != '\0') {
    sec.fail_at(line, std::string("fault ") + what + " is not a number: '" +
                          token + "'");
  }
  return v;
}

// A count token (step count, packet count, subflow index, seed), checked
// against T's range before narrowing (spec.hpp's count_max).
template <std::integral T>
T parse_count_token(const Section& sec, int line, const std::string& token,
                    const char* what) {
  return static_cast<T>(parse_count(token, count_max<T>(),
                                    std::string("fault ") + what, sec.file(),
                                    line));
}

// The string entries of `key` (its table declares an array of strings;
// a bare string is a one-entry array).
std::vector<Value> entries_of(const Section& sec, const std::string& key) {
  const Value* v = sec.find(key);
  if (v == nullptr) return {};
  return v->kind == Value::Kind::kArray ? v->items : std::vector<Value>{*v};
}

const fault::Target& resolve_target(const Section& sec, int line,
                                    const fault::TargetRegistry& targets,
                                    const std::string& name) {
  const fault::Target* t = targets.find(name);
  if (t == nullptr) {
    sec.fail_at(line, "unknown fault target '" + name +
                          "' (known: " + targets.known_names() + ")");
  }
  return *t;
}

void require_kind(const Section& sec, int line, const fault::Target& t,
                  const std::string& action, bool ok, const char* needs) {
  if (!ok) {
    sec.fail_at(line, "fault target '" + t.name + "' is a " +
                          fault::target_kind_name(t.kind) + "; '" + action +
                          "' needs a " + needs);
  }
}

// A down/up edge, for the per-target overlap state machine.
struct Edge {
  SimTime at = 0;
  bool down = false;
  int line = 0;
  std::string target;
};

void check_edges(const Section& sec, std::vector<Edge>& edges) {
  std::stable_sort(edges.begin(), edges.end(),
                   [](const Edge& a, const Edge& b) { return a.at < b.at; });
  std::vector<std::string> down_targets;
  for (const Edge& e : edges) {
    const auto it =
        std::find(down_targets.begin(), down_targets.end(), e.target);
    if (e.down) {
      if (it != down_targets.end()) {
        sec.fail_at(e.line, "overlapping 'down'/'down' on target '" +
                                e.target + "' (it is already down)");
      }
      down_targets.push_back(e.target);
    } else {
      if (it == down_targets.end()) {
        sec.fail_at(e.line, "'up' without a preceding 'down' on target '" +
                                e.target + "'");
      }
      down_targets.erase(it);
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

  std::vector<Edge> edges;

  for (const Value& item : entries_of(sec, "script")) {
    const int line = item.line;
    const std::vector<std::string> tok = split_tokens(item.str);
    if (tok.size() < 3) {
      sec.fail_at(line,
                  "fault script entry needs '<time> <action> [args...] "
                  "<target>', got '" + item.str + "'");
    }
    const SimTime at = env.scaled(parse_time(tok[0], sec.file(), line));
    if (at < 0) sec.fail_at(line, "fault time must be non-negative");
    const std::string& action = tok[1];
    const std::string& target_name = tok.back();
    const fault::Target& target =
        resolve_target(sec, line, targets, target_name);
    const std::size_t args = tok.size() - 3;  // between action and target

    fault::FaultEvent ev;
    ev.at = at;
    ev.target = target_name;

    auto want_args = [&](std::size_t n, const char* usage) {
      if (args != n) {
        sec.fail_at(line, "'" + action + "' needs '" + usage + "', got '" +
                              item.str + "'");
      }
    };

    if (action == "down") {
      want_args(0, "<time> down <target>");
      require_kind(sec, line, target, action, target.vqueue != nullptr,
                   "variable-rate queue");
      ev.action = fault::Action::kDown;
      edges.push_back({at, true, line, target_name});
    } else if (action == "up") {
      if (args > 1) {
        sec.fail_at(line, "'up' needs '<time> up [rate] <target>', got '" +
                              item.str + "'");
      }
      require_kind(sec, line, target, action, target.vqueue != nullptr,
                   "variable-rate queue");
      ev.action = fault::Action::kUp;
      if (args == 1) {
        ev.value = parse_rate_bps(tok[2], sec.file(), line);
      }
      edges.push_back({at, false, line, target_name});
    } else if (action == "rate") {
      want_args(1, "<time> rate <rate> <target>");
      require_kind(sec, line, target, action, target.vqueue != nullptr,
                   "variable-rate queue");
      ev.action = fault::Action::kRate;
      ev.value = parse_rate_bps(tok[2], sec.file(), line);
    } else if (action == "ramp") {
      want_args(3, "<time> ramp <rate> <duration> <steps> <target>");
      require_kind(sec, line, target, action, target.vqueue != nullptr,
                   "variable-rate queue");
      ev.action = fault::Action::kRamp;
      ev.value = parse_rate_bps(tok[2], sec.file(), line);
      ev.duration = env.scaled(parse_time(tok[3], sec.file(), line));
      if (ev.duration <= 0) {
        sec.fail_at(line, "ramp duration must be positive");
      }
      ev.count = parse_count_token<int>(sec, line, tok[4], "ramp step count");
      if (ev.count < 1) sec.fail_at(line, "ramp needs at least one step");
    } else if (action == "loss") {
      want_args(1, "<time> loss <probability> <target>");
      require_kind(sec, line, target, action, target.lossy != nullptr,
                   "loss element");
      ev.action = fault::Action::kLoss;
      ev.value = parse_number_token(sec, line, tok[2], "loss probability");
      if (ev.value < 0.0 || ev.value > 1.0) {
        sec.fail_at(line, "loss probability must be in [0, 1]");
      }
    } else if (action == "loss_burst") {
      want_args(2, "<time> loss_burst <probability> <duration> <target>");
      require_kind(sec, line, target, action, target.lossy != nullptr,
                   "loss element");
      ev.action = fault::Action::kLossBurst;
      ev.value = parse_number_token(sec, line, tok[2], "loss probability");
      if (ev.value < 0.0 || ev.value > 1.0) {
        sec.fail_at(line, "loss probability must be in [0, 1]");
      }
      ev.duration = env.scaled(parse_time(tok[3], sec.file(), line));
      if (ev.duration <= 0) {
        sec.fail_at(line, "loss burst duration must be positive");
      }
    } else if (action == "drain") {
      want_args(0, "<time> drain <target>");
      require_kind(sec, line, target, action, target.queue != nullptr,
                   "queue");
      ev.action = fault::Action::kDrain;
    } else if (action == "corrupt") {
      want_args(1, "<time> corrupt <packets> <target>");
      require_kind(sec, line, target, action, target.queue != nullptr,
                   "queue");
      ev.action = fault::Action::kCorrupt;
      ev.count = parse_count_token<int>(sec, line, tok[2],
                                        "corrupt packet count");
      if (ev.count < 1) {
        sec.fail_at(line, "corrupt needs a packet count >= 1");
      }
    } else if (action == "reset") {
      want_args(1, "<time> reset <subflow-index> <target>");
      require_kind(sec, line, target, action, target.conn != nullptr,
                   "connection");
      ev.action = fault::Action::kReset;
      ev.count = parse_count_token<int>(sec, line, tok[2],
                                        "reset subflow index");
      if (static_cast<std::size_t>(ev.count) >= target.conn->num_subflows()) {
        sec.fail_at(line, "subflow index " + std::to_string(ev.count) +
                              " out of range for connection '" + target_name +
                              "' (has " +
                              std::to_string(target.conn->num_subflows()) +
                              " subflows)");
      }
    } else {
      sec.fail_at(line, "unknown fault action '" + action +
                            "' (known: " + kKnownActions + ")");
    }
    out.plan.events.push_back(std::move(ev));
  }

  for (const Value& item : entries_of(sec, "flap")) {
    const int line = item.line;
    const std::vector<std::string> tok = split_tokens(item.str);
    if (tok.empty()) {
      sec.fail_at(line,
                  "flap entry needs '<target> start=<t> period=<t> "
                  "down=<t> count=<n>'");
    }
    const std::string& target_name = tok[0];
    const fault::Target& target =
        resolve_target(sec, line, targets, target_name);
    require_kind(sec, line, target, "flap", target.vqueue != nullptr,
                 "variable-rate queue");
    SimTime start = 0, period = 0, down = 0;
    int count = 0;
    bool saw_start = false, saw_period = false, saw_down = false,
         saw_count = false;
    for (std::size_t i = 1; i < tok.size(); ++i) {
      const std::size_t eq = tok[i].find('=');
      if (eq == std::string::npos) {
        sec.fail_at(line, "flap parameter '" + tok[i] +
                              "' is not of the form key=value");
      }
      const std::string key = tok[i].substr(0, eq);
      const std::string val = tok[i].substr(eq + 1);
      if (key == "start") {
        start = env.scaled(parse_time(val, sec.file(), line));
        saw_start = true;
      } else if (key == "period") {
        period = env.scaled(parse_time(val, sec.file(), line));
        saw_period = true;
      } else if (key == "down") {
        down = env.scaled(parse_time(val, sec.file(), line));
        saw_down = true;
      } else if (key == "count") {
        count = parse_count_token<int>(sec, line, val, "flap count");
        saw_count = true;
      } else {
        sec.fail_at(line, "unknown flap parameter '" + key +
                              "' (known: start, period, down, count)");
      }
    }
    if (!saw_start || !saw_period || !saw_down || !saw_count) {
      sec.fail_at(line, "flap needs all of start=, period=, down=, count=");
    }
    if (start < 0) sec.fail_at(line, "flap start must be non-negative");
    if (down <= 0 || period <= down) {
      sec.fail_at(line, "flap needs 0 < down < period");
    }
    if (count < 1) sec.fail_at(line, "flap count must be >= 1");
    for (fault::FaultEvent& ev :
         fault::flap_train(target_name, start, period, down, count)) {
      edges.push_back(
          {ev.at, ev.action == fault::Action::kDown, line, target_name});
      out.plan.events.push_back(std::move(ev));
    }
  }

  std::size_t outage_index = 0;
  for (const Value& item : entries_of(sec, "random_outage")) {
    const int line = item.line;
    const std::vector<std::string> tok = split_tokens(item.str);
    if (tok.empty()) {
      sec.fail_at(line,
                  "random_outage entry needs '<target> mean_up=<t> "
                  "mean_down=<t> until=<t> [seed=<n>]'");
    }
    fault::RandomOutage ro;
    ro.target = tok[0];
    ro.salt = outage_index++;
    const fault::Target& target =
        resolve_target(sec, line, targets, ro.target);
    require_kind(sec, line, target, "random_outage",
                 target.vqueue != nullptr, "variable-rate queue");
    for (const Edge& e : edges) {
      if (e.target == ro.target) {
        sec.fail_at(line, "target '" + ro.target +
                              "' has both a random outage process and "
                              "scripted down/up events; keep them on "
                              "separate targets");
      }
    }
    for (std::size_t i = 1; i < tok.size(); ++i) {
      const std::size_t eq = tok[i].find('=');
      if (eq == std::string::npos) {
        sec.fail_at(line, "random_outage parameter '" + tok[i] +
                              "' is not of the form key=value");
      }
      const std::string key = tok[i].substr(0, eq);
      const std::string val = tok[i].substr(eq + 1);
      if (key == "mean_up") {
        ro.mean_up = env.scaled(parse_time(val, sec.file(), line));
      } else if (key == "mean_down") {
        ro.mean_down = env.scaled(parse_time(val, sec.file(), line));
      } else if (key == "until") {
        ro.until = env.scaled(parse_time(val, sec.file(), line));
      } else if (key == "seed") {
        ro.salt = parse_count_token<std::uint64_t>(sec, line, val,
                                                   "random_outage seed");
      } else {
        sec.fail_at(line,
                    "unknown random_outage parameter '" + key +
                        "' (known: mean_up, mean_down, until, seed)");
      }
    }
    if (ro.mean_up <= 0 || ro.mean_down <= 0 || ro.until <= 0) {
      sec.fail_at(line,
                  "random_outage needs positive mean_up=, mean_down= and "
                  "until=");
    }
    out.plan.random.push_back(std::move(ro));
  }

  check_edges(sec, edges);
  return out;
}

}  // namespace mpsim::scenario
