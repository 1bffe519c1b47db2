// The [faults] section of a scenario spec: a declarative fault schedule
// compiled into a fault::FaultPlan against the run's target registry.
//
//   [faults]
//   script = ["9min down wifi/q",          # time action [args...] target
//             "10.5min up 5Mbps wifi/q",
//             "2s rate 1Mbps 3g/q",
//             "3s ramp 8Mbps 2s 4 link1/q",
//             "4s loss 0.05 wifi/loss",
//             "5s loss_burst 0.3 500ms wifi/loss",
//             "6s drain link2/q",
//             "7s corrupt 3 link2/q",
//             "8s reset 0 mp"]
//   flap = ["link1/q start=1s period=2s down=250ms count=4"]
//   random_outage = ["wifi/q mean_up=5s mean_down=1s until=30s seed=1"]
//   recovery_poll = "1ms"                  # TTR probe interval (optional)
//
// An action's arguments are its registered table (builders.cpp), read in
// order; a flap or random_outage entry's `key=value` tokens are read
// against flap_keys() or random_outage_keys(). `mpsim list` prints all
// of them. All times run through BuildEnv::scaled so --scale compresses
// fault timelines exactly like warmup/measure. Every malformed entry is a
// SpecError pointing at the offending array item's file:line.
#pragma once

#include "fault/fault.hpp"
#include "scenario/registry.hpp"
#include "scenario/spec.hpp"

namespace mpsim::scenario {

// The keys of a flap entry and of a random_outage entry.
const KeyTable& flap_keys();
const KeyTable& random_outage_keys();

struct ParsedFaults {
  fault::FaultPlan plan;
  SimTime recovery_poll = from_ms(1);
};

// Compile `sec` (a [faults] section read against its table) against the
// registered targets; throws SpecError on any malformed entry.
ParsedFaults parse_fault_plan(const Args& sec,
                              const fault::TargetRegistry& targets,
                              const BuildEnv& env);

}  // namespace mpsim::scenario
