// Strict environment-variable parsing.
//
// All five process-level knobs (MPSIM_THREADS, MPSIM_BENCH_SCALE,
// MPSIM_CHECKS, MPSIM_TRACE, MPSIM_TRACE_CAPACITY) go through these helpers
// instead of ad-hoc getenv + atof/atol. The difference is failure
// behaviour: a malformed value ("MPSIM_THREADS=fast",
// "MPSIM_BENCH_SCALE=0x2") terminates the process with a diagnostic naming
// the variable and the accepted form, instead of silently coercing to 0 and
// running the wrong experiment.
//
// The parse_* functions are pure (no getenv, no exit) so tests can cover
// the accept/reject behaviour; the env_* wrappers read the environment and
// die on malformed input. An *unset* variable is never an error — it yields
// the fallback.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace mpsim::env {

// Full-consumption numeric parses: leading/trailing whitespace is allowed,
// any other trailing text (unit suffixes, hex, empty string) is rejected.
bool parse_double(const std::string& text, double& out);
bool parse_int(const std::string& text, std::int64_t& out);

// Fallback when unset; diagnostic + exit(2) when set but not a finite
// number strictly greater than `min_exclusive`.
double env_double(const char* name, double fallback, double min_exclusive);

// Fallback when unset; diagnostic + exit(2) when set but not an integer in
// [min, max].
std::int64_t env_int(const char* name, std::int64_t fallback,
                     std::int64_t min, std::int64_t max);

// Fallback when unset; diagnostic + exit(2) when set to anything outside
// `allowed` (exact match, case-sensitive — knob values are documented
// lowercase).
std::string env_choice(const char* name, const std::string& fallback,
                       const std::vector<std::string>& allowed);

}  // namespace mpsim::env
