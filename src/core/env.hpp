// Strict numeric parsing for `mpsim`'s flags and every number of a spec
// file: its values, the magnitudes of its units and its entry tokens.
//
// A malformed value ("--threads=fast", "--scale=0x2", a loss probability
// "nan") is rejected instead of silently coercing to 0 and running the
// wrong experiment. The functions are pure (no I/O, no exit), so each
// caller reports the failure in its own terms and tests can cover the
// accept/reject behaviour directly.
#pragma once

#include <cstdint>
#include <string>

namespace mpsim::env {

// `text` without leading and trailing whitespace.
std::string trim(const std::string& text);

// Full-consumption numeric parses: leading/trailing whitespace is allowed,
// any other trailing text (unit suffixes, hex, empty string) is rejected,
// and so is a value outside the result type's range.
bool parse_double(const std::string& text, double& out);
bool parse_int(const std::string& text, std::int64_t& out);

}  // namespace mpsim::env
