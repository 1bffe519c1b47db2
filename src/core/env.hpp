// Strict numeric parsing for `mpsim`'s flags and the integer tokens of
// spec files.
//
// A malformed value ("--threads=fast", "--scale=0x2", a fault step count
// "4.5") is rejected instead of silently coercing to 0 and running the
// wrong experiment. The functions are pure (no I/O, no exit), so each
// caller reports the failure in its own terms and tests can cover the
// accept/reject behaviour directly.
#pragma once

#include <cstdint>
#include <string>

namespace mpsim::env {

// Full-consumption numeric parses: leading/trailing whitespace is allowed,
// any other trailing text (unit suffixes, hex, empty string) is rejected,
// and so is a value outside the result type's range.
bool parse_double(const std::string& text, double& out);
bool parse_int(const std::string& text, std::int64_t& out);

}  // namespace mpsim::env
