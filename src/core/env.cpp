#include "core/env.hpp"

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdlib>

namespace mpsim::env {

namespace {

std::string trimmed(const std::string& text) {
  std::size_t b = 0;
  std::size_t e = text.size();
  while (b < e && std::isspace(static_cast<unsigned char>(text[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(text[e - 1]))) --e;
  return text.substr(b, e - b);
}

}  // namespace

bool parse_double(const std::string& text, double& out) {
  const std::string t = trimmed(text);
  if (t.empty() || t.find('x') != std::string::npos ||
      t.find('X') != std::string::npos) {
    return false;  // reject hex: "0x2" parses as 0 under some strtods
  }
  errno = 0;
  char* end = nullptr;
  const double v = std::strtod(t.c_str(), &end);
  if (end != t.c_str() + t.size() || errno == ERANGE || !std::isfinite(v)) {
    return false;
  }
  out = v;
  return true;
}

bool parse_int(const std::string& text, std::int64_t& out) {
  const std::string t = trimmed(text);
  if (t.empty()) return false;
  errno = 0;
  char* end = nullptr;
  const long long v = std::strtoll(t.c_str(), &end, 10);
  if (end != t.c_str() + t.size() || errno == ERANGE) return false;
  out = v;
  return true;
}

}  // namespace mpsim::env
