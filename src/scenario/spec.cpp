#include "scenario/spec.hpp"

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "core/env.hpp"
#include "net/packet.hpp"

namespace mpsim::scenario {

namespace {

bool is_key_char(char c) {
  return (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') || c == '_';
}

std::string trim(const std::string& s) {
  std::size_t b = 0;
  std::size_t e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return s.substr(b, e - b);
}

// Strip a trailing `# comment` that is not inside a quoted string.
std::string strip_comment(const std::string& line) {
  bool in_string = false;
  for (std::size_t i = 0; i < line.size(); ++i) {
    if (line[i] == '"') in_string = !in_string;
    if (line[i] == '#' && !in_string) return line.substr(0, i);
  }
  return line;
}

bool parse_number_strict(const std::string& text, double& out) {
  if (text.empty()) return false;
  errno = 0;
  char* end = nullptr;
  const double v = std::strtod(text.c_str(), &end);
  if (end != text.c_str() + text.size() || errno == ERANGE ||
      !std::isfinite(v)) {
    return false;
  }
  out = v;
  return true;
}

// Split "14.4Mbps" into the numeric prefix and the unit suffix.
bool split_quantity(const std::string& text, double& magnitude,
                    std::string& unit) {
  const std::string t = trim(text);
  std::size_t i = 0;
  while (i < t.size() &&
         (std::isdigit(static_cast<unsigned char>(t[i])) || t[i] == '.' ||
          t[i] == '-' || t[i] == '+' || t[i] == 'e' || t[i] == 'E')) {
    // Exponent sign handling: 'e'/'E' may be followed by +/-; the loop
    // already accepts those. "1e3Mbps" therefore splits correctly.
    ++i;
  }
  // Units that start with 'e' cannot occur ("1e" would swallow it), and no
  // current unit does.
  if (i == 0) return false;
  if (!parse_number_strict(t.substr(0, i), magnitude)) return false;
  unit = t.substr(i);
  return true;
}

Value parse_scalar(const std::string& raw, const std::string& file,
                   int line) {
  const std::string t = trim(raw);
  if (t.empty()) throw SpecError(file, line, "empty value");
  if (t.front() == '"') {
    if (t.size() < 2 || t.back() != '"') {
      throw SpecError(file, line, "unterminated string: " + t);
    }
    const std::string body = t.substr(1, t.size() - 2);
    if (body.find('"') != std::string::npos) {
      throw SpecError(file, line,
                      "stray '\"' inside string (escapes are not "
                      "supported): " + t);
    }
    return Value::string(body, line);
  }
  if (t == "true" || t == "false") {
    Value v;
    v.kind = Value::Kind::kBool;
    v.boolean = (t == "true");
    v.line = line;
    return v;
  }
  double num = 0.0;
  if (parse_number_strict(t, num)) return Value::number(num, line);
  throw SpecError(file, line,
                  "'" + t + "' is not a number, bool, or quoted string "
                  "(bare words must be quoted)");
}

// Split a `[a, b, c]` body on commas outside quotes.
std::vector<std::string> split_array_body(const std::string& body,
                                          const std::string& file,
                                          int line) {
  std::vector<std::string> parts;
  std::string cur;
  bool in_string = false;
  for (char c : body) {
    if (c == '"') in_string = !in_string;
    if (c == ',' && !in_string) {
      parts.push_back(cur);
      cur.clear();
    } else if ((c == '[' || c == ']') && !in_string) {
      throw SpecError(file, line, "nested arrays are not supported");
    } else {
      cur += c;
    }
  }
  if (in_string) throw SpecError(file, line, "unterminated string in array");
  parts.push_back(cur);
  return parts;
}

Value parse_value(const std::string& raw, const std::string& file,
                  int line) {
  const std::string t = trim(raw);
  if (t.empty()) throw SpecError(file, line, "missing value after '='");
  if (t.front() != '[') return parse_scalar(t, file, line);
  if (t.back() != ']') {
    throw SpecError(file, line, "array does not end with ']': " + t);
  }
  Value v;
  v.kind = Value::Kind::kArray;
  v.line = line;
  const std::string body = trim(t.substr(1, t.size() - 2));
  if (body.empty()) return v;  // [] — legal; consumers reject where needed
  for (const std::string& part : split_array_body(body, file, line)) {
    v.items.push_back(parse_scalar(part, file, line));
    if (v.items.size() > 1 &&
        v.items.back().kind != v.items.front().kind) {
      throw SpecError(file, line,
                      "array mixes " +
                          std::string(v.items.front().kind_name()) +
                          " and " +
                          std::string(v.items.back().kind_name()) +
                          " elements");
    }
  }
  return v;
}

}  // namespace

Value Value::string(std::string s, int line) {
  Value v;
  v.kind = Kind::kString;
  v.str = std::move(s);
  v.line = line;
  return v;
}

Value Value::number(double n, int line) {
  Value v;
  v.kind = Kind::kNumber;
  v.num = n;
  v.line = line;
  return v;
}

const char* Value::kind_name() const {
  switch (kind) {
    case Kind::kString: return "string";
    case Kind::kNumber: return "number";
    case Kind::kBool: return "bool";
    case Kind::kArray: return "array";
  }
  return "?";
}

// --- unit parsing ----------------------------------------------------------

SimTime parse_time(const std::string& text, const std::string& file,
                   int line) {
  double mag = 0.0;
  std::string unit;
  if (!split_quantity(text, mag, unit)) {
    throw SpecError(file, line,
                    "'" + text + "' is not a time (expected e.g. \"20ms\", "
                    "\"1.5s\", \"9min\")");
  }
  if (unit == "ns") return from_ns(static_cast<std::int64_t>(mag));
  if (unit == "us") return from_us(mag);
  if (unit == "ms") return from_ms(mag);
  if (unit == "s") return from_sec(mag);
  if (unit == "min") return from_sec(mag * 60.0);
  throw SpecError(file, line,
                  "'" + text + "' has unknown time unit '" + unit +
                  "' (use ns/us/ms/s/min)");
}

double parse_rate_bps(const std::string& text, const std::string& file,
                      int line) {
  double mag = 0.0;
  std::string unit;
  if (!split_quantity(text, mag, unit) || mag < 0.0) {
    throw SpecError(file, line,
                    "'" + text + "' is not a rate (expected e.g. "
                    "\"14.4Mbps\", \"1000pps\")");
  }
  if (unit == "bps") return mag;
  if (unit == "kbps") return mag * 1e3;
  if (unit == "Mbps") return mag * 1e6;
  if (unit == "Gbps") return mag * 1e9;
  if (unit == "pps") return mag * net::kDataPacketBytes * 8.0;
  throw SpecError(file, line,
                  "'" + text + "' has unknown rate unit '" + unit +
                  "' (use bps/kbps/Mbps/Gbps/pps)");
}

std::uint64_t parse_bytes(const std::string& text, const std::string& file,
                          int line) {
  double mag = 0.0;
  std::string unit;
  if (!split_quantity(text, mag, unit) || mag < 0.0) {
    throw SpecError(file, line,
                    "'" + text + "' is not a size (expected e.g. \"25pkt\", "
                    "\"64kB\")");
  }
  double bytes = 0.0;
  if (unit == "B") {
    bytes = mag;
  } else if (unit == "kB") {
    bytes = mag * 1e3;
  } else if (unit == "MB") {
    bytes = mag * 1e6;
  } else if (unit == "pkt") {
    bytes = mag * net::kDataPacketBytes;
  } else {
    throw SpecError(file, line,
                    "'" + text + "' has unknown size unit '" + unit +
                    "' (use B/kB/MB/pkt)");
  }
  return static_cast<std::uint64_t>(bytes);
}

std::int64_t parse_count(const std::string& text, std::int64_t max,
                         const std::string& what, const std::string& file,
                         int line) {
  std::int64_t v = 0;
  if (!env::parse_int(text, v) || v < 0 || v > max) {
    throw SpecError(file, line,
                    what + " must be an integer in [0, " +
                        std::to_string(max) + "], got '" + text + "'");
  }
  return v;
}

// --- Section ---------------------------------------------------------------

bool Section::has(const std::string& key) const {
  for (const auto& [k, v] : entries_) {
    if (k == key) return true;
  }
  return false;
}

const Value* Section::find(const std::string& key) const {
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    if (entries_[i].first == key) {
      used_[i] = true;
      return &entries_[i].second;
    }
  }
  return nullptr;
}

const Value& Section::require(const std::string& key) const {
  const Value* v = find(key);
  if (v == nullptr) {
    throw SpecError(file_, line_,
                    "[" + name_ + "] is missing required key '" + key + "'");
  }
  return *v;
}

void Section::type_error(const std::string& key, const Value& v,
                         const char* expected) const {
  throw SpecError(file_, v.line,
                  "[" + name_ + "] " + key + ": expected " + expected +
                  ", got " + v.kind_name());
}

double Section::get_number(const std::string& key) const {
  const Value& v = require(key);
  if (v.kind != Value::Kind::kNumber) type_error(key, v, "a number");
  return v.num;
}

double Section::get_number(const std::string& key, double fallback) const {
  return has(key) ? get_number(key) : fallback;
}

std::int64_t Section::get_count_upto(const std::string& key,
                                     std::int64_t max) const {
  const Value& v = require(key);
  if (v.kind != Value::Kind::kNumber || v.num != std::floor(v.num)) {
    type_error(key, v, "an integer");
  }
  if (!(v.num >= 0.0 && v.num <= static_cast<double>(max))) {
    char got[32];
    std::snprintf(got, sizeof got, "%.15g", v.num);
    throw SpecError(file_, v.line,
                    "[" + name_ + "] " + key + ": expected an integer in [0, " +
                        std::to_string(max) + "], got " + got);
  }
  return static_cast<std::int64_t>(v.num);
}

std::string Section::get_string(const std::string& key) const {
  const Value& v = require(key);
  if (v.kind != Value::Kind::kString) type_error(key, v, "a string");
  return v.str;
}

std::string Section::get_string(const std::string& key,
                                const std::string& fallback) const {
  return has(key) ? get_string(key) : fallback;
}

bool Section::get_bool(const std::string& key, bool fallback) const {
  if (!has(key)) return fallback;
  const Value& v = require(key);
  if (v.kind != Value::Kind::kBool) type_error(key, v, "true or false");
  return v.boolean;
}

SimTime Section::get_time(const std::string& key) const {
  const Value& v = require(key);
  if (v.kind != Value::Kind::kString) {
    type_error(key, v, "a time string like \"20ms\"");
  }
  return parse_time(v.str, file_, v.line);
}

SimTime Section::get_time(const std::string& key, SimTime fallback) const {
  return has(key) ? get_time(key) : fallback;
}

double Section::get_rate_bps(const std::string& key) const {
  const Value& v = require(key);
  if (v.kind != Value::Kind::kString) {
    type_error(key, v, "a rate string like \"10Mbps\"");
  }
  return parse_rate_bps(v.str, file_, v.line);
}

double Section::get_rate_bps(const std::string& key, double fallback) const {
  return has(key) ? get_rate_bps(key) : fallback;
}

std::uint64_t Section::get_bytes(const std::string& key,
                                 std::uint64_t fallback) const {
  if (!has(key)) return fallback;
  const Value& v = require(key);
  if (v.kind != Value::Kind::kString) {
    type_error(key, v, "a size string like \"25pkt\"");
  }
  return parse_bytes(v.str, file_, v.line);
}

std::vector<double> Section::get_number_array(const std::string& key) const {
  const Value& v = require(key);
  std::vector<double> out;
  if (v.kind == Value::Kind::kNumber) {
    out.push_back(v.num);
    return out;
  }
  if (v.kind != Value::Kind::kArray) type_error(key, v, "an array of numbers");
  for (const Value& item : v.items) {
    if (item.kind != Value::Kind::kNumber) {
      type_error(key, item, "an array of numbers");
    }
    out.push_back(item.num);
  }
  return out;
}

std::vector<std::string> Section::get_string_array(
    const std::string& key) const {
  const Value& v = require(key);
  std::vector<std::string> out;
  if (v.kind == Value::Kind::kString) {
    out.push_back(v.str);
    return out;
  }
  if (v.kind != Value::Kind::kArray) type_error(key, v, "an array of strings");
  for (const Value& item : v.items) {
    if (item.kind != Value::Kind::kString) {
      type_error(key, item, "an array of strings");
    }
    out.push_back(item.str);
  }
  return out;
}

std::vector<SimTime> Section::get_time_array(const std::string& key) const {
  std::vector<SimTime> out;
  const Value& v = require(key);
  for (const std::string& s : get_string_array(key)) {
    out.push_back(parse_time(s, file_, v.line));
  }
  return out;
}

void Section::reject(const std::string& key, const std::string& why) const {
  const Value* v = find(key);
  throw SpecError(file_, v != nullptr ? v->line : line_,
                  "[" + name_ + "] " + key + ": " + why);
}

void Section::fail(const std::string& message) const {
  throw SpecError(file_, line_, "[" + name_ + "] " + message);
}

void Section::fail_at(int line, const std::string& message) const {
  throw SpecError(file_, line, "[" + name_ + "] " + message);
}

void Section::append(const std::string& key, Value v) {
  if (has(key)) {
    throw SpecError(file_, v.line,
                    "duplicate key '" + key + "' in [" + name_ + "]");
  }
  entries_.emplace_back(key, std::move(v));
  used_.push_back(false);
}

bool Section::override_value(const std::string& key, Value v) {
  for (auto& [k, existing] : entries_) {
    if (k == key) {
      existing = std::move(v);
      return true;
    }
  }
  return false;
}

void Section::mark_all_unused() const {
  for (std::size_t i = 0; i < used_.size(); ++i) used_[i] = false;
}

std::vector<std::pair<std::string, int>> Section::unused_keys() const {
  std::vector<std::pair<std::string, int>> out;
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    if (!used_[i]) out.emplace_back(entries_[i].first, entries_[i].second.line);
  }
  return out;
}

// --- Spec ------------------------------------------------------------------

Spec Spec::parse_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw SpecError(path, 0, "cannot open spec file");
  std::ostringstream buf;
  buf << in.rdbuf();
  return parse_string(buf.str(), path);
}

Spec Spec::parse_string(const std::string& text, const std::string& file) {
  Spec spec;
  spec.file_ = file;
  std::istringstream in(text);
  std::string raw;
  int lineno = 0;
  Section* current = nullptr;
  while (std::getline(in, raw)) {
    ++lineno;
    const std::string line = trim(strip_comment(raw));
    if (line.empty()) continue;
    if (line.front() == '[') {
      if (line.back() != ']') {
        throw SpecError(file, lineno, "section header missing ']': " + line);
      }
      const std::string name = trim(line.substr(1, line.size() - 2));
      if (name.empty()) throw SpecError(file, lineno, "empty section name");
      for (char c : name) {
        if (!is_key_char(c)) {
          throw SpecError(file, lineno,
                          "section name '" + name +
                          "' must be lowercase [a-z0-9_]");
        }
      }
      if (spec.find_section(name) != nullptr) {
        throw SpecError(file, lineno, "duplicate section [" + name + "]");
      }
      spec.sections_.emplace_back(name, lineno, file);
      current = &spec.sections_.back();
      continue;
    }
    const std::size_t eq = line.find('=');
    if (eq == std::string::npos) {
      throw SpecError(file, lineno,
                      "expected '[section]' or 'key = value': " + line);
    }
    const std::string key = trim(line.substr(0, eq));
    if (key.empty()) throw SpecError(file, lineno, "missing key before '='");
    for (char c : key) {
      // Sweep axes use dotted keys ("topology.cap_c") in [sweep] only;
      // the dot is allowed here and validated by the engine.
      if (!is_key_char(c) && c != '.') {
        throw SpecError(file, lineno,
                        "key '" + key + "' must be lowercase [a-z0-9_.]");
      }
    }
    if (current == nullptr) {
      throw SpecError(file, lineno,
                      "'" + key + "' appears before any [section]");
    }
    current->append(key, parse_value(line.substr(eq + 1), file, lineno));
  }
  return spec;
}

Section* Spec::find_section(const std::string& name) {
  for (Section& s : sections_) {
    if (s.name() == name) return &s;
  }
  return nullptr;
}

const Section* Spec::find_section(const std::string& name) const {
  for (const Section& s : sections_) {
    if (s.name() == name) return &s;
  }
  return nullptr;
}

Section& Spec::require_section(const std::string& name) {
  Section* s = find_section(name);
  if (s == nullptr) {
    throw SpecError(file_, 1, "spec is missing required section [" + name +
                    "]");
  }
  return *s;
}

const Section& Spec::require_section(const std::string& name) const {
  const Section* s = find_section(name);
  if (s == nullptr) {
    throw SpecError(file_, 1, "spec is missing required section [" + name +
                    "]");
  }
  return *s;
}

void Spec::check_all_used() const {
  for (const Section& s : sections_) {
    for (const auto& [key, line] : s.unused_keys()) {
      throw SpecError(file_, line,
                      "unknown key '" + key + "' in [" + s.name() + "]");
    }
  }
}

void Spec::mark_all_unused() const {
  for (const Section& s : sections_) s.mark_all_unused();
}

}  // namespace mpsim::scenario
