#include "scenario/spec.hpp"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "core/env.hpp"
#include "net/packet.hpp"

namespace mpsim::scenario {

using env::trim;

namespace {

bool is_key_char(char c) {
  return (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') || c == '_';
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
  if (!env::parse_double(t.substr(0, i), magnitude)) return false;
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
  if (env::parse_double(t, num)) return Value::number(num, line);
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

// --- Section ---------------------------------------------------------------

bool Section::has(const std::string& key) const {
  for (const auto& [k, v] : entries_) {
    if (k == key) return true;
  }
  return false;
}

const Value* Section::find(const std::string& key) const {
  for (const auto& [k, v] : entries_) {
    if (k == key) return &v;
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

std::int64_t Section::count_of(const std::string& key, const Value& v,
                               std::int64_t max) const {
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

bool Section::get_bool(const std::string& key) const {
  const Value& v = require(key);
  if (v.kind != Value::Kind::kBool) type_error(key, v, "true or false");
  return v.boolean;
}

SimTime Section::time_of(const std::string& key, const std::string& text,
                         int line) const {
  const SimTime t = parse_time(text, file_, line);
  if (t < 0) {
    throw SpecError(file_, line,
                    "[" + name_ + "] " + key +
                        ": expected a non-negative time, got \"" + text +
                        "\"");
  }
  return t;
}

SimTime Section::get_time(const std::string& key) const {
  const Value& v = require(key);
  if (v.kind != Value::Kind::kString) {
    type_error(key, v, "a time string like \"20ms\"");
  }
  return time_of(key, v.str, v.line);
}

double Section::get_rate_bps(const std::string& key) const {
  const Value& v = require(key);
  if (v.kind != Value::Kind::kString) {
    type_error(key, v, "a rate string like \"10Mbps\"");
  }
  return parse_rate_bps(v.str, file_, v.line);
}

std::uint64_t Section::get_bytes(const std::string& key) const {
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

std::vector<std::uint64_t> Section::get_count_array(
    const std::string& key) const {
  const Value& v = require(key);
  std::vector<std::uint64_t> out;
  for (const Value& item :
       v.kind == Value::Kind::kArray ? v.items : std::vector<Value>{v}) {
    out.push_back(static_cast<std::uint64_t>(
        count_of(key, item, count_max<std::uint64_t>())));
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
    out.push_back(time_of(key, s, v.line));
  }
  return out;
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

// --- key tables ------------------------------------------------------------

namespace {

bool is_array(KeyType t) { return t >= KeyType::kCounts; }

bool is_numeric(KeyType t) { return t <= KeyType::kNumber; }

// A string scalar: its default may be written without quotes.
bool is_quoted_scalar(KeyType t) {
  return t >= KeyType::kString && t <= KeyType::kBytes;
}

const char* type_name(KeyType t) {
  static constexpr const char* kNames[] = {
      "count", "count64", "number",  "bool",     "string",   "time",
      "rate",  "bytes",   "count[]", "number[]", "string[]", "time[]"};
  return kNames[static_cast<int>(t)];
}

std::string num_text(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%g", v);
  return buf;
}

// What a value in `r` must be, as the tail of "... must ...": "be >= 1",
// "be >= 1500B", "be in [0, 1)"; "" when `r` accepts every value.
std::string bounds(const Range& r, const std::string& unit) {
  if (r.lo == -std::numeric_limits<double>::infinity()) return "";
  if (r.hi != std::numeric_limits<double>::infinity()) {
    return "be in " + std::string(r.lo_open ? "(" : "[") + num_text(r.lo) +
           unit + ", " + num_text(r.hi) + unit + (r.hi_open ? ")" : "]");
  }
  return std::string("be ") + (r.even ? "even and " : "") +
         (r.lo_open ? "> " : ">= ") + num_text(r.lo) + unit;
}

// What `k`'s values must satisfy, as the tail of "'<key>' must ...":
// "be >= 1", "be in [0, 1)", "list 3 entries", "be one of ...";
// "" when every value of its type is accepted. Key::each is separate.
std::string condition(const Key& k) {
  if (!k.choices.empty()) {
    std::string out = "be one of ";
    for (const std::string& c : k.choices) {
      out += (c == k.choices.front() ? "\"" : ", \"") + c + "\"";
    }
    return out;
  }
  const Range& r = k.range;
  if (!is_array(k.type)) {
    return bounds(r, k.type == KeyType::kTime    ? "s"
                     : k.type == KeyType::kBytes ? "B"
                                                 : "");
  }
  if (r.lo == -std::numeric_limits<double>::infinity()) return "";
  return r.lo == r.hi ? "list " + num_text(r.lo) + " entries"
                      : "not be empty";
}

bool in_range(const Range& r, double v) {
  return (r.lo_open ? v > r.lo : v >= r.lo) &&
         (r.hi_open ? v < r.hi : v <= r.hi) &&
         (!r.even || std::fmod(v, 2.0) == 0.0);
}

// Check `k`'s value in `s` (present) against its type, range and choices.
void check_value(const Section& s, const Key& k) {
  const std::string& n = k.name;
  auto size = [](const auto& xs) { return static_cast<double>(xs.size()); };
  double v = 0.0;  // the scalar, or the number of array entries
  std::vector<double> entries;  // a kNumbers array's, checked against each
  bool chosen = true;
  switch (k.type) {
    case KeyType::kCount: v = s.get_count<int>(n); break;
    case KeyType::kCount64:
      v = static_cast<double>(s.get_count<std::uint64_t>(n));
      break;
    case KeyType::kNumber: v = s.get_number(n); break;
    case KeyType::kBool: s.get_bool(n); break;
    case KeyType::kString:
      chosen = k.choices.empty() ||
               std::find(k.choices.begin(), k.choices.end(),
                         s.get_string(n)) != k.choices.end();
      break;
    case KeyType::kTime: v = to_sec(s.get_time(n)); break;
    case KeyType::kRate: v = s.get_rate_bps(n); break;
    case KeyType::kBytes: v = static_cast<double>(s.get_bytes(n)); break;
    case KeyType::kCounts: v = size(s.get_count_array(n)); break;
    case KeyType::kNumbers:
      entries = s.get_number_array(n);
      v = size(entries);
      break;
    case KeyType::kStrings: v = size(s.get_string_array(n)); break;
    case KeyType::kTimes: v = size(s.get_time_array(n)); break;
  }
  if (!chosen || !in_range(k.range, v)) {
    s.fail_at(s.find(n)->line, "'" + n + "' must " + condition(k));
  }
  for (double e : entries) {
    if (!in_range(k.each, e)) {
      s.fail_at(s.find(n)->line, "'" + n + "' entries must " +
                                     bounds(k.each, "") + ", got " +
                                     num_text(e));
    }
  }
}

}  // namespace

Args read_args(const Section& s, std::initializer_list<const KeyTable*> tables,
               bool partial) {
  std::vector<const Key*> keys;
  for (const KeyTable* t : tables) {
    for (const Key& k : *t) keys.push_back(&k);
  }
  auto known = [&](const std::string& name) {
    for (const Key* k : keys) {
      if (k->name == name) return k->needs.empty() || s.has(k->needs);
    }
    return false;
  };
  for (const auto& [name, v] : s.entries()) {
    if (!partial && !known(name)) {
      throw SpecError(s.file(), v.line,
                      "unknown key '" + name + "' in [" + s.name() + "]");
    }
  }
  Args args(s);
  for (const Key* k : keys) {
    if (s.has(k->name)) {
      check_value(s, *k);
      if (!k->excludes.empty() && s.has(k->excludes)) {
        s.fail_at(s.find(k->name)->line,
                  k->name + ": mutually exclusive with '" + k->excludes + "'");
      }
    } else if (k->def == kRequired) {
      if (k->needs.empty() || s.has(k->needs)) {
        s.fail("is missing required key '" + k->name + "'");
      }
    } else if (*k->def != '\0') {
      args.append(k->name, is_quoted_scalar(k->type)
                               ? Value::string(k->def, s.line())
                               : parse_value(k->def, s.file(), s.line()));
    }
  }
  return args;
}

namespace {

// `entry` holding `pairs` (key, token), read against `table`.
Args read_entry(const Section& entry,
                const std::vector<std::pair<std::string, std::string>>& pairs,
                const KeyTable& table) {
  Section s = entry;
  for (const auto& [key, text] : pairs) {
    const auto row = std::find_if(table.begin(), table.end(),
                                  [&](const Key& k) { return k.name == key; });
    double num = 0.0;
    if (row == table.end() || !is_numeric(row->type)) {
      s.append(key, Value::string(text, s.line()));
    } else if (env::parse_double(text, num)) {
      s.append(key, Value::number(num, s.line()));
    } else {
      s.fail(key + ": expected a number, got '" + text + "'");
    }
  }
  return read_args(s, {&table});
}

}  // namespace

Args read_positional(const Section& entry,
                     const std::vector<std::string>& tokens,
                     const KeyTable& table) {
  if (tokens.size() > table.size()) {
    entry.fail("takes " + std::to_string(table.size()) + " argument" +
               (table.size() == 1 ? "" : "s") + ", got " +
               std::to_string(tokens.size()));
  }
  std::vector<std::pair<std::string, std::string>> pairs;
  for (std::size_t i = 0; i < tokens.size(); ++i) {
    pairs.emplace_back(table[i].name, tokens[i]);
  }
  return read_entry(entry, pairs, table);
}

Args read_keyed(const Section& entry, const std::vector<std::string>& tokens,
                const KeyTable& table) {
  std::vector<std::pair<std::string, std::string>> pairs;
  for (const std::string& t : tokens) {
    const std::size_t eq = t.find('=');
    if (eq == std::string::npos) {
      entry.fail("'" + t + "' is not of the form key=value");
    }
    pairs.emplace_back(t.substr(0, eq), t.substr(eq + 1));
  }
  return read_entry(entry, pairs, table);
}

std::string format_key(const Key& k) {
  std::string def = k.def == kRequired ? "required"
                    : *k.def == '\0'   ? "-"
                    : is_quoted_scalar(k.type)
                        ? '"' + std::string(k.def) + '"'
                        : k.def;
  char head[160];
  std::snprintf(head, sizeof head, "%-18s %-8s %-10s ", k.name.c_str(),
                type_name(k.type), def.c_str());
  std::string line = head + k.doc;
  if (const std::string c = condition(k); !c.empty()) line += "; must " + c;
  if (const std::string e = bounds(k.each, ""); !e.empty()) {
    line += "; entries must " + e;
  }
  if (!k.excludes.empty()) line += "; not with " + k.excludes;
  if (!k.needs.empty()) line += "; only with " + k.needs;
  return line;
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

const Section& Spec::require_section(const std::string& name) const {
  const Section* s = find_section(name);
  if (s == nullptr) {
    throw SpecError(file_, 1, "spec is missing required section [" + name +
                    "]");
  }
  return *s;
}

}  // namespace mpsim::scenario
