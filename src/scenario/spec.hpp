// Declarative experiment specs: a dependency-free parser for a flat TOML
// subset, plus strict typed accessors with units.
//
// Grammar (one construct per line):
//
//   # comment                      (also allowed after a value)
//   [section]                      lowercase [a-z0-9_]+, unique per file
//   key = value                    key [a-z0-9_]+, unique per section
//
//   value := "string" | number | true | false | [ scalar, scalar, ... ]
//
// Arrays are flat (no nesting) and may mix nothing: all elements must be
// the same scalar kind. Bare words are not values — strings are always
// quoted, so a typo like `algorithm = mptcp` fails loudly instead of
// parsing as something surprising.
//
// Quantities carry units inside strings and are parsed by the typed
// getters: times ("20ms", "1.5s", "9min"), rates ("14.4Mbps", "1000pps"),
// sizes ("25pkt", "64kB"). A malformed or unit-less quantity is an error
// with a file:line diagnostic — a spec never silently falls back to a
// default when a value was provided.
//
// Every accessor marks its key as consumed; Spec::check_all_used() turns
// unconsumed keys into unknown-key errors, so misspelled keys cannot be
// silently ignored either.
#pragma once

#include <algorithm>
#include <concepts>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/time.hpp"

namespace mpsim::scenario {

// All spec failures — syntax, types, units, unknown keys — carry the file
// and line they point at.
class SpecError : public std::runtime_error {
 public:
  SpecError(const std::string& file, int line, const std::string& message)
      : std::runtime_error(file + ":" + std::to_string(line) + ": " +
                           message),
        file_(file),
        line_(line) {}

  const std::string& file() const { return file_; }
  int line() const { return line_; }

 private:
  std::string file_;
  int line_;
};

struct Value {
  enum class Kind : std::uint8_t { kString, kNumber, kBool, kArray };

  Kind kind = Kind::kNumber;
  std::string str;            // kString
  double num = 0.0;           // kNumber
  bool boolean = false;       // kBool
  std::vector<Value> items;   // kArray (scalars only)
  int line = 0;

  static Value string(std::string s, int line);
  static Value number(double v, int line);

  const char* kind_name() const;
};

// Unit parsing, exposed for tests. Each throws SpecError on malformed
// input, reporting `file`:`line`.
SimTime parse_time(const std::string& text, const std::string& file,
                   int line);
double parse_rate_bps(const std::string& text, const std::string& file,
                      int line);
std::uint64_t parse_bytes(const std::string& text, const std::string& file,
                          int line);

// Every integer in a spec counts, sizes, indexes or seeds something, so
// integers are read as counts: whole numbers in [0, count_max<T>()] for
// the type T they are stored in, checked before any narrowing so that no
// value wraps. Spec numbers are doubles, which hold integers exactly only
// up to 2^53.
template <std::integral T>
constexpr std::int64_t count_max() {
  return static_cast<std::int64_t>(std::min<std::uint64_t>(
      std::numeric_limits<T>::max(), std::uint64_t{1} << 53));
}

// `text` (a decimal integer token: a flow path index, a fault count) as a
// count in [0, max]; otherwise a SpecError at `file`:`line` naming `what`
// and the token.
std::int64_t parse_count(const std::string& text, std::int64_t max,
                         const std::string& what, const std::string& file,
                         int line);

class Section {
 public:
  Section(std::string name, int line, std::string file)
      : name_(std::move(name)), line_(line), file_(std::move(file)) {}

  const std::string& name() const { return name_; }
  int line() const { return line_; }
  const std::string& file() const { return file_; }

  bool has(const std::string& key) const;

  // --- typed accessors -----------------------------------------------
  // Two forms each: with a fallback (missing key => fallback) and without
  // (missing key => SpecError). A key that exists with the wrong type or a
  // malformed unit is always an error.
  double get_number(const std::string& key) const;
  double get_number(const std::string& key, double fallback) const;
  // Integer keys, read as counts of type T (see count_max()).
  template <std::integral T>
  T get_count(const std::string& key) const {
    return static_cast<T>(get_count_upto(key, count_max<T>()));
  }
  template <std::integral T>
  T get_count(const std::string& key, T fallback) const {
    return has(key) ? get_count<T>(key) : fallback;
  }
  std::string get_string(const std::string& key) const;
  std::string get_string(const std::string& key,
                         const std::string& fallback) const;
  bool get_bool(const std::string& key, bool fallback) const;
  SimTime get_time(const std::string& key) const;
  SimTime get_time(const std::string& key, SimTime fallback) const;
  double get_rate_bps(const std::string& key) const;
  double get_rate_bps(const std::string& key, double fallback) const;
  std::uint64_t get_bytes(const std::string& key,
                          std::uint64_t fallback) const;

  // Arrays. A scalar is accepted as a one-element array, so a sweep axis
  // can substitute a single value for a list-valued key.
  std::vector<double> get_number_array(const std::string& key) const;
  std::vector<std::string> get_string_array(const std::string& key) const;
  std::vector<SimTime> get_time_array(const std::string& key) const;
  bool has_array(const std::string& key) const { return has(key); }

  // Raw lookup; marks the key consumed. nullptr when absent.
  const Value* find(const std::string& key) const;

  // Throw for a key that exists but should not (e.g. mutually exclusive
  // parameter forms).
  [[noreturn]] void reject(const std::string& key,
                           const std::string& why) const;
  [[noreturn]] void fail(const std::string& message) const;  // at section line
  [[noreturn]] void fail_at(int line, const std::string& message) const;

  // Parser/sweep-expansion interface.
  void append(const std::string& key, Value v);  // throws on duplicate key
  bool override_value(const std::string& key, Value v);  // false if absent
  void mark_all_unused() const;
  std::vector<std::pair<std::string, int>> unused_keys() const;
  const std::vector<std::pair<std::string, Value>>& entries() const {
    return entries_;
  }

 private:
  const Value& require(const std::string& key) const;
  std::int64_t get_count_upto(const std::string& key, std::int64_t max) const;
  [[noreturn]] void type_error(const std::string& key, const Value& v,
                               const char* expected) const;

  std::string name_;
  int line_;
  std::string file_;
  std::vector<std::pair<std::string, Value>> entries_;
  mutable std::vector<bool> used_;
};

class Spec {
 public:
  // Parse from disk / from memory (`file` labels diagnostics).
  static Spec parse_file(const std::string& path);
  static Spec parse_string(const std::string& text, const std::string& file);

  const std::string& file() const { return file_; }

  Section* find_section(const std::string& name);
  const Section* find_section(const std::string& name) const;
  Section& require_section(const std::string& name);
  const Section& require_section(const std::string& name) const;
  const std::vector<Section>& sections() const { return sections_; }

  // After a full build: every key of every section must have been read.
  void check_all_used() const;
  void mark_all_unused() const;

 private:
  std::string file_;
  std::vector<Section> sections_;
};

}  // namespace mpsim::scenario
