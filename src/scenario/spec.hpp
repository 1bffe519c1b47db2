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
// sizes ("25pkt", "64kB"). A time is never negative, as a count is not.
// A malformed or unit-less quantity is an error with a file:line
// diagnostic — a spec never silently falls back to a default when a value
// was provided.
//
// Every key a spec may give, in a section or in an entry string ("3s ramp
// 8Mbps 2s 4 link1/q", "loss_ratio:0:2"), is declared once in a key table
// (Key below): name, type, default, range or choices, exclusion and one
// line of doc. read_args() checks a section, or an entry's tokens, against
// its tables before anything is built, so a misspelled key, a value of the
// wrong type or out of range, or two keys that exclude each other fail
// validation; builders then read values that are already typed, defaulted
// and range-checked. `mpsim list` prints the tables.
#pragma once

#include <algorithm>
#include <concepts>
#include <cstdint>
#include <initializer_list>
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

class Section {
 public:
  Section(std::string name, int line, std::string file)
      : name_(std::move(name)), line_(line), file_(std::move(file)) {}

  const std::string& name() const { return name_; }
  int line() const { return line_; }
  const std::string& file() const { return file_; }

  bool has(const std::string& key) const;

  // --- typed accessors -----------------------------------------------
  // A missing key, a key of the wrong type or a malformed unit is a
  // SpecError. Defaults come from key tables (read_args), never from the
  // caller.
  double get_number(const std::string& key) const;
  // Integer keys, read as counts of type T (see count_max()).
  template <std::integral T>
  T get_count(const std::string& key) const {
    return static_cast<T>(count_of(key, require(key), count_max<T>()));
  }
  std::string get_string(const std::string& key) const;
  bool get_bool(const std::string& key) const;
  SimTime get_time(const std::string& key) const;
  double get_rate_bps(const std::string& key) const;
  std::uint64_t get_bytes(const std::string& key) const;

  // Arrays. A scalar is accepted as a one-element array, so a sweep axis
  // can substitute a single value for a list-valued key.
  std::vector<double> get_number_array(const std::string& key) const;
  std::vector<std::uint64_t> get_count_array(const std::string& key) const;
  std::vector<std::string> get_string_array(const std::string& key) const;
  std::vector<SimTime> get_time_array(const std::string& key) const;

  // Raw lookup. nullptr when absent.
  const Value* find(const std::string& key) const;

  [[noreturn]] void fail(const std::string& message) const;  // at section line
  [[noreturn]] void fail_at(int line, const std::string& message) const;

  // Parser/sweep-expansion interface.
  void append(const std::string& key, Value v);  // throws on duplicate key
  bool override_value(const std::string& key, Value v);  // false if absent
  const std::vector<std::pair<std::string, Value>>& entries() const {
    return entries_;
  }

 private:
  const Value& require(const std::string& key) const;
  std::int64_t count_of(const std::string& key, const Value& v,
                        std::int64_t max) const;
  // `text` (from `key` at `line`) as a time, which like a count is never
  // negative.
  SimTime time_of(const std::string& key, const std::string& text,
                  int line) const;
  [[noreturn]] void type_error(const std::string& key, const Value& v,
                               const char* expected) const;

  std::string name_;
  int line_;
  std::string file_;
  std::vector<std::pair<std::string, Value>> entries_;
};

// --- key tables -------------------------------------------------------------

// What a key holds. kCount is a whole number stored in an int; kCount64 one
// stored in 64 bits (seeds, packet counts, capacities). kTime, kRate and
// kBytes are unit strings. The plural kinds are flat arrays.
enum class KeyType : std::uint8_t {
  kCount, kCount64, kNumber, kBool, kString, kTime, kRate, kBytes,
  kCounts, kNumbers, kStrings, kTimes,
};

// The values a numeric key accepts (a time's in seconds, a size's in
// bytes), or for an array key how many entries it must list.
struct Range {
  double lo = -std::numeric_limits<double>::infinity();
  double hi = std::numeric_limits<double>::infinity();
  bool lo_open = false;
  bool hi_open = false;
  bool even = false;
};

constexpr Range at_least(double lo) { return {.lo = lo}; }
constexpr Range above(double lo) { return {.lo = lo, .lo_open = true}; }
constexpr Range exactly(double n) { return {.lo = n, .hi = n}; }

// Key::def of a key the section must give.
inline constexpr const char* kRequired = nullptr;

// One declared key.
struct Key {
  std::string name;
  KeyType type;
  // The default, in spec syntax (a scalar string may leave out its
  // quotes); kRequired; or "" when the builder computes it and `doc` says
  // how.
  const char* def;
  std::string doc;
  Range range = {};
  std::vector<std::string> choices = {};  // the accepted strings, if limited
  std::string excludes = {};  // a key this one may not appear with
  // A key without which this one is unknown; a kRequired key with `needs`
  // is required only when that key is given.
  std::string needs = {};
  Range each = {};  // the values each entry of a kNumbers array accepts
};

using KeyTable = std::vector<Key>;

// A section read_args() has checked against its key tables, with every
// static default filled in. Builders take one, so they never see a raw
// section, and read it with Section's getters.
class Args : public Section {
 private:
  explicit Args(const Section& s) : Section(s) {}
  friend Args read_args(const Section& s,
                        std::initializer_list<const KeyTable*> tables,
                        bool partial);
};

// Check `s` against the union of `tables`: every key declared (an unknown
// key fails with its own line), of its type, inside its range or choices,
// not next to a key it excludes, and every required key given. `partial`
// skips the unknown-key check, to read one key (a section's `kind`) before
// the rest of its table is known.
Args read_args(const Section& s, std::initializer_list<const KeyTable*> tables,
               bool partial = false);

// An entry string's tokens read against `table` as section `entry` (empty;
// it names the entry and its line in diagnostics). read_positional: the
// tokens fill the table's rows in order. read_keyed: each token is
// `key=value`. A token for a count or number row must be a number.
Args read_positional(const Section& entry,
                     const std::vector<std::string>& tokens,
                     const KeyTable& table);
Args read_keyed(const Section& entry, const std::vector<std::string>& tokens,
                const KeyTable& table);

// `k` as one line of `mpsim list`: name, type, default, doc and the
// accepted values.
std::string format_key(const Key& k);

class Spec {
 public:
  // Parse from disk / from memory (`file` labels diagnostics).
  static Spec parse_file(const std::string& path);
  static Spec parse_string(const std::string& text, const std::string& file);

  const std::string& file() const { return file_; }

  Section* find_section(const std::string& name);
  const Section* find_section(const std::string& name) const;
  const Section& require_section(const std::string& name) const;
  const std::vector<Section>& sections() const { return sections_; }

 private:
  std::string file_;
  std::vector<Section> sections_;
};

}  // namespace mpsim::scenario
