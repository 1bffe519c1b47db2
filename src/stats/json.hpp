// A deliberately tiny ordered JSON value — numbers, strings, objects,
// arrays — with no external dependency. Used for the machine-readable
// run reports; insertion order is preserved so output is stable across
// runs and thread counts.
#pragma once

#include <cmath>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

namespace mpsim::stats {

class Json {
 public:
  static Json number(double v) {
    Json j(Kind::kNumber);
    j.num_ = v;
    return j;
  }
  static Json str(std::string v) {
    Json j(Kind::kString);
    j.str_ = std::move(v);
    return j;
  }
  static Json object() { return Json(Kind::kObject); }
  static Json array() { return Json(Kind::kArray); }

  // Object members (insertion-ordered).
  Json& set(const std::string& key, Json v) {
    members_.emplace_back(key, std::move(v));
    return *this;
  }
  Json& set(const std::string& key, double v) {
    return set(key, number(v));
  }
  Json& set(const std::string& key, const std::string& v) {
    return set(key, str(v));
  }
  Json& set(const std::string& key, const char* v) {
    return set(key, str(v));
  }

  // Array items.
  Json& push(Json v) {
    items_.push_back(std::move(v));
    return *this;
  }
  Json& push(double v) { return push(number(v)); }

  std::string dump(int indent = 0) const {
    std::string out;
    write(out, indent);
    return out;
  }

 private:
  enum class Kind { kNumber, kString, kObject, kArray };

  explicit Json(Kind k) : kind_(k) {}

  static void append_escaped(std::string& out, const std::string& s) {
    out += '"';
    for (char c : s) {
      if (c == '"' || c == '\\') out += '\\';
      out += c;
    }
    out += '"';
  }

  static void append_number(std::string& out, double v) {
    if (!std::isfinite(v)) {  // JSON has no inf/nan; emit null
      out += "null";
      return;
    }
    char buf[40];
    if (v == std::floor(v) && std::fabs(v) < 1e15) {
      std::snprintf(buf, sizeof buf, "%.0f", v);
    } else {
      std::snprintf(buf, sizeof buf, "%.10g", v);
    }
    out += buf;
  }

  void write(std::string& out, int indent) const {
    const std::string pad(static_cast<std::size_t>(indent) * 2, ' ');
    const std::string pad1(static_cast<std::size_t>(indent + 1) * 2, ' ');
    switch (kind_) {
      case Kind::kNumber:
        append_number(out, num_);
        break;
      case Kind::kString:
        append_escaped(out, str_);
        break;
      case Kind::kObject: {
        if (members_.empty()) {
          out += "{}";
          break;
        }
        out += "{\n";
        for (std::size_t i = 0; i < members_.size(); ++i) {
          out += pad1;
          append_escaped(out, members_[i].first);
          out += ": ";
          members_[i].second.write(out, indent + 1);
          if (i + 1 < members_.size()) out += ',';
          out += '\n';
        }
        out += pad + "}";
        break;
      }
      case Kind::kArray: {
        if (items_.empty()) {
          out += "[]";
          break;
        }
        out += "[\n";
        for (std::size_t i = 0; i < items_.size(); ++i) {
          out += pad1;
          items_[i].write(out, indent + 1);
          if (i + 1 < items_.size()) out += ',';
          out += '\n';
        }
        out += pad + "]";
        break;
      }
    }
  }

  Kind kind_;
  double num_ = 0.0;
  std::string str_;
  std::vector<std::pair<std::string, Json>> members_;
  std::vector<Json> items_;
};

}  // namespace mpsim::stats
