// Aligned-text table output, so an example can print the same rows the
// paper's tables report.
#pragma once

#include <string>
#include <vector>

namespace mpsim::stats {

class Table {
 public:
  explicit Table(std::vector<std::string> headers);

  void add_row(std::vector<std::string> cells);

  // Convenience: first cell is a label, the rest are numbers.
  void add_row(const std::string& label, const std::vector<double>& values,
               int precision = 1);

  // Render with aligned columns.
  std::string to_string() const;
  void print() const;  // to stdout

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

std::string fmt_double(double v, int precision = 1);

}  // namespace mpsim::stats
