// Jain's fairness index, the summary statistic of the paper's evaluation
// (§3: 0.99 / 0.986 / 0.92 on the torus).
#pragma once

#include <vector>

namespace mpsim::stats {

// Jain's fairness index: (sum x)^2 / (n * sum x^2). 1.0 = perfectly fair.
double jain_index(const std::vector<double>& xs);

}  // namespace mpsim::stats
