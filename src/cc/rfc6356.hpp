// RFC 6356-style formulation of the paper's algorithm, kept as an ablation.
//
// Instead of minimising eq. (1) over subsets on every ACK, the standardised
// variant ("Linked Increases Algorithm") computes a single aggressiveness
// constant
//
//   alpha = w_total * max_r (w_r / RTT_r^2) / ( sum_r w_r / RTT_r )^2
//
// and increases by min(alpha / w_total, 1/w_r) per ACK — exactly the §2.5
// two-path algorithm box generalised with S = R only. For the minimising
// set equal to the full set the two coincide; they differ transiently when
// some strict subset is the binding bottleneck constraint. The ablation
// spec (ablation_lia.toml) compares the two on Fig. 14's mismatched RTTs.
#pragma once

#include "cc/congestion_control.hpp"

namespace mpsim::cc {

class Rfc6356 : public CongestionControl {
 public:
  double increase_per_ack(const ConnectionView& c, std::size_t r) const override;
  double window_after_loss(const ConnectionView& c, std::size_t r) const override;
  std::string name() const override { return "RFC6356"; }

  static double alpha(const ConnectionView& c);
};

const Rfc6356& rfc6356();

}  // namespace mpsim::cc
