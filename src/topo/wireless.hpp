// Synthetic WiFi + 3G access links for the §5 experiments.
//
// Substitution for the paper's physical radios (documented in DESIGN.md):
//   WiFi: 14.4 Mb/s, short RTT (~20 ms), shallow buffer, plus random
//         corruption loss (2.4 GHz interference made the paper's WiFi
//         lossy and variable).
//   3G:   2.1 Mb/s, longer base RTT (~100 ms), heavily overbuffered (the
//         paper measured RTTs "well over a second"), negligible random
//         loss (dedicated channel).
// Both are VariableRateQueues so mobility traces (Fig. 17) can fade or
// kill them. Lives in src/topo so the scenario engine and the tests build
// the exact same client (element order, names and loss seed included —
// byte-identical simulations).
#pragma once

#include "topo/network.hpp"

namespace mpsim::topo {

struct WirelessClient {
  static constexpr double kWifiRate = 14.4e6;
  static constexpr double k3gRate = 2.1e6;

  // Default wifi loss models good reception (the paper's static test was
  // run "in the same room as the WiFi basestation"); the Fig. 15 compete
  // spec passes a higher rate to model the interference they saw. Note
  // that at loss p the TCP-sustainable window is sqrt(2/p); 0.05% keeps
  // the sawtooth above the 24-packet BDP so the 14.4 Mb/s link fills.
  explicit WirelessClient(Network& net, double wifi_loss = 0.0005)
      : wifi_q(net.add_variable_queue("wifi/q", kWifiRate,
                                      25 * net::kDataPacketBytes)),
        wifi_loss_el(net.add_lossy("wifi/loss", wifi_loss, 3051)),
        wifi_pipe(net.add_pipe("wifi/pipe", from_ms(10))),
        wifi_ack(net.add_pipe("wifi/ack", from_ms(10))),
        // ~0.75 s of buffering at 2.1 Mb/s ~= 130 packets: overbuffered
        // (total RTT well above 2x the base 100 ms), as measured in §5.
        g3_q(net.add_variable_queue("3g/q", k3gRate,
                                    static_cast<std::uint64_t>(
                                        k3gRate / 8.0 * 0.75))),
        g3_pipe(net.add_pipe("3g/pipe", from_ms(50))),
        g3_ack(net.add_pipe("3g/ack", from_ms(50))) {}

  Path wifi_fwd() { return {&wifi_loss_el, &wifi_q, &wifi_pipe}; }
  Path wifi_rev() { return {&wifi_ack}; }
  Path g3_fwd() { return {&g3_q, &g3_pipe}; }
  Path g3_rev() { return {&g3_ack}; }

  net::VariableRateQueue& wifi_q;
  net::LossyLink& wifi_loss_el;
  net::Pipe& wifi_pipe;
  net::Pipe& wifi_ack;
  net::VariableRateQueue& g3_q;
  net::Pipe& g3_pipe;
  net::Pipe& g3_ack;
};

}  // namespace mpsim::topo
