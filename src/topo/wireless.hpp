// Synthetic WiFi + 3G access links for the §5 experiments: a TwoLink whose
// link 0 ("wifi") and link 1 ("3g") carry radio parameters.
//
// Substitution for the paper's physical radios (documented in DESIGN.md):
//   WiFi: 14.4 Mb/s, short RTT (~20 ms), shallow buffer, plus random
//         corruption loss (2.4 GHz interference made the paper's WiFi
//         lossy and variable).
//   3G:   2.1 Mb/s, longer base RTT (~100 ms), heavily overbuffered (the
//         paper measured RTTs "well over a second"), negligible random
//         loss (dedicated channel).
// Both queues are VariableRateQueues so mobility traces (Fig. 17) can fade
// or kill them. Lives in src/topo so the scenario engine and the tests
// build the exact same client (element order, names and loss seed
// included — byte-identical simulations).
#pragma once

#include <cstdint>

#include "topo/two_link.hpp"

namespace mpsim::topo {

inline constexpr double kWifiRate = 14.4e6;
inline constexpr double k3gRate = 2.1e6;

// Path 0 = WiFi, path 1 = 3G. The default wifi loss models good reception
// (the paper's static test was run "in the same room as the WiFi
// basestation"); the Fig. 15 compete spec passes a higher rate to model
// the interference they saw. Note that at loss p the TCP-sustainable
// window is sqrt(2/p); 0.05% keeps the sawtooth above the 24-packet BDP so
// the 14.4 Mb/s link fills.
inline TwoLink wireless_client(Network& net, double wifi_loss = 0.0005) {
  const LinkSpec wifi{kWifiRate, from_ms(10), 25 * net::kDataPacketBytes};
  // ~0.75 s of buffering at 2.1 Mb/s ~= 130 packets: overbuffered (total
  // RTT well above 2x the base 100 ms), as measured in §5.
  const LinkSpec g3{k3gRate, from_ms(50),
                    static_cast<std::uint64_t>(k3gRate / 8.0 * 0.75)};
  TwoLink client(net, wifi, g3, {"wifi", "3g"});
  client.add_loss(net, 0, wifi_loss, 3051);
  return client;
}

}  // namespace mpsim::topo
