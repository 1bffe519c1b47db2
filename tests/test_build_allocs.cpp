// The heap budget of a topology build: constructing fattree_tp1 (the
// benchmark's Fig. 13 workload: FatTree k = 8, a permutation traffic matrix,
// LIA over 8 sampled subflows per flow) through the library API may make at
// most kMaxAllocs calls to the global allocation functions. Set-up should
// allocate only what a run uses, so a build step that starts allocating per
// element (a name index node per queue, an estimator per window-mode
// subflow, paths built and then dropped) fails here before it shows up as
// set-up time.
//
// This binary replaces the global operator new to count calls, so it is an
// executable of its own.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include "cc/mptcp_lia.hpp"
#include "core/event_list.hpp"
#include "core/rng.hpp"
#include "mptcp/connection.hpp"
#include "topo/fat_tree.hpp"
#include "topo/network.hpp"
#include "traffic/traffic_matrix.hpp"

namespace {

// Calls to any global operator new while g_counting is set. Only the test
// thread runs.
bool g_counting = false;
std::size_t g_allocs = 0;

void* counted_alloc(std::size_t size, std::size_t align) {
  if (g_counting) ++g_allocs;
  const std::size_t n = std::max<std::size_t>(size, 1);
  // aligned_alloc wants a size that is a multiple of the alignment.
  void* p = align <= alignof(std::max_align_t)
                ? std::malloc(n)
                : std::aligned_alloc(align, (n + align - 1) / align * align);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size, 0); }
void* operator new[](std::size_t size) { return counted_alloc(size, 0); }
void* operator new(std::size_t size, std::align_val_t align) {
  return counted_alloc(size, static_cast<std::size_t>(align));
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return counted_alloc(size, static_cast<std::size_t>(align));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace mpsim {
namespace {

// The build below makes 15,605 calls with GCC 12's libstdc++ (33,821 when
// every window-mode subflow built a rate estimator and every candidate path
// was built before the sample dropped most of them); the bound adds a
// margin under 10% for other standard libraries' container growth.
constexpr std::size_t kMaxAllocs = 17'100;

TEST(BuildAllocs, FattreeTp1BuildStaysUnderItsBudget) {
  EventList events;
  std::unique_ptr<topo::Network> net;
  std::unique_ptr<topo::FatTree> ft;
  std::vector<std::unique_ptr<mptcp::MptcpConnection>> flows;
  std::size_t subflows = 0;

  g_allocs = 0;
  g_counting = true;
  net = std::make_unique<topo::Network>(events);
  ft = std::make_unique<topo::FatTree>(*net, 8);
  Rng tm_rng(4243);
  const auto tm = traffic::permutation_tm(ft->num_hosts(), tm_rng);
  Rng path_rng(1);
  mptcp::ConnectionConfig cfg;
  cfg.subflow.min_rto = from_ms(10);
  cfg.recv_buffer_pkts = 4096;
  flows.reserve(tm.size());
  int idx = 0;
  for (const auto& pair : tm) {
    auto conn = std::make_unique<mptcp::MptcpConnection>(
        events, "f" + std::to_string(idx), cc::mptcp_lia(), cfg);
    for (auto& [fwd, rev] :
         topo::sample_path_pairs(*ft, pair.src, pair.dst, 8, path_rng)) {
      conn->add_subflow(fwd, rev);
    }
    conn->start(from_sec(0.00005 * static_cast<double>(idx % 997)));
    subflows += conn->num_subflows();
    flows.push_back(std::move(conn));
    ++idx;
  }
  g_counting = false;

  ASSERT_EQ(flows.size(), 128u);
  ASSERT_EQ(subflows, 992u);  // same-pod pairs have k/2 = 4 paths
  std::printf("fattree_tp1 build: %zu allocation calls (bound %zu)\n",
              g_allocs, kMaxAllocs);
  EXPECT_LE(g_allocs, kMaxAllocs);
}

}  // namespace
}  // namespace mpsim
