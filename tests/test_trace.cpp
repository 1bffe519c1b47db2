// The flight recorder: record schema round-trips through the CSV text, the
// ring overwrites oldest-first, instrumentation is free (and silent) when no
// recorder is installed, and runner trace files are byte-identical however
// many threads execute the jobs.
#include "trace/trace.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "core/check.hpp"
#include "core/event_list.hpp"
#include "runner/experiment_runner.hpp"
#include "sim_fixtures.hpp"
#include "topo/network.hpp"
#include "topo/two_link.hpp"
#include "trace/record.hpp"

namespace mpsim::trace {
namespace {

std::vector<std::string> split_lines(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}

// CSV rows per record type (the second column), header skipped.
std::map<std::string, std::size_t> rows_by_type(const std::string& csv) {
  std::map<std::string, std::size_t> rows;
  const auto lines = split_lines(csv);
  for (std::size_t i = 1; i < lines.size(); ++i) {
    const std::size_t from = lines[i].find(',') + 1;
    ++rows[lines[i].substr(from, lines[i].find(',', from) - from)];
  }
  return rows;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

TEST(TraceRecorder, InstallAndFind) {
  EventList events;
  EXPECT_EQ(TraceRecorder::find(events), nullptr);
  TraceRecorder& rec = TraceRecorder::install(events);
  EXPECT_EQ(TraceRecorder::find(events), &rec);
  EXPECT_EQ(rec.capacity(), std::size_t{1} << 18);
  EXPECT_EQ(rec.size(), 0u);
}

TEST(TraceRecorder, CsvSchemaRoundTrip) {
  EventList events;
  TraceRecorder& rec = TraceRecorder::install(events);
  const std::uint16_t sf = rec.register_object("conn/sf0");
  const std::uint16_t q = rec.register_object("bottleneck");

  TraceRecorder* r = &rec;
  MPSIM_TRACE(r, cwnd_sample(from_ms(5), sf, 7, 1,
                             TcpPhase::kCongestionAvoidance, 12.5, 8.0,
                             from_ms(100), from_ms(300)));
  MPSIM_TRACE(r, queue_drop(from_ms(6), q, 7, 1, 15000, 1500));
  MPSIM_TRACE(r, state_transition(from_ms(7), sf, 7, 1,
                                  TcpPhase::kCongestionAvoidance,
                                  TcpPhase::kFastRecovery));
  ASSERT_EQ(rec.size(), 3u);

  const auto lines = split_lines(rec.csv());
  ASSERT_EQ(lines.size(), 4u);
  EXPECT_EQ(lines[0], TraceRecorder::kCsvHeader);
  // t_ns,type,obj,flow,sub,phase,a,b,x,y with a=srtt ns, b=rto ns,
  // x=cwnd, y=ssthresh for a cwnd sample.
  EXPECT_EQ(lines[1], "5000000,cwnd,conn/sf0,7,1,1,100000000,300000000,"
                      "12.5,8");
  EXPECT_EQ(lines[2], "6000000,queue_drop,bottleneck,7,1,0,15000,1500,0,0");
  EXPECT_EQ(lines[3], "7000000,state,conn/sf0,7,1,2,1,0,0,0");
}

TEST(TraceRecorder, RingOverwritesOldest) {
  EventList events;
  TraceRecorder& rec = TraceRecorder::install(events, 8);
  const std::uint16_t id = rec.register_object("q");
  TraceRecorder* r = &rec;
  for (int i = 0; i < 20; ++i) {
    MPSIM_TRACE(r, queue_sample(SimTime{i}, id, 100 * i, i));
  }
  EXPECT_EQ(rec.capacity(), 8u);
  EXPECT_EQ(rec.size(), 8u);
  EXPECT_EQ(rec.total_records(), 20u);
  EXPECT_EQ(rec.overwritten(), 12u);

  const auto lines = split_lines(rec.csv());
  ASSERT_EQ(lines.size(), 9u);  // header + the 8 newest, oldest first
  for (int i = 0; i < 8; ++i) {
    const int t = 12 + i;
    EXPECT_EQ(lines[static_cast<std::size_t>(1 + i)],
              std::to_string(t) + ",queue," + "q,0,0,0," +
                  std::to_string(100 * t) + "," + std::to_string(t) +
                  ",0,0");
  }
}

TEST(TraceRecorder, FlushIsRepeatable) {
  EventList events;
  TraceRecorder& rec = TraceRecorder::install(events);
  const std::uint16_t id = rec.register_object("x");
  TraceRecorder* r = &rec;
  MPSIM_TRACE(r, data_ack(from_ms(1), id, 3, 10, 500));
  const std::string first = rec.csv();
  EXPECT_EQ(rec.csv(), first);
  EXPECT_EQ(first, std::string(TraceRecorder::kCsvHeader) +
                       "\n1000000,data_ack,x,3,0,0,10,500,0,0\n");
}

TEST(TraceRecorder, ObjectNameThatWouldSplitACsvRowIsRejected) {
  if (!checks_enabled()) {
    GTEST_SKIP() << "requires MPSIM_CHECK (MPSIM_CHECKS=off lane)";
  }
  ScopedThrowingChecks guard;
  EventList events;
  TraceRecorder& rec = TraceRecorder::install(events);
  for (const char* name : {"a,b", "a\"b", "a\nb"}) {
    EXPECT_THROW(rec.register_object(name), CheckFailureError) << name;
  }
}

// A full simulation with no recorder installed must record nothing and cost
// nothing: the instrumented objects hold a null recorder pointer.
TEST(TraceRecorder, DisabledRecorderMeansZeroRecords) {
  EventList events;
  topo::Network net(events);
  test::SingleLink link(net, 10e6, from_ms(10),
                        topo::bdp_bytes(10e6, from_ms(20)));
  auto tcp = test::single_tcp(events, "t", link);
  tcp->start(0);
  events.run_until(from_sec(5));
  EXPECT_GT(tcp->receiver().delivered(), 0u);
  EXPECT_EQ(TraceRecorder::find(events), nullptr);
}

// The same simulation with a recorder picks up cwnd samples, queue
// occupancy, and data-level ACK progress without any bench-side plumbing.
TEST(TraceRecorder, InstrumentedSimulationRecords) {
  EventList events;
  TraceRecorder& rec = TraceRecorder::install(events);
  topo::Network net(events);
  test::SingleLink link(net, 10e6, from_ms(10),
                        topo::bdp_bytes(10e6, from_ms(20)));
  auto tcp = test::single_tcp(events, "t", link);
  tcp->start(0);
  events.run_until(from_sec(5));

  std::map<std::string, std::size_t> rows = rows_by_type(rec.csv());
  EXPECT_GT(rows["cwnd"], 100u);
  EXPECT_GT(rows["queue"], 100u);
  EXPECT_GT(rows["data_ack"], 100u);
  EXPECT_GT(rows["rcv_buf"], 100u);
  EXPECT_EQ(rec.total_records(), rec.size() + rec.overwritten());
}

// Random loss is traced as well as congestive loss: a loss stage that
// Network::add_lossy builds logs one link_drop row per packet it drops.
TEST(TraceRecorder, RandomLossDropsAreTraced) {
  EventList events;
  TraceRecorder& rec = TraceRecorder::install(events);
  topo::Network net(events);
  topo::LinkSpec spec;
  spec.rate_bps = 10e6;
  spec.one_way_delay = from_ms(10);
  topo::TwoLink two(net, spec, spec);
  two.add_loss(net, 0, 0.02, 7);
  const auto paths = two.flow_paths(0, 1);
  auto tcp = mptcp::make_single_path_tcp(events, "t", paths[0].first,
                                         paths[0].second);
  tcp->start(0);
  events.run_until(from_sec(5));

  const net::LossyLink& loss = *net.fault_targets().find("link1/loss")->lossy;
  ASSERT_GT(loss.drops(), 0u);
  ASSERT_EQ(rec.overwritten(), 0u);
  std::uint64_t rows = 0;
  for (const std::string& line : split_lines(rec.csv())) {
    if (line.find(",link_drop,") == std::string::npos) continue;
    EXPECT_NE(line.find(",link_drop,link1/loss,"), std::string::npos) << line;
    ++rows;
  }
  EXPECT_EQ(rows, loss.drops());
}

TEST(TraceRecorder, SecondInstallIsRejected) {
  if (!checks_enabled()) {
    GTEST_SKIP() << "requires MPSIM_CHECK (MPSIM_CHECKS=off lane)";
  }
  ScopedThrowingChecks guard;
  EventList events;
  TraceRecorder::install(events);
  EXPECT_THROW(TraceRecorder::install(events), CheckFailureError);
}

// The tentpole determinism property: per-run trace files depend only on the
// run, not on how many worker threads executed the job set.
TEST(RunnerTrace, FilesByteIdenticalAcrossThreadCounts) {
  auto run_with = [](unsigned threads, const std::string& dir) {
    std::remove((dir + "/trace_seed0.csv").c_str());
    std::remove((dir + "/trace_seed1.csv").c_str());
    std::remove((dir + "/trace_seed2.csv").c_str());
    std::remove((dir + "/trace_seed3.csv").c_str());
    runner::RunnerConfig cfg;
    cfg.threads = threads;
    cfg.trace = true;
    cfg.trace_dir = dir;
    runner::ExperimentRunner r(cfg);
    for (int s = 0; s < 4; ++s) {
      r.add("seed" + std::to_string(s), [s](runner::RunContext& ctx) {
        topo::Network net(ctx.events());
        test::SingleLink link(net, 10e6, from_ms(5 + s),
                              topo::bdp_bytes(10e6, from_ms(10)));
        auto tcp = test::single_tcp(ctx.events(), "t", link);
        tcp->start(from_ms(s));
        ctx.events().run_until(from_sec(2));
        ctx.record("delivered",
                   static_cast<double>(tcp->receiver().delivered()));
      });
    }
    return r.run_all();
  };

  const auto seq = run_with(1, ".");
  std::vector<std::string> sequential;
  for (const auto& res : seq) {
    ASSERT_FALSE(res.trace_path.empty());
    sequential.push_back(read_file(res.trace_path));
    ASSERT_GT(sequential.back().size(), 100u) << res.trace_path;
  }
  const auto par = run_with(4, ".");
  for (std::size_t i = 0; i < par.size(); ++i) {
    ASSERT_FALSE(par[i].trace_path.empty());
    EXPECT_EQ(read_file(par[i].trace_path), sequential[i])
        << "trace for " << par[i].name << " differs with 4 threads";
  }
}

TEST(RunnerTrace, NoTraceFilesWhenDisabled) {
  runner::RunnerConfig cfg;
  cfg.threads = 1;
  runner::ExperimentRunner r(cfg);
  r.add("plain", [](runner::RunContext& ctx) {
    EXPECT_EQ(TraceRecorder::find(ctx.events()), nullptr);
    ctx.events().run_until(from_ms(1));
  });
  const auto results = r.run_all();
  ASSERT_EQ(results.size(), 1u);
  EXPECT_TRUE(results[0].trace_path.empty());
}

}  // namespace
}  // namespace mpsim::trace
