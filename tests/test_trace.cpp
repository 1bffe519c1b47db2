// The flight recorder: record schema round-trips through the sinks, the
// ring overwrites oldest-first, instrumentation is free (and silent) when no
// recorder is installed, and runner trace files are byte-identical however
// many threads execute the jobs.
#include "trace/trace.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/check.hpp"
#include "core/event_list.hpp"
#include "runner/experiment_runner.hpp"
#include "sim_fixtures.hpp"
#include "topo/network.hpp"
#include "trace/record.hpp"
#include "trace/sinks.hpp"

namespace mpsim::trace {
namespace {

std::vector<std::string> split_lines(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
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

  CsvSink csv;
  rec.flush(csv);
  const auto lines = split_lines(csv.text());
  ASSERT_EQ(lines.size(), 4u);
  EXPECT_EQ(lines[0], CsvSink::kHeader);
  // t_ns,type,obj,flow,sub,phase,a,b,x,y with a=srtt ns, b=rto ns,
  // x=cwnd, y=ssthresh for a cwnd sample.
  EXPECT_EQ(lines[1], "5000000,cwnd,conn/sf0,7,1,1,100000000,300000000,"
                      "12.5,8");
  EXPECT_EQ(lines[2], "6000000,queue_drop,bottleneck,7,1,0,15000,1500,0,0");
  EXPECT_EQ(lines[3], "7000000,state,conn/sf0,7,1,2,1,0,0,0");
}

TEST(TraceRecorder, JsonlSchemaRoundTrip) {
  EventList events;
  TraceRecorder& rec = TraceRecorder::install(events);
  const std::uint16_t id = rec.register_object("wifi");
  TraceRecorder* r = &rec;
  MPSIM_TRACE(r, rate_change(from_sec(9), id, 5e6));

  JsonlSink jsonl;
  rec.flush(jsonl);
  const auto lines = split_lines(jsonl.text());
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_EQ(lines[0],
            "{\"t\":9000000000,\"type\":\"rate\",\"obj\":\"wifi\","
            "\"flow\":0,\"sub\":0,\"phase\":0,\"a\":0,\"b\":0,"
            "\"x\":5000000,\"y\":0}");
}

TEST(TraceRecorder, RingOverwritesOldest) {
  EventList events;
  TraceRecorder::Config cfg;
  cfg.capacity = 8;
  TraceRecorder& rec = TraceRecorder::install(events, cfg);
  const std::uint16_t id = rec.register_object("q");
  TraceRecorder* r = &rec;
  for (int i = 0; i < 20; ++i) {
    MPSIM_TRACE(r, queue_sample(SimTime{i}, id, 100 * i, i));
  }
  EXPECT_EQ(rec.capacity(), 8u);
  EXPECT_EQ(rec.size(), 8u);
  EXPECT_EQ(rec.total_records(), 20u);
  EXPECT_EQ(rec.overwritten(), 12u);

  CsvSink csv;
  rec.flush(csv);
  const auto lines = split_lines(csv.text());
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
  CsvSink a;
  CsvSink b;
  rec.flush(a);
  rec.flush(b);
  EXPECT_EQ(a.text(), b.text());
  NullSink null;
  rec.flush(null);
  EXPECT_TRUE(null.text().empty());
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

  std::size_t cwnd = 0;
  std::size_t queue = 0;
  std::size_t dack = 0;
  std::size_t rcvbuf = 0;
  class Counter final : public TraceSink {
   public:
    explicit Counter(std::size_t* by_type) : by_type_(by_type) {}
    void record(const Record& rr, std::string_view) override {
      ++by_type_[static_cast<int>(rr.type)];
    }

   private:
    std::size_t* by_type_;
  };
  std::size_t by_type[kRecordTypeCount] = {};
  Counter counter(by_type);
  rec.flush(counter);
  cwnd = by_type[static_cast<int>(RecordType::kCwnd)];
  queue = by_type[static_cast<int>(RecordType::kQueue)];
  dack = by_type[static_cast<int>(RecordType::kDataAck)];
  rcvbuf = by_type[static_cast<int>(RecordType::kRcvBuf)];
  EXPECT_GT(cwnd, 100u);
  EXPECT_GT(queue, 100u);
  EXPECT_GT(dack, 100u);
  EXPECT_GT(rcvbuf, 100u);
  EXPECT_EQ(rec.total_records(), rec.size() + rec.overwritten());
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
    cfg.trace_sink = SinkKind::kCsv;
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
