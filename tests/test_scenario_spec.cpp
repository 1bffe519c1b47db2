// Spec-parser and grid-expansion rejection tests: every malformed spec
// must fail loudly, with a file:line diagnostic — never parse as something
// surprising or silently sweep nothing.
#include "scenario/engine.hpp"
#include "scenario/registry.hpp"
#include "scenario/spec.hpp"

#include <gtest/gtest.h>

#include "net/packet.hpp"

namespace mpsim::scenario {
namespace {

// A minimal spec that validates cleanly; rejection tests splice errors in.
constexpr const char* kBase = R"(
[topology]
kind = "two_link"
link1_rate = "12Mbps"
link1_delay = "20ms"
link2_rate = "12Mbps"
link2_delay = "20ms"

[algorithm]
kind = "mptcp"

[traffic]
kind = "persistent"
count = 1
subflows = 2

[run]
warmup = "1s"
measure = "2s"
)";

Scenario load(const std::string& text) {
  return Scenario::from_string(text, "test.toml");
}

// Capture the SpecError a callable throws (fails the test if it doesn't).
SpecError error_of(const std::function<void()>& f) {
  try {
    f();
  } catch (const SpecError& e) {
    return e;
  }
  ADD_FAILURE() << "expected a SpecError";
  return SpecError("", 0, "");
}

TEST(SpecParser, BaseSpecValidates) {
  Scenario s = load(kBase);
  EXPECT_EQ(s.name(), "test");
  const auto runs = s.expand();
  ASSERT_EQ(runs.size(), 1u);
  EXPECT_EQ(runs[0].name, "test");  // no sweep, single seed: no suffixes
  EXPECT_EQ(runs[0].seed, 1u);
  EXPECT_NO_THROW(s.validate());
}

TEST(SpecParser, ScenarioNameOverridesFileStem) {
  Scenario s = load(std::string("[scenario]\nname = \"custom\"\n") + kBase);
  EXPECT_EQ(s.name(), "custom");
  EXPECT_EQ(s.expand()[0].name, "custom");
}

TEST(SpecParser, DuplicateSectionRejected) {
  const SpecError e =
      error_of([] { Spec::parse_string("[run]\n[run]\n", "dup.toml"); });
  EXPECT_EQ(e.line(), 2);
  EXPECT_NE(std::string(e.what()).find("dup.toml:2"), std::string::npos);
  EXPECT_NE(std::string(e.what()).find("duplicate section"),
            std::string::npos);
}

TEST(SpecParser, DuplicateKeyRejected) {
  const SpecError e = error_of(
      [] { Spec::parse_string("[run]\na = 1\na = 2\n", "dup.toml"); });
  EXPECT_EQ(e.line(), 3);
  EXPECT_NE(std::string(e.what()).find("duplicate key 'a'"),
            std::string::npos);
}

TEST(SpecParser, BareWordValueRejected) {
  const SpecError e = error_of([] {
    Spec::parse_string("[algorithm]\nkind = mptcp\n", "bare.toml");
  });
  EXPECT_EQ(e.line(), 2);
  EXPECT_NE(std::string(e.what()).find("bare words"), std::string::npos);
}

TEST(SpecParser, NestedArrayRejected) {
  EXPECT_THROW(Spec::parse_string("[a]\nx = [[1, 2], [3]]\n", "n.toml"),
               SpecError);
}

TEST(SpecParser, MixedKindArrayRejected) {
  const SpecError e = error_of(
      [] { Spec::parse_string("[a]\nx = [1, \"two\"]\n", "mix.toml"); });
  EXPECT_NE(std::string(e.what()).find("mixes"), std::string::npos);
}

TEST(SpecParser, UppercaseSectionRejected) {
  EXPECT_THROW(Spec::parse_string("[Run]\n", "u.toml"), SpecError);
}

TEST(SpecParser, KeyBeforeAnySectionRejected) {
  EXPECT_THROW(Spec::parse_string("a = 1\n", "k.toml"), SpecError);
}

TEST(SpecParser, MissingValueRejected) {
  EXPECT_THROW(Spec::parse_string("[run]\na =\n", "m.toml"), SpecError);
}

TEST(SpecUnits, TimeParsing) {
  EXPECT_EQ(parse_time("20ms", "t", 1), from_ms(20));
  EXPECT_EQ(parse_time("1.5s", "t", 1), from_sec(1.5));
  EXPECT_EQ(parse_time("9min", "t", 1), from_sec(540));
  EXPECT_THROW(parse_time("20", "t", 3), SpecError);       // unit-less
  EXPECT_THROW(parse_time("5parsec", "t", 3), SpecError);  // unknown unit
  EXPECT_THROW(parse_time("fast", "t", 3), SpecError);
}

// --scale rounds each scaled time to the nearest nanosecond, so times that
// add up unscaled add up scaled: fig17_mobile's 24 half-minute goodput
// samples end at its 12 min window's end at --scale=0.06 too.
TEST(SpecUnits, ScaledTimesRoundToTheNearestNanosecond) {
  BuildEnv env;
  env.time_scale = 0.06;
  EXPECT_EQ(24 * env.scaled(from_sec(30)), env.scaled(from_sec(12 * 60)));
  EXPECT_EQ(env.scaled(from_sec(12 * 60)), from_sec(43.2));
  EXPECT_EQ(env.scaled(from_ms(6)), from_us(360));
}

TEST(SpecUnits, RateParsing) {
  EXPECT_DOUBLE_EQ(parse_rate_bps("14.4Mbps", "r", 1), 14.4e6);
  EXPECT_DOUBLE_EQ(parse_rate_bps("2kbps", "r", 1), 2e3);
  EXPECT_DOUBLE_EQ(parse_rate_bps("1Gbps", "r", 1), 1e9);
  EXPECT_DOUBLE_EQ(parse_rate_bps("1000pps", "r", 1),
                   1000.0 * net::kDataPacketBytes * 8.0);
  EXPECT_THROW(parse_rate_bps("48", "r", 1), SpecError);
  EXPECT_THROW(parse_rate_bps("10mph", "r", 1), SpecError);
}

TEST(SpecUnits, SizeParsing) {
  EXPECT_EQ(parse_bytes("3B", "b", 1), 3u);
  EXPECT_EQ(parse_bytes("64kB", "b", 1), 64000u);
  EXPECT_EQ(parse_bytes("1MB", "b", 1), 1000000u);
  EXPECT_EQ(parse_bytes("25pkt", "b", 1),
            25u * net::kDataPacketBytes);
  EXPECT_THROW(parse_bytes("64", "b", 1), SpecError);
  EXPECT_THROW(parse_bytes("64KB", "b", 1), SpecError);  // units exact-case
}

TEST(SpecErrors, DiagnosticsCarryFileAndLine) {
  const SpecError e = error_of([] {
    // Line 4 holds the malformed unit.
    Spec spec = Spec::parse_string(
        "[run]\nwarmup = \"1s\"\nmeasure = \"2s\"\nextra = \"20\"\n",
        "diag.toml");
    spec.require_section("run").get_time("extra");
  });
  EXPECT_EQ(e.file(), "diag.toml");
  EXPECT_EQ(e.line(), 4);
  EXPECT_NE(std::string(e.what()).find("diag.toml:4"), std::string::npos);
}

TEST(SpecValidation, UnknownKeyRejected) {
  Scenario s = load(std::string(kBase) + "typo_key = 1\n");
  const SpecError e = error_of([&] { s.validate(); });
  EXPECT_NE(std::string(e.what()).find("unknown key 'typo_key'"),
            std::string::npos);
}

TEST(SpecValidation, UnknownTopologyKindRejected) {
  std::string text = kBase;
  const std::size_t pos = text.find("\"two_link\"");
  text.replace(pos, 10, "\"ring\"");
  EXPECT_THROW(load(text).validate(), SpecError);
}

TEST(SpecValidation, UnknownMetricRejected) {
  Scenario s = load(std::string(kBase) +
                    "\n[output]\nmetrics = [\"bogus\"]\n");
  const SpecError e = error_of([&] { s.validate(); });
  EXPECT_NE(std::string(e.what()).find("unknown metric 'bogus'"),
            std::string::npos);
}

TEST(SpecValidation, MalformedLossRatioRejected) {
  Scenario s = load(std::string(kBase) +
                    "\n[output]\nmetrics = [\"loss_ratio:a:b\"]\n");
  EXPECT_THROW(s.validate(), SpecError);
}

TEST(SpecValidation, MutuallyExclusiveFlowForms) {
  std::string text = kBase;
  const std::size_t pos = text.find("count = 1");
  text.insert(pos, "flows = [\"0+1\"]\n");
  const SpecError e = error_of([&] { load(text).validate(); });
  EXPECT_NE(std::string(e.what()).find("mutually exclusive"),
            std::string::npos);
}

TEST(SpecValidation, MutuallyExclusiveStartForms) {
  std::string text = kBase;
  const std::size_t pos = text.find("count = 1");
  text.insert(pos, "starts = [\"0s\"]\nstagger = \"10ms\"\n");
  const SpecError e = error_of([&] { load(text).validate(); });
  EXPECT_NE(std::string(e.what()).find("mutually exclusive"),
            std::string::npos);
}

// kBase with `lines` added to one of its sections, right after `anchor`.
std::string with_lines(const std::string& anchor, const std::string& lines) {
  std::string text = kBase;
  const std::size_t pos = text.find(anchor);
  EXPECT_NE(pos, std::string::npos) << anchor;
  text.insert(pos + anchor.size(), lines);
  return text;
}

std::string with_topology(const std::string& lines) {
  return with_lines("kind = \"two_link\"\n", lines);
}

// 1-based line of the first occurrence of `needle` in `text`.
int line_of(const std::string& text, const std::string& needle) {
  const std::size_t pos = text.find(needle);
  EXPECT_NE(pos, std::string::npos) << needle;
  int line = 1;
  for (std::size_t i = 0; i < pos; ++i) line += text[i] == '\n' ? 1 : 0;
  return line;
}

TEST(SpecValidation, PersistentRejectsPerFlowArraysLongerThanFlows) {
  // One flow (count = 1): every extra per-flow entry would silently do
  // nothing, so each array is rejected at its own line.
  const std::pair<const char*, const char*> cases[] = {
      {"starts", "starts = [\"0s\", \"1s\", \"2s\"]\n"},
      {"names", "names = [\"a\", \"b\", \"c\", \"d\"]\n"},
      {"algos", "algos = [\"mptcp\", \"ewtcp\"]\n"},
  };
  for (const auto& [key, line] : cases) {
    const std::string text = with_lines("count = 1\n", line);
    const SpecError e = error_of([&] { load(text).validate(); });
    EXPECT_EQ(e.line(), line_of(text, std::string(key) + " = ")) << key;
    EXPECT_NE(std::string(e.what()).find("'" + std::string(key) + "' lists"),
              std::string::npos)
        << e.what();
  }
  // As many entries as flows is fine; fewer take the defaults.
  EXPECT_NO_THROW(load(with_lines("count = 1\n", "names = [\"a\"]\n"))
                      .validate());
}

TEST(SpecValidation, FixedLossOutOfRangeRejected) {
  for (const char* p : {"1.5", "-0.1", "1"}) {
    const std::string text =
        with_topology("link1_loss = " + std::string(p) + "\n");
    const SpecError e = error_of([&] { load(text).validate(); });
    EXPECT_NE(std::string(e.what()).find("'link1_loss' must be in [0, 1)"),
              std::string::npos)
        << e.what();
  }
}

TEST(SpecValidation, CbrPeriodsWithoutRateRejected) {
  // The on/off periods mean nothing without a CBR rate on that link, so
  // they are left unread and fail as unknown keys.
  const std::string text = with_topology("link2_cbr_on = \"10ms\"\n");
  const SpecError e = error_of([&] { load(text).validate(); });
  EXPECT_NE(std::string(e.what()).find("unknown key 'link2_cbr_on'"),
            std::string::npos)
      << e.what();
  // A CBR source needs all three of rate, mean on and mean off period.
  EXPECT_THROW(load(with_topology("link1_cbr_rate = \"10Mbps\"\n")).validate(),
               SpecError);
  EXPECT_THROW(load(with_topology("link1_cbr_rate = \"0Mbps\"\n"
                                  "link1_cbr_on = \"0s\"\n"
                                  "link1_cbr_off = \"0s\"\n"))
                   .validate(),
               SpecError);
}

TEST(SpecValidation, BufferBdpExcludesExplicitBuffersAndMustBePositive) {
  const std::string both =
      with_topology("buffer_bdp = 1\nlink2_buf = \"20pkt\"\n");
  const SpecError e = error_of([&] { load(both).validate(); });
  EXPECT_NE(std::string(e.what()).find("mutually exclusive"),
            std::string::npos)
      << e.what();
  EXPECT_THROW(load(with_topology("buffer_bdp = 0\n")).validate(), SpecError);
}

TEST(SpecValidation, MisspelledSubflowMetricRejected) {
  Scenario s = load(std::string(kBase) +
                    "\n[output]\nmetrics = [\"subflows_mbps\"]\n");
  const SpecError e = error_of([&] { s.validate(); });
  EXPECT_NE(std::string(e.what()).find("unknown metric 'subflows_mbps'"),
            std::string::npos);
  EXPECT_NE(std::string(e.what()).find("subflow_mbps)"), std::string::npos);
}

// Integer keys and tokens are range-checked against the type they land in
// before any narrowing: an out-of-range value fails validation at its own
// line, naming the key or token. Narrowed unchecked, k = 2^32 + 4 would
// build a k = 4 FatTree, and an index past INT_MAX would escape as
// std::out_of_range.
void expect_range_error(const std::string& text, const std::string& at,
                        const std::string& names) {
  const SpecError e = error_of([&] { load(text).validate(); });
  EXPECT_EQ(e.line(), line_of(text, at)) << e.what();
  const std::string what = e.what();
  EXPECT_NE(what.find(names), std::string::npos) << what;
  EXPECT_NE(what.find("an integer in [0, "), std::string::npos) << what;
}

TEST(SpecValidation, FatTreeArityThatWrapsIntRejected) {
  std::string text = kBase;
  text.replace(text.find("kind = \"two_link\""), 17,
               "kind = \"fat_tree\"\nk = 4294967300");
  const std::size_t tr = text.find("kind = \"persistent\"\ncount = 1");
  text.replace(tr, 29, "kind = \"permutation\"\ntm_seed = 1");
  for (const char* key : {"link1_rate", "link1_delay", "link2_rate",
                          "link2_delay"}) {
    const std::size_t pos = text.find(key);
    text.erase(pos, text.find('\n', pos) + 1 - pos);
  }
  expect_range_error(text, "k = ", "[topology] k:");
}

TEST(SpecValidation, SubflowCountThatWrapsIntRejected) {
  std::string text = kBase;
  text.replace(text.find("subflows = 2"), 12, "subflows = 4294967298");
  expect_range_error(text, "subflows = ", "[traffic] subflows:");
}

TEST(SpecValidation, NegativeReceiveBufferRejected) {
  const std::string text =
      with_lines("subflows = 2\n", "recv_buffer_pkts = -1\n");
  expect_range_error(text, "recv_buffer_pkts", "recv_buffer_pkts:");
}

TEST(SpecValidation, NegativeAppLimitRejected) {
  const std::string text =
      with_lines("subflows = 2\n", "app_limit_pkts = -5\n");
  expect_range_error(text, "app_limit_pkts", "app_limit_pkts:");
}

TEST(SpecValidation, NegativeNdiffportsRejected) {
  const std::string text =
      std::string(kBase) +
      "\n[path_manager]\nstrategy = \"ndiffports\"\nndiffports = -1\n";
  expect_range_error(text, "ndiffports = ", "[path_manager] ndiffports:");
}

TEST(SpecValidation, ResetSubflowIndexThatWrapsIntRejected) {
  std::string text = kBase;
  text.replace(text.find("count = 1\nsubflows = 2"), 22,
               "flows = [\"0+1\"]\nnames = [\"mp\"]");
  text += "\n[faults]\nscript = [\"1s reset 4294967296 mp\"]\n";
  expect_range_error(text, "script = ",
                     "[faults.reset] subflow: expected an integer in [0, "
                     "2147483647], got 4294967296");
}

TEST(SpecValidation, FlowPathIndexOutOfIntRangeRejected) {
  std::string text = kBase;
  text.replace(text.find("count = 1\nsubflows = 2"), 22,
               "flows = [\"0+99999999999\"]");
  // Path-set errors point at the [traffic] section.
  expect_range_error(text, "[traffic]", "'99999999999'");
}

TEST(SpecValidation, LossRatioQueueIndexOutOfIntRangeRejected) {
  const std::string text =
      std::string(kBase) +
      "\n[output]\nmetrics = [\"loss_ratio:0:99999999999\"]\n";
  // Metric errors point at the metrics key.
  expect_range_error(text, "metrics = ",
                     "[output.loss_ratio] b: expected an integer in [0, "
                     "2147483647], got 99999999999");
}

TEST(SpecValidation, TraceMustBeCsvOrOff) {
  // validate() checks [output] trace even though only `mpsim run` reads
  // it, so `mpsim run --trace=off` cannot run a spec whose trace is
  // neither "csv" nor "off". CSV is the only format: "jsonl" fails too.
  for (const char* value : {"\"bogus\"", "3", "\"jsonl\""}) {
    const std::string text = std::string(kBase) +
                             "\n[output]\ntrace = " + value + "\n";
    const SpecError e = error_of([&] { load(text).validate(); });
    EXPECT_EQ(e.line(), line_of(text, "trace = ")) << e.what();
    EXPECT_NE(std::string(e.what()).find("[output]"), std::string::npos)
        << e.what();
  }
}

TEST(SpecValidation, NegativeTraceCapacityRejected) {
  const std::string text =
      std::string(kBase) + "\n[output]\ntrace_capacity = -5\n";
  expect_range_error(text, "trace_capacity", "[output] trace_capacity:");
}

TEST(SpecValidation, PathManagerNeedsATrafficKindThatTakesOne) {
  // Even an empty [path_manager] asks for path management, which poisson
  // and the traffic matrices cannot provide.
  auto replaced = [](std::string text, const std::string& from,
                     const std::string& to) {
    text.replace(text.find(from), from.size(), to);
    return text;
  };
  const std::string persistent =
      "kind = \"persistent\"\ncount = 1\nsubflows = 2";
  const std::string poisson =
      replaced(kBase, persistent, "kind = \"poisson\"");
  std::string permutation =
      replaced(replaced(kBase, persistent,
                        "kind = \"permutation\"\ntm_seed = 1"),
               "kind = \"two_link\"", "kind = \"fat_tree\"\nk = 4");
  for (const char* key : {"link1_rate", "link1_delay", "link2_rate",
                          "link2_delay"}) {
    const std::size_t pos = permutation.find(key);
    permutation.erase(pos, permutation.find('\n', pos) + 1 - pos);
  }
  for (const std::string& base : {poisson, permutation}) {
    EXPECT_NO_THROW(load(base).validate());
    const std::string text = base + "\n[path_manager]\n";
    const SpecError e = error_of([&] { load(text).validate(); });
    EXPECT_EQ(e.line(), line_of(text, "[path_manager]")) << e.what();
  }
  EXPECT_NO_THROW(load(std::string(kBase) + "\n[path_manager]\n").validate());
}

TEST(SpecValidation, UnknownSectionRejected) {
  const std::string text = std::string(kBase) + "\n[path_manger]\n";
  const SpecError e = error_of([&] { load(text).validate(); });
  EXPECT_EQ(e.line(), line_of(text, "[path_manger]")) << e.what();
  EXPECT_NE(std::string(e.what()).find("path_manger"), std::string::npos)
      << e.what();
}

// Values that crashed or hung a run fail validation at the key's line:
// a non-positive path-manager scan period or arrival phase, a negative
// time, zero arrival rates, and an RTO floor above the RTO ceiling.
void expect_key_error(const std::string& text, const std::string& at,
                      const std::string& says) {
  const SpecError e = error_of([&] { load(text).validate(); });
  EXPECT_EQ(e.line(), line_of(text, at)) << e.what();
  EXPECT_NE(std::string(e.what()).find(says), std::string::npos) << e.what();
}

// kBase with churn traffic in place of the persistent flow.
std::string churn_with(const std::string& lines) {
  std::string text = kBase;
  const std::string persistent =
      "kind = \"persistent\"\ncount = 1\nsubflows = 2\n";
  text.replace(text.find(persistent), persistent.size(),
               "kind = \"churn\"\n" + lines);
  return text;
}

TEST(SpecValidation, ZeroScanPeriodRejected) {
  const std::string text =
      std::string(kBase) + "\n[path_manager]\nscan_period = \"0s\"\n";
  expect_key_error(text, "scan_period", "'scan_period' must be > 0s");
}

TEST(SpecValidation, NegativeStartAndStaggerRejected) {
  for (const char* key : {"start", "stagger"}) {
    const std::string text =
        with_lines("subflows = 2\n", std::string(key) + " = \"-5ms\"\n");
    expect_key_error(text, std::string(key) + " = ",
                     "[traffic] " + std::string(key) +
                         ": expected a non-negative time, got \"-5ms\"");
  }
  const std::string starts =
      with_lines("subflows = 2\n", "starts = [\"-1ms\"]\n");
  expect_key_error(starts, "starts = ", "expected a non-negative time");
}

TEST(SpecValidation, NegativeLinkDelayRejected) {
  std::string text = kBase;
  text.replace(text.find("link1_delay = \"20ms\""), 20,
               "link1_delay = \"-5ms\"");
  expect_key_error(text, "link1_delay",
                   "[topology] link1_delay: expected a non-negative time");
}

TEST(SpecValidation, NonPositiveArrivalPhaseRejected) {
  expect_key_error(churn_with("phase = \"0s\"\n"), "phase",
                   "'phase' must be > 0s");
  // A phase that --scale rounds to zero fails too.
  const std::string tiny = churn_with("phase = \"1ns\"\n");
  EXPECT_NO_THROW(load(tiny).validate());
  const SpecError e = error_of([&] { load(tiny).validate(0.01); });
  EXPECT_EQ(e.line(), line_of(tiny, "phase")) << e.what();
  EXPECT_NE(std::string(e.what()).find("phase must be positive"),
            std::string::npos)
      << e.what();
}

TEST(SpecValidation, ArrivalRatesAndSizesOutOfRangeRejected) {
  const std::pair<const char*, const char*> cases[] = {
      {"light_rate_per_sec = 0", "'light_rate_per_sec' must be > 0"},
      {"heavy_rate_per_sec = 0", "'heavy_rate_per_sec' must be > 0"},
      {"pareto_shape = 1", "'pareto_shape' must be > 1"},
      {"mean_flow_bytes = 0", "'mean_flow_bytes' must be > 0"},
  };
  for (const auto& [line, says] : cases) {
    const std::string text = churn_with(std::string(line) + "\n");
    expect_key_error(text, line, says);
  }
}

// A zero-length window would report every flow at 0 Mb/s.
TEST(SpecValidation, ZeroMeasureWindowRejected) {
  std::string text = kBase;
  text.replace(text.find("measure = \"2s\""), 15, "measure = \"0s\"");
  expect_key_error(text, "measure", "'measure' must be > 0s");
  // A window that --scale rounds to zero fails too.
  std::string tiny = kBase;
  tiny.replace(tiny.find("measure = \"2s\""), 15, "measure = \"1ns\"");
  EXPECT_NO_THROW(load(tiny).validate());
  const SpecError e = error_of([&] { load(tiny).validate(0.01); });
  EXPECT_EQ(e.line(), line_of(tiny, "measure")) << e.what();
  EXPECT_NE(std::string(e.what()).find("[run] measure must be positive"),
            std::string::npos)
      << e.what();
}

TEST(SpecValidation, MinRtoAboveMaxRtoRejected) {
  const std::string text =
      with_lines("subflows = 2\n", "min_rto = \"61s\"\n");
  expect_key_error(text, "min_rto", "'min_rto' must be in [0s, 60s]");
  EXPECT_NO_THROW(
      load(with_lines("subflows = 2\n", "min_rto = \"60s\"\n")).validate());
}

// Values under which no packet can be delivered fail validation at the
// key's line: a link rate of 0 or less (Queue's constructor would abort
// the run), a receive buffer of no packets and a queue buffer smaller than
// one data packet. One case per topology kind with a rate key.

// kBase on topology `kind` with `keys` in place of the two_link keys.
std::string on_topology(const std::string& kind, const std::string& keys) {
  std::string text = kBase;
  const std::size_t from = text.find("kind = \"two_link\"");
  const std::size_t to = text.find("\n\n[algorithm]");
  text.replace(from, to - from, "kind = \"" + kind + "\"\n" + keys);
  return text;
}

TEST(SpecValidation, TwoLinkZeroRateRejected) {
  std::string text = kBase;
  text.replace(text.find("link1_rate = \"12Mbps\""), 21,
               "link1_rate = \"0Mbps\"");
  expect_key_error(text, "link1_rate", "'link1_rate' must be > 0");
}

TEST(SpecValidation, ParkingLotZeroRateRejected) {
  const std::string text =
      on_topology("parking_lot", "link_rate = \"0Mbps\"");
  expect_key_error(text, "link_rate", "'link_rate' must be > 0");
  EXPECT_NO_THROW(
      load(on_topology("parking_lot", "link_rate = \"1Mbps\"")).validate());
}

TEST(SpecValidation, FatTreeZeroRateRejected) {
  const std::string text =
      on_topology("fat_tree", "k = 4\nlink_rate = \"0Mbps\"");
  expect_key_error(text, "link_rate", "'link_rate' must be > 0");
}

TEST(SpecValidation, BCubeZeroRateRejected) {
  const std::string text = on_topology("bcube", "link_rate = \"0bps\"");
  expect_key_error(text, "link_rate", "'link_rate' must be > 0");
}

TEST(SpecValidation, TorusNonPositiveRatesRejected) {
  const std::pair<const char*, const char*> cases[] = {
      {"cap_c = 0", "'cap_c' must be > 0"},
      {"rate_pps = -5", "'rate_pps' must be > 0"},
      {"rates_pps = [100, 100, 0, 100, 100]",
       "'rates_pps' entries must be > 0, got 0"},
  };
  for (const auto& [line, says] : cases) {
    expect_key_error(on_topology("torus", line), line, says);
  }
  EXPECT_NO_THROW(load(on_topology("torus", "cap_c = 1")).validate());
}

TEST(SpecValidation, TriangleNonPositiveRatesRejected) {
  for (const char* rate : {"0", "-1"}) {
    const std::string line =
        "rates_pps = [" + std::string(rate) + ", 100, 100]";
    expect_key_error(on_topology("triangle", line), line,
                     "'rates_pps' entries must be > 0, got " +
                         std::string(rate));
  }
  EXPECT_NO_THROW(
      load(on_topology("triangle", "rates_pps = [1, 100, 100]")).validate());
}

TEST(SpecValidation, ZeroReceiveBufferRejected) {
  const std::string text =
      with_lines("subflows = 2\n", "recv_buffer_pkts = 0\n");
  expect_key_error(text, "recv_buffer_pkts",
                   "'recv_buffer_pkts' must be >= 1");
  EXPECT_NO_THROW(
      load(with_lines("subflows = 2\n", "recv_buffer_pkts = 1\n"))
          .validate());
}

TEST(SpecValidation, BufferBelowOneDataPacketRejected) {
  // link1_buf holds none, link2_buf 1000 of a packet's 1500 bytes.
  const std::string text =
      with_topology("link1_buf = \"1500B\"\nlink2_buf = \"1000B\"\n");
  expect_key_error(text, "link2_buf", "'link2_buf' must be >= 1500B");
  expect_key_error(with_topology("link1_buf = \"0B\"\n"), "link1_buf",
                   "'link1_buf' must be >= 1500B");
  expect_key_error(on_topology("parking_lot", "buffer = \"1000B\""),
                   "buffer", "'buffer' must be >= 1500B");
  expect_key_error(on_topology("fat_tree", "k = 4\nbuffer = \"0pkt\""),
                   "buffer", "'buffer' must be >= 1500B");
  EXPECT_NO_THROW(load(with_topology("link1_buf = \"1500B\"\n")).validate());
}

// Metric checks that need the built run (its queues, its hosts) fail in
// validate(), not after the whole run has been simulated.
TEST(SpecValidation, LossRatioQueueIndexBeyondTopologyRejected) {
  const std::string text = std::string(kBase) +
                           "\n[output]\nmetrics = [\"loss_ratio:0:99\"]\n";
  expect_key_error(text, "[output]",
                   "[output] loss_ratio queue index out of range (topology "
                   "has 2 queues)");
}

TEST(SpecValidation, PerHostMetricWithoutHostsRejected) {
  const std::string text =
      std::string(kBase) + "\n[output]\nmetrics = [\"per_host_mbps\"]\n";
  expect_key_error(text, "[output]",
                   "[output] per_host_mbps needs host-addressable traffic");
}

TEST(SweepExpansion, EmptyAxisRejected) {
  Scenario s =
      load(std::string(kBase) + "\n[sweep]\ntraffic.subflows = []\n");
  const SpecError e = error_of([&] { s.expand(); });
  EXPECT_NE(std::string(e.what()).find("no values"), std::string::npos);
}

TEST(SweepExpansion, UnknownSectionRejected) {
  Scenario s = load(std::string(kBase) + "\n[sweep]\nnosuch.key = [1]\n");
  EXPECT_THROW(s.expand(), SpecError);
}

TEST(SweepExpansion, KeyNotPresentRejected) {
  // A sweep axis must name an existing key so a typo cannot silently
  // sweep nothing.
  Scenario s = load(std::string(kBase) + "\n[sweep]\ntraffic.cuont = [1]\n");
  const SpecError e = error_of([&] { s.expand(); });
  EXPECT_NE(std::string(e.what()).find("not present"), std::string::npos);
}

TEST(SweepExpansion, UndottedAxisRejected) {
  Scenario s = load(std::string(kBase) + "\n[sweep]\nsubflows = [1]\n");
  const SpecError e = error_of([&] { s.expand(); });
  EXPECT_NE(std::string(e.what()).find("section.key"), std::string::npos);
}

TEST(SweepExpansion, BadSeedsRejected) {
  EXPECT_THROW(load(std::string(kBase) + "seeds = [1.5]\n").expand(),
               SpecError);
  EXPECT_THROW(load(std::string(kBase) + "seeds = [-1]\n").expand(),
               SpecError);
  EXPECT_THROW(load(std::string(kBase) + "seeds = []\n").expand(),
               SpecError);
}

TEST(SweepExpansion, GridOrderAndNames) {
  Scenario s = load(std::string(kBase) +
                    "seeds = [7, 8]\n"
                    "\n[sweep]\n"
                    "algorithm.kind = [\"mptcp\", \"ewtcp\"]\n"
                    "traffic.subflows = [1, 2]\n");
  const auto runs = s.expand();
  ASSERT_EQ(runs.size(), 8u);  // 2 x 2 axes, 2 seeds

  // First axis slowest, seeds innermost.
  EXPECT_EQ(runs[0].name, "test/algorithm.kind=mptcp,traffic.subflows=1/s7");
  EXPECT_EQ(runs[1].name, "test/algorithm.kind=mptcp,traffic.subflows=1/s8");
  EXPECT_EQ(runs[2].name, "test/algorithm.kind=mptcp,traffic.subflows=2/s7");
  EXPECT_EQ(runs[4].name, "test/algorithm.kind=ewtcp,traffic.subflows=1/s7");
  EXPECT_EQ(runs[7].name, "test/algorithm.kind=ewtcp,traffic.subflows=2/s8");

  // The machine-readable spec echo matches the substituted values.
  ASSERT_EQ(runs[0].point.size(), 3u);
  EXPECT_EQ(runs[0].point[0],
            (std::pair<std::string, std::string>{"algorithm.kind", "mptcp"}));
  EXPECT_EQ(runs[0].point[1],
            (std::pair<std::string, std::string>{"traffic.subflows", "1"}));
  EXPECT_EQ(runs[0].point[2],
            (std::pair<std::string, std::string>{"seed", "7"}));

  // Substitution actually landed in the copied spec.
  EXPECT_EQ(runs[4].spec.require_section("algorithm").get_string("kind"),
            "ewtcp");
  EXPECT_EQ(
      runs[4].spec.require_section("traffic").get_count<int>("subflows"), 1);

  // Every grid point still dry-builds.
  EXPECT_NO_THROW(s.validate());
}

TEST(SweepExpansion, ScalarAxisActsAsSingleValue) {
  Scenario s = load(std::string(kBase) +
                    "\n[sweep]\ntraffic.subflows = 1\n");
  const auto runs = s.expand();
  ASSERT_EQ(runs.size(), 1u);
  EXPECT_EQ(runs[0].name, "test/traffic.subflows=1");
}

}  // namespace
}  // namespace mpsim::scenario
