// bench_compare end to end on small bench documents built here: machine
// stamps decide whether timings are gated, strict --threshold parsing, empty
// comparisons, and the three gate kinds of --gates over several passes.
#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/bench_compare.hpp"
#include "analysis/bench_json.hpp"
#include "analysis/bench_runner.hpp"

namespace {

using ftdb::analysis::JsonWriter;
using ftdb::analysis::MachineStamp;

struct Bench {
  std::string name;
  double wall = 0.010;
  std::vector<std::pair<std::string, double>> metrics = {};
  bool ok = true;
};

const MachineStamp kHere{"Test CPU @ 2.0GHz", 4, "gcc 12.2.0", "Release"};

std::string bench_doc(const std::vector<Bench>& benches,
                      const std::optional<MachineStamp>& machine = kHere) {
  JsonWriter w;
  w.begin_object();
  w.key("schema").value("ftdb-bench-v1");
  if (machine) {
    w.key("machine");
    w.begin_object();
    w.key("cpu_model").value(machine->cpu_model);
    w.key("nproc").value(machine->nproc);
    w.key("compiler").value(machine->compiler);
    w.key("build_type").value(machine->build_type);
    w.end_object();
  }
  w.key("benchmarks");
  w.begin_array();
  for (const Bench& b : benches) {
    w.begin_object();
    w.key("name").value(b.name);
    w.key("ok").value(b.ok);
    w.key("wall_seconds");
    w.begin_object();
    w.key("min").value(b.wall);
    w.key("mean").value(b.wall);
    w.key("max").value(b.wall);
    w.end_object();
    w.key("metrics");
    w.begin_object();
    for (const auto& [k, v] : b.metrics) w.key(k).value(v);
    w.end_object();
    w.end_object();
  }
  w.end_array();
  w.end_object();
  return w.str();
}

struct Outcome {
  int code = -1;
  std::string out, err;
};

class BenchCompare : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("ftdb_bench_compare_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string write(const std::string& name, const std::string& text) {
    const std::string path = (dir_ / name).string();
    std::ofstream(path, std::ios::binary) << text;
    return path;
  }

  static Outcome run(const std::vector<std::string>& args) {
    std::ostringstream out, err;
    Outcome o;
    o.code = ftdb::analysis::bench_compare_main(args, out, err);
    o.out = out.str();
    o.err = err.str();
    return o;
  }

  std::filesystem::path dir_;
};

// ---------------------------------------------------------------------------
// Machine stamps
// ---------------------------------------------------------------------------

TEST_F(BenchCompare, EqualStampsGateWallTimesAndNsMetrics) {
  const auto base = write("base.json", bench_doc({{"a/x", 0.010, {{"ns_per_hop", 100}}}}));
  const auto slow_wall = write("wall.json", bench_doc({{"a/x", 0.020, {{"ns_per_hop", 100}}}}));
  const auto slow_hop = write("hop.json", bench_doc({{"a/x", 0.010, {{"ns_per_hop", 200}}}}));
  const auto same = write("same.json", bench_doc({{"a/x", 0.011, {{"ns_per_hop", 110}}}}));

  Outcome o = run({base, slow_wall});
  EXPECT_EQ(o.code, 1);
  EXPECT_NE(o.out.find("REGRESSION"), std::string::npos);
  EXPECT_EQ(run({base, slow_hop}).code, 1);
  EXPECT_EQ(run({base, same}).code, 0);
}

TEST_F(BenchCompare, DifferentStampsReportTimingsAsNotComparable) {
  MachineStamp other = kHere;
  other.nproc = 64;
  const auto base =
      write("base.json", bench_doc({{"a/x", 0.010, {{"ns_per_hop", 100}, {"hops", 7}}}}));
  const auto fresh = write(
      "new.json", bench_doc({{"a/x", 0.050, {{"ns_per_hop", 900}, {"hops", 7}}}}, other));
  const Outcome o = run({base, fresh, "--fail-on-drift"});
  EXPECT_EQ(o.code, 0) << o.out << o.err;
  EXPECT_NE(o.out.find("not comparable (different machine)"), std::string::npos);
  EXPECT_EQ(o.out.find("REGRESSION"), std::string::npos);

  // Seeded metrics are still diffed across machines.
  const auto drifted = write(
      "drift.json", bench_doc({{"a/x", 0.050, {{"ns_per_hop", 900}, {"hops", 8}}}}, other));
  const Outcome d = run({base, drifted, "--fail-on-drift"});
  EXPECT_EQ(d.code, 1);
  EXPECT_NE(d.out.find("DRIFT"), std::string::npos);
}

TEST_F(BenchCompare, UnstampedFileIsNotComparable) {
  const auto base = write("base.json", bench_doc({{"a/x", 0.010, {{"hops", 7}}}}, std::nullopt));
  const auto fresh = write("new.json", bench_doc({{"a/x", 0.040, {{"hops", 7}}}}));
  const Outcome o = run({base, fresh, "--fail-on-drift"});
  EXPECT_EQ(o.code, 0) << o.out;
  EXPECT_NE(o.out.find("not comparable (different machine)"), std::string::npos);
  EXPECT_NE(o.out.find("no semantic drift across 1 shared metrics"), std::string::npos);

  const auto drifted = write("drift.json", bench_doc({{"a/x", 0.040, {{"hops", 9}}}}));
  EXPECT_EQ(run({base, drifted, "--fail-on-drift"}).code, 1);
}

TEST_F(BenchCompare, ValidateAcceptsTheStampBenchRunnerWrites) {
  using namespace ftdb::analysis;
  const std::string text = bench_results_to_json({}, BenchRunOptions{});
  const Outcome o = run({"--validate", write("run.json", text)});
  EXPECT_EQ(o.code, 0) << o.err;
  EXPECT_EQ(o.out.find("no machine stamp"), std::string::npos) << o.out;
}

TEST_F(BenchCompare, ValidateRejectsAMalformedStamp) {
  const auto unstamped = write("old.json", bench_doc({{"a/x"}}, std::nullopt));
  const Outcome ok = run({"--validate", unstamped});
  EXPECT_EQ(ok.code, 0);
  EXPECT_NE(ok.out.find("no machine stamp"), std::string::npos);

  const auto bad = write(
      "bad.json", R"({"schema": "ftdb-bench-v1", "machine": {"cpu_model": "x", "nproc": "4",
          "compiler": "gcc", "build_type": "Release"}, "benchmarks": []})");
  EXPECT_EQ(run({"--validate", bad}).code, 1);
}

// ---------------------------------------------------------------------------
// --threshold and empty comparisons
// ---------------------------------------------------------------------------

TEST_F(BenchCompare, ThresholdMustBeAFiniteNumberAboveZero) {
  const auto base = write("base.json", bench_doc({{"a/x", 0.010}}));
  const auto slow = write("slow.json", bench_doc({{"a/x", 0.100}}));
  for (const char* bad : {"nan", "NaN", "inf", "-inf", "1e999", "0", "-1", "1.25x", "", " 1.2",
                          "x"}) {
    const Outcome o = run({base, slow, "--threshold", bad});
    EXPECT_EQ(o.code, 2) << "--threshold \"" << bad << "\" was accepted";
    EXPECT_NE(o.err.find("--threshold"), std::string::npos);
  }
  EXPECT_EQ(run({base, slow, "--threshold", "1.25"}).code, 1);
  EXPECT_EQ(run({base, slow, "--threshold", "20"}).code, 0);
}

TEST_F(BenchCompare, AComparisonSharingNoBenchmarkFails) {
  const auto base = write("base.json", bench_doc({{"a/x"}, {"b/y"}}));
  const auto empty = write("empty.json", bench_doc({}));
  const auto other = write("other.json", bench_doc({{"c/z"}}));
  const Outcome o = run({base, empty});
  EXPECT_EQ(o.code, 1);
  EXPECT_NE(o.err.find("share no benchmark"), std::string::npos);
  EXPECT_EQ(run({base, other}).code, 1);
  EXPECT_EQ(run({base, base, "--filter", "nothing/"}).code, 1);
  EXPECT_EQ(run({base, base, "--filter", "a/"}).code, 0);
}

TEST_F(BenchCompare, RemovedOptionsAreRejected) {
  const auto base = write("base.json", bench_doc({{"a/x"}}));
  EXPECT_EQ(run({base, base, "--metric-threshold", "0.1"}).code, 2);
  EXPECT_EQ(run({base, base, "--stat", "mean"}).code, 2);
}

// ---------------------------------------------------------------------------
// --gates
// ---------------------------------------------------------------------------

std::string gates_doc(const std::string& gates) {
  return R"({"schema": "ftdb-gates-v1", "gates": [)" + gates + "]}";
}

TEST_F(BenchCompare, HeadGatesCheckConstantsRatiosAndInvariants) {
  const auto head = write("head.json", bench_doc({{"p/fast", 0.01, {{"ns_per_iteration", 100}}},
                                                  {"p/slow", 0.01, {{"ns_per_iteration", 250}}},
                                                  {"p/flag", 0.01, {{"selected", 1}}}}));
  const auto ratio = R"({"kind": "head", "bench": "p/slow", "metric": "ns_per_iteration",
      "over": {"bench": "p/fast", "metric": "ns_per_iteration"}, "max": )";
  EXPECT_EQ(run({"--gates", write("a.json", gates_doc(std::string(ratio) + "3}")), head}).code, 0);
  EXPECT_EQ(run({"--gates", write("b.json", gates_doc(std::string(ratio) + "2}")), head}).code, 1);

  const auto equals = write("c.json", gates_doc(R"(
      {"kind": "head", "bench": "p/flag", "metric": "selected", "equals": 1},
      {"kind": "head", "bench": "p/fast", "metric": "ns_per_iteration", "max": 200},
      {"kind": "head", "bench": "p/slow", "metric": "ns_per_iteration", "min": 200})"));
  const Outcome o = run({"--gates", equals, head});
  EXPECT_EQ(o.code, 0) << o.out << o.err;
  EXPECT_NE(o.out.find("0 of 3 gates failed"), std::string::npos);

  const auto wrong = write("d.json", gates_doc(R"(
      {"kind": "head", "bench": "p/flag", "metric": "selected", "equals": 0})"));
  EXPECT_EQ(run({"--gates", wrong, head}).code, 1);
}

TEST_F(BenchCompare, AGateWhoseBenchmarkOrMetricIsMissingOrFailedFails) {
  const auto head = write("head.json", bench_doc({{"p/fast", 0.01, {{"ns_per_iteration", 100}}},
                                                  {"p/broken", 0.01, {}, false}}));
  const std::vector<std::pair<std::string, std::string>> cases = {
      {R"({"kind": "head", "bench": "p/absent", "metric": "ns_per_iteration", "max": 1e9})",
       "p/absent did not run"},
      {R"({"kind": "head", "bench": "p/fast", "metric": "absent", "max": 1e9})",
       "p/fast reported no absent"},
      {R"({"kind": "head", "bench": "p/broken", "metric": "ns_per_iteration", "max": 1e9})",
       "p/broken failed"},
      {R"({"kind": "head", "bench": "p/fast", "metric": "ns_per_iteration", "max": 1e9,
           "over": {"bench": "p/broken", "metric": "ns_per_iteration"}})",
       "p/broken failed"},
      {R"({"kind": "pin", "filter": "p/", "file": "head.json"})", "FAILED"},
      {R"({"kind": "pin", "filter": "q/", "file": "head.json"})", "no shared benchmarks"},
  };
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const auto gates = write("gates" + std::to_string(i) + ".json", gates_doc(cases[i].first));
    const Outcome o = run({"--gates", gates, head});
    EXPECT_EQ(o.code, 1) << cases[i].first << "\n" << o.out << o.err;
    EXPECT_NE(o.out.find(cases[i].second), std::string::npos) << o.out;
  }
}

TEST_F(BenchCompare, HeadGatesReadEachPassOnItsOwn) {
  const auto pass = [&](const std::string& file, double num, double den, double flag) {
    return write(file, bench_doc({{"p/num", 0.01, {{"ns_per_iteration", num}}},
                                  {"p/den", 0.01, {{"ns_per_iteration", den}, {"flag", flag}}}}));
  };
  const auto quiet1 = pass("h1.json", 100, 100, 1);
  const auto noisy = pass("h2.json", 300, 50, 1);
  const auto quiet2 = pass("h3.json", 100, 100, 1);
  const auto ratio = write("ratio.json", gates_doc(R"(
      {"kind": "head", "bench": "p/num", "metric": "ns_per_iteration",
       "over": {"bench": "p/den", "metric": "ns_per_iteration"}, "max": 1.5})"));
  // Per-pass ratios 1, 6, 1: the median passes. Pooling each side's minimum
  // would divide 100 by the other process's 50 and fail.
  Outcome o = run({"--gates", ratio, quiet1, noisy, quiet2});
  EXPECT_EQ(o.code, 0) << o.out << o.err;
  EXPECT_NE(o.out.find("| 1 (median of 3) |"), std::string::npos) << o.out;
  // Two slow passes of three move the median.
  EXPECT_EQ(run({"--gates", ratio, quiet1, noisy, noisy}).code, 1);

  // An invariant holds in every pass, and every pass must report the metric.
  const auto flag = write("flag.json", gates_doc(R"(
      {"kind": "head", "bench": "p/den", "metric": "flag", "equals": 1})"));
  EXPECT_EQ(run({"--gates", flag, quiet1, noisy, quiet2}).code, 0);
  o = run({"--gates", flag, quiet1, pass("h4.json", 100, 100, 0), quiet2});
  EXPECT_EQ(o.code, 1);
  EXPECT_NE(o.out.find("| 0 in pass 2 |"), std::string::npos) << o.out;
  const auto no_den = write("h5.json", bench_doc({{"p/num", 0.01, {{"ns_per_iteration", 100}}}}));
  o = run({"--gates", ratio, quiet1, quiet2, no_den});
  EXPECT_EQ(o.code, 1);
  EXPECT_NE(o.out.find("p/den did not run in pass 3"), std::string::npos) << o.out;
}

TEST_F(BenchCompare, AbGatesJudgeTheMedianOfPairedPassRatios) {
  const auto gates = write("gates.json", gates_doc(R"(
      {"kind": "ab", "filter": "p/", "max": 1.25})"));
  const auto pass = [&](const std::string& file, double ms, double ns) {
    return write(file, bench_doc({{"p/x", ms / 1e3, {{"ns_per_hop", ns}}}}));
  };
  const auto p10 = pass("p10.json", 10, 10), p30 = pass("p30.json", 30, 30);
  const auto p6 = pass("p6.json", 6, 6);
  const auto h10 = pass("h10.json", 10, 10), h11 = pass("h11.json", 11, 11);
  const auto h30 = pass("h30.json", 30, 30), h20 = pass("h20.json", 20, 20);
  const auto hop = pass("hop.json", 10, 20);

  // A slow spell hits both passes of a pair alike: ratios 1 and 1.1.
  Outcome o = run({"--gates", gates, h30, h11, "vs", p30, p10});
  EXPECT_EQ(o.code, 0) << o.out << o.err;
  EXPECT_NE(o.out.find("0 regressions over 1 benchmarks"), std::string::npos) << o.out;
  // One outlier pass, fast on the parent or slow on the head, does not decide:
  // each side's minimum would read 10 vs 6 here, 1.67x.
  EXPECT_EQ(run({"--gates", gates, h10, h10, h10, "vs", p10, p10, p6}).code, 0);
  EXPECT_EQ(run({"--gates", gates, h30, h10, h10, "vs", p10, p10, p10}).code, 0);
  // Pairs, not sides: a spell over pair 2 that also catches head pass 3 gives
  // ratios 1, 1, 3, though the side medians read 30 vs 10.
  EXPECT_EQ(run({"--gates", gates, h10, h30, h30, "vs", p10, p30, p10}).code, 0);
  // A head slow in most pairs fails, on wall time or on ns_per_*.
  o = run({"--gates", gates, h20, h20, h10, "vs", p10, p10, p10});
  EXPECT_EQ(o.code, 1);
  EXPECT_NE(o.out.find("| p/x | 10.000 | 20.000 | 0.50x | REGRESSION |"), std::string::npos)
      << o.out;
  EXPECT_EQ(run({"--gates", gates, hop, "vs", p10}).code, 1);
  // A benchmark the head failed in any pass fails the gate.
  const auto failed = write("failed.json", bench_doc({{"p/x", 0.011, {}, false}}));
  EXPECT_EQ(run({"--gates", gates, h10, failed, "vs", p10, p10}).code, 1);
}

TEST_F(BenchCompare, AbGatesNeedAParentOnTheSameMachineSharingABenchmark) {
  const auto gates = write("gates.json", gates_doc(R"(
      {"kind": "ab", "filter": "p/", "max": 1.25})"));
  const auto head = write("head.json", bench_doc({{"p/x"}}));
  MachineStamp other = kHere;
  other.compiler = "clang 15";
  const std::vector<std::pair<std::vector<std::string>, std::string>> cases = {
      {{head}, "no parent run given"},
      {{head, "vs", write("p1.json", bench_doc({{"p/x"}}, other))},
       "not comparable (different machine)"},
      {{head, "vs", write("p2.json", bench_doc({{"p/x"}}, std::nullopt))},
       "not comparable (different machine)"},
      {{head, "vs", write("p3.json", bench_doc({{"q/x"}}))}, "no shared benchmarks"},
  };
  for (const auto& [files, why] : cases) {
    std::vector<std::string> args = {"--gates", gates};
    args.insert(args.end(), files.begin(), files.end());
    const Outcome o = run(args);
    EXPECT_EQ(o.code, 1) << why;
    EXPECT_NE(o.out.find(why), std::string::npos) << o.out;
  }
}

TEST_F(BenchCompare, PinGatesHoldSeededMetricsExactly) {
  const auto pinned = write("pinned.json",
                            bench_doc({{"p/x", 0.5, {{"cycles", 42}, {"ns_per_hop", 1}}}},
                                      std::nullopt));
  const auto gates = write("gates.json", gates_doc(R"(
      {"kind": "pin", "filter": "p/", "file": "pinned.json"})"));
  const auto same =
      write("same.json", bench_doc({{"p/x", 0.01, {{"cycles", 42}, {"ns_per_hop", 9}}}}));
  const auto drift = write("drift.json", bench_doc({{"p/x", 0.01, {{"cycles", 43}}}}));
  const auto extra =
      write("extra.json", bench_doc({{"p/x", 0.01, {{"cycles", 42}, {"queues", 1}}}}));
  EXPECT_EQ(run({"--gates", gates, same}).code, 0);
  EXPECT_EQ(run({"--gates", gates, drift}).code, 1);
  EXPECT_EQ(run({"--gates", gates, extra}).code, 1);
  // Every head pass is held to the pin, not only the first.
  EXPECT_EQ(run({"--gates", gates, same, same}).code, 0);
  const Outcome o = run({"--gates", gates, same, drift});
  EXPECT_EQ(o.code, 1);
  EXPECT_NE(o.out.find("1 changes over 1 benchmarks in pass 2"), std::string::npos) << o.out;
}

TEST_F(BenchCompare, MalformedGatesFilesExitTwo) {
  const auto head = write("head.json", bench_doc({{"p/x", 0.01, {{"m", 1}}}}));
  for (const std::string& gates : {
           std::string(R"({"gates": []})"),
           gates_doc(""),
           gates_doc(R"({"kind": "head", "bench": "p/x", "metric": "m", "maks": 2})"),
           gates_doc(R"({"kind": "head", "bench": "p/x", "metric": "m", "max": 2, "min": 1})"),
           gates_doc(R"({"kind": "ab", "filter": "p/", "stat": "mean", "max": 1.25})"),
           gates_doc(R"({"kind": "ab", "filter": "p/", "max": 0})"),
           gates_doc(R"({"kind": "ab", "filter": "", "max": 1.25})"),
           gates_doc(R"({"kind": "pin", "filter": "p/", "file": "absent.json"})"),
           gates_doc(R"({"kind": "ratio", "filter": "p/"})"),
       }) {
    const Outcome o = run({"--gates", write("gates.json", gates), head});
    EXPECT_EQ(o.code, 2) << gates << "\n" << o.out;
  }
  const auto ok = write("ok.json", gates_doc(R"({"kind": "head", "bench": "p/x", "metric": "m",
      "equals": 1})"));
  EXPECT_EQ(run({"--gates", ok, head}).code, 0);
  EXPECT_EQ(run({"--gates", ok}).code, 2);
  EXPECT_EQ(run({"--gates", ok, head, "vs"}).code, 2);
  EXPECT_EQ(run({"--gates", ok, head, "vs", head, head}).code, 2);  // passes must pair up
  EXPECT_EQ(run({"--gates", ok, head, "--threshold", "2"}).code, 2);
}

TEST_F(BenchCompare, CommittedGatesFileParsesAndNamesEveryGate) {
  const std::string gates = std::string(FTDB_SOURCE_DIR) + "/bench/gates.json";
  const auto head = write("head.json", bench_doc({}));
  const Outcome o = run({"--gates", gates, head, "vs", head});
  EXPECT_EQ(o.code, 1) << o.err;  // nothing ran, so every gate fails
  EXPECT_NE(o.out.find("21 of 21 gates failed"), std::string::npos) << o.out;
}

}  // namespace
