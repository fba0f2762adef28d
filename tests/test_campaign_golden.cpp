// Golden campaign artifacts: the JSON, CSV and markdown reports and the final
// checkpoint of two campaigns, compared against committed bytes in
// tests/golden/. The thread-count, resume and shard tests only compare the
// code with itself; these fixtures pin the bytes themselves, so a refactor of
// the serializers or of the trial pipeline cannot drift the results
// unnoticed.
//
// The first campaign is small and runs all five metrics at N = 8. The second
// runs the four simulator metrics at N = 64 and 81, where failed trials'
// degraded and survivor-baseline runs congest enough to tell one engine
// input from another. The third runs survival and MTTF alone at N = 256 to
// 1024 under every clocked fault model, pinning each trial's fault set and
// spare-exhaustion clock where the fabrics are large enough for the clocks
// to spread.
//
// The fourth runs the traffic metric alone once per remaining pattern —
// `uniform`, `hotspot_burst` and `trace` — so with the zipf grids above every
// traffic pattern is pinned. Every draw comes from the counter-based
// splitmix64 streams, so the bytes hold on every standard library.
//
// To regenerate after a deliberate format change:
//   FTDB_UPDATE_GOLDEN=1 ./build/tests/test_campaign_golden
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <stdexcept>
#include <string>

#include "analysis/bench_json.hpp"
#include "campaign/elastic/elastic.hpp"
#include "campaign/elastic/partial.hpp"
#include "campaign/report.hpp"
#include "campaign/runner.hpp"
#include "campaign/scenario.hpp"
#include "serve/durable_file.hpp"

#ifndef FTDB_GOLDEN_DIR
#error "FTDB_GOLDEN_DIR must point at tests/golden"
#endif

namespace ftdb::campaign {
namespace {

using serve::write_file_atomically;

/// B_{2,3}, SE_3 and the h=3 bus machine; k=1; iid, weibull and bus_iid;
/// 300 trials (a full block and a short one); all five metrics.
ScenarioSpec golden_spec() {
  return parse_scenario_spec(R"({
    "name": "golden",
    "seed": 4242,
    "trials": 300,
    "topologies": [
      {"family": "debruijn", "base": 2, "digits": 3},
      {"family": "shuffle_exchange", "digits": 3},
      {"family": "bus", "digits": 3}
    ],
    "spares": [1],
    "fault_models": [
      {"kind": "iid", "p": 0.08},
      {"kind": "weibull", "shape": 1.5, "scale": 40.0, "horizon": 12.0},
      {"kind": "bus_iid", "p": 0.06}
    ],
    "metrics": ["diameter", "stretch", "mttf", "collective", "traffic"],
    "stretch_sample_pairs": 6,
    "collective_schedule": "all_to_all_bruck",
    "traffic": {"pattern": "zipf", "theta": 0.9, "packets_per_node": 2}
  })");
}

/// B_{2,6}, SE_6 and B_{3,4}; k=2; iid and clustered; 64 trials; the four
/// simulator metrics with a Bruck all-to-all and zipf traffic.
ScenarioSpec sim_golden_spec() {
  return parse_scenario_spec(R"({
    "name": "golden_sim",
    "seed": 515,
    "trials": 64,
    "topologies": [
      {"family": "debruijn", "base": 2, "digits": 6},
      {"family": "shuffle_exchange", "digits": 6},
      {"family": "debruijn", "base": 3, "digits": 4}
    ],
    "spares": [2],
    "fault_models": [
      {"kind": "iid", "p": 0.02},
      {"kind": "clustered", "p": 0.01}
    ],
    "metrics": ["diameter", "stretch", "collective", "traffic"],
    "stretch_sample_pairs": 16,
    "collective_schedule": "all_to_all_bruck",
    "traffic": {"pattern": "zipf", "theta": 1.0, "packets_per_node": 4}
  })");
}

/// B_{2,10}, SE_9 and the h=8 bus machine; k in {1, 3}; iid, clustered,
/// weibull, bus_iid and bus_clustered; 300 trials; mttf only.
ScenarioSpec survival_golden_spec() {
  return parse_scenario_spec(R"({
    "name": "golden_survival",
    "seed": 9091,
    "trials": 300,
    "topologies": [
      {"family": "debruijn", "base": 2, "digits": 10},
      {"family": "shuffle_exchange", "digits": 9},
      {"family": "bus", "digits": 8}
    ],
    "spares": [1, 3],
    "fault_models": [
      {"kind": "iid", "p": 0.003},
      {"kind": "clustered", "p": 0.0008},
      {"kind": "weibull", "shape": 1.5, "scale": 100.0, "horizon": 2.0},
      {"kind": "bus_iid", "p": 0.003},
      {"kind": "bus_clustered", "p": 0.0006}
    ],
    "metrics": ["mttf"]
  })");
}

/// B_{2,4} and SE_4; k=1; iid; 64 trials; the traffic metric alone, with
/// `traffic` as the pattern object.
ScenarioSpec traffic_golden_spec(const std::string& traffic) {
  return parse_scenario_spec(R"({
    "name": "golden_traffic",
    "seed": 777,
    "trials": 64,
    "topologies": [
      {"family": "debruijn", "base": 2, "digits": 4},
      {"family": "shuffle_exchange", "digits": 4}
    ],
    "spares": [1],
    "fault_models": [{"kind": "iid", "p": 0.03}],
    "metrics": ["traffic"],
    "traffic": )" + traffic + "}");
}

std::string golden_path(const std::string& leaf) {
  return std::string(FTDB_GOLDEN_DIR) + "/" + leaf;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

/// Compares `actual` with the committed fixture, or rewrites the fixture
/// when FTDB_UPDATE_GOLDEN is set.
void expect_golden(const std::string& leaf, const std::string& actual) {
  const std::string path = golden_path(leaf);
  if (std::getenv("FTDB_UPDATE_GOLDEN") != nullptr) {
    std::ofstream(path, std::ios::binary | std::ios::trunc) << actual;
    return;
  }
  std::ifstream probe(path, std::ios::binary);
  ASSERT_TRUE(probe.good()) << "missing fixture " << path;
  EXPECT_EQ(actual, slurp(path)) << "bytes differ from " << path;
}

struct GoldenRun {
  CampaignResult result;
  std::string checkpoint;
};

GoldenRun run_golden(const ScenarioSpec& spec) {
  // Per-process path: ctest runs each test of this binary as its own process.
  const std::string ckpt_path = ::testing::TempDir() + "/ftdb_" + spec.name + "_" +
                                std::to_string(::getpid()) + ".ckpt";
  std::remove(ckpt_path.c_str());
  CampaignOptions options;
  options.threads = 2;
  options.checkpoint_path = ckpt_path;
  GoldenRun r{run_campaign(spec, options), ""};
  r.checkpoint = slurp(ckpt_path);
  std::remove(ckpt_path.c_str());
  return r;
}

const GoldenRun& golden_run() {
  static const GoldenRun run = run_golden(golden_spec());
  return run;
}

const GoldenRun& sim_golden_run() {
  static const GoldenRun run = run_golden(sim_golden_spec());
  return run;
}

const GoldenRun& survival_golden_run() {
  static const GoldenRun run = run_golden(survival_golden_spec());
  return run;
}

TEST(CampaignGolden, ReportJsonMatchesFixture) {
  expect_golden("report.json", campaign_report_json(golden_run().result));
}

TEST(CampaignGolden, ReportCsvMatchesFixture) {
  expect_golden("report.csv", campaign_report_csv(golden_run().result));
}

TEST(CampaignGolden, ReportMarkdownMatchesFixture) {
  expect_golden("report.md", campaign_report_markdown(golden_run().result));
}

TEST(CampaignGolden, FinalCheckpointMatchesFixture) {
  ASSERT_FALSE(golden_run().checkpoint.empty());
  expect_golden("checkpoint.json", golden_run().checkpoint);
}

TEST(CampaignGolden, ReportRoundTripsThroughParseAndWrite) {
  const std::string text = slurp(golden_path("report.json"));
  ASSERT_FALSE(text.empty());
  EXPECT_EQ(validate_campaign_report(text), 9u);
  const analysis::JsonValue doc = analysis::json_parse(text);
  CampaignResult reparsed;
  reparsed.spec = golden_spec();
  for (const analysis::JsonValue& s : doc.at("scenarios").array) {
    reparsed.scenarios.push_back(parse_scenario_result(s));
  }
  EXPECT_EQ(campaign_report_json(reparsed), text);
  EXPECT_EQ(campaign_report_csv(reparsed), slurp(golden_path("report.csv")));
  EXPECT_EQ(campaign_report_markdown(reparsed), slurp(golden_path("report.md")));
}

TEST(CampaignGolden, CheckpointRoundTripsThroughParseAndWrite) {
  const std::string text = slurp(golden_path("checkpoint.json"));
  ASSERT_FALSE(text.empty());
  EXPECT_EQ(checkpoint_to_json(golden_spec(), parse_checkpoint(text)), text);
}

/// Whether `call` throws a std::runtime_error naming a fingerprint mismatch.
template <class Call>
::testing::AssertionResult refused_by_fingerprint(Call call) {
  try {
    call();
  } catch (const std::runtime_error& e) {
    if (std::string(e.what()).find("fingerprint mismatch") != std::string::npos) {
      return ::testing::AssertionSuccess();
    }
    return ::testing::AssertionFailure() << "refused for another reason: " << e.what();
  }
  return ::testing::AssertionFailure() << "accepted";
}

TEST(CampaignGolden, CheckpointOfAnotherFaultDrawVersionIsRefused) {
  // checkpoint_draw_v0.json is the golden spec's final checkpoint as the
  // per-unit scan wrote it. Its trials are not this sampler's, so neither a
  // resume nor a merge may take them.
  const std::string old_text = slurp(golden_path("checkpoint_draw_v0.json"));
  ASSERT_FALSE(old_text.empty());
  const Checkpoint old = parse_checkpoint(old_text);
  EXPECT_NE(old.fingerprint, spec_fingerprint(golden_spec()));

  const std::string path = ::testing::TempDir() + "/ftdb_draw_v0_" +
                           std::to_string(::getpid()) + ".ckpt";
  std::ofstream(path, std::ios::binary | std::ios::trunc) << old_text;
  CampaignOptions options;
  options.threads = 1;
  options.checkpoint_path = path;
  options.resume = true;
  EXPECT_TRUE(refused_by_fingerprint([&] { run_campaign(golden_spec(), options); }));
  // The refused resume left the old checkpoint as it was.
  EXPECT_EQ(slurp(path), old_text);
  std::remove(path.c_str());

  // Nor may a merge: an elastic directory of the golden spec whose compacted
  // checkpoint holds the old draws is refused, alone and beside a directory
  // holding this sampler's checkpoint.
  const auto elastic_dir = [](const std::string& tag, const std::string& checkpoint) {
    const std::string dir = ::testing::TempDir() + "/ftdb_draw_" + tag + "_" +
                            std::to_string(::getpid());
    std::filesystem::remove_all(dir);
    elastic::ensure_elastic_dir(golden_spec(), dir);
    write_file_atomically(dir + "/compacted.ckpt", checkpoint, false);
    return dir;
  };
  const std::string old_dir = elastic_dir("v0", old_text);
  const std::string current_dir = elastic_dir("current", golden_run().checkpoint);
  EXPECT_TRUE(refused_by_fingerprint([&] { elastic::merge_elastic(golden_spec(), {old_dir}); }));
  EXPECT_TRUE(refused_by_fingerprint(
      [&] { elastic::merge_elastic(golden_spec(), {current_dir, old_dir}); }));
  EXPECT_EQ(campaign_report_json(elastic::merge_elastic(golden_spec(), {current_dir})),
            campaign_report_json(golden_run().result));
  std::filesystem::remove_all(old_dir);
  std::filesystem::remove_all(current_dir);
}

TEST(CampaignGolden, SimScaleReportJsonMatchesFixture) {
  expect_golden("sim_report.json", campaign_report_json(sim_golden_run().result));
}

TEST(CampaignGolden, SimScaleReportCsvMatchesFixture) {
  expect_golden("sim_report.csv", campaign_report_csv(sim_golden_run().result));
}

TEST(CampaignGolden, SimScaleReportMarkdownMatchesFixture) {
  expect_golden("sim_report.md", campaign_report_markdown(sim_golden_run().result));
}

TEST(CampaignGolden, SimScaleFinalCheckpointMatchesFixture) {
  ASSERT_FALSE(sim_golden_run().checkpoint.empty());
  expect_golden("sim_checkpoint.json", sim_golden_run().checkpoint);
}

TEST(CampaignGolden, SimScaleFixtureExercisesEveryTrialPath) {
  // The fixture is only worth its bytes if it reaches each simulator path:
  // successful trials, failed trials that still run the degraded collective
  // and traffic, and degraded runs that congest.
  const std::string text = slurp(golden_path("sim_report.json"));
  ASSERT_FALSE(text.empty());
  EXPECT_EQ(validate_campaign_report(text), 6u);
  const analysis::JsonValue doc = analysis::json_parse(text);
  std::uint64_t failed_with_collective = 0;
  for (const analysis::JsonValue& s : doc.at("scenarios").array) {
    const ScenarioResult r = parse_scenario_result(s);
    EXPECT_GT(r.reconfig_success, 0u) << r.label;
    EXPECT_EQ(r.collective_slowdown.count + r.collective_unreachable, r.trials) << r.label;
    failed_with_collective += r.collective_slowdown.count - r.reconfig_success;
  }
  EXPECT_GT(failed_with_collective, 0u);
}

TEST(CampaignGolden, SurvivalScaleReportJsonMatchesFixture) {
  expect_golden("survival_report.json", campaign_report_json(survival_golden_run().result));
}

TEST(CampaignGolden, SurvivalScaleReportCsvMatchesFixture) {
  expect_golden("survival_report.csv", campaign_report_csv(survival_golden_run().result));
}

TEST(CampaignGolden, SurvivalScaleReportMarkdownMatchesFixture) {
  expect_golden("survival_report.md", campaign_report_markdown(survival_golden_run().result));
}

TEST(CampaignGolden, SurvivalScaleFinalCheckpointMatchesFixture) {
  ASSERT_FALSE(survival_golden_run().checkpoint.empty());
  expect_golden("survival_checkpoint.json", survival_golden_run().checkpoint);
}

TEST(CampaignGolden, SurvivalScaleFixtureSpreadsEveryClock) {
  // Every cell must see both outcomes and finite exhaustion clocks, or the
  // fixture would pin a degenerate draw.
  const std::string text = slurp(golden_path("survival_report.json"));
  ASSERT_FALSE(text.empty());
  EXPECT_EQ(validate_campaign_report(text), 30u);
  const analysis::JsonValue doc = analysis::json_parse(text);
  for (const analysis::JsonValue& s : doc.at("scenarios").array) {
    const ScenarioResult r = parse_scenario_result(s);
    EXPECT_GT(r.reconfig_success, 0u) << r.label;
    EXPECT_LT(r.reconfig_success, r.trials) << r.label;
    EXPECT_GT(r.mttf.count, 0u) << r.label;
  }
}

TEST(CampaignGolden, TrafficPatternReportsMatchFixtures) {
  const struct {
    const char* leaf;
    const char* traffic;
  } patterns[] = {
      {"traffic_uniform_report.json", R"({"pattern": "uniform", "packets_per_node": 2})"},
      {"traffic_hotspot_burst_report.json",
       R"({"pattern": "hotspot_burst", "hotspots": 2, "fraction_hot": 0.5,
           "burst_cycles": 4, "packets_per_node": 2})"},
      {"traffic_trace_report.json",
       R"({"pattern": "trace", "trace": "0 0 5\n0 3 12\n1 7 2\n2 15 0\n2 9 9\n4 1 14\n"})"},
  };
  for (const auto& p : patterns) {
    SCOPED_TRACE(p.leaf);
    expect_golden(p.leaf, campaign_report_json(run_golden(traffic_golden_spec(p.traffic)).result));
  }
}

}  // namespace
}  // namespace ftdb::campaign
