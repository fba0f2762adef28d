// Campaign engine tests: spec parsing, fault-model properties, streaming
// statistics, scheduling-independent determinism, checkpoint/resume
// identity, and the statistical-sanity check tying the iid model's empirical
// survival back to the paper's binomial tail (ft/spares.hpp).
#include <gtest/gtest.h>

#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <random>
#include <regex>

#include "campaign/clock_scan.hpp"
#include "campaign/fault_models.hpp"
#include "campaign/report.hpp"
#include "campaign/rng.hpp"
#include "campaign/runner.hpp"
#include "campaign/scenario.hpp"
#include "ft/bus_ft.hpp"
#include "ft/ft_debruijn.hpp"
#include "ft/spares.hpp"
#include "graph/algorithms.hpp"
#include "topology/debruijn.hpp"
#include "topology/shuffle_exchange.hpp"

namespace ftdb::campaign {
namespace {

ScenarioSpec small_spec() {
  ScenarioSpec spec;
  spec.name = "test";
  spec.seed = 7;
  spec.trials = 200;
  spec.topologies = {{TopologyFamily::DeBruijn, 2, 4}, {TopologyFamily::ShuffleExchange, 2, 3}};
  spec.spares = {0, 2};
  spec.fault_models = {{FaultModelKind::IidBernoulli, 0.05, 1.0, 100.0, 1.0},
                       {FaultModelKind::Adversarial, 0.05, 1.0, 100.0, 1.0}};
  spec.metrics = {true, false, true};
  return spec;
}

TEST(TrialRng, CounterBasedStreamsAreStable) {
  TrialRng a = TrialRng::for_trial(42, 3, 17);
  TrialRng b = TrialRng::for_trial(42, 3, 17);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
  // Different counters diverge immediately.
  TrialRng c = TrialRng::for_trial(42, 3, 18);
  TrialRng d = TrialRng::for_trial(42, 4, 17);
  TrialRng e = TrialRng::for_trial(43, 3, 17);
  TrialRng base = TrialRng::for_trial(42, 3, 17);
  const std::uint64_t first = base.next_u64();
  EXPECT_NE(first, c.next_u64());
  EXPECT_NE(first, d.next_u64());
  EXPECT_NE(first, e.next_u64());
}

TEST(TrialRng, UnitDrawsAreInRange) {
  TrialRng rng(123);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.next_unit();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(StreamingStats, MatchesDirectMomentsAndMergeIsExactOnSplit) {
  std::mt19937_64 rng(5);
  std::vector<double> xs(257);
  double sum = 0.0;
  for (double& x : xs) {
    x = std::uniform_real_distribution<double>(-3.0, 7.0)(rng);
    sum += x;
  }
  const double mean = sum / static_cast<double>(xs.size());
  double ss = 0.0;
  for (const double x : xs) ss += (x - mean) * (x - mean);
  const double variance = ss / static_cast<double>(xs.size() - 1);

  StreamingStats whole;
  for (const double x : xs) whole.add(x);
  EXPECT_NEAR(whole.mean, mean, 1e-12);
  EXPECT_NEAR(whole.variance(), variance, 1e-10);

  StreamingStats left, right;
  for (std::size_t i = 0; i < xs.size(); ++i) (i < 100 ? left : right).add(xs[i]);
  left.merge(right);
  EXPECT_EQ(left.count, whole.count);
  EXPECT_NEAR(left.mean, whole.mean, 1e-12);
  EXPECT_NEAR(left.m2, whole.m2, 1e-9);
  EXPECT_EQ(left.min, whole.min);
  EXPECT_EQ(left.max, whole.max);
}

TEST(WilsonInterval, BracketsTheRateAndTightensWithN) {
  const WilsonInterval small = wilson_interval(8, 10);
  const WilsonInterval large = wilson_interval(800, 1000);
  EXPECT_LT(small.lo, 0.8);
  EXPECT_GT(small.hi, 0.8);
  EXPECT_LT(large.lo, 0.8);
  EXPECT_GT(large.hi, 0.8);
  EXPECT_LT(large.hi - large.lo, small.hi - small.lo);
  // Degenerate corners stay inside [0, 1].
  EXPECT_EQ(wilson_interval(0, 0).lo, 0.0);
  EXPECT_EQ(wilson_interval(0, 0).hi, 1.0);
  EXPECT_GE(wilson_interval(0, 50).lo, 0.0);
  EXPECT_LE(wilson_interval(50, 50).hi, 1.0);
}

TEST(ScenarioSpec, ParseExampleAndRoundTrip) {
  const ScenarioSpec spec = parse_scenario_spec(example_spec_json());
  EXPECT_EQ(spec.name, "example");
  EXPECT_EQ(spec.trials, 200u);
  EXPECT_EQ(spec.topologies.size(), 2u);
  EXPECT_EQ(spec.spares.size(), 3u);
  EXPECT_EQ(spec.fault_models.size(), 5u);
  EXPECT_EQ(spec.fault_models.back().kind, FaultModelKind::Block);
  EXPECT_EQ(spec.fault_models.back().width, 3u);
  EXPECT_TRUE(spec.metrics.diameter);
  EXPECT_FALSE(spec.metrics.stretch);
  EXPECT_TRUE(spec.metrics.mttf);
  // Canonical JSON reparses to the same canonical JSON (fixed point).
  const std::string canon = scenario_spec_to_json(spec);
  EXPECT_EQ(canon, scenario_spec_to_json(parse_scenario_spec(canon)));
  EXPECT_EQ(spec_fingerprint(spec), spec_fingerprint(parse_scenario_spec(canon)));
}

TEST(ScenarioSpec, GridDimensionsExpand) {
  const ScenarioSpec spec = parse_scenario_spec(R"({
    "topologies": [{"family": "debruijn", "base": [2, 3], "digits": [3, 4]}],
    "spares": [0, 1, 2],
    "fault_models": [{"kind": "iid", "p": 0.1}]
  })");
  EXPECT_EQ(spec.topologies.size(), 4u);  // 2 bases x 2 digit values
  const auto cells = expand_grid(spec);
  ASSERT_EQ(cells.size(), 12u);
  for (std::size_t i = 0; i < cells.size(); ++i) EXPECT_EQ(cells[i].index, i);
}

TEST(ScenarioSpec, RejectsMalformedInput) {
  EXPECT_THROW(parse_scenario_spec("not json"), std::runtime_error);
  EXPECT_THROW(parse_scenario_spec(R"({"spares": [1]})"), std::runtime_error);
  EXPECT_THROW(parse_scenario_spec(R"({
    "topologies": [{"family": "torus", "digits": 3}],
    "spares": [1], "fault_models": [{"kind": "iid", "p": 0.1}]
  })"),
               std::runtime_error);
  EXPECT_THROW(parse_scenario_spec(R"({
    "topologies": [{"family": "debruijn", "digits": 3}],
    "spares": [1], "fault_models": [{"kind": "iid", "p": 1.5}]
  })"),
               std::runtime_error);
  EXPECT_THROW(parse_scenario_spec(R"({
    "topologies": [{"family": "debruijn", "digits": 3}],
    "spares": [1], "fault_models": [{"kind": "iid", "p": 0.1}],
    "metrics": ["latency"]
  })"),
               std::runtime_error);
  // Counts a bare cast would mangle: out of range, negative, fractional.
  for (const char* trials : {"1e30", "18446744073709551616", "-3", "2.5", "\"many\""}) {
    try {
      parse_scenario_spec(std::string(R"({"trials": )") + trials + R"(,
        "topologies": [{"family": "debruijn", "digits": 3}],
        "spares": [1], "fault_models": [{"kind": "iid", "p": 0.1}]})");
      ADD_FAILURE() << "accepted trials " << trials;
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("\"trials\""), std::string::npos) << e.what();
      EXPECT_EQ(std::string(e.what()).find("must be positive"), std::string::npos) << e.what();
    }
  }
  EXPECT_THROW(parse_scenario_spec(R"({
    "topologies": [{"family": "debruijn", "digits": [3, 1e30]}],
    "spares": [1], "fault_models": [{"kind": "iid", "p": 0.1}]
  })"),
               std::runtime_error);
  // "base" on a base-2-only family must be rejected, not silently dropped.
  EXPECT_THROW(parse_scenario_spec(R"({
    "topologies": [{"family": "shuffle_exchange", "base": [3, 4], "digits": 4}],
    "spares": [1], "fault_models": [{"kind": "iid", "p": 0.1}]
  })"),
               std::runtime_error);
}

TEST(FaultModels, DrawsAreDeterministicPerTrialKey) {
  const Graph fabric = ft_debruijn_base2(4, 2);
  for (const FaultModelKind kind :
       {FaultModelKind::IidBernoulli, FaultModelKind::Clustered, FaultModelKind::Weibull,
        FaultModelKind::Adversarial, FaultModelKind::Block}) {
    FaultModelSpec spec;
    spec.kind = kind;
    spec.p = 0.08;
    spec.shape = 1.3;
    spec.scale = 50.0;
    spec.horizon = 10.0;
    const auto model = make_fault_model(spec);
    model->prepare(fabric, 2);
    TrialRng r1 = TrialRng::for_trial(9, 0, 5);
    TrialRng r2 = TrialRng::for_trial(9, 0, 5);
    const FaultDraw a = model->draw(fabric, 2, r1);
    const FaultDraw b = model->draw(fabric, 2, r2);
    EXPECT_EQ(a.faults.nodes(), b.faults.nodes()) << fault_model_kind_name(kind);
    EXPECT_EQ(a.spare_exhaustion_time, b.spare_exhaustion_time);
  }
}

TEST(FaultModels, IidFaultCountTracksExpectation) {
  const Graph fabric = ft_debruijn_base2(5, 3);  // 35 nodes
  const auto model = make_fault_model({FaultModelKind::IidBernoulli, 0.1, 1.0, 1.0, 1.0});
  model->prepare(fabric, 3);
  double total = 0.0;
  const int trials = 3000;
  for (int t = 0; t < trials; ++t) {
    TrialRng rng = TrialRng::for_trial(11, 0, static_cast<std::uint64_t>(t));
    total += static_cast<double>(model->draw(fabric, 3, rng).faults.count());
  }
  const double expected = 0.1 * static_cast<double>(fabric.num_nodes());
  EXPECT_NEAR(total / trials, expected, 0.3);  // sd of the mean ~ 0.03
}

TEST(FaultModels, ClusteredFaultsAreSeedNeighborhoodUnions) {
  const Graph fabric = ft_debruijn_base2(4, 2);
  const auto model = make_fault_model({FaultModelKind::Clustered, 0.05, 1.0, 1.0, 1.0});
  model->prepare(fabric, 2);
  for (int t = 0; t < 50; ++t) {
    TrialRng rng = TrialRng::for_trial(3, 0, static_cast<std::uint64_t>(t));
    const FaultDraw draw = model->draw(fabric, 2, rng);
    // The fault set is S u N(S) for some seed set S, so whenever it is
    // non-empty at least one faulty node (a seed) has its entire closed
    // neighborhood faulty.
    if (draw.faults.count() > 0) {
      bool some_full_neighborhood = false;
      for (const NodeId f : draw.faults.nodes()) {
        bool full = true;
        for (const NodeId u : fabric.neighbors(f)) full = full && draw.faults.is_faulty(u);
        some_full_neighborhood = some_full_neighborhood || full;
      }
      EXPECT_TRUE(some_full_neighborhood) << "no plausible seed in fault set, trial " << t;
    }
  }
}

TEST(FaultModels, AdversarialTargetsHighestDegreesFirst) {
  const Graph fabric = ft_debruijn_base2(4, 2);
  const auto model = make_fault_model({FaultModelKind::Adversarial, 0.15, 1.0, 1.0, 1.0});
  model->prepare(fabric, 2);
  // Expected attack order: degrees descending, ties by id.
  std::vector<NodeId> order(fabric.num_nodes());
  for (std::size_t v = 0; v < order.size(); ++v) order[v] = static_cast<NodeId>(v);
  std::stable_sort(order.begin(), order.end(),
                   [&](NodeId a, NodeId b) { return fabric.degree(a) > fabric.degree(b); });
  for (int t = 0; t < 20; ++t) {
    TrialRng rng = TrialRng::for_trial(4, 0, static_cast<std::uint64_t>(t));
    const FaultDraw draw = model->draw(fabric, 2, rng);
    std::vector<NodeId> expected(order.begin(),
                                 order.begin() + static_cast<std::ptrdiff_t>(draw.faults.count()));
    std::sort(expected.begin(), expected.end());
    EXPECT_EQ(draw.faults.nodes(), expected);
  }
}

TEST(FaultModels, WeibullHorizonMonotone) {
  const Graph fabric = ft_debruijn_base2(4, 1);
  const auto narrow = make_fault_model({FaultModelKind::Weibull, 0.0, 1.5, 100.0, 10.0});
  const auto wide = make_fault_model({FaultModelKind::Weibull, 0.0, 1.5, 100.0, 60.0});
  for (int t = 0; t < 50; ++t) {
    TrialRng r1 = TrialRng::for_trial(6, 0, static_cast<std::uint64_t>(t));
    TrialRng r2 = TrialRng::for_trial(6, 0, static_cast<std::uint64_t>(t));
    const FaultDraw a = narrow->draw(fabric, 1, r1);
    const FaultDraw b = wide->draw(fabric, 1, r2);
    // Same lifetimes, wider window: the narrow fault set is contained in the
    // wide one, and the exhaustion clock is identical.
    for (const NodeId f : a.faults.nodes()) EXPECT_TRUE(b.faults.is_faulty(f));
    EXPECT_EQ(a.spare_exhaustion_time, b.spare_exhaustion_time);
  }
}

TEST(FaultModels, BlockFaultsAreOneCyclicRunWithinWidth) {
  const Graph fabric = ft_debruijn_base2(4, 2);  // 18 nodes
  const std::uint64_t max_width = 5;
  FaultModelSpec spec;
  spec.kind = FaultModelKind::Block;
  spec.p = 0.1;
  spec.width = max_width;
  const auto model = make_fault_model(spec);
  model->prepare(fabric, 2);
  const std::size_t n = fabric.num_nodes();
  for (int t = 0; t < 200; ++t) {
    TrialRng rng = TrialRng::for_trial(21, 0, static_cast<std::uint64_t>(t));
    const FaultDraw draw = model->draw(fabric, 2, rng);
    const std::uint64_t width = draw.faults.count();
    ASSERT_GE(width, 1u);
    ASSERT_LE(width, max_width);
    // Contiguity on the label cycle: the complement of the fault set contains
    // exactly one maximal run (equivalently, the fault set has exactly one
    // cyclic boundary where faulty -> healthy).
    std::size_t boundaries = 0;
    for (std::size_t v = 0; v < n; ++v) {
      const bool here = draw.faults.is_faulty(static_cast<NodeId>(v));
      const bool next = draw.faults.is_faulty(static_cast<NodeId>((v + 1) % n));
      if (here && !next) ++boundaries;
    }
    EXPECT_EQ(boundaries, width == n ? 0u : 1u) << "trial " << t;
    // The clock: a block outweighing the spares exhausts them at its onset,
    // smaller blocks never do.
    if (width >= 3) {
      EXPECT_TRUE(std::isfinite(draw.spare_exhaustion_time)) << "trial " << t;
      EXPECT_GE(draw.spare_exhaustion_time, 1.0);
    } else {
      EXPECT_TRUE(std::isinf(draw.spare_exhaustion_time)) << "trial " << t;
    }
  }
}

TEST(FaultModels, BlockSpecRoundTripsThroughCanonicalJson) {
  const ScenarioSpec spec = parse_scenario_spec(R"({
    "topologies": [{"family": "debruijn", "digits": 4}],
    "spares": [2],
    "fault_models": [{"kind": "block", "p": 0.07, "width": 6}]
  })");
  ASSERT_EQ(spec.fault_models.size(), 1u);
  EXPECT_EQ(spec.fault_models[0].kind, FaultModelKind::Block);
  EXPECT_EQ(spec.fault_models[0].width, 6u);
  EXPECT_EQ(spec.fault_models[0].label(), "block(p=0.07,w=6)");
  const std::string canon = scenario_spec_to_json(spec);
  EXPECT_EQ(canon, scenario_spec_to_json(parse_scenario_spec(canon)));
  EXPECT_THROW(parse_scenario_spec(R"({
    "topologies": [{"family": "debruijn", "digits": 4}],
    "spares": [2],
    "fault_models": [{"kind": "block", "p": 0.07, "width": 0}]
  })"),
               std::runtime_error);
}

TEST(Campaign, BlockModelSurvivesIffBlockFitsTheSpares) {
  // Point-to-point B^k tolerates *any* <= k faults, so under the block model
  // the survival curve collapses to "width <= k": every under-budget block is
  // absorbed regardless of offset.
  ScenarioSpec spec;
  spec.seed = 31;
  spec.trials = 400;
  spec.topologies = {{TopologyFamily::DeBruijn, 2, 4}};
  spec.spares = {2};
  spec.fault_models = {
      {FaultModelKind::Block, 0.1, 1.0, 100.0, 1.0, 4}};
  spec.metrics = {false, false, true};
  const CampaignResult result = run_campaign(spec, {.threads = 2});
  const ScenarioResult& r = result.scenarios.front();
  EXPECT_EQ(r.trials, 400u);
  for (const SurvivalPoint& p : r.survival_curve) {
    if (p.faults <= 2) {
      EXPECT_EQ(p.survived, p.trials) << "width=" << p.faults;
    } else {
      EXPECT_EQ(p.survived, 0u) << "width=" << p.faults;
    }
  }
}

TEST(Campaign, WeibullAnalyticMttfMatchesEmpiricalMean) {
  ScenarioSpec spec;
  spec.seed = 404;
  spec.trials = 3000;
  spec.topologies = {{TopologyFamily::DeBruijn, 2, 4}};
  spec.spares = {2};
  spec.fault_models = {{FaultModelKind::Weibull, 0.0, 1.5, 300.0, 40.0}};
  spec.metrics = {false, false, true};
  const CampaignResult result = run_campaign(spec, {.threads = 2});
  const ScenarioResult& r = result.scenarios.front();
  ASSERT_TRUE(std::isfinite(r.analytic_mttf));
  EXPECT_NEAR(r.analytic_mttf, weibull_mttf(r.fabric_nodes, 2, 1.5, 300.0), 1e-12);
  // The model draws full lifetimes, so the empirical column estimates exactly
  // this expectation: check within 5 standard errors.
  ASSERT_EQ(r.mttf.count, spec.trials);
  const double stderr_mean = r.mttf.stddev() / std::sqrt(static_cast<double>(r.mttf.count));
  EXPECT_NEAR(r.mttf.mean, r.analytic_mttf, 5.0 * stderr_mean);
}

TEST(Campaign, SampledStretchIsDeterministicAndBounded) {
  ScenarioSpec spec;
  spec.seed = 77;
  spec.trials = 60;
  spec.topologies = {{TopologyFamily::DeBruijn, 2, 4}};
  spec.spares = {2};
  spec.fault_models = {{FaultModelKind::IidBernoulli, 0.05, 1.0, 1.0, 1.0}};
  spec.metrics = {false, true, false};
  spec.metrics.stretch_sample_pairs = 24;

  CampaignOptions serial;
  serial.threads = 1;
  CampaignOptions pooled;
  pooled.threads = 3;
  const CampaignResult a = run_campaign(spec, serial);
  const CampaignResult b = run_campaign(spec, pooled);
  EXPECT_EQ(campaign_report_json(a), campaign_report_json(b));

  const ScenarioResult& r = a.scenarios.front();
  ASSERT_GT(r.route_stretch.count, 0u);
  EXPECT_GE(r.route_stretch.min, 1.0);
  EXPECT_LE(r.route_stretch.max, 4.0);  // logical routes never exceed h hops

  // The knob is part of the canonical spec (and so of the fingerprint).
  ScenarioSpec full = spec;
  full.metrics.stretch_sample_pairs = 0;
  EXPECT_NE(spec_fingerprint(spec), spec_fingerprint(full));

  // Sampling can only lower the maximum: the full audit dominates it.
  ScenarioSpec audit = spec;
  audit.metrics.stretch_sample_pairs = 0;
  const CampaignResult c = run_campaign(audit, serial);
  EXPECT_LE(r.route_stretch.max, c.scenarios.front().route_stretch.max + 1e-12);
}

TEST(Campaign, ShuffleExchangeStretchIsPopulatedAndBounded) {
  // The stretch metric now covers the whole point-to-point family: an SE cell
  // with stretch on must actually populate route_stretch (it used to be a
  // de Bruijn-only metric), with the SE route-length bound 2h as the ceiling.
  ScenarioSpec spec;
  spec.seed = 19;
  spec.trials = 60;
  spec.topologies = {{TopologyFamily::ShuffleExchange, 2, 3}};
  spec.spares = {2};
  spec.fault_models = {{FaultModelKind::IidBernoulli, 0.08, 1.0, 1.0, 1.0}};
  spec.metrics = {false, true, false};

  CampaignOptions serial;
  serial.threads = 1;
  CampaignOptions pooled;
  pooled.threads = 3;
  const CampaignResult a = run_campaign(spec, serial);
  EXPECT_EQ(campaign_report_json(a), campaign_report_json(run_campaign(spec, pooled)));

  const ScenarioResult& r = a.scenarios.front();
  ASSERT_GT(r.route_stretch.count, 0u);
  EXPECT_GE(r.route_stretch.min, 1.0);
  EXPECT_LE(r.route_stretch.max, 6.0);  // SE logical routes never exceed 2h hops

  // Sampled SE stretch stays under the full audit, like the de Bruijn case.
  ScenarioSpec sampled = spec;
  sampled.metrics.stretch_sample_pairs = 24;
  const CampaignResult s = run_campaign(sampled, serial);
  ASSERT_GT(s.scenarios.front().route_stretch.count, 0u);
  EXPECT_LE(s.scenarios.front().route_stretch.max, r.route_stretch.max + 1e-12);
}

TEST(Campaign, ReportIsIndependentOfThreadCount) {
  const ScenarioSpec spec = small_spec();
  CampaignOptions serial;
  serial.threads = 1;
  CampaignOptions pooled;
  pooled.threads = 3;
  const std::string a = campaign_report_json(run_campaign(spec, serial));
  const std::string b = campaign_report_json(run_campaign(spec, pooled));
  EXPECT_EQ(a, b);  // byte-identical, not merely statistically equal
}

TEST(Campaign, ResumeFromCheckpointReproducesTheFullReport) {
  const ScenarioSpec spec = small_spec();
  const CampaignResult full = run_campaign(spec, {.threads = 2});
  ASSERT_EQ(full.scenarios.size(), 8u);

  // Craft a mid-campaign checkpoint: only the first three scenarios done.
  Checkpoint partial;
  for (std::size_t i = 0; i < 3; ++i) {
    CellProgress cell;
    cell.scenario_index = i;
    cell.prefix_blocks = num_trial_blocks(spec.trials);
    cell.prefix = full.scenarios[i];
    partial.cells.push_back(std::move(cell));
  }
  const std::string ckpt_path = ::testing::TempDir() + "/ftdb_campaign_ckpt.json";
  {
    std::ofstream out(ckpt_path, std::ios::binary | std::ios::trunc);
    out << checkpoint_to_json(spec, partial);
  }
  CampaignOptions resume_opts;
  resume_opts.threads = 2;
  resume_opts.checkpoint_path = ckpt_path;
  resume_opts.resume = true;
  const CampaignResult resumed = run_campaign(spec, resume_opts);
  EXPECT_EQ(resumed.resumed_scenarios, 3u);
  EXPECT_EQ(campaign_report_json(resumed), campaign_report_json(full));
  EXPECT_EQ(campaign_report_markdown(resumed), campaign_report_markdown(full));
  EXPECT_EQ(campaign_report_csv(resumed), campaign_report_csv(full));
}

TEST(Campaign, CheckpointFingerprintMismatchIsRejected) {
  const ScenarioSpec spec = small_spec();
  ScenarioSpec other = spec;
  other.seed += 1;
  const std::string ckpt_path = ::testing::TempDir() + "/ftdb_campaign_ckpt2.json";
  {
    std::ofstream out(ckpt_path, std::ios::binary | std::ios::trunc);
    out << checkpoint_to_json(other, Checkpoint{});
  }
  CampaignOptions opts;
  opts.threads = 1;
  opts.checkpoint_path = ckpt_path;
  opts.resume = true;
  EXPECT_THROW(run_campaign(spec, opts), std::runtime_error);
}

TEST(Campaign, EmpiricalSurvivalMatchesBinomialTail) {
  // Statistical sanity: under the iid model the paper's guarantee makes
  // machine survival exactly P[Binomial(N+k, p) <= k]; the empirical rate's
  // 99.9% Wilson interval must cover the analytic value.
  ScenarioSpec spec;
  spec.name = "stat";
  spec.seed = 1234;
  spec.trials = 4000;
  spec.topologies = {{TopologyFamily::DeBruijn, 2, 4}};
  spec.spares = {2};
  spec.fault_models = {{FaultModelKind::IidBernoulli, 0.06, 1.0, 1.0, 1.0}};
  spec.metrics = {false, false, false};
  const CampaignResult result = run_campaign(spec, {.threads = 2});
  ASSERT_EQ(result.scenarios.size(), 1u);
  const ScenarioResult& r = result.scenarios.front();
  const double analytic = static_cast<double>(survival_probability(16, 2, 0.06L));
  EXPECT_NEAR(r.analytic_survival, analytic, 1e-12);
  const WilsonInterval ci = r.success_ci(3.29);  // z for 99.9%
  EXPECT_GE(analytic, ci.lo) << "rate " << r.success_rate();
  EXPECT_LE(analytic, ci.hi) << "rate " << r.success_rate();
  // Survival curve partitions the trials and is consistent with the
  // theorem: every under-budget draw survives, every over-budget one dies.
  std::uint64_t total = 0;
  for (const SurvivalPoint& p : r.survival_curve) {
    total += p.trials;
    if (p.faults <= 2) {
      EXPECT_EQ(p.survived, p.trials) << "faults=" << p.faults;
    } else {
      EXPECT_EQ(p.survived, 0u) << "faults=" << p.faults;
    }
  }
  EXPECT_EQ(total, spec.trials);
}

TEST(Campaign, ReconfiguredDiameterMatchesTargetOnEverySuccess) {
  ScenarioSpec spec;
  spec.seed = 99;
  spec.trials = 300;
  spec.topologies = {{TopologyFamily::DeBruijn, 2, 4}};
  spec.spares = {2};
  spec.fault_models = {{FaultModelKind::IidBernoulli, 0.05, 1.0, 1.0, 1.0}};
  spec.metrics = {true, false, false};
  const CampaignResult result = run_campaign(spec, {.threads = 1});
  const ScenarioResult& r = result.scenarios.front();
  ASSERT_GT(r.reconfig_success, 0u);
  EXPECT_EQ(r.reconfigured_diameter.count, r.reconfig_success);
  // The paper's reconfiguration is dilation-1: measured diameter is exactly
  // the target diameter on every successful trial (zero variance).
  EXPECT_EQ(r.reconfigured_diameter.min, static_cast<double>(r.target_diameter));
  EXPECT_EQ(r.reconfigured_diameter.max, static_cast<double>(r.target_diameter));
}

TEST(Campaign, BusFamilyRunsAndBoundsDegree) {
  ScenarioSpec spec;
  spec.seed = 5;
  spec.trials = 100;
  spec.topologies = {{TopologyFamily::Bus, 2, 3}};
  spec.spares = {1};
  spec.fault_models = {{FaultModelKind::IidBernoulli, 0.05, 1.0, 1.0, 1.0}};
  spec.metrics = {true, false, true};
  const CampaignResult result = run_campaign(spec, {.threads = 1});
  const ScenarioResult& r = result.scenarios.front();
  EXPECT_EQ(r.trials, 100u);
  EXPECT_EQ(r.target_nodes, 8u);
  EXPECT_EQ(r.fabric_nodes, 9u);  // 2^3 + 1
  EXPECT_GT(r.reconfig_success, 0u);
}

// --- work-stealing scheduler, block checkpoints, shard/merge -----------------

/// 4 cells x 600 trials = 3 blocks per cell: enough blocks that stealing,
/// out-of-order merges and mid-cell checkpoints all actually happen.
ScenarioSpec multiblock_spec() {
  ScenarioSpec spec;
  spec.name = "blocks";
  spec.seed = 99;
  spec.trials = 600;
  spec.topologies = {{TopologyFamily::DeBruijn, 2, 4}, {TopologyFamily::ShuffleExchange, 2, 3}};
  spec.spares = {0, 2};
  spec.fault_models = {{FaultModelKind::IidBernoulli, 0.05, 1.0, 100.0, 1.0}};
  spec.metrics = {true, false, true};
  return spec;
}

/// Runs one shard to completion and returns its parsed partial checkpoint.
Checkpoint run_shard(const ScenarioSpec& spec, const ShardSpec& shard, unsigned threads,
                     const std::string& tag) {
  CampaignOptions options;
  options.threads = threads;
  options.shard = shard;
  options.checkpoint_path = ::testing::TempDir() + "/ftdb_shard_" + tag + ".ckpt";
  run_campaign(spec, options);
  std::ifstream in(options.checkpoint_path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return parse_checkpoint(buf.str());
}

TEST(Scheduler, WorkStealingIsByteIdenticalAcrossThreadCounts) {
  const ScenarioSpec spec = multiblock_spec();
  ASSERT_EQ(num_trial_blocks(spec.trials), 3u);
  const std::string serial = campaign_report_json(run_campaign(spec, {.threads = 1}));
  for (const unsigned threads : {2u, 5u}) {
    EXPECT_EQ(serial, campaign_report_json(run_campaign(spec, {.threads = threads})))
        << threads << " threads";
  }
}

TEST(Scheduler, StopAfterBlocksWritesAResumableBlockGranularCheckpoint) {
  const ScenarioSpec spec = multiblock_spec();
  const std::string full = campaign_report_json(run_campaign(spec, {.threads = 2}));

  CampaignOptions crash;
  crash.threads = 1;
  crash.checkpoint_path = ::testing::TempDir() + "/ftdb_midcell.ckpt";
  crash.stop_after_blocks = 2;  // dies inside the first cell (3 blocks each)
  EXPECT_THROW(run_campaign(spec, crash), CampaignAborted);

  std::ifstream in(crash.checkpoint_path, std::ios::binary);
  ASSERT_TRUE(in.good());
  std::ostringstream buf;
  buf << in.rdbuf();
  const Checkpoint ckpt = parse_checkpoint(buf.str());
  std::uint64_t blocks = 0;
  for (const CellProgress& c : ckpt.cells) blocks += c.prefix_blocks + c.extra.size();
  EXPECT_GE(blocks, 2u);
  // Mid-cell granularity: some cell stopped strictly between 0 and all blocks.
  bool mid_cell = false;
  for (const CellProgress& c : ckpt.cells) {
    mid_cell = mid_cell || (c.prefix_blocks > 0 && c.prefix_blocks < 3);
  }
  EXPECT_TRUE(mid_cell);

  CampaignOptions resume = crash;
  resume.threads = 3;
  resume.stop_after_blocks = 0;
  resume.resume = true;
  const CampaignResult resumed = run_campaign(spec, resume);
  EXPECT_GE(resumed.resumed_blocks, 2u);
  EXPECT_EQ(campaign_report_json(resumed), full);
}

TEST(Scheduler, PartialFinalBlockResumesCorrectly) {
  // 300 trials = one full block + a 44-trial tail block; crash between them.
  ScenarioSpec spec = multiblock_spec();
  spec.trials = 300;
  spec.topologies = {{TopologyFamily::DeBruijn, 2, 4}};
  spec.spares = {2};
  ASSERT_EQ(num_trial_blocks(spec.trials), 2u);
  const std::string full = campaign_report_json(run_campaign(spec, {.threads = 1}));

  CampaignOptions crash;
  crash.threads = 1;
  crash.checkpoint_path = ::testing::TempDir() + "/ftdb_tail.ckpt";
  crash.stop_after_blocks = 1;
  EXPECT_THROW(run_campaign(spec, crash), CampaignAborted);

  CampaignOptions resume = crash;
  resume.stop_after_blocks = 0;
  resume.resume = true;
  const CampaignResult resumed = run_campaign(spec, resume);
  EXPECT_EQ(resumed.resumed_blocks, 1u);
  EXPECT_EQ(resumed.scenarios.front().trials, 300u);
  EXPECT_EQ(campaign_report_json(resumed), full);
}

TEST(Shard, TwoShardsMergeByteIdenticalToSingleMachineRun) {
  const ScenarioSpec spec = multiblock_spec();
  const std::string reference = campaign_report_json(run_campaign(spec, {.threads = 1}));

  const Checkpoint s0 = run_shard(spec, {0, 2}, 3, "m0");
  const Checkpoint s1 = run_shard(spec, {1, 2}, 2, "m1");
  EXPECT_EQ(s0.shard.index, 0u);
  EXPECT_EQ(s1.shard.count, 2u);
  // Round-robin partition: each shard owns every second cell.
  for (const CellProgress& c : s0.cells) EXPECT_EQ(c.scenario_index % 2, 0u);
  for (const CellProgress& c : s1.cells) EXPECT_EQ(c.scenario_index % 2, 1u);

  const CampaignResult merged = merge_checkpoints(spec, {s0, s1});
  EXPECT_EQ(campaign_report_json(merged), reference);
  EXPECT_EQ(campaign_report_csv(merged), campaign_report_csv(run_campaign(spec, {.threads = 2})));
}

TEST(Shard, MergeOfOnePartialIsIdentity) {
  const ScenarioSpec spec = small_spec();
  const CampaignResult direct = run_campaign(spec, {.threads = 2});
  const Checkpoint whole = run_shard(spec, {0, 1}, 2, "whole");
  const CampaignResult merged = merge_checkpoints(spec, {whole});
  EXPECT_EQ(campaign_report_json(merged), campaign_report_json(direct));
}

TEST(Shard, MergeRejectsOverlapFingerprintMismatchAndGaps) {
  const ScenarioSpec spec = multiblock_spec();
  const Checkpoint s0 = run_shard(spec, {0, 2}, 2, "r0");
  const Checkpoint s1 = run_shard(spec, {1, 2}, 2, "r1");

  // Overlap: the same cells arriving twice must be rejected, not averaged.
  EXPECT_THROW(merge_checkpoints(spec, {s0, s1, s0}), std::runtime_error);
  // Coverage gap: a missing shard leaves cells uncovered.
  EXPECT_THROW(merge_checkpoints(spec, {s0}), std::runtime_error);
  // Fingerprint mismatch: partials of a different spec are rejected.
  ScenarioSpec other = spec;
  other.seed += 1;
  const Checkpoint o0 = run_shard(other, {0, 2}, 2, "o0");
  EXPECT_THROW(merge_checkpoints(spec, {o0, s1}), std::runtime_error);
  // Incomplete cell: a crash-cut partial cannot be merged.
  Checkpoint cut = s0;
  ASSERT_FALSE(cut.cells.empty());
  cut.cells.front().prefix_blocks -= 1;
  EXPECT_THROW(merge_checkpoints(spec, {cut, s1}), std::runtime_error);
  // Torn accumulator: all blocks claimed but the prefix carries fewer trials
  // (a corrupted file must not merge into a silently wrong report).
  Checkpoint torn = s0;
  torn.cells.front().prefix.trials -= 1;
  EXPECT_THROW(merge_checkpoints(spec, {torn, s1}), std::runtime_error);
  // The intact pair still merges (the guards above rejected for real reasons).
  EXPECT_EQ(merge_checkpoints(spec, {s0, s1}).scenarios.size(), 4u);
}

TEST(Shard, ResumingUnderTheWrongShardCoordinatesIsRejected) {
  const ScenarioSpec spec = multiblock_spec();
  CampaignOptions options;
  options.threads = 1;
  options.shard = {0, 2};
  options.checkpoint_path = ::testing::TempDir() + "/ftdb_wrongshard.ckpt";
  run_campaign(spec, options);

  CampaignOptions wrong = options;
  wrong.resume = true;
  wrong.shard = {1, 2};
  EXPECT_THROW(run_campaign(spec, wrong), std::runtime_error);
  wrong.shard = {0, 1};  // a whole-campaign run can't adopt a shard checkpoint either
  EXPECT_THROW(run_campaign(spec, wrong), std::runtime_error);
}

// --- one target per topology ------------------------------------------------

CampaignOptions with_threads(unsigned n) {
  CampaignOptions options;
  options.threads = n;
  return options;
}

/// 4 topologies x 3 spare budgets x 2 models, 3 blocks per cell: six cells
/// share each topology's target, and the collective baseline with it.
ScenarioSpec shared_target_spec() {
  ScenarioSpec spec;
  spec.name = "shared_targets";
  spec.seed = 41;
  spec.trials = 600;
  spec.topologies = {{TopologyFamily::DeBruijn, 2, 4},
                     {TopologyFamily::ShuffleExchange, 2, 4},
                     {TopologyFamily::Bus, 2, 3},
                     {TopologyFamily::DeBruijn, 3, 2}};
  spec.spares = {0, 1, 3};
  spec.fault_models = {{FaultModelKind::IidBernoulli, 0.04, 1.0, 100.0, 1.0},
                       {FaultModelKind::Clustered, 0.02, 1.0, 100.0, 1.0}};
  spec.metrics.diameter = true;
  spec.metrics.mttf = true;
  spec.metrics.collective = true;
  return spec;
}

TEST(SharedTargets, EveryCellCarriesItsTargetsDiameter) {
  const ScenarioSpec spec = shared_target_spec();
  const CampaignResult result = run_campaign(spec, with_threads(2));
  const std::vector<ScenarioCase> cells = expand_grid(spec);
  ASSERT_EQ(result.scenarios.size(), 24u);
  for (const ScenarioCase& cell : cells) {
    const TopologySpec& t = cell.topology;
    const Graph target = t.family == TopologyFamily::ShuffleExchange
                             ? shuffle_exchange_graph(t.digits)
                             : debruijn_graph({.base = t.base, .digits = t.digits});
    const ScenarioResult& r = result.scenarios[cell.index];
    EXPECT_EQ(r.target_diameter, diameter(target)) << cell.label();
    EXPECT_EQ(r.target_nodes, target.num_nodes()) << cell.label();
    EXPECT_EQ(r.trials, spec.trials) << cell.label();
  }
}

TEST(SharedTargets, OneTargetPerTopologyDroppedWithItsLastCell) {
  const ScenarioSpec spec = shared_target_spec();
  const std::vector<ScenarioCase> cells = expand_grid(spec);
  TargetTable table(spec, cells);
  // Grid order is topology-major: cells [0, 6) share the first topology.
  std::shared_ptr<const TopologyTarget> first = table.acquire(cells[0]);
  EXPECT_EQ(table.acquire(cells[5]), first);
  EXPECT_NE(table.acquire(cells[6]), first);
  const std::weak_ptr<const TopologyTarget> watch = first;
  first.reset();
  for (std::size_t i = 0; i < 5; ++i) table.release(cells[i]);
  EXPECT_FALSE(watch.expired());  // one cell of the topology is still open
  table.release(cells[5]);
  EXPECT_TRUE(watch.expired());
}

TEST(SharedTargets, ReportMatchesRunnersThatBuildTheirOwnTargets) {
  // The public constructor builds the cell's own target; folding its blocks
  // in order must give the shared-target campaign's bytes.
  const ScenarioSpec spec = shared_target_spec();
  CampaignResult own;
  own.spec = spec;
  for (const ScenarioCase& cell : expand_grid(spec)) {
    const CellRunner runner(spec, cell);
    ScenarioResult r;
    for (std::uint64_t b = 0; b < runner.num_blocks(); ++b) r.merge(runner.run_block(b));
    runner.finalize(r);
    own.scenarios.push_back(std::move(r));
  }
  EXPECT_EQ(campaign_report_json(run_campaign(spec, with_threads(3))), campaign_report_json(own));
}

TEST(SharedTargets, ReportIsByteIdenticalAcrossThreadsShardsAndResume) {
  const ScenarioSpec spec = shared_target_spec();
  const std::string reference = campaign_report_json(run_campaign(spec, with_threads(1)));
  for (const unsigned threads : {2u, 8u}) {
    EXPECT_EQ(campaign_report_json(run_campaign(spec, with_threads(threads))), reference)
        << threads << " threads";
  }

  const Checkpoint s0 = run_shard(spec, {0, 2}, 2, "shared0");
  const Checkpoint s1 = run_shard(spec, {1, 2}, 3, "shared1");
  EXPECT_EQ(campaign_report_json(merge_checkpoints(spec, {s0, s1})), reference);

  CampaignOptions crash;
  crash.threads = 2;
  crash.checkpoint_path = ::testing::TempDir() + "/ftdb_shared_targets.ckpt";
  std::filesystem::remove(crash.checkpoint_path);
  crash.stop_after_blocks = 20;  // several cells done, several mid-flight
  EXPECT_THROW(run_campaign(spec, crash), CampaignAborted);
  CampaignOptions resume = crash;
  resume.threads = 4;
  resume.stop_after_blocks = 0;
  resume.resume = true;
  const CampaignResult resumed = run_campaign(spec, resume);
  EXPECT_GE(resumed.resumed_blocks, 20u);
  EXPECT_EQ(campaign_report_json(resumed), reference);
}

TEST(Checkpoint, BlockGranularProgressRoundTripsThroughJson) {
  const ScenarioSpec spec = multiblock_spec();
  // One block's genuine partial accumulators, replicated into a progress
  // shape with both a prefix and an out-of-prefix block.
  ScenarioSpec one_block = spec;
  one_block.trials = 256;
  const ScenarioResult partial = run_campaign(one_block, {.threads = 1}).scenarios.front();

  Checkpoint ckpt;
  ckpt.shard = {1, 3};
  CellProgress cp;
  cp.scenario_index = 1;
  cp.prefix_blocks = 1;
  cp.prefix = partial;
  cp.extra.emplace_back(2, partial);
  ckpt.cells.push_back(cp);

  const Checkpoint reparsed = parse_checkpoint(checkpoint_to_json(spec, ckpt));
  EXPECT_EQ(reparsed.fingerprint, spec_fingerprint(spec));
  EXPECT_EQ(reparsed.shard_stamp, shard_fingerprint(spec, {1, 3}));
  EXPECT_EQ(reparsed.shard.index, 1u);
  EXPECT_EQ(reparsed.shard.count, 3u);
  ASSERT_EQ(reparsed.cells.size(), 1u);
  const CellProgress& rp = reparsed.cells.front();
  EXPECT_EQ(rp.scenario_index, 1u);
  EXPECT_EQ(rp.prefix_blocks, 1u);
  ASSERT_EQ(rp.extra.size(), 1u);
  EXPECT_EQ(rp.extra.front().first, 2u);
  // Accumulators survive bit-exactly (the %.17g round-trip the byte-identity
  // guarantees rest on).
  EXPECT_EQ(rp.prefix.fault_count.mean, partial.fault_count.mean);
  EXPECT_EQ(rp.prefix.fault_count.m2, partial.fault_count.m2);
  EXPECT_EQ(rp.extra.front().second.mttf.m2, partial.mttf.m2);
  EXPECT_EQ(rp.prefix.survival_curve.size(), partial.survival_curve.size());

  // The shard stamp binds index *and* count.
  EXPECT_NE(shard_fingerprint(spec, {1, 3}), shard_fingerprint(spec, {1, 4}));
  EXPECT_NE(shard_fingerprint(spec, {1, 3}), shard_fingerprint(spec, {2, 3}));
  EXPECT_EQ(shard_fingerprint(spec, {0, 1}), spec_fingerprint(spec));
}

TEST(Shard, ValidationRejectsBadCoordinates) {
  const ScenarioSpec spec = small_spec();
  CampaignOptions options;
  options.threads = 1;
  options.shard = {3, 2};  // index out of range
  EXPECT_THROW(run_campaign(spec, options), std::runtime_error);
  options.shard = {0, 200};  // more shards than cells
  EXPECT_THROW(run_campaign(spec, options), std::runtime_error);
}

TEST(CampaignReport, ValidateAcceptsOwnOutputAndRejectsGarbage) {
  const CampaignResult result = run_campaign(small_spec(), {.threads = 2});
  const std::string json = campaign_report_json(result);
  EXPECT_EQ(validate_campaign_report(json), result.scenarios.size());
  EXPECT_THROW(validate_campaign_report("{}"), std::runtime_error);
  EXPECT_THROW(validate_campaign_report(R"({"schema": "ftdb-bench-v1"})"), std::runtime_error);

  // Hostile numbers and missing fields: every edit of the valid report must
  // be refused with an error that names the offending field.
  const auto rejects = [&](const std::string& pattern, const std::string& replacement,
                           const std::string& named) {
    const std::string bad = std::regex_replace(json, std::regex(pattern), replacement,
                                               std::regex_constants::format_first_only);
    ASSERT_NE(bad, json) << pattern;
    try {
      validate_campaign_report(bad);
      ADD_FAILURE() << "accepted " << pattern << " -> " << replacement;
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find(named), std::string::npos) << e.what();
    }
  };
  rejects(R"("fault_count":\{"count":\d+)", R"("fault_count":{"count":"sixty-four")",
          "fault_count.count");
  rejects(R"("mttf_censored":\d+)", R"("mttf_censored":-5)", "mttf_censored");
  rejects(R"("target_diameter":(\d+),"trials":\d+)", R"("target_diameter":$1,"trials":1e30)",
          "trials");
  rejects(R"("over_budget":\d+)", R"("over_budget":2.5)", "over_budget");
  rejects(R"("traffic_timed_out":\d+,)", "", "traffic_timed_out");
  rejects(R"("fault_count":\{"count":(\d+),"mean":[^,]+)", R"("fault_count":{"count":$1)",
          "fault_count.mean");
  // Every statistic is bounded by the trials, not just the two checked before.
  rejects(R"("reconfigured_diameter":\{"count":\d+)",
          R"("reconfigured_diameter":{"count":999999)", "reconfigured_diameter");
}

// --- collective metric -------------------------------------------------------

/// De Bruijn + SE cells with the collective metric on: small enough that the
/// per-trial schedule execution stays cheap, multi-block so determinism is
/// exercised across steals, checkpoints and shards.
ScenarioSpec collective_spec() {
  ScenarioSpec spec;
  spec.name = "collective";
  spec.seed = 17;
  spec.trials = 600;  // 3 blocks
  spec.topologies = {{TopologyFamily::DeBruijn, 2, 4}, {TopologyFamily::ShuffleExchange, 2, 3}};
  spec.spares = {0, 2};
  spec.fault_models = {{FaultModelKind::IidBernoulli, 0.05, 1.0, 100.0, 1.0}};
  spec.metrics.diameter = false;
  spec.metrics.mttf = false;
  spec.metrics.collective = true;
  spec.metrics.collective_schedule = "all_to_all_bruck";
  return spec;
}

TEST(Collective, SpecParsesRoundTripsAndFingerprints) {
  const ScenarioSpec spec = parse_scenario_spec(R"({
    "topologies": [{"family": "debruijn", "digits": 4}],
    "spares": [2],
    "fault_models": [{"kind": "iid", "p": 0.05}],
    "metrics": ["collective"],
    "collective_schedule": "allreduce_recursive_halving_doubling"
  })");
  EXPECT_TRUE(spec.metrics.collective);
  EXPECT_FALSE(spec.metrics.diameter);
  EXPECT_EQ(spec.metrics.collective_schedule, "allreduce_recursive_halving_doubling");
  const std::string canon = scenario_spec_to_json(spec);
  EXPECT_EQ(canon, scenario_spec_to_json(parse_scenario_spec(canon)));

  // The schedule choice is part of the spec identity.
  ScenarioSpec other = spec;
  other.metrics.collective_schedule = "allgather_bruck";
  EXPECT_NE(spec_fingerprint(spec), spec_fingerprint(other));

  // An unknown schedule name is rejected up front, not at trial time.
  EXPECT_THROW(parse_scenario_spec(R"({
    "topologies": [{"family": "debruijn", "digits": 4}],
    "spares": [2],
    "fault_models": [{"kind": "iid", "p": 0.05}],
    "metrics": ["collective"],
    "collective_schedule": "all_to_all_quantum"
  })"),
               std::runtime_error);

  // Specs without the metric keep their pre-collective canonical form (and so
  // their fingerprints): the key only appears when the metric is on.
  const std::string plain = scenario_spec_to_json(small_spec());
  EXPECT_EQ(plain.find("collective"), std::string::npos);
}

TEST(Collective, SlowdownIsExactlyOneOnEverySuccessfulTrial) {
  // The end-to-end form of the dilation-1 claim: a successful reconfiguration
  // presents the identical logical graph, so the collective completes in
  // exactly the healthy baseline cycles — slowdown 1.0 with zero variance.
  // The runner takes the cell's healthy run for such trials; the engine-level
  // proof that this is exact is the SuccessfulReconfiguration suite in
  // test_sim_network.cpp (on every within-budget draw the engine reproduces
  // the healthy Bruck and traffic runs field for field).
  ScenarioSpec spec = collective_spec();
  spec.trials = 300;
  spec.topologies = {{TopologyFamily::DeBruijn, 2, 4}};
  spec.spares = {2};
  const CampaignResult result = run_campaign(spec, {.threads = 2});
  const ScenarioResult& r = result.scenarios.front();
  ASSERT_GT(r.reconfig_success, 0u);
  EXPECT_EQ(r.collective_rounds, 4u);  // ceil(log2 16) on B_{2,4}
  EXPECT_GT(r.collective_baseline_cycles, 0u);
  ASSERT_GT(r.collective_slowdown.count, 0u);
  EXPECT_GE(r.collective_slowdown.count, r.reconfig_success);
  // Degraded trials are priced against the survivors' own healthy schedule;
  // rerouting usually costs cycles, but a reshaped route set can also shed a
  // little queueing, so the per-trial ratio hovers around 1 rather than being
  // bounded below by it.
  EXPECT_GT(r.collective_slowdown.min, 0.9);
  EXPECT_GE(r.collective_slowdown.max, 1.0);
  EXPECT_GT(r.collective_hop_cycles.count, 0u);
  EXPECT_GE(r.collective_congestion.min, 1.0);

  // The slowdown curve partitions the trials that ran the collective.
  std::uint64_t curve_trials = 0;
  std::uint64_t curve_unreachable = 0;
  ASSERT_FALSE(r.slowdown_curve.empty());
  for (const SlowdownPoint& p : r.slowdown_curve) {
    curve_trials += p.trials;
    curve_unreachable += p.unreachable;
    if (p.faults <= 2) {
      // Under-budget draws reconfigure, so their mean slowdown is exactly 1.
      EXPECT_EQ(p.unreachable, 0u) << "faults=" << p.faults;
      EXPECT_EQ(p.mean_slowdown(), 1.0) << "faults=" << p.faults;
    }
  }
  EXPECT_EQ(curve_trials, spec.trials);
  EXPECT_EQ(curve_unreachable, r.collective_unreachable);
}

TEST(Collective, ReportIsByteIdenticalAcrossThreadsResumeAndShards) {
  const ScenarioSpec spec = collective_spec();
  const std::string serial = campaign_report_json(run_campaign(spec, {.threads = 1}));
  EXPECT_EQ(serial, campaign_report_json(run_campaign(spec, {.threads = 3})));

  // Crash after two blocks, resume: same bytes.
  CampaignOptions crash;
  crash.threads = 1;
  crash.checkpoint_path = ::testing::TempDir() + "/ftdb_coll.ckpt";
  crash.stop_after_blocks = 2;
  EXPECT_THROW(run_campaign(spec, crash), CampaignAborted);
  CampaignOptions resume = crash;
  resume.threads = 2;
  resume.stop_after_blocks = 0;
  resume.resume = true;
  const CampaignResult resumed = run_campaign(spec, resume);
  EXPECT_GE(resumed.resumed_blocks, 2u);
  EXPECT_EQ(campaign_report_json(resumed), serial);

  // Two shards merged: same bytes again.
  const Checkpoint s0 = run_shard(spec, {0, 2}, 2, "coll0");
  const Checkpoint s1 = run_shard(spec, {1, 2}, 3, "coll1");
  EXPECT_EQ(campaign_report_json(merge_checkpoints(spec, {s0, s1})), serial);

  // And the validator accepts the document, slowdown-curve invariants included.
  EXPECT_EQ(validate_campaign_report(serial), 4u);
}

TEST(Collective, CsvAndMarkdownCarryTheSlowdownColumns) {
  ScenarioSpec spec = collective_spec();
  spec.trials = 200;
  const CampaignResult result = run_campaign(spec, {.threads = 2});
  const std::string csv = campaign_report_csv(result);
  EXPECT_NE(csv.find("collective_slowdown_mean"), std::string::npos);
  EXPECT_NE(csv.find("slowdown_by_faults"), std::string::npos);
  const std::string md = campaign_report_markdown(result);
  EXPECT_NE(md.find("Collective slowdown by drawn fault count"), std::string::npos);
  // Old-schema documents (no collective fields) still parse and validate.
  const std::string plain = campaign_report_json(run_campaign(small_spec(), {.threads = 2}));
  EXPECT_EQ(validate_campaign_report(plain), 8u);
}

TEST(Collective, BusFamilySkipsTheMetricGracefully) {
  ScenarioSpec spec = collective_spec();
  spec.trials = 100;
  spec.topologies = {{TopologyFamily::Bus, 2, 3}};
  spec.spares = {1};
  const CampaignResult result = run_campaign(spec, {.threads = 1});
  const ScenarioResult& r = result.scenarios.front();
  EXPECT_EQ(r.trials, 100u);
  EXPECT_EQ(r.collective_slowdown.count, 0u);
  EXPECT_EQ(r.collective_rounds, 0u);
  EXPECT_TRUE(r.slowdown_curve.empty());
  EXPECT_EQ(validate_campaign_report(campaign_report_json(result)), 1u);
}

TEST(CampaignReport, CsvQuotesLabelsAndHasHeader) {
  const CampaignResult result = run_campaign(small_spec(), {.threads = 2});
  const std::string csv = campaign_report_csv(result);
  EXPECT_EQ(csv.rfind("scenario_index,label,", 0), 0u);
  // Labels contain commas, so every data row must carry quoted labels.
  EXPECT_NE(csv.find("\"debruijn(m=2,h=4) k=0 iid(p=0.05)\""), std::string::npos);
}

// --- bus-fault models --------------------------------------------------------

/// Bus-machine cells under both bus-fault processes; multi-block (600 trials
/// = 3 blocks) so the identity drills exercise steals, checkpoints and shard
/// merges on the bus code path.
ScenarioSpec bus_fault_spec() {
  ScenarioSpec spec;
  spec.name = "bus-faults";
  spec.seed = 31;
  spec.trials = 600;
  spec.topologies = {{TopologyFamily::Bus, 2, 3}};
  spec.spares = {0, 2};
  spec.fault_models = {{FaultModelKind::BusIid, 0.04, 1.0, 100.0, 1.0},
                       {FaultModelKind::BusClustered, 0.02, 1.0, 100.0, 1.0}};
  spec.metrics = {true, false, true};
  return spec;
}

TEST(BusFaults, SpecParsesRoundTripsAndFingerprints) {
  const ScenarioSpec spec = parse_scenario_spec(R"({
    "topologies": [{"family": "bus", "digits": 3}],
    "spares": [1],
    "fault_models": [{"kind": "bus_iid", "p": 0.04}, {"kind": "bus_clustered", "p": 0.02}]
  })");
  ASSERT_EQ(spec.fault_models.size(), 2u);
  EXPECT_EQ(spec.fault_models[0].kind, FaultModelKind::BusIid);
  EXPECT_EQ(spec.fault_models[1].kind, FaultModelKind::BusClustered);
  EXPECT_NE(spec.fault_models[0].label().find("bus_iid"), std::string::npos);
  const std::string canon = scenario_spec_to_json(spec);
  EXPECT_EQ(canon, scenario_spec_to_json(parse_scenario_spec(canon)));
  // The failure probability is part of the spec identity.
  ScenarioSpec other = spec;
  other.fault_models[0].p = 0.05;
  EXPECT_NE(spec_fingerprint(spec), spec_fingerprint(other));
}

TEST(FaultModels, BusModelsDrawSortedBusesWhoseDriversAreFaulty) {
  const BusGraph bus = bus_ft_debruijn_base2(3, 2);
  const Graph fabric = bus.realized_graph();
  for (const FaultModelKind kind : {FaultModelKind::BusIid, FaultModelKind::BusClustered}) {
    const auto model = make_fault_model({kind, 0.15, 1.0, 100.0, 1.0});
    model->prepare(fabric, 2);
    model->prepare_bus(bus, 2);
    bool saw_bus_fault = false;
    for (std::uint64_t trial = 0; trial < 50; ++trial) {
      TrialRng rng = TrialRng::for_trial(9, 0, trial);
      TrialRng replay = TrialRng::for_trial(9, 0, trial);
      const FaultDraw a = model->draw(fabric, 2, rng);
      const FaultDraw b = model->draw(fabric, 2, replay);
      EXPECT_EQ(a.faults.nodes(), b.faults.nodes());
      EXPECT_EQ(a.bus_faults, b.bus_faults);
      EXPECT_TRUE(std::is_sorted(a.bus_faults.begin(), a.bus_faults.end()));
      EXPECT_TRUE(std::adjacent_find(a.bus_faults.begin(), a.bus_faults.end()) ==
                  a.bus_faults.end());
      saw_bus_fault = saw_bus_fault || !a.bus_faults.empty();
      for (const std::uint32_t b_id : a.bus_faults) {
        ASSERT_LT(b_id, bus.num_buses());
        // Section V discipline: a failed bus silences its driver.
        EXPECT_TRUE(a.faults.is_faulty(bus.bus(b_id).driver)) << "bus " << b_id;
      }
    }
    EXPECT_TRUE(saw_bus_fault) << "p=0.15 over 50 trials drew no bus faults";
  }
}

TEST(BusFaults, BusIidAnalyticColumnsMatchTheIidClosedForms) {
  // bus_iid fails each bus independently and each bus silences one driver, so
  // its analytic companions are the node-iid closed forms at the same p.
  ScenarioSpec spec = bus_fault_spec();
  spec.trials = 200;
  spec.spares = {2};
  spec.fault_models = {{FaultModelKind::BusIid, 0.04, 1.0, 100.0, 1.0}};
  ScenarioSpec iid = spec;
  iid.fault_models = {{FaultModelKind::IidBernoulli, 0.04, 1.0, 100.0, 1.0}};
  const ScenarioResult rb = run_campaign(spec, {.threads = 1}).scenarios.front();
  const ScenarioResult ri = run_campaign(iid, {.threads = 1}).scenarios.front();
  ASSERT_FALSE(std::isnan(rb.analytic_survival));
  ASSERT_FALSE(std::isnan(rb.analytic_mttf));
  EXPECT_EQ(rb.analytic_survival, ri.analytic_survival);
  EXPECT_EQ(rb.analytic_mttf, ri.analytic_mttf);
  EXPECT_NEAR(rb.analytic_survival,
              static_cast<double>(survival_probability(rb.target_nodes, 2, 0.04L)), 1e-12);
  // Every trial reports how many buses it lost.
  EXPECT_EQ(rb.bus_fault_count.count, rb.trials);
  EXPECT_GT(rb.bus_fault_count.mean, 0.0);
  // The clustered bus model has no closed form.
  ScenarioSpec clustered = spec;
  clustered.fault_models = {{FaultModelKind::BusClustered, 0.04, 1.0, 100.0, 1.0}};
  const ScenarioResult rc = run_campaign(clustered, {.threads = 1}).scenarios.front();
  EXPECT_TRUE(std::isnan(rc.analytic_survival));
  EXPECT_EQ(rc.bus_fault_count.count, rc.trials);
}

TEST(BusFaults, BusModelsDegenerateGracefullyOnPointToPointFamilies) {
  // On a point-to-point fabric the "bus of node v" is v's adjacency, so the
  // models still draw and the runner scores the plain monotone embedding.
  ScenarioSpec spec = bus_fault_spec();
  spec.trials = 200;
  spec.topologies = {{TopologyFamily::DeBruijn, 2, 4}, {TopologyFamily::ShuffleExchange, 2, 3}};
  const CampaignResult result = run_campaign(spec, {.threads = 2});
  ASSERT_EQ(result.scenarios.size(), 8u);
  for (const ScenarioResult& r : result.scenarios) {
    EXPECT_EQ(r.trials, 200u);
    EXPECT_EQ(r.bus_fault_count.count, 200u);
    EXPECT_GT(r.reconfig_success, 0u);
  }
  EXPECT_EQ(validate_campaign_report(campaign_report_json(result)), 8u);
}

TEST(BusFaults, ReportIsByteIdenticalAcrossThreadsResumeAndShards) {
  const ScenarioSpec spec = bus_fault_spec();
  const std::string serial = campaign_report_json(run_campaign(spec, {.threads = 1}));
  EXPECT_EQ(serial, campaign_report_json(run_campaign(spec, {.threads = 3})));

  // Crash after two blocks, resume: same bytes.
  CampaignOptions crash;
  crash.threads = 1;
  crash.checkpoint_path = ::testing::TempDir() + "/ftdb_bus.ckpt";
  crash.stop_after_blocks = 2;
  EXPECT_THROW(run_campaign(spec, crash), CampaignAborted);
  CampaignOptions resume = crash;
  resume.threads = 2;
  resume.stop_after_blocks = 0;
  resume.resume = true;
  const CampaignResult resumed = run_campaign(spec, resume);
  EXPECT_GE(resumed.resumed_blocks, 2u);
  EXPECT_EQ(campaign_report_json(resumed), serial);

  // Two shards merged: same bytes again, and the validator accepts them.
  const Checkpoint s0 = run_shard(spec, {0, 2}, 2, "bus0");
  const Checkpoint s1 = run_shard(spec, {1, 2}, 3, "bus1");
  EXPECT_EQ(campaign_report_json(merge_checkpoints(spec, {s0, s1})), serial);
  EXPECT_EQ(validate_campaign_report(serial), 4u);
}

// --- traffic metric ----------------------------------------------------------

/// Point-to-point cells with the traffic metric on, multi-block like
/// collective_spec() so skewed-workload determinism is exercised across
/// steals, checkpoints and shards.
ScenarioSpec traffic_campaign(const std::string& pattern) {
  ScenarioSpec spec;
  spec.name = "traffic";
  spec.seed = 23;
  spec.trials = 600;
  spec.topologies = {{TopologyFamily::DeBruijn, 2, 4}, {TopologyFamily::ShuffleExchange, 2, 3}};
  spec.spares = {0, 2};
  spec.fault_models = {{FaultModelKind::IidBernoulli, 0.05, 1.0, 100.0, 1.0}};
  spec.metrics.diameter = false;
  spec.metrics.mttf = false;
  spec.metrics.traffic = true;
  spec.metrics.traffic_spec.pattern = pattern;
  spec.metrics.traffic_spec.packets_per_node = 2;
  return spec;
}

TEST(Traffic, SpecParsesRoundTripsAndFingerprints) {
  const ScenarioSpec spec = parse_scenario_spec(R"({
    "topologies": [{"family": "debruijn", "digits": 4}],
    "spares": [2],
    "fault_models": [{"kind": "iid", "p": 0.05}],
    "metrics": ["traffic"],
    "traffic": {"pattern": "zipf", "theta": 1.2, "packets_per_node": 2}
  })");
  EXPECT_TRUE(spec.metrics.traffic);
  EXPECT_EQ(spec.metrics.traffic_spec.pattern, "zipf");
  EXPECT_EQ(spec.metrics.traffic_spec.theta, 1.2);
  EXPECT_EQ(spec.metrics.traffic_spec.packets_per_node, 2u);
  const std::string canon = scenario_spec_to_json(spec);
  EXPECT_EQ(canon, scenario_spec_to_json(parse_scenario_spec(canon)));

  // The workload shape is part of the spec identity.
  ScenarioSpec other = spec;
  other.metrics.traffic_spec.theta = 0.8;
  EXPECT_NE(spec_fingerprint(spec), spec_fingerprint(other));

  // An unknown pattern is rejected up front, not at trial time.
  EXPECT_THROW(parse_scenario_spec(R"({
    "topologies": [{"family": "debruijn", "digits": 4}],
    "spares": [2],
    "fault_models": [{"kind": "iid", "p": 0.05}],
    "metrics": ["traffic"],
    "traffic": {"pattern": "fractal"}
  })"),
               std::runtime_error);

  // Specs without the metric keep their pre-traffic canonical form (and so
  // their fingerprints): the key only appears when the metric is on.
  EXPECT_EQ(scenario_spec_to_json(small_spec()).find("\"traffic\""), std::string::npos);
}

TEST(Traffic, StatsArePopulatedAndBounded) {
  ScenarioSpec spec = traffic_campaign("zipf");
  spec.trials = 200;
  spec.metrics.traffic_spec.theta = 1.1;
  const CampaignResult result = run_campaign(spec, {.threads = 2});
  ASSERT_EQ(result.scenarios.size(), 4u);
  for (const ScenarioResult& r : result.scenarios) {
    // Every trial runs the workload — on the reconfigured machine after a
    // successful trial, on the degraded bare target otherwise.
    EXPECT_EQ(r.traffic_delivered.count, r.trials);
    EXPECT_GE(r.traffic_delivered.min, 0.0);
    EXPECT_LE(r.traffic_delivered.max, 1.0);
    EXPECT_GT(r.traffic_delivered.mean, 0.5) << r.label;
    // Latency is only defined on trials that delivered something.
    EXPECT_LE(r.traffic_latency.count, r.traffic_delivered.count);
    EXPECT_GT(r.traffic_latency.count, 0u);
    EXPECT_GE(r.traffic_latency.min, 0.0);
    EXPECT_GT(r.traffic_congestion.count, 0u);
    EXPECT_GE(r.traffic_congestion.min, 0.0);
    EXPECT_GT(r.traffic_congestion.max, 0.0) << r.label;
    EXPECT_LE(r.traffic_timed_out, r.trials);
  }
  EXPECT_EQ(validate_campaign_report(campaign_report_json(result)), 4u);
}

TEST(Traffic, ReportIsByteIdenticalAcrossThreadsResumeAndShards) {
  // hotspot_burst is the pattern that draws per-trial randomness (the hot
  // nodes) from the trial's own stream — the riskiest path for scheduling
  // determinism, so it gets the full drill.
  ScenarioSpec spec = traffic_campaign("hotspot_burst");
  spec.metrics.traffic_spec.hotspots = 2;
  spec.metrics.traffic_spec.fraction_hot = 0.5;
  spec.metrics.traffic_spec.burst_cycles = 4;
  const std::string serial = campaign_report_json(run_campaign(spec, {.threads = 1}));
  EXPECT_EQ(serial, campaign_report_json(run_campaign(spec, {.threads = 3})));

  CampaignOptions crash;
  crash.threads = 1;
  crash.checkpoint_path = ::testing::TempDir() + "/ftdb_traffic.ckpt";
  crash.stop_after_blocks = 2;
  EXPECT_THROW(run_campaign(spec, crash), CampaignAborted);
  CampaignOptions resume = crash;
  resume.threads = 2;
  resume.stop_after_blocks = 0;
  resume.resume = true;
  const CampaignResult resumed = run_campaign(spec, resume);
  EXPECT_GE(resumed.resumed_blocks, 2u);
  EXPECT_EQ(campaign_report_json(resumed), serial);

  const Checkpoint s0 = run_shard(spec, {0, 2}, 2, "traf0");
  const Checkpoint s1 = run_shard(spec, {1, 2}, 3, "traf1");
  EXPECT_EQ(campaign_report_json(merge_checkpoints(spec, {s0, s1})), serial);
  EXPECT_EQ(validate_campaign_report(serial), 4u);
}

TEST(Traffic, ZipfAndTraceAreThreadCountInvariant) {
  ScenarioSpec zipf = traffic_campaign("zipf");
  zipf.trials = 200;
  EXPECT_EQ(campaign_report_json(run_campaign(zipf, {.threads = 1})),
            campaign_report_json(run_campaign(zipf, {.threads = 3})));

  // A trace brings its own packets; endpoints must be valid on the smallest
  // target in the grid (SE_3 has 8 nodes).
  ScenarioSpec trace = traffic_campaign("trace");
  trace.trials = 200;
  trace.metrics.traffic_spec.trace = "# three-packet replay\n0 0 7\n0 5 2\n1 3 0\n";
  const CampaignResult a = run_campaign(trace, {.threads = 1});
  EXPECT_EQ(campaign_report_json(a), campaign_report_json(run_campaign(trace, {.threads = 3})));
  for (const ScenarioResult& r : a.scenarios) {
    EXPECT_EQ(r.traffic_delivered.count, r.trials);
  }

  // A trace endpoint out of range for some cell's target fails fast at
  // campaign start, not mid-trial.
  ScenarioSpec bad = trace;
  bad.metrics.traffic_spec.trace = "0 0 12\n";  // valid on B_{2,4}, not on SE_3
  EXPECT_THROW(run_campaign(bad, {.threads = 1}), std::out_of_range);
}

TEST(Traffic, BusFamilySkipsTheMetricGracefully) {
  ScenarioSpec spec = traffic_campaign("zipf");
  spec.trials = 100;
  spec.topologies = {{TopologyFamily::Bus, 2, 3}};
  spec.spares = {1};
  const CampaignResult result = run_campaign(spec, {.threads = 1});
  ASSERT_EQ(result.scenarios.size(), 1u);
  const ScenarioResult& r = result.scenarios.front();
  EXPECT_EQ(r.trials, 100u);
  EXPECT_EQ(r.traffic_delivered.count, 0u);
  EXPECT_EQ(r.traffic_latency.count, 0u);
  EXPECT_EQ(validate_campaign_report(campaign_report_json(result)), 1u);
}

TEST(Traffic, CsvAndMarkdownCarryTheTrafficColumns) {
  ScenarioSpec spec = traffic_campaign("zipf");
  spec.trials = 200;
  const CampaignResult result = run_campaign(spec, {.threads = 2});
  const std::string csv = campaign_report_csv(result);
  EXPECT_NE(csv.find("bus_fault_mean"), std::string::npos);
  EXPECT_NE(csv.find("traffic_delivered_mean"), std::string::npos);
  EXPECT_NE(csv.find("traffic_congestion_max"), std::string::npos);
  const std::string md = campaign_report_markdown(result);
  EXPECT_NE(md.find("delivered"), std::string::npos);
}

TEST(ScenarioSpec, FullExampleCoversEveryFamilyModelAndMetric) {
  const ScenarioSpec spec = parse_scenario_spec(full_example_spec_json());
  EXPECT_EQ(spec.name, "full-example");
  EXPECT_EQ(spec.topologies.size(), 5u);  // 2 de Bruijn + 2 SE + 1 bus
  EXPECT_EQ(spec.fault_models.size(), 7u);
  EXPECT_EQ(expand_grid(spec).size(), 70u);
  EXPECT_TRUE(spec.metrics.collective);
  EXPECT_TRUE(spec.metrics.traffic);
  EXPECT_EQ(spec.metrics.traffic_spec.pattern, "hotspot_burst");
  // Canonical form is a fixed point — what `ftdb_campaign validate-spec`
  // asserts for the CI round-trip of `example-spec --full`.
  const std::string canon = scenario_spec_to_json(spec);
  EXPECT_EQ(canon, scenario_spec_to_json(parse_scenario_spec(canon)));
  EXPECT_EQ(spec_fingerprint(spec), spec_fingerprint(parse_scenario_spec(canon)));
}

// --- reference draws ----------------------------------------------------------
//
// The per-node draw loops the clocked models used before they learned to
// evaluate only the clocks that can reach the (k+1)-st order statistic:
// every node's clock is computed and the (k+1)-st is selected from all n.
// Kept verbatim as the oracle; the models must reproduce them bit for bit.
namespace reference {

constexpr double kNever = std::numeric_limits<double>::infinity();

double exhaustion_time(std::vector<double>& times, unsigned spares) {
  const std::size_t rank = spares;  // 0-based index of the (k+1)-st smallest
  if (rank >= times.size()) return kNever;
  std::nth_element(times.begin(), times.begin() + static_cast<std::ptrdiff_t>(rank),
                   times.end());
  return times[rank];
}

double geometric_step(double u, double p) {
  return std::floor(std::log1p(-u) / std::log1p(-p)) + 1.0;
}

FaultDraw iid(double p_, const Graph& fabric, unsigned spares, TrialRng& rng) {
  const std::size_t n = fabric.num_nodes();
  std::vector<NodeId> faulty;
  std::vector<double> times(n);
  for (std::size_t v = 0; v < n; ++v) {
    const double u = rng.next_unit();
    if (u < p_) faulty.push_back(static_cast<NodeId>(v));
    times[v] = geometric_step(u, p_);
  }
  FaultDraw out;
  out.faults = FaultSet(n, std::move(faulty));
  out.spare_exhaustion_time = exhaustion_time(times, spares);
  return out;
}

FaultDraw clustered(double p_, const Graph& fabric, unsigned spares, TrialRng& rng) {
  const std::size_t n = fabric.num_nodes();
  std::vector<double> seed_time(n);
  for (std::size_t v = 0; v < n; ++v) seed_time[v] = geometric_step(rng.next_unit(), p_);
  std::vector<double> times(n);
  std::vector<NodeId> faulty;
  for (std::size_t v = 0; v < n; ++v) {
    double t = seed_time[v];
    bool neighbor_seed_now = false;
    for (const NodeId u : fabric.neighbors(static_cast<NodeId>(v))) {
      t = std::min(t, seed_time[u] + 1.0);
      neighbor_seed_now = neighbor_seed_now || seed_time[u] == 1.0;
    }
    times[v] = t;
    if (seed_time[v] == 1.0 || neighbor_seed_now) faulty.push_back(static_cast<NodeId>(v));
  }
  FaultDraw out;
  out.faults = FaultSet(n, std::move(faulty));
  out.spare_exhaustion_time = exhaustion_time(times, spares);
  return out;
}

FaultDraw weibull(double shape_, double scale_, double horizon_, const Graph& fabric,
                  unsigned spares, TrialRng& rng) {
  const std::size_t n = fabric.num_nodes();
  std::vector<double> times(n);
  std::vector<NodeId> faulty;
  for (std::size_t v = 0; v < n; ++v) {
    const double t = scale_ * std::pow(-std::log1p(-rng.next_unit()), 1.0 / shape_);
    times[v] = t;
    if (t <= horizon_) faulty.push_back(static_cast<NodeId>(v));
  }
  FaultDraw out;
  out.faults = FaultSet(n, std::move(faulty));
  out.spare_exhaustion_time = exhaustion_time(times, spares);
  return out;
}

FaultDraw bus_iid(double p_, const Graph& fabric, unsigned spares, TrialRng& rng) {
  const std::size_t n = fabric.num_nodes();
  FaultDraw out;
  std::vector<NodeId> faulty;
  std::vector<double> times(n);
  for (std::size_t b = 0; b < n; ++b) {
    const double u = rng.next_unit();
    if (u < p_) {
      out.bus_faults.push_back(static_cast<std::uint32_t>(b));
      faulty.push_back(static_cast<NodeId>(b));
    }
    times[b] = geometric_step(u, p_);
  }
  out.faults = FaultSet(n, std::move(faulty));
  out.spare_exhaustion_time = exhaustion_time(times, spares);
  return out;
}

/// carriers_[b]: buses that take b down (the point-to-point degeneration
/// when `bus` is null, the true bus membership otherwise).
std::vector<std::vector<NodeId>> carriers(const Graph& fabric, const BusGraph* bus) {
  std::vector<std::vector<NodeId>> carriers_;
  if (bus == nullptr) {
    const std::size_t n = fabric.num_nodes();
    carriers_.assign(n, {});
    for (std::size_t b = 0; b < n; ++b) {
      const auto nb = fabric.neighbors(static_cast<NodeId>(b));
      carriers_[b].assign(nb.begin(), nb.end());
    }
    return carriers_;
  }
  carriers_.assign(bus->num_buses(), {});
  for (std::size_t a = 0; a < bus->num_buses(); ++a) {
    for (NodeId m : bus->bus(a).members) {
      if (m != bus->bus(a).driver) carriers_[m].push_back(static_cast<NodeId>(a));
    }
  }
  return carriers_;
}

FaultDraw bus_clustered(double p_, const std::vector<std::vector<NodeId>>& carriers_,
                        const Graph& fabric, unsigned spares, TrialRng& rng) {
  const std::size_t n = fabric.num_nodes();
  std::vector<double> seed_time(n);
  for (std::size_t b = 0; b < n; ++b) seed_time[b] = geometric_step(rng.next_unit(), p_);
  std::vector<double> times(n);
  FaultDraw out;
  std::vector<NodeId> faulty;
  for (std::size_t b = 0; b < n; ++b) {
    double t = seed_time[b];
    bool carrier_seed_now = false;
    for (const NodeId a : carriers_[b]) {
      t = std::min(t, seed_time[a] + 1.0);
      carrier_seed_now = carrier_seed_now || seed_time[a] == 1.0;
    }
    times[b] = t;
    if (seed_time[b] == 1.0 || carrier_seed_now) {
      out.bus_faults.push_back(static_cast<std::uint32_t>(b));
      faulty.push_back(static_cast<NodeId>(b));
    }
  }
  out.faults = FaultSet(n, std::move(faulty));
  out.spare_exhaustion_time = exhaustion_time(times, spares);
  return out;
}

}  // namespace reference

std::uint64_t bits(double x) {
  std::uint64_t b = 0;
  std::memcpy(&b, &x, sizeof b);
  return b;
}

/// A fabric for the oracle, with the bus machine behind it when there is one.
struct OracleFabric {
  std::string name;
  Graph graph;
  std::optional<BusGraph> bus;
};

std::vector<OracleFabric> oracle_fabrics() {
  std::vector<OracleFabric> out;
  out.push_back({"B_{2,6}", debruijn_base2(6), std::nullopt});
  out.push_back({"SE_6", shuffle_exchange_graph(6), std::nullopt});
  out.push_back({"B_{2,12}", debruijn_base2(12), std::nullopt});
  BusGraph bus = bus_ft_debruijn_base2(5, 2);
  Graph realized = bus.realized_graph();
  out.push_back({"bus(h=5,k=2)", std::move(realized), std::move(bus)});
  return out;
}

/// Spare budgets: none, small, large, and at or past the node count (the
/// clock is then +inf).
std::vector<unsigned> oracle_spares(std::size_t n) {
  return {0, 1, 3, 8, static_cast<unsigned>(n), static_cast<unsigned>(n) + 5};
}

/// Runs `trials` seeded trials of `model` against `ref` and counts the
/// finite clocks seen, so a grid that only ever produced +inf would show.
template <class Reference>
std::size_t expect_matches_reference(const FaultModel& model, const OracleFabric& f,
                                     unsigned spares, std::uint64_t cell, int trials,
                                     Reference ref) {
  std::size_t finite = 0;
  for (int t = 0; t < trials; ++t) {
    TrialRng a = TrialRng::for_trial(2024, cell, static_cast<std::uint64_t>(t));
    TrialRng b = a;
    const FaultDraw got = model.draw(f.graph, spares, a);
    const FaultDraw want = ref(f.graph, spares, b);
    EXPECT_EQ(got.faults.nodes(), want.faults.nodes())
        << model.name() << " on " << f.name << " k=" << spares << " trial " << t;
    EXPECT_EQ(got.bus_faults, want.bus_faults)
        << model.name() << " on " << f.name << " k=" << spares << " trial " << t;
    EXPECT_EQ(bits(got.spare_exhaustion_time), bits(want.spare_exhaustion_time))
        << model.name() << " on " << f.name << " k=" << spares << " trial " << t << ": "
        << got.spare_exhaustion_time << " vs " << want.spare_exhaustion_time;
    // Both draws consumed the same stream.
    EXPECT_EQ(a.next_u64(), b.next_u64());
    if (std::isfinite(want.spare_exhaustion_time)) ++finite;
  }
  return finite;
}

int oracle_trials(const OracleFabric& f) { return f.graph.num_nodes() > 1000 ? 12 : 40; }

const double kOracleP[] = {1e-4, 0.02, 0.5, 0.999};

/// Prepares a model for a fabric the way the runner does.
std::unique_ptr<FaultModel> prepared(const FaultModelSpec& spec, const OracleFabric& f,
                                     unsigned spares) {
  auto model = make_fault_model(spec);
  model->prepare(f.graph, spares);
  if (f.bus) model->prepare_bus(*f.bus, spares);
  return model;
}

TEST(FaultModelOracle, GeometricModelsMatchThePerNodeReference) {
  std::uint64_t cell = 0;
  for (const FaultModelKind kind :
       {FaultModelKind::IidBernoulli, FaultModelKind::Clustered, FaultModelKind::BusIid,
        FaultModelKind::BusClustered}) {
    std::size_t trials = 0;
    std::size_t finite = 0;
    for (const OracleFabric& f : oracle_fabrics()) {
      const auto carriers =
          reference::carriers(f.graph, kind == FaultModelKind::BusClustered && f.bus
                                           ? &*f.bus
                                           : nullptr);
      for (const unsigned k : oracle_spares(f.graph.num_nodes())) {
        for (const double p : kOracleP) {
          const auto model = prepared({kind, p, 1.0, 1.0, 1.0}, f, k);
          const auto ref = [&](const Graph& g, unsigned spares, TrialRng& rng) {
            switch (kind) {
              case FaultModelKind::IidBernoulli: return reference::iid(p, g, spares, rng);
              case FaultModelKind::Clustered: return reference::clustered(p, g, spares, rng);
              case FaultModelKind::BusIid: return reference::bus_iid(p, g, spares, rng);
              default: return reference::bus_clustered(p, carriers, g, spares, rng);
            }
          };
          finite += expect_matches_reference(*model, f, k, ++cell, oracle_trials(f), ref);
          trials += static_cast<std::size_t>(oracle_trials(f));
          ASSERT_FALSE(HasFailure()) << fault_model_kind_name(kind) << " p=" << p;
        }
      }
    }
    EXPECT_GE(trials, 2000u) << fault_model_kind_name(kind);
    EXPECT_GT(finite, trials / 2) << fault_model_kind_name(kind);
  }
}

TEST(FaultModelOracle, WeibullMatchesThePerNodeReference) {
  // 2^-4 and 2^10 are the edges of the banded range; 0.05, 1e6 and 1e15
  // fall outside it and evaluate every clock. At 1e15 rounding alone orders
  // the clocks (every life is 100 to within a few ulps), so a band there
  // would pick the wrong order statistic.
  const double shapes[] = {0.5, 1.5, 2.0, 1e6, 1e15, 0x1p10, 0x1p-4, 0.05};
  std::uint64_t cell = 1000;
  std::size_t trials = 0;
  std::size_t finite = 0;
  for (const OracleFabric& f : oracle_fabrics()) {
    for (const unsigned k : oracle_spares(f.graph.num_nodes())) {
      for (const double shape : shapes) {
        for (const double horizon : {3.0, 100.0}) {
          FaultModelSpec spec{FaultModelKind::Weibull, 0.0, shape, 100.0, horizon};
          const auto model = prepared(spec, f, k);
          const auto ref = [&](const Graph& g, unsigned spares, TrialRng& rng) {
            return reference::weibull(shape, 100.0, horizon, g, spares, rng);
          };
          const int n = oracle_trials(f) / 2;
          finite += expect_matches_reference(*model, f, k, ++cell, n, ref);
          trials += static_cast<std::size_t>(n);
          ASSERT_FALSE(HasFailure()) << "shape=" << shape << " horizon=" << horizon;
        }
      }
    }
  }
  EXPECT_GE(trials, 2000u);
  EXPECT_GT(finite, trials / 2);
}

/// x ^ (x >> shift), inverted.
std::uint64_t unxorshift(std::uint64_t y, int shift) {
  std::uint64_t x = y;
  for (int i = 0; i < 64 / shift + 1; ++i) x = y ^ (x >> shift);
  return x;
}

/// Inverse of an odd multiplier mod 2^64 (Newton's iteration).
std::uint64_t odd_inverse(std::uint64_t c) {
  std::uint64_t x = c;
  for (int i = 0; i < 6; ++i) x *= 2 - c * x;
  return x;
}

/// A generator whose first next_unit() is the largest multiple of 2^-53 at
/// or below `u`: splitmix64_mix is a bijection, so its input can be solved
/// for. Lets a one-node fabric put one chosen uniform through a model.
TrialRng rng_starting_at(double u) {
  const auto m = static_cast<std::uint64_t>(std::ldexp(u, 53));
  std::uint64_t z = unxorshift(m << 11, 31);
  z = unxorshift(z * odd_inverse(0x94d049bb133111ebull), 27);
  z = unxorshift(z * odd_inverse(0xbf58476d1ce4e5b9ull), 30);
  return TrialRng(z - 0x9e3779b97f4a7c15ull);
}

/// The uniforms a few grid steps (2^-53) around `x`, inside [0, 1).
std::vector<double> grid_around(double x) {
  std::vector<double> out;
  const double m = std::floor(std::ldexp(x, 53));
  for (double d = -3; d <= 3; ++d) {
    const double g = std::ldexp(m + d, -53);
    if (g >= 0.0 && g < 1.0) out.push_back(g);
  }
  return out;
}

/// The largest grid uniform with pred(u) true, for pred true at 0 and false
/// near 1 — where a clock crosses its threshold.
template <class Pred>
double crossing(Pred pred) {
  std::uint64_t lo = 0;
  std::uint64_t hi = (std::uint64_t{1} << 53) - 1;
  while (hi - lo > 1) {
    const std::uint64_t mid = lo + (hi - lo) / 2;
    (pred(std::ldexp(static_cast<double>(mid), -53)) ? lo : hi) = mid;
  }
  return std::ldexp(static_cast<double>(lo), -53);
}

TEST(FaultModelOracle, UniformsOnTheBandEdgesMatchTheReference) {
  // One node, one uniform, pinned at the clock's threshold crossing and at
  // both edges of the slack band around it: every path of the threshold
  // test runs (below the band, inside it, above it), and each must agree
  // with the reference on the fault and on the clock.
  const OracleFabric one{"one node", GraphBuilder(1).build(), std::nullopt};
  const auto no_carriers = reference::carriers(one.graph, nullptr);
  const double slack = detail::kClockSlack;
  const auto check = [&](const FaultModel& model, double u, auto ref) {
    for (const unsigned k : {0u, 1u}) {
      TrialRng a = rng_starting_at(u);
      TrialRng b = a;
      const FaultDraw got = model.draw(one.graph, k, a);
      const FaultDraw want = ref(one.graph, k, b);
      EXPECT_EQ(got.faults.nodes(), want.faults.nodes()) << model.name() << " u=" << u;
      EXPECT_EQ(got.bus_faults, want.bus_faults) << model.name() << " u=" << u;
      EXPECT_EQ(bits(got.spare_exhaustion_time), bits(want.spare_exhaustion_time))
          << model.name() << " u=" << u;
    }
  };
  for (const double p : kOracleP) {
    const double flip = crossing([&](double u) { return reference::geometric_step(u, p) == 1.0; });
    std::vector<double> probes = grid_around(flip);
    for (const double edge : {p * (1.0 - slack), p, p * (1.0 + slack)}) {
      for (const double g : grid_around(edge)) probes.push_back(g);
    }
    for (const double u : probes) {
      TrialRng probe = rng_starting_at(u);
      ASSERT_EQ(probe.next_unit(), u);
      const auto ref_p = [p](auto draw) {
        return [p, draw](const Graph& g, unsigned k, TrialRng& rng) { return draw(p, g, k, rng); };
      };
      check(*make_fault_model({FaultModelKind::IidBernoulli, p, 1.0, 1.0, 1.0}), u,
            ref_p(reference::iid));
      check(*make_fault_model({FaultModelKind::BusIid, p, 1.0, 1.0, 1.0}), u,
            ref_p(reference::bus_iid));
      check(*make_fault_model({FaultModelKind::Clustered, p, 1.0, 1.0, 1.0}), u,
            ref_p(reference::clustered));
      check(*make_fault_model({FaultModelKind::BusClustered, p, 1.0, 1.0, 1.0}), u,
            [&](const Graph& g, unsigned k, TrialRng& rng) {
              return reference::bus_clustered(p, no_carriers, g, k, rng);
            });
    }
  }
  for (const double shape : {0.5, 1.5, 2.0, 0x1p10, 1e6, 1e15}) {
    const double scale = 100.0;
    const double horizon = 37.0;
    const auto life = [&](double u) { return scale * std::pow(-std::log1p(-u), 1.0 / shape); };
    const double edge = -std::expm1(-std::pow(horizon / scale, shape));
    const double flip = crossing([&](double u) { return life(u) <= horizon; });
    std::vector<double> probes = grid_around(flip);
    for (const double e : {edge * (1.0 - slack), edge, edge * (1.0 + slack)}) {
      for (const double g : grid_around(e)) probes.push_back(g);
    }
    const auto model = make_fault_model({FaultModelKind::Weibull, 0.0, shape, scale, horizon});
    for (const double u : probes) {
      check(*model, u, [&](const Graph& g, unsigned k, TrialRng& rng) {
        return reference::weibull(shape, scale, horizon, g, k, rng);
      });
    }
  }
}

/// Replays chosen uniforms: the i-th next_u64() is the first draw of
/// rng_starting_at(u[i]), so the i-th uniform is u[i] floored to the 2^-53
/// grid.
class ChosenStream {
 public:
  explicit ChosenStream(std::vector<double> u) : u_(std::move(u)) {}
  std::uint64_t next_u64() { return rng_starting_at(u_.at(next_++)).next_u64(); }
  std::size_t consumed() const { return next_; }

 private:
  std::vector<double> u_;
  std::size_t next_ = 0;
};

/// The units scan_clocks keeps for `u` at `rank`, with no fault edge; checks
/// that the scan took one draw per unit and reported each unit's uniform.
std::vector<std::uint32_t> scanned(const std::vector<double>& u, std::size_t rank, double slack) {
  ChosenStream rng(u);
  const auto got =
      detail::scan_clocks(rng, u.size(), rank, slack, -1.0, [](std::uint32_t, double) {});
  EXPECT_EQ(rng.consumed(), u.size());
  std::vector<std::uint32_t> units;
  for (const detail::Candidate& c : got) {
    EXPECT_EQ(c.u, u.at(c.unit)) << "unit " << c.unit;
    units.push_back(c.unit);
  }
  return units;
}

TEST(ClockScan, KeepsEveryUniformWithinTheSlackOfTheOrderStatistic) {
  using detail::kClockSlack;
  const std::vector<double> u = {0.5, 0.25, 0.75, 0.25, 0.125, 0.5};
  // T = 0.125, 0.25 (tied), 0.25, 0.5 (tied) ...
  EXPECT_EQ(scanned(u, 0, kClockSlack), (std::vector<std::uint32_t>{4}));
  EXPECT_EQ(scanned(u, 1, kClockSlack), (std::vector<std::uint32_t>{1, 3, 4}));
  EXPECT_EQ(scanned(u, 2, kClockSlack), (std::vector<std::uint32_t>{1, 3, 4}));
  EXPECT_EQ(scanned(u, 3, kClockSlack), (std::vector<std::uint32_t>{0, 1, 3, 4, 5}));
  EXPECT_EQ(scanned(u, 5, kClockSlack), (std::vector<std::uint32_t>{0, 1, 2, 3, 4, 5}));
  // Rank past the end: no order statistic, no candidates.
  EXPECT_TRUE(scanned(u, 6, kClockSlack).empty());
  EXPECT_TRUE(scanned({}, 0, kClockSlack).empty());
}

TEST(ClockScan, BandEdgeIsInclusive) {
  using detail::kClockSlack;
  // In [0.5, 1) every double is on the 2^-53 grid, so each of these is a
  // uniform the generator can draw.
  const double t = 0.6;
  const double edge = t * (1.0 + kClockSlack);
  const double past = std::nextafter(edge, 1.0);
  const std::vector<double> u = {past, 0.9, edge, t, 0.125, std::nextafter(t, 0.0)};
  // rank 2: the three smallest are 0.125, t-, t; the band reaches exactly
  // `edge` and no further.
  EXPECT_EQ(scanned(u, 2, kClockSlack), (std::vector<std::uint32_t>{2, 3, 4, 5}));
  // A zero order statistic admits only zeros.
  const std::vector<double> zeros = {0.0, 0x1p-53, 0.0, 0.5};
  EXPECT_EQ(scanned(zeros, 1, kClockSlack), (std::vector<std::uint32_t>{0, 2}));
  EXPECT_EQ(scanned(zeros, 2, kClockSlack), (std::vector<std::uint32_t>{0, 1, 2}));
}

TEST(ClockScan, InfiniteSlackAdmitsEveryUniform) {
  const double inf = std::numeric_limits<double>::infinity();
  const std::vector<double> u = {0.5, 0.0, 0.25};
  EXPECT_EQ(scanned(u, 0, inf), (std::vector<std::uint32_t>{0, 1, 2}));
  EXPECT_EQ(scanned(u, 2, inf), (std::vector<std::uint32_t>{0, 1, 2}));
  EXPECT_TRUE(scanned(u, 3, inf).empty());
}

TEST(ClockScan, AdmitsEveryUniformAtOrBelowTheFaultEdge) {
  const double edge = 0.625;
  const std::vector<double> u = {0.5,   0.75, std::nextafter(edge, 1.0), edge, 0.125,
                                 0.875, 0.0,  std::nextafter(edge, 0.0), 0.99};
  const auto admitted = [&](std::size_t rank) {
    ChosenStream rng(u);
    std::vector<std::uint32_t> seen;
    detail::scan_clocks(rng, u.size(), rank, detail::kClockSlack, edge,
                        [&](std::uint32_t v, double x) {
                          EXPECT_EQ(x, u.at(v));
                          seen.push_back(v);
                        });
    EXPECT_EQ(rng.consumed(), u.size());
    return seen;
  };
  const std::vector<std::uint32_t> below = {0, 3, 4, 6, 7};
  // Unranked, only the fault edge cuts: exactly the uniforms at or below it.
  EXPECT_EQ(admitted(u.size()), below);
  // Ranked, the order-statistic band may admit more, in unit order.
  for (const std::size_t rank : {0u, 1u, 4u, 8u}) {
    const std::vector<std::uint32_t> seen = admitted(rank);
    EXPECT_TRUE(std::is_sorted(seen.begin(), seen.end())) << "rank " << rank;
    EXPECT_TRUE(std::includes(seen.begin(), seen.end(), below.begin(), below.end()))
        << "rank " << rank;
  }
}

TEST(ClockScan, MantissaFloorSaturates) {
  using detail::mantissa_floor;
  constexpr std::int64_t kEvery = std::int64_t{1} << 53;
  EXPECT_EQ(mantissa_floor(0.0), 0);
  EXPECT_EQ(mantissa_floor(-0.0), 0);
  EXPECT_EQ(mantissa_floor(std::numeric_limits<double>::denorm_min()), 0);
  EXPECT_EQ(mantissa_floor(std::nextafter(0x1p-53, 0.0)), 0);
  EXPECT_EQ(mantissa_floor(0x1p-53), 1);
  EXPECT_EQ(mantissa_floor(0.1), 900719925474099);  // 0.1 * 2^53 = 900719925474099.2
  EXPECT_EQ(mantissa_floor(1.0 - 0x1p-53), kEvery - 1);
  EXPECT_EQ(mantissa_floor(1.0), kEvery);
  EXPECT_EQ(mantissa_floor(std::numeric_limits<double>::infinity()), kEvery);
  EXPECT_EQ(mantissa_floor(std::numeric_limits<double>::quiet_NaN()), kEvery);
  EXPECT_EQ(mantissa_floor(-0x1p-1074), -1);
  EXPECT_EQ(mantissa_floor(-1.0), -1);
  EXPECT_EQ(mantissa_floor(-std::numeric_limits<double>::infinity()), -1);
}

TEST(FaultDraws, EveryClockedModelTakesOneDrawPerUnit) {
  // Stretch pairs and traffic seeds come from the same stream after the
  // fault draw, so their bytes depend on the draw consuming exactly n.
  const FaultModelSpec specs[] = {
      {FaultModelKind::IidBernoulli, 0.02, 1.0, 1.0, 1.0},
      {FaultModelKind::Clustered, 0.02, 1.0, 1.0, 1.0},
      {FaultModelKind::BusIid, 0.02, 1.0, 1.0, 1.0},
      {FaultModelKind::BusClustered, 0.02, 1.0, 1.0, 1.0},
      {FaultModelKind::Weibull, 0.0, 2.0, 100.0, 20.0},
      {FaultModelKind::Weibull, 0.0, 1e6, 100.0, 20.0},  // unbanded: every clock
  };
  std::uint64_t cell = 5000;
  for (const OracleFabric& f : oracle_fabrics()) {
    const std::size_t n = f.graph.num_nodes();
    for (const FaultModelSpec& spec : specs) {
      for (const unsigned k : oracle_spares(n)) {
        const auto model = prepared(spec, f, k);
        ++cell;
        for (std::uint64_t t = 0; t < 4; ++t) {
          TrialRng drawn = TrialRng::for_trial(2024, cell, t);
          TrialRng skipped = drawn;
          (void)model->draw(f.graph, k, drawn);
          for (std::size_t v = 0; v < n; ++v) (void)skipped.next_u64();
          EXPECT_EQ(drawn.next_u64(), skipped.next_u64())
              << model->name() << " on " << f.name << " k=" << k << " trial " << t;
        }
      }
    }
  }
}

TEST(FaultDraws, ThresholdOnADrawnUniformMatchesTheReference) {
  // p set to exactly the uniform some node draws, and to its grid
  // neighbours: that node sits on the fault threshold, inside the slack
  // band around it, and on either side of it.
  const OracleFabric f{"B_{2,6}", debruijn_base2(6), std::nullopt};
  const std::size_t n = f.graph.num_nodes();
  const std::uint64_t cell = 6000;
  std::vector<double> u(n);
  TrialRng rng = TrialRng::for_trial(2024, cell, 0);
  for (double& x : u) x = rng.next_unit();
  const auto smallest = static_cast<std::size_t>(std::min_element(u.begin(), u.end()) - u.begin());
  std::size_t checked = 0;
  for (const std::size_t j : {smallest, n / 3, n - 1}) {
    for (const double p : {u[j] - 0x1p-53, u[j], u[j] + 0x1p-53}) {
      if (!(p > 0.0 && p < 1.0)) continue;
      for (const unsigned k : {0u, 3u, 8u}) {
        expect_matches_reference(
            *prepared({FaultModelKind::IidBernoulli, p, 1.0, 1.0, 1.0}, f, k), f, k, cell, 1,
            [p](const Graph& g, unsigned spares, TrialRng& r) {
              return reference::iid(p, g, spares, r);
            });
        expect_matches_reference(
            *prepared({FaultModelKind::Clustered, p, 1.0, 1.0, 1.0}, f, k), f, k, cell, 1,
            [p](const Graph& g, unsigned spares, TrialRng& r) {
              return reference::clustered(p, g, spares, r);
            });
        ++checked;
        ASSERT_FALSE(HasFailure()) << "node " << j << " p=" << p << " k=" << k;
      }
    }
  }
  EXPECT_GE(checked, 24u);
}

// --- write_file_atomically ---------------------------------------------------

std::size_t open_fd_count() {
  std::size_t n = 0;
  for ([[maybe_unused]] const auto& entry : std::filesystem::directory_iterator("/proc/self/fd")) {
    ++n;
  }
  return n;
}

TEST(WriteFileAtomically, ReplacesTheFileAndLeavesNoTemporary) {
  const std::string path =
      ::testing::TempDir() + "ftdb_atomic_" + std::to_string(::getpid()) + ".json";
  for (const bool fsync : {false, true}) {
    write_file_atomically(path, "old", fsync);
    write_file_atomically(path, "new bytes", fsync);
    EXPECT_EQ(read_text_file(path), "new bytes");
    EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
  }
  std::remove(path.c_str());
}

TEST(WriteFileAtomically, MissingDirectoryThrowsWithoutLeakingAnFd) {
  const std::size_t before = open_fd_count();
  EXPECT_THROW(write_file_atomically(::testing::TempDir() + "ftdb_no_such_dir/x.json", "x", true),
               std::runtime_error);
  EXPECT_EQ(open_fd_count(), before);
}

TEST(WriteFileAtomically, DurableWriteFailsWhenTheDirectoryCannotBeSynced) {
  // A directory its writer may write and search but not read: the data
  // file is created and renamed, but the directory cannot be opened to
  // flush the rename. A durable write must say so; a plain one needs no
  // directory handle and succeeds. Root ignores permission bits, so the
  // check runs in a child that drops to an unprivileged uid when it can.
  const std::string dir = ::testing::TempDir() + "ftdb_wx_only_" + std::to_string(::getpid());
  std::filesystem::create_directories(dir);
  ASSERT_EQ(::chmod(dir.c_str(), 0333), 0);
  const pid_t child = ::fork();
  if (child == 0) {
    if (::geteuid() == 0 && ::setuid(65534) != 0) ::_exit(2);
    const std::size_t before = open_fd_count();
    int code = 0;
    try {
      write_file_atomically(dir + "/plain.json", "x", false);
    } catch (const std::exception&) {
      code = 3;
    }
    if (code == 0) {
      try {
        write_file_atomically(dir + "/durable.json", "y", true);
        code = 4;
      } catch (const std::runtime_error& e) {
        code = std::string(e.what()).find("directory") != std::string::npos ? 0 : 5;
      }
    }
    if (code == 0 && open_fd_count() != before) code = 6;
    ::_exit(code);
  }
  int status = 0;
  ASSERT_EQ(::waitpid(child, &status, 0), child);
  ::chmod(dir.c_str(), 0755);
  std::filesystem::remove_all(dir);
  ASSERT_TRUE(WIFEXITED(status));
  if (WEXITSTATUS(status) == 2) GTEST_SKIP() << "cannot drop root privileges here";
  // 3: the plain write failed; 4: the durable write claimed success;
  // 5: it threw without naming the directory; 6: an fd leaked.
  EXPECT_EQ(WEXITSTATUS(status), 0);
}

}  // namespace
}  // namespace ftdb::campaign
