// Tests for the campaign engine: scenario registry enumeration and
// validation, sweep expansion, thread-count-independent determinism of the
// parallel runner, and JSON/CSV report round trips.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <set>
#include <sstream>

#include "policy/names.hpp"
#include "policy/registry.hpp"
#include "runner/campaign.hpp"
#include "runner/report.hpp"
#include "runner/scenario.hpp"
#include "util/check.hpp"

namespace drhw {
namespace {

Scenario quick_scenario(const std::string& name, const std::string& family,
                        const PolicySpec& policy, std::uint64_t seed) {
  Scenario s;
  s.name = name;
  s.family = family;
  s.workload = WorkloadKind::synthetic;
  s.synthetic.tasks = 3;
  s.synthetic.graph.subtasks = 10;
  s.synthetic.graph_seed = 7;
  s.sim.policy = policy;
  s.sim.seed = seed;
  s.sim.iterations = 25;
  return s;
}

/// A small but heterogeneous campaign: synthetic mixes, a deterministic
/// multimedia scenario and a Pocket GL scenario.
std::vector<Scenario> quick_campaign() {
  std::vector<Scenario> scenarios;
  for (const char* policy :
       {policy_names::no_prefetch, policy_names::runtime,
        policy_names::hybrid})
    for (std::uint64_t seed : {1ull, 2ull})
      scenarios.push_back(quick_scenario(
          std::string("quick/") + policy + "/s" + std::to_string(seed),
          "quick", policy, seed));
  // One parameterised policy spec, so the policy_params descriptor fields
  // are exercised by every report round trip below.
  scenarios.push_back(quick_scenario(
      "quick/hybrid-no-intertask/s1", "quick",
      PolicySpec(policy_names::hybrid).with("intertask", "0"), 1));
  Scenario table1;
  table1.name = "t1/jpeg_dec";
  table1.family = "t1";
  table1.task_filter = {"jpeg_dec"};
  table1.exhaustive = true;
  table1.sim.policy = policy_names::no_prefetch;
  table1.sim.iterations = 1;
  scenarios.push_back(table1);
  Scenario gl;
  gl.name = "gl/hybrid";
  gl.family = "gl";
  gl.workload = WorkloadKind::pocket_gl;
  gl.sim.platform = virtex2_platform(6);
  gl.sim.policy = policy_names::hybrid;
  gl.sim.replacement = ReplacementPolicy::critical_first;
  gl.sim.iterations = 10;
  scenarios.push_back(gl);
  return scenarios;
}

TEST(ScenarioRegistry, BuiltinEnumeratesThePaperExperiments) {
  const auto registry = ScenarioRegistry::builtin(100, 2005);
  EXPECT_GE(registry.size(), 100u);

  std::set<std::string> names;
  std::set<std::string> families;
  for (const Scenario& s : registry.scenarios()) {
    EXPECT_NO_THROW(s.validate()) << s.name;
    names.insert(s.name);
    families.insert(s.family);
  }
  EXPECT_EQ(names.size(), registry.size()) << "scenario names must be unique";
  for (const char* family : {"table1", "fig6", "fig7", "mix", "synthetic",
                             "sweep", "scalability"})
    EXPECT_TRUE(families.count(family)) << family;

  // Figure 6 sweeps tiles 8..16 for all five approaches.
  EXPECT_EQ(registry.match("fig6").size(), 9u * 5u);
  // Figure 7's design-time baseline sees the merged frame graphs.
  for (const Scenario& s : registry.match("fig7"))
    EXPECT_EQ(s.workload == WorkloadKind::pocket_gl_frames,
              s.sim.policy.name == policy_names::design_time)
        << s.name;
  // Every *registered* prefetch policy gets one online_policy scenario.
  const auto by_policy = registry.match("online_policy");
  EXPECT_EQ(by_policy.size(), PolicyRegistry::instance().names().size());
  for (const Scenario& s : by_policy) EXPECT_EQ(s.mode, ScenarioMode::online);
}

TEST(ScenarioRegistry, RejectsDuplicatesAndInvalidDescriptors) {
  ScenarioRegistry registry;
  registry.add(quick_scenario("a", "f", policy_names::hybrid, 1));
  EXPECT_THROW(registry.add(quick_scenario("a", "f", policy_names::hybrid, 2)),
               std::invalid_argument);

  Scenario bad = quick_scenario("b", "f", policy_names::hybrid, 1);
  bad.sim.iterations = 0;
  EXPECT_THROW(registry.add(bad), std::invalid_argument);

  Scenario filtered = quick_scenario("c", "f", policy_names::hybrid, 1);
  filtered.task_filter = {"jpeg_dec"};  // synthetic workloads have no filter
  EXPECT_THROW(registry.add(filtered), std::invalid_argument);

  // An unregistered policy name (or a bad parameter) fails at descriptor
  // validation, before anything simulates.
  Scenario unknown = quick_scenario("d", "f", "no-such-policy", 1);
  EXPECT_THROW(registry.add(unknown), std::invalid_argument);
  Scenario bad_param = quick_scenario(
      "e", "f", PolicySpec(policy_names::hybrid).with("typo", "1"), 1);
  EXPECT_THROW(registry.add(bad_param), std::invalid_argument);
}

TEST(ScenarioRegistry, MatchFiltersByNameAndFamily) {
  const auto registry = ScenarioRegistry::builtin(10, 1);
  EXPECT_EQ(registry.match("").size(), registry.size());
  for (const Scenario& s : registry.match("tiles12"))
    EXPECT_NE(s.name.find("tiles12"), std::string::npos);
  EXPECT_FALSE(registry.match("fig7").empty());
  EXPECT_TRUE(registry.match("no-such-scenario").empty());
}

TEST(SweepBuilder, ExpandsTheCartesianProduct) {
  SweepConfig sweep;
  sweep.family = "s";
  sweep.base = quick_scenario("s/base", "s", policy_names::hybrid, 1);
  sweep.tiles = {4, 8};
  sweep.latencies = {ms(4), us(500), us(100)};
  sweep.ports = {1, 2};
  sweep.policies = {policy_names::runtime, policy_names::hybrid};
  sweep.seeds = {1, 2, 3};
  const auto scenarios = build_sweep(sweep);
  EXPECT_EQ(scenarios.size(), 2u * 3u * 2u * 2u * 3u);

  std::set<std::string> names;
  for (const Scenario& s : scenarios) names.insert(s.name);
  EXPECT_EQ(names.size(), scenarios.size());

  // Empty axes fall back to the base scenario's value.
  SweepConfig narrow;
  narrow.family = "n";
  narrow.base = quick_scenario("n/base", "n", policy_names::hybrid, 9);
  narrow.tiles = {5};
  const auto single = build_sweep(narrow);
  ASSERT_EQ(single.size(), 1u);
  EXPECT_EQ(single[0].sim.platform.tiles, 5);
  EXPECT_EQ(single[0].sim.seed, 9u);
  EXPECT_EQ(single[0].sim.policy, PolicySpec(policy_names::hybrid));
}

TEST(WorkloadKey, GridPointsShareOneKey) {
  const auto registry = ScenarioRegistry::builtin(100, 2005);
  // The five approaches of one Figure 6 grid point.
  const auto fig6 = registry.match("fig6/tiles12/");
  ASSERT_EQ(fig6.size(), 5u);
  for (const Scenario& s : fig6)
    EXPECT_TRUE(workload_key(s) == workload_key(fig6.front())) << s.name;
  // Figure 7's task and frame samplers prepare from one pocket_gl entry.
  const auto fig7 = registry.match("fig7/tiles9/");
  ASSERT_EQ(fig7.size(), 5u);
  for (const Scenario& s : fig7) {
    EXPECT_EQ(workload_key(s).family, WorkloadKind::pocket_gl) << s.name;
    EXPECT_TRUE(workload_key(s) == workload_key(fig7.front())) << s.name;
  }
  EXPECT_FALSE(workload_key(fig6.front()) == workload_key(fig7.front()));
  EXPECT_FALSE(workload_key(fig7.front()) ==
               workload_key(registry.match("fig7/tiles10/").front()));
}

/// Whether `edit` moves `base` to another WorkloadCache entry.
bool moves_key(const Scenario& base,
               const std::function<void(Scenario&)>& edit) {
  Scenario s = base;
  edit(s);
  return !(workload_key(s) == workload_key(base));
}

TEST(WorkloadKey, CoversEveryFieldPreparationReads) {
  const Scenario base = quick_scenario("k", "k", policy_names::hybrid, 1);
  EXPECT_TRUE(moves_key(base, [](Scenario& s) { s.sim.platform.tiles++; }));
  EXPECT_TRUE(moves_key(
      base, [](Scenario& s) { s.sim.platform.reconfig_ports = 2; }));
  EXPECT_TRUE(moves_key(
      base, [](Scenario& s) { s.sim.platform.reconfig_latency *= 2; }));
  EXPECT_TRUE(moves_key(
      base, [](Scenario& s) { s.design.bnb_load_threshold++; }));
  EXPECT_TRUE(moves_key(
      base, [](Scenario& s) { s.design.comm_aware_placement = true; }));
  EXPECT_TRUE(moves_key(base, [](Scenario& s) { s.synthetic.graph_seed++; }));

  Scenario multimedia = base;
  multimedia.workload = WorkloadKind::multimedia;
  EXPECT_TRUE(moves_key(
      multimedia, [](Scenario& s) { s.task_filter = {"jpeg_dec"}; }));
  Scenario file = base;
  file.workload = WorkloadKind::file;
  file.workload_file = "a.dwl";
  EXPECT_TRUE(moves_key(file, [](Scenario& s) { s.workload_file = "b.dwl"; }));

  EXPECT_FALSE(moves_key(base, [](Scenario& s) { s.sim.iterations *= 7; }));
  EXPECT_FALSE(moves_key(base, [](Scenario& s) { s.sim.seed++; }));
  EXPECT_FALSE(moves_key(
      base, [](Scenario& s) { s.sim.policy = policy_names::runtime; }));
  EXPECT_FALSE(moves_key(base, [](Scenario& s) {
    s.mode = ScenarioMode::online;
    s.arrivals.kind = ArrivalProcess::Kind::bursty;
    s.arrivals.rate_per_s *= 3;
  }));
}

TEST(WorkloadCache, SharesOneBuildPerKeyAndRejectsAnotherFamily) {
  WorkloadCache cache;
  const Scenario a = quick_scenario("a", "k", policy_names::hybrid, 1);
  const Scenario b = quick_scenario("b", "k", policy_names::runtime, 2);
  Scenario other_graphs = a;
  other_graphs.synthetic.graph_seed += 1;
  EXPECT_EQ(cache.synthetic(a).get(), cache.synthetic(b).get());
  EXPECT_NE(cache.synthetic(a).get(), cache.synthetic(other_graphs).get());
  EXPECT_THROW(cache.multimedia(a), InternalError);
}

TEST(CampaignRunner, DispatchOrderPutsOneScenarioPerEntryFirst) {
  const auto scenarios = ScenarioRegistry::builtin(10, 1).scenarios();
  const std::vector<std::size_t> order = dispatch_order(scenarios);

  // A permutation of the non-sched_cost indices.
  std::vector<std::size_t> expected;
  for (std::size_t i = 0; i < scenarios.size(); ++i)
    if (scenarios[i].mode != ScenarioMode::sched_cost) expected.push_back(i);
  std::vector<std::size_t> sorted = order;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(sorted, expected);

  // Every key's first occurrence precedes every repeat, and both halves
  // keep registry order.
  std::set<WorkloadKey> seen;
  std::size_t firsts = 0;
  while (firsts < order.size() &&
         seen.insert(workload_key(scenarios[order[firsts]])).second)
    ++firsts;
  ASSERT_LT(firsts, order.size()) << "the registry has shared entries";
  for (std::size_t at = firsts; at < order.size(); ++at)
    EXPECT_TRUE(seen.count(workload_key(scenarios[order[at]])))
        << scenarios[order[at]].name << " is a first occurrence";
  EXPECT_TRUE(std::is_sorted(order.begin(), order.begin() + firsts));
  EXPECT_TRUE(std::is_sorted(order.begin() + firsts, order.end()));
}

TEST(CampaignRunner, ResultsAreIdenticalAcrossThreadCounts) {
  const auto scenarios = quick_campaign();

  CampaignOptions one;
  one.threads = 1;
  one.record_wall_time = false;
  const auto serial = CampaignRunner(one).run(scenarios);

  // 2 threads is the repository benchmark's setting.
  CampaignOptions two;
  two.threads = 2;
  two.record_wall_time = false;
  const auto dual = CampaignRunner(two).run(scenarios);

  CampaignOptions eight;
  eight.threads = 8;
  eight.record_wall_time = false;
  const auto parallel = CampaignRunner(eight).run(scenarios);

  ASSERT_EQ(serial.size(), dual.size());
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_TRUE(serial[i].ok) << serial[i].error;
    EXPECT_EQ(serial[i].scenario.name, dual[i].scenario.name);
    EXPECT_EQ(serial[i].scenario.name, parallel[i].scenario.name);
    EXPECT_EQ(deterministic_metrics(serial[i]), deterministic_metrics(dual[i]))
        << serial[i].scenario.name;
    EXPECT_EQ(deterministic_metrics(serial[i]),
              deterministic_metrics(parallel[i]))
        << serial[i].scenario.name;
  }

  // Aggregates and the full serialised reports are bit-identical.
  StatsAggregator agg_serial, agg_parallel;
  agg_serial.add(serial);
  agg_parallel.add(parallel);
  EXPECT_EQ(agg_serial.overall().metrics, agg_parallel.overall().metrics);
  EXPECT_EQ(campaign_to_json(serial, agg_serial),
            campaign_to_json(parallel, agg_parallel));
  EXPECT_EQ(campaign_to_csv(serial), campaign_to_csv(parallel));
}

TEST(CampaignRunner, ProgressCallbackSeesEveryScenario) {
  const auto scenarios = quick_campaign();
  CampaignOptions options;
  options.threads = 4;
  std::set<std::string> seen;
  std::size_t last_total = 0;
  options.on_result = [&](const ScenarioResult& result, std::size_t done,
                          std::size_t total) {
    seen.insert(result.scenario.name);
    EXPECT_GE(done, 1u);
    EXPECT_LE(done, total);
    last_total = total;
  };
  CampaignRunner(options).run(scenarios);
  EXPECT_EQ(seen.size(), scenarios.size());
  EXPECT_EQ(last_total, scenarios.size());
}

TEST(CampaignRunner, CapturesScenarioFailuresWithoutAborting) {
  std::vector<Scenario> scenarios = quick_campaign();
  Scenario bad = scenarios[0];
  bad.name = "bad/unknown-task";
  bad.workload = WorkloadKind::multimedia;
  bad.task_filter = {"no_such_task"};
  scenarios.insert(scenarios.begin() + 1, bad);

  const auto results = CampaignRunner().run(scenarios);
  ASSERT_EQ(results.size(), scenarios.size());
  EXPECT_FALSE(results[1].ok);
  EXPECT_NE(results[1].error.find("no_such_task"), std::string::npos);
  for (std::size_t i = 0; i < results.size(); ++i)
    if (i != 1) {
      EXPECT_TRUE(results[i].ok) << results[i].error;
    }
}

TEST(CampaignRunner, ExhaustiveTable1ScenarioMatchesThePaperColumn) {
  // Table 1 row "JPEG dec": 4 subtasks, 81 ms ideal, +20% on demand.
  Scenario s;
  s.name = "t1/jpeg_dec";
  s.family = "t1";
  s.task_filter = {"jpeg_dec"};
  s.exhaustive = true;
  s.sim.policy = policy_names::no_prefetch;
  s.sim.iterations = 1;
  const auto result = run_scenario(s);
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_EQ(result.report.total_ideal, ms(81));
  EXPECT_NEAR(result.report.overhead_pct, 20.0, 1.0);
}

TEST(Report, JsonRoundTripPreservesEverything) {
  const auto scenarios = quick_campaign();
  CampaignOptions options;
  options.record_wall_time = false;
  const auto results = CampaignRunner(options).run(scenarios);
  StatsAggregator aggregator;
  aggregator.add(results);

  const std::string json = campaign_to_json(results, aggregator);
  const ParsedCampaign parsed = campaign_from_json(json);

  EXPECT_EQ(parsed.schema, "drhw-campaign-v1");
  ASSERT_EQ(parsed.scenarios.size(), results.size());
  for (std::size_t i = 0; i < results.size(); ++i) {
    const ParsedScenario& p = parsed.scenarios[i];
    const Scenario& s = results[i].scenario;
    EXPECT_EQ(p.name, s.name);
    EXPECT_EQ(p.family, s.family);
    EXPECT_EQ(p.workload, to_string(s.workload));
    EXPECT_EQ(p.approach, s.sim.policy.name);
    EXPECT_EQ(p.policy_params, s.sim.policy.params);
    EXPECT_EQ(p.replacement, to_string(s.sim.replacement));
    EXPECT_EQ(p.tiles, s.sim.platform.tiles);
    EXPECT_EQ(p.reconfig_latency_us, s.sim.platform.reconfig_latency);
    EXPECT_EQ(p.ports, s.sim.platform.reconfig_ports);
    EXPECT_EQ(p.seed, s.sim.seed);
    EXPECT_EQ(p.iterations, s.sim.iterations);
    EXPECT_EQ(p.ok, results[i].ok);
    // Metric doubles survive the round trip bit-exactly.
    for (const auto& [name, value] : deterministic_metrics(results[i])) {
      ASSERT_TRUE(p.metrics.count(name)) << name;
      EXPECT_EQ(p.metrics.at(name), value) << name;
    }
  }

  const auto families = aggregator.by_family();
  ASSERT_EQ(parsed.families.size(), families.size());
  for (std::size_t i = 0; i < families.size(); ++i) {
    EXPECT_EQ(parsed.families[i].family, families[i].family);
    EXPECT_EQ(parsed.families[i].scenarios, families[i].scenarios);
    EXPECT_EQ(parsed.families[i].metrics, families[i].metrics);
  }
  EXPECT_EQ(parsed.overall.metrics, aggregator.overall().metrics);
}

TEST(Report, CsvRoundTripPreservesScenarioRows) {
  auto scenarios = quick_campaign();
  // Exercise CSV quoting via a failing scenario with a comma in its error.
  Scenario bad = scenarios[0];
  bad.name = "bad/comma";
  bad.workload = WorkloadKind::multimedia;
  bad.task_filter = {"x,y"};
  scenarios.push_back(bad);

  CampaignOptions options;
  options.record_wall_time = false;
  const auto results = CampaignRunner(options).run(scenarios);

  const std::string csv = campaign_to_csv(results);
  const auto parsed = campaign_from_csv(csv);
  ASSERT_EQ(parsed.size(), results.size());
  for (std::size_t i = 0; i < results.size(); ++i) {
    EXPECT_EQ(parsed[i].name, results[i].scenario.name);
    EXPECT_EQ(parsed[i].family, results[i].scenario.family);
    EXPECT_EQ(parsed[i].ok, results[i].ok);
    EXPECT_EQ(parsed[i].error, results[i].error);
    EXPECT_EQ(parsed[i].approach, results[i].scenario.sim.policy.name);
    EXPECT_EQ(parsed[i].policy_params,
              results[i].scenario.sim.policy.params);
    EXPECT_EQ(parsed[i].seed, results[i].scenario.sim.seed);
    for (const auto& [name, value] : deterministic_metrics(results[i])) {
      ASSERT_TRUE(parsed[i].metrics.count(name)) << name;
      EXPECT_EQ(parsed[i].metrics.at(name), value) << name;
    }
  }
}

TEST(Report, SingleSampleAggregatesAreFiniteAndRoundTrip) {
  // n = 1 families: stddev must be exactly 0 (not garbage from the
  // cancellation formula), percentiles collapse onto the sample, and the
  // serialised report must stay parseable.
  const auto result =
      run_scenario(quick_scenario("solo/one", "solo", policy_names::hybrid, 3),
                   /*record_wall_time=*/false);
  ASSERT_TRUE(result.ok) << result.error;
  StatsAggregator aggregator;
  aggregator.add(result);
  const GroupSummary overall = aggregator.overall();
  ASSERT_FALSE(overall.metrics.empty());
  for (const auto& [name, m] : overall.metrics) {
    EXPECT_EQ(m.count, 1u) << name;
    EXPECT_EQ(m.stddev, 0.0) << name;
    EXPECT_EQ(m.p50, m.mean) << name;
    EXPECT_EQ(m.p95, m.mean) << name;
    EXPECT_EQ(m.min, m.max) << name;
    for (double v : {m.mean, m.stddev, m.min, m.max, m.p50, m.p95})
      EXPECT_TRUE(std::isfinite(v)) << name;
  }
  const ParsedCampaign parsed =
      campaign_from_json(campaign_to_json({result}, aggregator));
  EXPECT_EQ(parsed.overall.metrics, overall.metrics);
}

TEST(Report, NonFiniteMetricsSerialiseAsMissingNotGarbage) {
  // A NaN/inf measurement (e.g. a wall-clock anomaly) must not poison the
  // reports: JSON writes null, CSV writes an empty cell, and both parse
  // back as "metric missing" instead of throwing mid-document.
  ScenarioResult weird =
      run_scenario(quick_scenario("w/a", "w", policy_names::no_prefetch, 1),
                   /*record_wall_time=*/false);
  ASSERT_TRUE(weird.ok) << weird.error;
  weird.wall_ms = std::numeric_limits<double>::quiet_NaN();
  ScenarioResult inf = weird;
  inf.scenario.name = "w/b";
  inf.wall_ms = std::numeric_limits<double>::infinity();

  StatsAggregator aggregator;
  aggregator.add(weird);
  aggregator.add(inf);
  const std::string json = campaign_to_json({weird, inf}, aggregator);
  EXPECT_EQ(json.find("nan"), std::string::npos);
  EXPECT_EQ(json.find("inf"), std::string::npos);
  const ParsedCampaign parsed = campaign_from_json(json);
  ASSERT_EQ(parsed.scenarios.size(), 2u);
  EXPECT_FALSE(parsed.scenarios[0].metrics.count("wall_ms"));
  EXPECT_TRUE(parsed.scenarios[0].metrics.count("makespan_ms"));

  const auto rows = campaign_from_csv(campaign_to_csv({weird, inf}));
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_FALSE(rows[0].metrics.count("wall_ms"));
  EXPECT_FALSE(rows[1].metrics.count("wall_ms"));
}

TEST(Report, CsvRoundTripsNamesWithCommasAndQuotes) {
  ScenarioResult result =
      run_scenario(quick_scenario("q/base", "q", policy_names::no_prefetch, 1),
                   /*record_wall_time=*/false);
  ASSERT_TRUE(result.ok) << result.error;
  result.scenario.name = "sweep/\"quoted\",t=8,l=4ms";
  result.scenario.family = "fam,ily\"";
  const auto rows = campaign_from_csv(campaign_to_csv({result}));
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].name, result.scenario.name);
  EXPECT_EQ(rows[0].family, result.scenario.family);

  StatsAggregator aggregator;
  aggregator.add(result);
  const ParsedCampaign parsed =
      campaign_from_json(campaign_to_json({result}, aggregator));
  EXPECT_EQ(parsed.scenarios[0].name, result.scenario.name);
  EXPECT_EQ(parsed.scenarios[0].family, result.scenario.family);
}

TEST(Report, PolicyParamsWithSeparatorCharactersRoundTripLosslessly) {
  // Parameter values are arbitrary strings; the CSV cell's ';'/'=' joiners
  // and the escape itself are backslash-escaped so both report formats
  // stay lossless and agree. (The spec is mutated post-run, like the
  // quoted-name test above — no registered policy needs such values.)
  ScenarioResult result =
      run_scenario(quick_scenario("pp/weird", "pp", policy_names::hybrid, 1),
                   /*record_wall_time=*/false);
  ASSERT_TRUE(result.ok) << result.error;
  result.scenario.sim.policy.params = {
      {"tiers", "a;b=c"}, {"path", "x\\y"}, {"plain", "1"}};

  const auto rows = campaign_from_csv(campaign_to_csv({result}));
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].policy_params, result.scenario.sim.policy.params);

  StatsAggregator aggregator;
  aggregator.add(result);
  const ParsedCampaign parsed =
      campaign_from_json(campaign_to_json({result}, aggregator));
  EXPECT_EQ(parsed.scenarios[0].policy_params,
            result.scenario.sim.policy.params);
}

TEST(Report, AggregatorExcludesWallClockMetrics) {
  const auto results = CampaignRunner().run(quick_campaign());
  StatsAggregator aggregator;
  aggregator.add(results);
  const GroupSummary overall = aggregator.overall();
  EXPECT_FALSE(overall.metrics.count("wall_ms"));
  EXPECT_FALSE(overall.metrics.count("list_sched_us"));
  EXPECT_TRUE(overall.metrics.count("overhead_pct"));
  EXPECT_EQ(overall.scenarios, results.size());
}

TEST(SweepBuilder, ExpandsAdmissionAndDefragAxes) {
  SweepConfig sweep;
  sweep.family = "od";
  sweep.base.name = "od/base";
  sweep.base.family = "od";
  sweep.base.mode = ScenarioMode::online;
  sweep.base.sim.iterations = 10;
  sweep.base.pool.contiguous = true;
  sweep.admission_policies = {AdmissionPolicy::fifo_hol,
                              AdmissionPolicy::backfill_bypass};
  sweep.defrag_modes = {false, true};
  const auto scenarios = build_sweep(sweep);
  EXPECT_EQ(scenarios.size(), 4u);
  std::set<std::string> names;
  for (const Scenario& s : scenarios) {
    names.insert(s.name);
    EXPECT_TRUE(s.pool.contiguous);
  }
  EXPECT_EQ(names.size(), 4u);
  EXPECT_TRUE(names.count("od/t8/l4000/p1/hybrid/s1/fifo_hol/no-defrag"))
      << *names.begin();
  EXPECT_TRUE(
      names.count("od/t8/l4000/p1/hybrid/s1/backfill_bypass/defrag"));

  // Pool axes on a non-online base are a descriptor error, like the
  // arrival-rate axis.
  SweepConfig bad = sweep;
  bad.base.mode = ScenarioMode::simulate;
  EXPECT_THROW(build_sweep(bad), std::invalid_argument);
}

TEST(Report, OnlinePoolFieldsAndMetricsRoundTrip) {
  Scenario s;
  s.name = "od/test";
  s.family = "od";
  s.mode = ScenarioMode::online;
  s.sim.platform = virtex2_platform(10);
  s.sim.policy = policy_names::hybrid;
  s.sim.iterations = 25;
  s.arrivals.rate_per_s = 80.0;
  s.pool.contiguous = true;
  s.pool.defrag = true;
  s.pool.admission = AdmissionPolicy::window_reorder;
  s.scheduler_cost = us(50);
  const auto result = run_scenario(s, /*record_wall_time=*/false);
  ASSERT_TRUE(result.ok) << result.error;

  const auto metrics = deterministic_metrics(result);
  for (const char* key :
       {"response_p50_ms", "response_p95_ms", "response_p99_ms", "frag_pct",
        "queue_skips", "defrag_moves"})
    EXPECT_TRUE(metrics.count(key)) << key;

  StatsAggregator aggregator;
  aggregator.add(result);
  const ParsedCampaign parsed =
      campaign_from_json(campaign_to_json({result}, aggregator));
  ASSERT_EQ(parsed.scenarios.size(), 1u);
  EXPECT_EQ(parsed.scenarios[0].admission_policy, "window_reorder");
  EXPECT_TRUE(parsed.scenarios[0].contiguous);
  EXPECT_TRUE(parsed.scenarios[0].defrag);
  EXPECT_EQ(parsed.scenarios[0].scheduler_cost_us, 50.0);
  EXPECT_EQ(parsed.scenarios[0].metrics.at("frag_pct"), result.frag_pct);

  const auto rows = campaign_from_csv(campaign_to_csv({result}));
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].admission_policy, "window_reorder");
  EXPECT_TRUE(rows[0].contiguous);
  EXPECT_TRUE(rows[0].defrag);
  EXPECT_EQ(rows[0].scheduler_cost_us, 50.0);
  EXPECT_EQ(rows[0].metrics.at("queue_skips"),
            static_cast<double>(result.queue_skips));
  EXPECT_EQ(rows[0].metrics.at("response_p95_ms"), result.response_p95_ms);
}

TEST(Report, DeadlineFieldsAndMetricsRoundTrip) {
  Scenario s;
  s.name = "rt/test";
  s.family = "rt";
  s.mode = ScenarioMode::online;
  s.sim.platform = virtex2_platform(12);
  s.sim.policy = policy_names::edf;
  s.sim.iterations = 25;
  s.arrivals.kind = ArrivalProcess::Kind::sporadic;
  s.arrivals.rate_per_s = 100.0;
  s.deadline_scale = 2.5;
  s.high_crit_fraction = 0.4;
  s.preempt = true;
  const auto result = run_scenario(s, /*record_wall_time=*/false);
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_EQ(result.deadline_jobs, static_cast<long>(result.report.instances));

  const auto metrics = deterministic_metrics(result);
  for (const char* key :
       {"deadline_jobs", "deadline_misses", "deadline_miss_pct",
        "high_crit_miss_pct", "mean_lateness_ms", "max_tardiness_ms",
        "preemptions"})
    EXPECT_TRUE(metrics.count(key)) << key;

  StatsAggregator aggregator;
  aggregator.add(result);
  const ParsedCampaign parsed =
      campaign_from_json(campaign_to_json({result}, aggregator));
  ASSERT_EQ(parsed.scenarios.size(), 1u);
  EXPECT_EQ(parsed.scenarios[0].arrival_kind, "sporadic");
  EXPECT_EQ(parsed.scenarios[0].deadline_scale, 2.5);
  EXPECT_EQ(parsed.scenarios[0].high_crit_fraction, 0.4);
  EXPECT_TRUE(parsed.scenarios[0].preempt);
  EXPECT_EQ(parsed.scenarios[0].metrics.at("deadline_miss_pct"),
            result.deadline_miss_pct);

  const auto rows = campaign_from_csv(campaign_to_csv({result}));
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].deadline_scale, 2.5);
  EXPECT_EQ(rows[0].high_crit_fraction, 0.4);
  EXPECT_TRUE(rows[0].preempt);
  EXPECT_EQ(rows[0].metrics.at("preemptions"),
            static_cast<double>(result.preemptions));
  EXPECT_EQ(rows[0].metrics.at("max_tardiness_ms"), result.max_tardiness_ms);
}

TEST(Report, ReadsReportsWrittenBeforeTheDeadlineColumnsExisted) {
  // Forward compatibility: a PR 6-era report — no deadline_scale /
  // high_crit_fraction / preempt descriptor fields and no deadline metric
  // columns — must parse with the neutral defaults, not throw. The
  // literals below are frozen copies of the old writers' output shape.
  const std::string old_json = R"({
  "schema": "drhw-campaign-v1",
  "scenarios": [
    {
      "name": "online_poisson/r20/hybrid",
      "family": "online_poisson",
      "workload": "multimedia",
      "mode": "online",
      "approach": "hybrid",
      "policy_params": {},
      "replacement": "lru",
      "tiles": 16,
      "reconfig_latency_us": 4000,
      "ports": 1,
      "isps": 1,
      "seed": 2005,
      "iterations": 40,
      "arrival_kind": "poisson",
      "arrival_rate_per_s": 20,
      "port_discipline": "fifo",
      "admission_policy": "fifo_hol",
      "contiguous": false,
      "defrag": false,
      "scheduler_cost_us": 0,
      "shared_isps": false,
      "isp_discipline": "fifo",
      "port_util_per_port_pct": [12.5],
      "ok": true,
      "error": "",
      "metrics": {"makespan_ms": 100.5, "overhead_pct": 8.25, "loads": 42}
    }
  ],
  "families": [],
  "overall": {
    "family": "",
    "scenarios": 1,
    "failed": 0,
    "metrics": {}
  }
})";
  const ParsedCampaign parsed = campaign_from_json(old_json);
  ASSERT_EQ(parsed.scenarios.size(), 1u);
  const ParsedScenario& p = parsed.scenarios[0];
  EXPECT_EQ(p.name, "online_poisson/r20/hybrid");
  EXPECT_EQ(p.arrival_kind, "poisson");
  EXPECT_EQ(p.deadline_scale, 0.0);
  EXPECT_EQ(p.high_crit_fraction, 0.0);
  EXPECT_FALSE(p.preempt);
  EXPECT_EQ(p.metrics.at("loads"), 42.0);
  EXPECT_FALSE(p.metrics.count("deadline_miss_pct"));

  const std::string old_csv =
      "name,family,workload,mode,approach,policy_params,replacement,tiles,"
      "reconfig_latency_us,ports,isps,seed,iterations,admission_policy,"
      "contiguous,defrag,scheduler_cost_us,shared_isps,isp_discipline,"
      "port_util_per_port_pct,ok,error,makespan_ms,overhead_pct,loads\n"
      "online_poisson/r20/hybrid,online_poisson,multimedia,online,hybrid,,"
      "lru,16,4000,1,1,2005,40,fifo_hol,0,0,0,0,fifo,12.5,1,,100.5,8.25,42\n";
  const auto rows = campaign_from_csv(old_csv);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].name, "online_poisson/r20/hybrid");
  EXPECT_EQ(rows[0].deadline_scale, 0.0);
  EXPECT_FALSE(rows[0].preempt);
  EXPECT_EQ(rows[0].metrics.at("overhead_pct"), 8.25);
  EXPECT_FALSE(rows[0].metrics.count("max_tardiness_ms"));

  // The symmetric direction: a reader of the *old* column set handed a
  // *new* report sees the extra columns as plain metrics (CSV) or ignores
  // unknown keys (JSON find()-based parsing) — the tolerant fallback the
  // writers rely on is pinned by the round-trip tests above.
}

TEST(Report, EveryDescriptorFieldRoundTripsThroughBothFormats) {
  // One online scenario with every descriptor field off its default, and
  // one simulate-mode scenario: each format must read back exactly the row
  // scenario_row() built, field by field.
  Scenario online;
  online.name = "rt/every-field";
  online.family = "rt";
  online.mode = ScenarioMode::online;
  online.sim.platform = virtex2_platform(10);
  online.sim.platform.reconfig_ports = 2;
  online.sim.platform.isps = 2;
  online.sim.policy = PolicySpec(policy_names::hybrid).with("intertask", "0");
  online.sim.replacement = ReplacementPolicy::weight_aware;
  online.sim.iterations = 20;
  online.arrivals.kind = ArrivalProcess::Kind::bursty;
  online.arrivals.rate_per_s = 37.5;
  online.port_discipline = PortDiscipline::priority;
  online.pool.admission = AdmissionPolicy::backfill_bypass;
  online.pool.contiguous = true;
  online.pool.defrag = true;
  online.scheduler_cost = us(50);
  online.shared_isps = true;
  online.isp_discipline = PortDiscipline::priority;
  online.deadline_scale = 3.0;
  online.high_crit_fraction = 0.5;
  online.preempt = true;
  online.queue_backend = QueueBackend::heap;
  std::vector<ScenarioResult> results;
  for (const Scenario& s :
       {online, quick_scenario("rt/simulate", "rt", policy_names::hybrid, 2)}) {
    results.push_back(run_scenario(s, /*record_wall_time=*/false));
    ASSERT_TRUE(results.back().ok) << results.back().error;
  }

  StatsAggregator aggregator;
  aggregator.add(results);
  const ParsedCampaign parsed =
      campaign_from_json(campaign_to_json(results, aggregator));
  const auto rows = campaign_from_csv(campaign_to_csv(results));
  ASSERT_EQ(parsed.scenarios.size(), results.size());
  ASSERT_EQ(rows.size(), results.size());
  const std::vector<std::string> none;
  for (std::size_t i = 0; i < results.size(); ++i) {
    const ParsedScenario expected = scenario_row(results[i]);
    EXPECT_EQ(scenario_row_differences(expected, parsed.scenarios[i]), none)
        << "JSON " << expected.name;
    EXPECT_EQ(scenario_row_differences(expected, rows[i]), none)
        << "CSV " << expected.name;
  }

  const ParsedScenario& row = rows[0];
  EXPECT_EQ(row.policy_params, online.sim.policy.params);
  EXPECT_EQ(row.replacement, to_string(ReplacementPolicy::weight_aware));
  EXPECT_EQ(row.ports, 2);
  EXPECT_EQ(row.isps, 2);
  EXPECT_EQ(row.queue_backend, "heap");
  EXPECT_EQ(row.arrival_kind, "bursty");
  EXPECT_EQ(row.arrival_rate_per_s, 37.5);
  EXPECT_EQ(row.port_discipline, "priority");
  EXPECT_EQ(row.admission_policy, "backfill_bypass");
  EXPECT_TRUE(row.contiguous && row.defrag && row.shared_isps);
  EXPECT_EQ(row.scheduler_cost_us, 50.0);
  EXPECT_EQ(row.isp_discipline, "priority");
  EXPECT_EQ(row.deadline_scale, 3.0);
  EXPECT_EQ(row.high_crit_fraction, 0.5);
  EXPECT_TRUE(row.preempt);
  EXPECT_EQ(row.port_util_per_port.size(), 2u);
  // Online-only fields read back empty on the simulate row.
  EXPECT_EQ(rows[1].arrival_kind, "");
  EXPECT_EQ(rows[1].admission_policy, "");
  EXPECT_EQ(rows[1].queue_backend, "");

  // The comparison itself names exactly the fields that differ.
  ParsedScenario changed = rows[0];
  changed.isp_discipline = "fifo";
  changed.metrics["loads"] += 1.0;
  EXPECT_EQ(scenario_row_differences(rows[0], changed),
            (std::vector<std::string>{"isp_discipline", "metrics"}));
}

/// `report` with the first scenario's `"key": value` replaced.
std::string with_json_value(std::string report, const std::string& key,
                            const std::string& value) {
  const std::string prefix = "\"" + key + "\": ";
  const std::size_t start = report.find(prefix) + prefix.size();
  const std::size_t end = report.find(",\n", start);
  return report.replace(start, end - start, value);
}

/// A one-row CSV report with the `column` cell replaced (no quoted cells).
std::string with_csv_cell(const std::string& csv, const std::string& column,
                          const std::string& value) {
  std::vector<std::vector<std::string>> lines;
  std::istringstream in(csv);
  for (std::string line; std::getline(in, line);) {
    lines.emplace_back();
    std::istringstream cells(line + ",");
    for (std::string cell; std::getline(cells, cell, ',');)
      lines.back().push_back(cell);
  }
  const auto it = std::find(lines[0].begin(), lines[0].end(), column);
  lines[1][static_cast<std::size_t>(it - lines[0].begin())] = value;
  std::string out;
  for (const auto& cells : lines) {
    for (std::size_t i = 0; i < cells.size(); ++i)
      out += (i == 0 ? "" : ",") + cells[i];
    out += "\n";
  }
  return out;
}

template <typename Parse>
void expect_rejected(Parse parse, const std::string& input,
                     const std::vector<std::string>& named) {
  try {
    parse(input);
    ADD_FAILURE() << "accepted:\n" << input;
  } catch (const std::invalid_argument& e) {
    for (const std::string& word : named)
      EXPECT_NE(std::string(e.what()).find(word), std::string::npos)
          << e.what() << " should name " << word;
  }
}

TEST(Report, ReadersRejectMalformedFieldsNamingThem) {
  // No silent misreads: a known field of the wrong JSON kind, or a CSV cell
  // that does not parse completely for its column, is an error naming the
  // field (and the CSV line), never a 0.
  const ScenarioResult result = run_scenario(
      quick_scenario("strict/a", "strict", policy_names::no_prefetch, 1),
      /*record_wall_time=*/false);
  ASSERT_TRUE(result.ok) << result.error;
  StatsAggregator aggregator;
  aggregator.add(result);
  const std::string json = campaign_to_json({result}, aggregator);
  const std::string csv = campaign_to_csv({result});
  ASSERT_NO_THROW(campaign_from_json(json));
  ASSERT_NO_THROW(campaign_from_csv(csv));

  const auto from_json = [](const std::string& text) {
    campaign_from_json(text);
  };
  expect_rejected(from_json, with_json_value(json, "tiles", "\"8\""),
                  {"'tiles'"});
  expect_rejected(from_json, with_json_value(json, "tiles", "8.5"),
                  {"'tiles'"});
  expect_rejected(from_json, with_json_value(json, "seed", "-1"), {"'seed'"});
  expect_rejected(from_json, with_json_value(json, "ok", "1"), {"'ok'"});
  expect_rejected(from_json, with_json_value(json, "name", "null"),
                  {"'name'"});
  expect_rejected(from_json, with_json_value(json, "policy_params", "[]"),
                  {"'policy_params'"});

  const auto from_csv = [](const std::string& text) {
    campaign_from_csv(text);
  };
  expect_rejected(from_csv, with_csv_cell(csv, "tiles", "abc"),
                  {"'tiles'", "line 2"});
  expect_rejected(from_csv, with_csv_cell(csv, "tiles", "8 "),
                  {"'tiles'", "line 2"});
  expect_rejected(from_csv, with_csv_cell(csv, "ok", "yes"),
                  {"'ok'", "line 2"});
  expect_rejected(from_csv, with_csv_cell(csv, "overhead_pct", "1.5x"),
                  {"'overhead_pct'", "line 2"});
  // An empty metric cell still means "missing".
  const auto rows = campaign_from_csv(with_csv_cell(csv, "overhead_pct", ""));
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_FALSE(rows[0].metrics.count("overhead_pct"));
  EXPECT_TRUE(rows[0].metrics.count("makespan_ms"));
}

}  // namespace
}  // namespace drhw
