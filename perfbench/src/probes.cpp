#include "probes.hpp"

#include <algorithm>
#include <cmath>

#include "prefetch/bnb.hpp"
#include "prefetch/critical_subtasks.hpp"
#include "prefetch/hybrid.hpp"
#include "prefetch/list_prefetch.hpp"
#include "runner/report.hpp"
#include "util/p2_quantile.hpp"
#include "util/rng.hpp"

namespace perfbench {

using namespace drhw;

namespace {

std::vector<bool> drhw_subtasks(const PreparedScenario& prep) {
  std::vector<bool> needs(prep.graph->size(), false);
  for (std::size_t s = 0; s < needs.size(); ++s)
    needs[s] = prep.placement.on_drhw(static_cast<SubtaskId>(s));
  return needs;
}

/// The load set the CS loop hands to B&B first under auto_select.
std::vector<bool> bnb_probe_loads(const PreparedScenario& prep,
                                  int threshold) {
  std::vector<bool> needs = drhw_subtasks(prep);
  long count = std::count(needs.begin(), needs.end(), true);
  std::vector<SubtaskId> drop = prep.hybrid.critical;
  std::vector<SubtaskId> rest;
  for (std::size_t s = 0; s < needs.size(); ++s)
    if (needs[s] && std::find(drop.begin(), drop.end(),
                              static_cast<SubtaskId>(s)) == drop.end())
      rest.push_back(static_cast<SubtaskId>(s));
  std::stable_sort(rest.begin(), rest.end(), [&](SubtaskId a, SubtaskId b) {
    return prep.weights[static_cast<std::size_t>(a)] >
           prep.weights[static_cast<std::size_t>(b)];
  });
  drop.insert(drop.end(), rest.begin(), rest.end());
  for (SubtaskId s : drop) {
    if (count <= threshold) break;
    needs[static_cast<std::size_t>(s)] = false;
    --count;
  }
  return needs;
}

}  // namespace

PrefetchProbe probe_prefetch(const std::vector<const PreparedScenario*>& preps,
                             const PlatformConfig& platform,
                             const HybridDesignOptions& design,
                             Tracer* tracer) {
  PrefetchProbe probe;
  const double n = static_cast<double>(preps.size());
  {
    ScopedSpan span(tracer, "prefetch.cs_loop");
    const double t0 = now_s();
    for (const PreparedScenario* prep : preps)
      probe.cs_loop_iterations +=
          compute_hybrid_schedule(*prep->graph, prep->placement, platform,
                                  design)
              .loop_iterations;
    probe.cs_loop_s = now_s() - t0;
  }
  std::vector<BnbResult> bnb;
  {
    ScopedSpan span(tracer, "prefetch.bnb");
    const double t0 = now_s();
    for (const PreparedScenario* prep : preps) {
      bnb.push_back(optimal_prefetch(
          *prep->graph, prep->placement, platform,
          bnb_probe_loads(*prep, design.bnb_load_threshold)));
      probe.bnb_nodes += bnb.back().nodes_explored;
    }
    probe.bnb_ns_per_node = (now_s() - t0) * 1e9 /
                            static_cast<double>(std::max<std::uint64_t>(
                                probe.bnb_nodes, 1));
  }
  {
    ScopedSpan span(tracer, "prefetch.evaluate");
    for (std::size_t i = 0; i < preps.size(); ++i) {
      const PreparedScenario& prep = *preps[i];
      const LoadPlan plan = explicit_plan(*prep.graph, bnb[i].order);
      probe.evaluate_ns += ns_per_call([&] {
        volatile time_us makespan =
            evaluate(*prep.graph, prep.placement, platform, plan).makespan;
        (void)makespan;
      }) / n;
    }
  }
  {
    ScopedSpan span(tracer, "prefetch.hybrid_decide");
    Rng rng(2005);
    for (const PreparedScenario* prep : preps) {
      std::vector<bool> resident = drhw_subtasks(*prep);
      for (std::size_t s = 0; s < resident.size(); ++s)
        resident[s] = resident[s] && rng.next_bool(0.3);
      probe.hybrid_decide_ns += ns_per_call([&] {
        volatile std::size_t loads =
            hybrid_decide(prep->hybrid, resident).init_loads.size();
        (void)loads;
      }) / n;
    }
  }
  {
    ScopedSpan span(tracer, "prefetch.list_prefetch");
    for (const PreparedScenario* prep : preps) {
      const std::vector<bool> needs = drhw_subtasks(*prep);
      probe.list_prefetch_ns += ns_per_call([&] {
        volatile time_us makespan =
            list_prefetch(*prep->graph, prep->placement, platform, needs)
                .makespan;
        (void)makespan;
      }) / n;
    }
  }
  return probe;
}

double probe_p2_add_ns(std::uint64_t seed, Tracer* tracer) {
  ScopedSpan span(tracer, "util.p2_add");
  constexpr std::size_t k_samples = 1 << 20;
  Rng rng(seed);
  std::vector<double> stream(k_samples);
  for (double& x : stream) x = -std::log1p(-rng.next_double()) * 70.0;
  std::vector<double> runs;
  volatile double sink = 0.0;
  for (int run = 0; run < 5; ++run) {
    P2Quantile p50(0.50), p95(0.95), p99(0.99);
    runs.push_back(time_call([&] {
                     for (double x : stream) {
                       p50.add(x);
                       p95.add(x);
                       p99.add(x);
                     }
                   }) *
                   1e9 / static_cast<double>(k_samples));
    sink = sink + p99.value();
  }
  return median(runs);
}

void add_prefetch_metrics(const PrefetchProbe& probe, Outcome& out) {
  out.add("prefetch.cs_loop_s", probe.cs_loop_s, "s");
  out.add("prefetch.cs_loop_iterations",
          static_cast<double>(probe.cs_loop_iterations), "count");
  out.add("prefetch.bnb_nodes", static_cast<double>(probe.bnb_nodes),
          "count");
  out.add("prefetch.bnb_ns_per_node", probe.bnb_ns_per_node, "ns");
  out.add("prefetch.evaluate_ns", probe.evaluate_ns, "ns");
  out.add("prefetch.hybrid_decide_ns", probe.hybrid_decide_ns, "ns");
  out.add("prefetch.list_prefetch_ns", probe.list_prefetch_ns, "ns");
  out.digest.emplace_back("layer.prefetch.cs_loop_iterations",
                          std::to_string(probe.cs_loop_iterations));
  out.digest.emplace_back("layer.prefetch.bnb_nodes",
                          std::to_string(probe.bnb_nodes));
}

void report_round_trip(const std::vector<ScenarioResult>& results,
                       Tracer* tracer, Outcome& out) {
  StatsAggregator aggregator;
  aggregator.add(results);
  std::vector<double> writes, reads;
  std::string json, csv;
  ParsedCampaign parsed;
  std::vector<ParsedScenario> rows;
  for (int i = 0; i < 5; ++i) {
    {
      ScopedSpan span(tracer, "runner.report_write");
      writes.push_back(time_call([&] {
        json = campaign_to_json(results, aggregator);
        csv = campaign_to_csv(results);
      }));
    }
    ScopedSpan span(tracer, "runner.report_read");
    reads.push_back(time_call([&] {
      parsed = campaign_from_json(json);
      rows = campaign_from_csv(csv);
    }));
  }
  out.add("runner.report_write_s", median(writes), "s");
  out.add("runner.report_read_s", median(reads), "s");

  const std::size_t before = out.mismatches.size();
  if (parsed.scenarios.size() != results.size() ||
      rows.size() != results.size())
    out.mismatches.push_back("report round trip lost scenarios");
  else
    for (std::size_t i = 0; i < results.size(); ++i)
      for (const auto& [metric, value] : deterministic_metrics(results[i]))
        for (const auto* read :
             {&parsed.scenarios[i].metrics, &rows[i].metrics}) {
          const auto it = read->find(metric);
          if (it == read->end() || exact(it->second) != exact(value))
            out.mismatches.push_back("report round trip: " +
                                     results[i].scenario.name + "." + metric);
        }
  out.count_op(before);
}

}  // namespace perfbench
