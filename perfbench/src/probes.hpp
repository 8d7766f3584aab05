#pragma once

/// \file probes.hpp
/// Layer probes of the layer-timing run: each calls one module's public
/// functions directly, inside spans, on a workload's own prepared graphs.

#include <cstdint>
#include <vector>

#include "common.hpp"
#include "runner/campaign.hpp"
#include "sim/system_sim.hpp"

namespace perfbench {

/// Design-time (src/prefetch) costs on a set of prepared graphs.
struct PrefetchProbe {
  double cs_loop_s = 0.0;        ///< compute_hybrid_schedule, all graphs
  long cs_loop_iterations = 0;   ///< CS-loop passes, all graphs (exact)
  std::uint64_t bnb_nodes = 0;   ///< optimal_prefetch nodes (exact)
  double bnb_ns_per_node = 0.0;
  double evaluate_ns = 0.0;       ///< one evaluate(), mean over graphs
  double hybrid_decide_ns = 0.0;  ///< one run-time decision, mean
  double list_prefetch_ns = 0.0;  ///< one list heuristic call, mean
};

/// Runs the prefetch probes on `preps` (all prepared for `platform` with
/// `design`). The B&B probe runs optimal_prefetch at the auto-select
/// threshold: each graph's DRHW subtasks minus its leading critical ones
/// (then its heaviest others) until design.bnb_load_threshold loads remain.
PrefetchProbe probe_prefetch(
    const std::vector<const drhw::PreparedScenario*>& preps,
    const drhw::PlatformConfig& platform,
    const drhw::HybridDesignOptions& design, Tracer* tracer);

/// Nanoseconds for one retire's worth of P² updates (p50, p95 and p99
/// estimators, one add() each) on a seeded exponential stream.
double probe_p2_add_ns(std::uint64_t seed, Tracer* tracer);

void add_prefetch_metrics(const PrefetchProbe& probe, Outcome& out);

/// Times the JSON and CSV round trip of `results` (runner.report_write_s,
/// runner.report_read_s) and checks the readers give back every
/// deterministic metric.
void report_round_trip(const std::vector<drhw::ScenarioResult>& results,
                       Tracer* tracer, Outcome& out);

}  // namespace perfbench
