#pragma once

/// \file report.hpp
/// Campaign result aggregation and serialisation. The StatsAggregator
/// folds per-scenario metrics into per-family and whole-campaign summary
/// distributions (mean/stddev/min/max/p50/p95); the JSON and CSV writers
/// produce machine-readable reports, and the matching readers round-trip
/// them (used by tooling and the regression tests).
///
/// One descriptor table and one metric table in report.cpp drive both
/// writers, both readers and deterministic_metrics(); scenario_row() is the
/// only code that maps a ScenarioResult onto a report row. The readers are
/// strict: a known field of the wrong JSON kind, or a non-empty CSV cell
/// that does not fully parse for its column, throws std::invalid_argument
/// naming it.
///
/// Only deterministic metrics enter the aggregates; host-time fields
/// (wall_ms, the sched_cost timings) are reported per scenario but never
/// aggregated, so aggregate blocks are bit-identical across thread counts
/// and machines.

#include <map>
#include <string>
#include <vector>

#include "runner/campaign.hpp"

namespace drhw {

/// Summary of one metric's distribution over a scenario group.
struct MetricSummary {
  std::size_t count = 0;
  double mean = 0.0;
  double stddev = 0.0;
  double min = 0.0;
  double max = 0.0;
  double p50 = 0.0;
  double p95 = 0.0;
};

bool operator==(const MetricSummary& a, const MetricSummary& b);

/// Aggregated statistics for one family (or the whole campaign).
struct GroupSummary {
  std::string family;  ///< empty for the whole-campaign summary
  std::size_t scenarios = 0;
  std::size_t failed = 0;
  /// metric name -> distribution over the group's deterministic_metrics().
  std::map<std::string, MetricSummary> metrics;
};

/// Folds ScenarioResults into group summaries keyed by scenario family.
class StatsAggregator {
 public:
  void add(const ScenarioResult& result);
  void add(const std::vector<ScenarioResult>& results);

  /// Per-family summaries, ordered by family name.
  std::vector<GroupSummary> by_family() const;
  /// One summary over every aggregated scenario.
  GroupSummary overall() const;

 private:
  struct Group {
    std::size_t scenarios = 0;
    std::size_t failed = 0;
    /// metric name -> samples, in insertion order.
    std::map<std::string, std::vector<double>> samples;
  };
  Group total_;
  std::map<std::string, Group> groups_;
};

/// The deterministic metric samples extracted from one result (the values
/// the aggregator folds). Exposed so tests and writers agree on one list.
std::map<std::string, double> deterministic_metrics(
    const ScenarioResult& result);

// --- serialisation ---------------------------------------------------------

/// Whole campaign as JSON: schema tag, one object per scenario (descriptor
/// + metrics), per-family aggregate blocks and the overall block. Doubles
/// are printed with round-trip precision.
std::string campaign_to_json(const std::vector<ScenarioResult>& results,
                             const StatsAggregator& aggregator);

/// Per-scenario CSV: descriptor columns, then metric columns (wall_ms last).
std::string campaign_to_csv(const std::vector<ScenarioResult>& results);

/// One report row: what both readers return and both writers serialise.
struct ParsedScenario {
  std::string name;
  std::string family;
  std::string workload;
  /// WorkloadKind::file scenarios only: the .dwl path (empty otherwise and
  /// in reports written before the workload-file column existed).
  std::string workload_file;
  std::string mode;
  /// The prefetch policy's registered name (the field keeps its historic
  /// "approach" spelling in both report formats).
  std::string approach;
  /// The policy's parameters, exactly as in the scenario's PolicySpec.
  /// JSON: a "policy_params" object; CSV: one ';'-joined "k=v" cell.
  std::map<std::string, std::string> policy_params;
  std::string replacement;
  int tiles = 0;
  long long reconfig_latency_us = 0;
  int ports = 0;
  int isps = 0;
  std::uint64_t seed = 0;
  int iterations = 0;
  /// Online rows only, arrival_kind through port_util_per_port (empty / 0
  /// otherwise, and in reports written before a field existed).
  std::string arrival_kind;
  double arrival_rate_per_s = 0.0;
  std::string port_discipline;
  std::string admission_policy;
  bool contiguous = false;
  bool defrag = false;
  double scheduler_cost_us = 0.0;
  bool shared_isps = false;
  std::string isp_discipline;
  /// Real-time task model.
  double deadline_scale = 0.0;
  double high_crit_fraction = 0.0;
  bool preempt = false;
  /// Event-queue backend (the default backend is "calendar").
  std::string queue_backend;
  /// Per-port utilisation vector. JSON: a "port_util_per_port_pct" array;
  /// CSV: one ';'-joined cell, so the row stays fixed-width.
  std::vector<double> port_util_per_port;
  bool ok = false;
  std::string error;
  /// metric name -> value (a non-finite value is written as JSON null / an
  /// empty CSV cell and reads back as missing).
  std::map<std::string, double> metrics;
};

/// A result's report row (online-only fields stay default on other rows).
ParsedScenario scenario_row(const ScenarioResult& result);

/// The descriptor keys (in table order) on which two rows differ, plus
/// "metrics" when their metric maps differ; empty when the rows are equal.
std::vector<std::string> scenario_row_differences(const ParsedScenario& a,
                                                  const ParsedScenario& b);

struct ParsedCampaign {
  std::string schema;
  std::vector<ParsedScenario> scenarios;
  std::vector<GroupSummary> families;
  GroupSummary overall;
};

/// Parses campaign_to_json() output. Throws std::invalid_argument on
/// malformed input.
ParsedCampaign campaign_from_json(const std::string& json);

/// Parses campaign_to_csv() output (scenario rows only).
std::vector<ParsedScenario> campaign_from_csv(const std::string& csv);

}  // namespace drhw
