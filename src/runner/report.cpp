#include "runner/report.hpp"

#include <algorithm>
#include <charconv>
#include <functional>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <type_traits>

#include "util/json.hpp"
#include "util/numfmt.hpp"
#include "util/stats.hpp"

namespace drhw {

namespace {

// --- the field tables ------------------------------------------------------

enum FieldFlags : unsigned {
  k_optional = 0,
  k_required = 1,     ///< readers throw when the key / column is absent
  k_online_only = 2,  ///< other rows: no JSON key, an empty CSV cell
  k_omit_empty = 4,   ///< JSON omits the key when the value is empty
};

/// A descriptor field that is also the key of every aggregate block.
constexpr const char* k_family = "family";

/// The scenario descriptor in report order (JSON keys and CSV columns).
template <typename Visit>
void visit_descriptor_fields(Visit&& visit) {
  using S = ParsedScenario;
  visit("name", &S::name, k_required);
  visit(k_family, &S::family, k_required);
  visit("workload", &S::workload, k_required);
  visit("workload_file", &S::workload_file, k_omit_empty);
  visit("mode", &S::mode, k_required);
  visit("approach", &S::approach, k_required);
  visit("policy_params", &S::policy_params, k_optional);
  visit("replacement", &S::replacement, k_required);
  visit("tiles", &S::tiles, k_required);
  visit("reconfig_latency_us", &S::reconfig_latency_us, k_required);
  visit("ports", &S::ports, k_required);
  visit("isps", &S::isps, k_optional);
  visit("seed", &S::seed, k_required);
  visit("iterations", &S::iterations, k_required);
  visit("arrival_kind", &S::arrival_kind, k_online_only);
  visit("arrival_rate_per_s", &S::arrival_rate_per_s, k_online_only);
  visit("port_discipline", &S::port_discipline, k_online_only);
  visit("admission_policy", &S::admission_policy, k_online_only);
  visit("contiguous", &S::contiguous, k_online_only);
  visit("defrag", &S::defrag, k_online_only);
  visit("scheduler_cost_us", &S::scheduler_cost_us, k_online_only);
  visit("shared_isps", &S::shared_isps, k_online_only);
  visit("isp_discipline", &S::isp_discipline, k_online_only);
  visit("deadline_scale", &S::deadline_scale, k_online_only);
  visit("high_crit_fraction", &S::high_crit_fraction, k_online_only);
  visit("preempt", &S::preempt, k_online_only);
  visit("queue_backend", &S::queue_backend, k_online_only);
  visit("port_util_per_port_pct", &S::port_util_per_port, k_online_only);
  visit("ok", &S::ok, k_required);
  visit("error", &S::error, k_required);
}

/// Which results report a metric. Only the first two are deterministic
/// and aggregated; the host-time classes are reported, never aggregated.
enum MetricClass {
  k_simulated,   ///< ok simulate and online rows
  k_online,      ///< ok online rows
  k_sched_cost,  ///< ok sched_cost rows (host time)
  k_host,        ///< every row (host time)
};

struct Metric {
  const char* name;
  MetricClass kind;
  double (*get)(const ScenarioResult&);
};

using R = ScenarioResult;

template <auto Member>
double field(const R& r) {
  return static_cast<double>(r.*Member);
}

/// A SimReport field, divided by Scale (1000: microseconds to ms).
template <auto Member, int Scale = 1>
double sim(const R& r) {
  return static_cast<double>(r.report.*Member) / Scale;
}

/// Every campaign metric, in CSV column order (wall_ms last).
constexpr Metric k_metrics[] = {
    {"makespan_ms", k_simulated, sim<&SimReport::total_actual, 1000>},
    {"overhead_pct", k_simulated, sim<&SimReport::overhead_pct>},
    {"reuse_pct", k_simulated, sim<&SimReport::reuse_pct>},
    {"reuse_hits", k_simulated, sim<&SimReport::reused_subtasks>},
    {"loads", k_simulated, sim<&SimReport::loads>},
    {"energy", k_simulated, sim<&SimReport::energy>},
    {"energy_saved", k_simulated, sim<&SimReport::energy_saved>},
    {"response_ms", k_online, field<&R::mean_response_ms>},
    {"response_max_ms", k_online, field<&R::max_response_ms>},
    {"response_p50_ms", k_online, field<&R::response_p50_ms>},
    {"response_p95_ms", k_online, field<&R::response_p95_ms>},
    {"response_p99_ms", k_online, field<&R::response_p99_ms>},
    {"queueing_ms", k_online, field<&R::mean_queueing_ms>},
    {"queueing_max_ms", k_online, field<&R::max_queueing_ms>},
    {"port_util_pct", k_online, field<&R::port_utilisation_pct>},
    {"isp_util_pct", k_online, field<&R::isp_utilisation_pct>},
    {"peak_concurrent_migrations", k_online,
     field<&R::peak_concurrent_migrations>},
    {"horizon_ms", k_online, field<&R::horizon_ms>},
    {"frag_pct", k_online, field<&R::frag_pct>},
    {"queue_skips", k_online, field<&R::queue_skips>},
    {"defrag_moves", k_online, field<&R::defrag_moves>},
    // Kernel perf counters: deterministic under the default queue backend
    // (every campaign scenario uses it). The phase timers never enter
    // reports.
    {"perf_events", k_online, field<&R::perf_events_total>},
    {"perf_queue_depth_max", k_online, field<&R::perf_queue_depth_max>},
    {"perf_steady_allocs", k_online, field<&R::perf_steady_allocs>},
    // Real-time outcome: all zero when the scenario runs without deadlines.
    {"deadline_jobs", k_online, field<&R::deadline_jobs>},
    {"deadline_misses", k_online, field<&R::deadline_misses>},
    {"deadline_miss_pct", k_online, field<&R::deadline_miss_pct>},
    {"high_crit_miss_pct", k_online, field<&R::high_crit_miss_pct>},
    {"mean_lateness_ms", k_online, field<&R::mean_lateness_ms>},
    {"max_tardiness_ms", k_online, field<&R::max_tardiness_ms>},
    {"preemptions", k_online, field<&R::preemptions>},
    {"list_sched_us", k_sched_cost, field<&R::list_sched_us>},
    {"hybrid_sched_us", k_sched_cost, field<&R::hybrid_sched_us>},
    {"wall_ms", k_host, field<&R::wall_ms>},
};

bool reports(MetricClass kind, const ScenarioResult& result) {
  const ScenarioMode mode = result.scenario.mode;
  if (kind == k_host) return true;
  if (!result.ok) return false;
  if (kind == k_simulated) return mode != ScenarioMode::sched_cost;
  return mode == (kind == k_online ? ScenarioMode::online
                                   : ScenarioMode::sched_cost);
}

/// MetricSummary's fields in serialisation order.
template <typename Visit>
void visit_summary_fields(Visit&& visit) {
  visit("count", &MetricSummary::count);
  visit("mean", &MetricSummary::mean);
  visit("stddev", &MetricSummary::stddev);
  visit("min", &MetricSummary::min);
  visit("max", &MetricSummary::max);
  visit("p50", &MetricSummary::p50);
  visit("p95", &MetricSummary::p95);
}

/// Whether the writers emit a field for this row.
bool carries(const ParsedScenario& row, unsigned flags) {
  return !(flags & k_online_only) ||
         row.mode == to_string(ScenarioMode::online);
}

// --- values ----------------------------------------------------------------

std::string csv_escape(const std::string& text) {
  if (text.find_first_of(",\"\n") == std::string::npos) return text;
  std::string out = "\"";
  for (char c : text) {
    if (c == '"') out += '"';
    out += c;
  }
  out += '"';
  return out;
}

/// Policy parameter keys and values are arbitrary strings, so the cell's
/// ';' / '=' joiners and the escape itself are backslash-escaped, keeping
/// the cell as lossless as the JSON object.
std::string escape_param_text(const std::string& text) {
  std::string out;
  for (char c : text) {
    if (c == '\\' || c == ';' || c == '=') out += '\\';
    out += c;
  }
  return out;
}

/// A value as JSON text, or (Csv) as one CSV cell: non-finite doubles are
/// null / an empty cell, and vectors and policy parameters become one
/// ';'-joined cell so every row has the header's width.
template <bool Csv, typename T>
std::string to_text(const T& value) {
  if constexpr (std::is_same_v<T, bool>) {
    return Csv ? (value ? "1" : "0") : (value ? "true" : "false");
  } else if constexpr (std::is_floating_point_v<T>) {
    char buffer[64];
    return fmt_shortest_double(value, buffer) ? buffer : Csv ? "" : "null";
  } else if constexpr (std::is_arithmetic_v<T>) {
    return std::to_string(value);
  } else if constexpr (std::is_same_v<T, std::string>) {
    return Csv ? csv_escape(value) : '"' + json_escape(value) + '"';
  } else {  // a vector, or a map (policy parameters, metrics)
    constexpr bool is_map = !std::is_same_v<T, std::vector<double>>;
    std::string out;
    for (const auto& item : value) {
      if (&item != &*value.begin()) out += Csv ? ";" : ", ";
      if constexpr (!is_map)
        out += to_text<Csv>(item);
      else if constexpr (Csv)
        out += escape_param_text(item.first) + "=" +
               escape_param_text(item.second);
      else
        out += to_text<Csv>(item.first) + ": " + to_text<Csv>(item.second);
    }
    if constexpr (Csv) return is_map ? csv_escape(out) : out;
    return is_map ? '{' + out + '}' : '[' + out + ']';
  }
}

/// Parses all of `text` as a T: no whitespace, no leftovers, in range.
template <typename T>
bool parse_number(const std::string& text, T& out) {
  const char* end = text.data() + text.size();
  const auto [stop, error] = std::from_chars(text.data(), end, out);
  return error == std::errc() && stop == end;
}

[[noreturn]] void bad_json(const std::string& key, const char* problem) {
  throw std::invalid_argument("campaign JSON: '" + key + "' " + problem);
}

const json::Value& require(const json::Value& value, json::Value::Kind kind,
                           const std::string& key) {
  if (value.kind != kind) bad_json(key, "has the wrong type");
  return value;
}

constexpr double k_nan = std::numeric_limits<double>::quiet_NaN();

template <typename T>
void read_json(const json::Value& value, const std::string& key, T& out) {
  using Kind = json::Value::Kind;
  if constexpr (std::is_same_v<T, bool>) {
    out = require(value, Kind::boolean, key).boolean;
  } else if constexpr (std::is_arithmetic_v<T>) {
    if (std::is_floating_point_v<T> && value.kind == Kind::null)
      out = static_cast<T>(k_nan);  // null = non-finite
    else if (!parse_number(require(value, Kind::number, key).text, out))
      bad_json(key, "does not fit its type");
  } else if constexpr (std::is_same_v<T, std::string>) {
    out = require(value, Kind::string, key).text;
  } else if constexpr (std::is_same_v<T, std::vector<double>>) {
    for (const json::Value& item : require(value, Kind::array, key).items)
      read_json(item, key, out.emplace_back());
  } else {  // PolicyParams, metrics (where null = non-finite: missing)
    for (const auto& [name, item] : require(value, Kind::object, key).members)
      if (!std::is_floating_point_v<typename T::mapped_type> ||
          item.kind != Kind::null)
        read_json(item, key + "." + name, out[name]);
  }
}

/// Reads one non-empty CSV cell; false when it does not parse completely.
template <typename T>
bool read_csv(const std::string& cell, T& out) {
  if constexpr (std::is_same_v<T, bool>) {
    out = cell == "1";
    return out || cell == "0";
  } else if constexpr (std::is_arithmetic_v<T>) {
    return parse_number(cell, out);
  } else if constexpr (std::is_same_v<T, std::string>) {
    out = cell;
  } else if constexpr (std::is_same_v<T, std::vector<double>>) {
    std::istringstream parts(cell + ';');
    for (std::string part; std::getline(parts, part, ';');) {
      double& element = out.emplace_back(k_nan);  // empty = non-finite
      if (!part.empty() && !parse_number(part, element)) return false;
    }
  } else {  // PolicyParams: split on unescaped ';' / first unescaped '='
    std::string key, text;
    bool in_value = false, escaped = false;
    for (char c : cell + ';') {
      if (!escaped && c == '\\') {
        escaped = true;
        continue;
      }
      if (!escaped && c == ';') {
        if (!key.empty()) out[key] = text;
        key.clear();
        text.clear();
        in_value = false;
      } else if (!escaped && c == '=' && !in_value) {
        in_value = true;
      } else {
        (in_value ? text : key) += c;
      }
      escaped = false;
    }
    return key.empty();  // else a trailing '\\' escaped the final ';'
  }
  return true;
}

/// Splits one CSV line; a quoted cell may hold ',' and doubled '"'.
std::vector<std::string> split_csv_line(const std::string& line) {
  std::vector<std::string> cells(1);
  bool quoted = false;
  for (std::size_t i = 0; i < line.size(); ++i) {
    if (quoted && line[i] == '"' && i + 1 < line.size() && line[i + 1] == '"')
      cells.back() += line[++i];
    else if (line[i] == '"')
      quoted = !quoted;
    else if (line[i] == ',' && !quoted)
      cells.emplace_back();
    else
      cells.back() += line[i];
  }
  return cells;
}

}  // namespace

// --- rows, metrics and aggregation -----------------------------------------

bool operator==(const MetricSummary& a, const MetricSummary& b) {
  bool equal = true;
  visit_summary_fields([&](const char*, auto member) {
    equal = equal && a.*member == b.*member;
  });
  return equal;
}

std::map<std::string, double> deterministic_metrics(
    const ScenarioResult& result) {
  std::map<std::string, double> metrics;
  for (const Metric& metric : k_metrics)
    if (metric.kind <= k_online && reports(metric.kind, result))
      metrics[metric.name] = metric.get(result);
  return metrics;
}

ParsedScenario scenario_row(const ScenarioResult& result) {
  const Scenario& s = result.scenario;
  ParsedScenario row;
  row.name = s.name;
  row.family = s.family;
  row.workload = to_string(s.workload);
  row.workload_file = s.workload_file;
  row.mode = to_string(s.mode);
  row.approach = s.sim.policy.name;
  row.policy_params = s.sim.policy.params;
  row.replacement = to_string(s.sim.replacement);
  row.tiles = s.sim.platform.tiles;
  row.reconfig_latency_us = s.sim.platform.reconfig_latency;
  row.ports = s.sim.platform.reconfig_ports;
  row.isps = s.sim.platform.isps;
  row.seed = s.sim.seed;
  row.iterations = s.sim.iterations;
  if (s.mode == ScenarioMode::online) {
    row.arrival_kind = to_string(s.arrivals.kind);
    row.arrival_rate_per_s = s.arrivals.rate_per_s;
    row.port_discipline = to_string(s.port_discipline);
    row.admission_policy = to_string(s.pool.admission);
    row.contiguous = s.pool.contiguous;
    row.defrag = s.pool.defrag;
    row.scheduler_cost_us = static_cast<double>(s.scheduler_cost);
    row.shared_isps = s.shared_isps;
    row.isp_discipline = to_string(s.isp_discipline);
    row.deadline_scale = s.deadline_scale;
    row.high_crit_fraction = s.high_crit_fraction;
    row.preempt = s.preempt;
    row.queue_backend = to_string(s.queue_backend);
    row.port_util_per_port = result.port_utilisation_per_port_pct;
  }
  row.ok = result.ok;
  row.error = result.error;
  for (const Metric& metric : k_metrics)
    if (reports(metric.kind, result))
      row.metrics[metric.name] = metric.get(result);
  return row;
}

std::vector<std::string> scenario_row_differences(const ParsedScenario& a,
                                                   const ParsedScenario& b) {
  std::vector<std::string> out;
  visit_descriptor_fields([&](const char* key, auto member, unsigned) {
    if (!(a.*member == b.*member)) out.emplace_back(key);
  });
  if (a.metrics != b.metrics) out.emplace_back("metrics");
  return out;
}

void StatsAggregator::add(const ScenarioResult& result) {
  for (Group* group : {&total_, &groups_[result.scenario.family]}) {
    ++group->scenarios;
    if (!result.ok) ++group->failed;
    for (const auto& [name, value] : deterministic_metrics(result))
      group->samples[name].push_back(value);
  }
}

void StatsAggregator::add(const std::vector<ScenarioResult>& results) {
  for (const ScenarioResult& result : results) add(result);
}

namespace {

GroupSummary summarize_group(const std::string& family, std::size_t scenarios,
                             std::size_t failed,
                             const std::map<std::string, std::vector<double>>&
                                 samples) {
  GroupSummary summary;
  summary.family = family;
  summary.scenarios = scenarios;
  summary.failed = failed;
  for (const auto& [name, values] : samples) {
    RunningStats stats;
    for (double v : values) stats.add(v);
    MetricSummary m;
    m.count = stats.count();
    m.mean = stats.mean();
    m.stddev = stats.stddev();
    m.min = stats.min();
    m.max = stats.max();
    m.p50 = stats.percentile(50);
    m.p95 = stats.percentile(95);
    summary.metrics[name] = m;
  }
  return summary;
}

}  // namespace

std::vector<GroupSummary> StatsAggregator::by_family() const {
  std::vector<GroupSummary> out;
  for (const auto& [family, group] : groups_)
    out.push_back(summarize_group(family, group.scenarios, group.failed,
                                  group.samples));
  return out;
}

GroupSummary StatsAggregator::overall() const {
  return summarize_group("", total_.scenarios, total_.failed, total_.samples);
}

// --- JSON ------------------------------------------------------------------

namespace {

void write_summary_json(std::ostream& os, const GroupSummary& summary,
                        int indent) {
  const std::string pad(static_cast<std::size_t>(indent), ' ');
  os << "{\n"
     << pad << "  \"" << k_family << "\": \"" << json_escape(summary.family)
     << "\",\n"
     << pad << "  \"scenarios\": " << summary.scenarios << ",\n"
     << pad << "  \"failed\": " << summary.failed << ",\n"
     << pad << "  \"metrics\": {";
  const char* separator = "\n";
  for (const auto& [name, m] : summary.metrics) {
    os << separator << pad << "    \"" << name << "\": {";
    separator = ",\n";
    const char* comma = "";
    visit_summary_fields([&](const char* key, auto member) {
      os << comma << '"' << key << "\": " << to_text<false>(m.*member);
      comma = ", ";
    });
    os << '}';
  }
  os << "\n" << pad << "  }\n" << pad << "}";
}

GroupSummary parse_group_summary(const json::Value& v) {
  GroupSummary summary;
  read_json(v.at(k_family), k_family, summary.family);
  read_json(v.at("scenarios"), "scenarios", summary.scenarios);
  read_json(v.at("failed"), "failed", summary.failed);
  for (const auto& entry :
       require(v.at("metrics"), json::Value::Kind::object, "metrics").members)
    visit_summary_fields([&](const char* key, auto member) {
      read_json(entry.second.at(key), entry.first + "." + key,
                summary.metrics[entry.first].*member);
    });
  return summary;
}

}  // namespace

std::string campaign_to_json(const std::vector<ScenarioResult>& results,
                             const StatsAggregator& aggregator) {
  std::ostringstream os;
  os << "{\n  \"schema\": \"drhw-campaign-v1\",\n  \"scenarios\": [";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const ParsedScenario row = scenario_row(results[i]);
    os << (i == 0 ? "" : ",") << "\n    {\n";
    visit_descriptor_fields([&](const char* key, auto member, unsigned flags) {
      const auto& value = row.*member;
      if (!carries(row, flags) ||
          ((flags & k_omit_empty) && value == std::decay_t<decltype(value)>{}))
        return;
      os << "      \"" << key << "\": " << to_text<false>(value) << ",\n";
    });
    os << "      \"metrics\": " << to_text<false>(row.metrics) << "\n    }";
  }
  os << "\n  ],\n  \"families\": [";
  const auto families = aggregator.by_family();
  for (std::size_t i = 0; i < families.size(); ++i) {
    os << (i == 0 ? "" : ",") << "\n    ";
    write_summary_json(os, families[i], 4);
  }
  os << "\n  ],\n  \"overall\": ";
  write_summary_json(os, aggregator.overall(), 2);
  os << "\n}\n";
  return os.str();
}

ParsedCampaign campaign_from_json(const std::string& json) {
  using Kind = json::Value::Kind;
  const auto root = json::parse(json, "campaign JSON");
  ParsedCampaign campaign;
  read_json(root.at("schema"), "schema", campaign.schema);
  if (campaign.schema != "drhw-campaign-v1")
    throw std::invalid_argument("unknown campaign schema '" +
                                campaign.schema + "'");
  for (const auto& item :
       require(root.at("scenarios"), Kind::array, "scenarios").items) {
    ParsedScenario& row = campaign.scenarios.emplace_back();
    visit_descriptor_fields([&](const char* key, auto member, unsigned flags) {
      if (const json::Value* value =
              (flags & k_required) ? &item.at(key) : item.find(key))
        read_json(*value, key, row.*member);
    });
    read_json(item.at("metrics"), "metrics", row.metrics);
  }
  for (const auto& item :
       require(root.at("families"), Kind::array, "families").items)
    campaign.families.push_back(parse_group_summary(item));
  campaign.overall = parse_group_summary(root.at("overall"));
  return campaign;
}

// --- CSV -------------------------------------------------------------------

std::string campaign_to_csv(const std::vector<ScenarioResult>& results) {
  // Every descriptor cell ends in ',': the metric columns follow.
  std::ostringstream os;
  visit_descriptor_fields(
      [&](const char* key, auto, unsigned) { os << key << ','; });
  for (const Metric& metric : k_metrics)
    os << (&metric == k_metrics ? "" : ",") << metric.name;
  os << '\n';
  for (const ScenarioResult& result : results) {
    const ParsedScenario row = scenario_row(result);
    visit_descriptor_fields([&](const char*, auto member, unsigned flags) {
      os << (carries(row, flags) ? to_text<true>(row.*member) : "") << ',';
    });
    for (const Metric& metric : k_metrics) {
      const auto it = row.metrics.find(metric.name);
      os << (&metric == k_metrics ? "" : ",")
         << (it == row.metrics.end() ? "" : to_text<true>(it->second));
    }
    os << '\n';
  }
  return os.str();
}

std::vector<ParsedScenario> campaign_from_csv(const std::string& csv) {
  std::istringstream is(csv);
  std::string line;
  if (!std::getline(is, line))
    throw std::invalid_argument("campaign CSV: empty input");
  const std::vector<std::string> header = split_csv_line(line);
  // One reader per column: its descriptor field's, else a metric's, so
  // newer reports keep their extra columns.
  using Reader = std::function<bool(ParsedScenario&, const std::string&)>;
  std::vector<Reader> readers;
  for (const std::string& name : header)
    readers.emplace_back([name](auto& row, const auto& cell) {
      return read_csv(cell, row.metrics[name]);
    });
  visit_descriptor_fields([&](const char* key, auto member, unsigned flags) {
    const auto it = std::find(header.begin(), header.end(), key);
    if (it != header.end())
      readers[it - header.begin()] = [member](auto& row, const auto& cell) {
        return read_csv(cell, row.*member);
      };
    else if (flags & k_required)
      throw std::invalid_argument(std::string("campaign CSV: no column '") +
                                  key + "'");
  });

  std::vector<ParsedScenario> out;
  for (std::size_t number = 2; std::getline(is, line); ++number) {
    if (line.empty()) continue;
    const std::vector<std::string> cells = split_csv_line(line);
    const std::string where = "campaign CSV line " + std::to_string(number);
    if (cells.size() != header.size())
      throw std::invalid_argument(where + ": row width mismatch");
    ParsedScenario& row = out.emplace_back();
    for (std::size_t column = 0; column < header.size(); ++column)
      if (!cells[column].empty() && !readers[column](row, cells[column]))
        throw std::invalid_argument(where + ", column '" + header[column] +
                                    "': cannot parse '" + cells[column] + "'");
  }
  return out;
}

}  // namespace drhw
