/// \file report_json.cpp
/// The one field list of OnlineReport and the three things it drives: the
/// JSON writer and reader of the trace footer, and the field-by-field
/// comparison behind verify_trace(). Every field except `perf` (wall-clock
/// phase timers — not simulation state) is listed once; the walkers below
/// dispatch on the member's type. Doubles go through the shortest-exact
/// formatter, so a written report parses back bit-identical and the
/// comparison can be bitwise.

#include <cstring>
#include <sstream>
#include <stdexcept>
#include <type_traits>

#include "trace/trace_detail.hpp"
#include "util/json.hpp"
#include "util/numfmt.hpp"

namespace drhw {

namespace {

/// SimReport's fields in serialisation order (the footer's "sim" object).
template <typename Visit>
void visit_sim_fields(Visit&& visit) {
  visit("total_ideal", &SimReport::total_ideal);
  visit("total_actual", &SimReport::total_actual);
  visit("overhead_pct", &SimReport::overhead_pct);
  visit("instances", &SimReport::instances);
  visit("drhw_subtask_instances", &SimReport::drhw_subtask_instances);
  visit("reused_subtasks", &SimReport::reused_subtasks);
  visit("reuse_pct", &SimReport::reuse_pct);
  visit("loads", &SimReport::loads);
  visit("init_loads", &SimReport::init_loads);
  visit("cancelled_loads", &SimReport::cancelled_loads);
  visit("intertask_prefetches", &SimReport::intertask_prefetches);
  visit("energy", &SimReport::energy);
  visit("energy_saved", &SimReport::energy_saved);
  visit("spans", &SimReport::spans);
}

/// OnlineReport's own fields, after "sim", in serialisation order.
template <typename Visit>
void visit_online_fields(Visit&& visit) {
  visit("horizon", &OnlineReport::horizon);
  visit("mean_response_ms", &OnlineReport::mean_response_ms);
  visit("max_response_ms", &OnlineReport::max_response_ms);
  visit("mean_queueing_ms", &OnlineReport::mean_queueing_ms);
  visit("max_queueing_ms", &OnlineReport::max_queueing_ms);
  visit("port_utilisation_pct", &OnlineReport::port_utilisation_pct);
  visit("port_utilisation_per_port_pct",
        &OnlineReport::port_utilisation_per_port_pct);
  visit("isp_utilisation_pct", &OnlineReport::isp_utilisation_pct);
  visit("peak_concurrent_migrations",
        &OnlineReport::peak_concurrent_migrations);
  visit("response_p50_ms", &OnlineReport::response_p50_ms);
  visit("response_p95_ms", &OnlineReport::response_p95_ms);
  visit("response_p99_ms", &OnlineReport::response_p99_ms);
  visit("mean_frag_pct", &OnlineReport::mean_frag_pct);
  visit("queue_skips", &OnlineReport::queue_skips);
  visit("defrag_moves", &OnlineReport::defrag_moves);
  visit("deadline_jobs", &OnlineReport::deadline_jobs);
  visit("deadline_misses", &OnlineReport::deadline_misses);
  visit("high_crit_jobs", &OnlineReport::high_crit_jobs);
  visit("high_crit_misses", &OnlineReport::high_crit_misses);
  visit("deadline_miss_pct", &OnlineReport::deadline_miss_pct);
  visit("high_crit_miss_pct", &OnlineReport::high_crit_miss_pct);
  visit("mean_lateness_ms", &OnlineReport::mean_lateness_ms);
  visit("max_tardiness_ms", &OnlineReport::max_tardiness_ms);
  visit("preemptions", &OnlineReport::preemptions);
  visit("spans", &OnlineReport::spans);
}

template <typename T>
void write_value(std::ostringstream& out, const T& value) {
  if constexpr (std::is_floating_point_v<T>) {
    out << fmt_json_double(value);
  } else if constexpr (std::is_arithmetic_v<T>) {
    out << value;
  } else {
    out << '[';
    for (std::size_t i = 0; i < value.size(); ++i) {
      if (i > 0) out << ',';
      write_value(out, value[i]);
    }
    out << ']';
  }
}

template <typename T>
void read_value(const json::Value& value, T& out) {
  if constexpr (std::is_arithmetic_v<T>) {
    if (value.kind == json::Value::Kind::number)
      out = static_cast<T>(value.number);
  } else {
    for (const json::Value& item : value.items)
      out.push_back(static_cast<typename T::value_type>(item.number));
  }
}

/// Doubles compare bitwise: replay must reproduce the exact bits.
template <typename T>
bool same(const T& a, const T& b) {
  if constexpr (std::is_floating_point_v<T>)
    return std::memcmp(&a, &b, sizeof(T)) == 0;
  else
    return a == b;
}

/// Appends one line per mismatch; vectors compare size, then elements.
template <typename T>
void compare(std::vector<std::string>& out, const std::string& field,
             const T& live, const T& replay) {
  if constexpr (std::is_arithmetic_v<T>) {
    if (same(live, replay)) return;
    std::ostringstream msg;
    msg.precision(17);
    msg << field << ": live=" << live << " replay=" << replay;
    if constexpr (std::is_floating_point_v<T>) msg << " (bitwise compare)";
    out.push_back(msg.str());
  } else {
    compare(out, field + ".size", live.size(), replay.size());
    if (live.size() != replay.size()) return;
    for (std::size_t i = 0; i < live.size(); ++i)
      if (!same(live[i], replay[i]))
        compare(out, field + "[" + std::to_string(i) + "]", live[i],
                replay[i]);
  }
}

}  // namespace

std::string online_report_to_json(const OnlineReport& report) {
  std::ostringstream out;
  const char* separator = "";
  const auto writer = [&](const auto& object) {
    return [&out, &separator, &object](const char* key, auto member) {
      out << separator << '"' << key << "\":";
      separator = ",";
      write_value(out, object.*member);
    };
  };
  out << "{\"sim\":{";
  visit_sim_fields(writer(report.sim));
  out << '}';
  visit_online_fields(writer(report));
  out << '}';
  return out.str();
}

OnlineReport online_report_from_json(const std::string& text) {
  const json::Value root = json::parse(text, "trace report");
  if (root.kind != json::Value::Kind::object)
    throw std::invalid_argument("trace report: expected a JSON object");
  OnlineReport report;
  const auto reader = [](const json::Value& from, auto& object) {
    return [&from, &object](const char* key, auto member) {
      if (const json::Value* value = from.find(key))
        read_value(*value, object.*member);
    };
  };
  if (const json::Value* sim = root.find("sim"))
    visit_sim_fields(reader(*sim, report.sim));
  visit_online_fields(reader(root, report));
  return report;
}

namespace trace_detail {

std::vector<std::string> report_mismatches(const OnlineReport& live,
                                           const OnlineReport& replay) {
  std::vector<std::string> out;
  const auto comparer = [&out](const char* prefix, const auto& a,
                               const auto& b) {
    return [&out, prefix, &a, &b](const char* key, auto member) {
      compare(out, prefix + std::string(key), a.*member, b.*member);
    };
  };
  visit_sim_fields(comparer("sim.", live.sim, replay.sim));
  visit_online_fields(comparer("", live, replay));
  return out;
}

}  // namespace trace_detail
}  // namespace drhw
