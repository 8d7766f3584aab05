#include "sim/gantt.hpp"

#include <algorithm>
#include <sstream>

#include "util/check.hpp"
#include "util/table.hpp"

namespace drhw {

void gantt_draw_box(std::string& row, int a, int b, const std::string& label,
                    char fill) {
  if (b <= a) b = a + 1;
  for (int i = a; i < b && i < static_cast<int>(row.size()); ++i)
    row[static_cast<std::size_t>(i)] = fill;
  // Overlay as much of the label as fits (leave the box edges as fill).
  const int space = b - a;
  const int len = std::min<int>(static_cast<int>(label.size()), space);
  const int at = a + std::max(0, (space - len) / 2);
  for (int i = 0; i < len && at + i < static_cast<int>(row.size()); ++i)
    row[static_cast<std::size_t>(at + i)] = label[static_cast<std::size_t>(i)];
}

std::string render_gantt(const SubtaskGraph& graph, const Placement& placement,
                         const EvalResult& eval, const GanttOptions& options) {
  const time_us total = options.init_duration + eval.makespan;
  DRHW_CHECK(total > 0);
  const int width = std::max(options.width, 10);
  auto x = [&](time_us t) {
    return static_cast<int>((t * width) / total);
  };

  std::ostringstream out;
  const std::string empty(static_cast<std::size_t>(width) + 1, ' ');

  // Port row: init loads, then scheduled loads shifted by init_duration.
  std::string port = empty;
  const time_us latency =
      options.init_loads.empty()
          ? 0
          : options.init_duration /
                static_cast<time_us>(options.init_loads.size());
  for (std::size_t i = 0; i < options.init_loads.size(); ++i) {
    const time_us a = static_cast<time_us>(i) * latency;
    gantt_draw_box(port, x(a), x(a + latency),
             "I" + std::to_string(options.init_loads[i]), '#');
  }
  for (std::size_t s = 0; s < graph.size(); ++s) {
    if (eval.load_start[s] == k_no_time) continue;
    gantt_draw_box(port, x(options.init_duration + eval.load_start[s]),
             x(options.init_duration + eval.load_end[s]),
             "L" + std::to_string(s), '#');
  }
  out << "  port  |" << port << "|\n";
  // Unit rows follow with their labels padded to match "port ".

  auto draw_unit = [&](std::string name, const std::vector<SubtaskId>& seq) {
    std::string row = empty;
    for (SubtaskId s : seq) {
      const auto idx = static_cast<std::size_t>(s);
      gantt_draw_box(row, x(options.init_duration + eval.exec_start[idx]),
               x(options.init_duration + eval.exec_end[idx]),
               graph.subtask(s).name, '=');
    }
    name.resize(5, ' ');  // align with the "port " label
    out << "  " << name << " |" << row << "|\n";
  };

  for (int t = 0; t < placement.tiles_used; ++t)
    draw_unit("tile" + std::to_string(t),
              placement.tile_sequence[static_cast<std::size_t>(t)]);
  for (int i = 0; i < placement.isps_used; ++i)
    draw_unit("isp" + std::to_string(i),
              placement.isp_sequence[static_cast<std::size_t>(i)]);
  out << "  scale: " << fmt_ms(total, 2) << " ms total, '"
      << "#' = load, '=' = execution\n";
  return out.str();
}

}  // namespace drhw
