/// \file render.cpp
/// Timeline (Gantt) rendering of a trace: one lane per reconfiguration
/// port (loads, prefetches, migrations, checkpoints), one per physical
/// tile (executions), one per ISP. The ASCII backend grows the schedule
/// renderer of sim/gantt.cpp (shared gantt_draw_box); the SVG backend
/// emits a standalone document for CI artifacts (`drhw_sched trace
/// render --format svg`).

#include <algorithm>
#include <sstream>

#include "sim/gantt.hpp"
#include "trace/trace.hpp"
#include "util/table.hpp"

namespace drhw {

namespace {

struct Box {
  std::size_t lane = 0;
  time_us start = 0;
  time_us end = 0;
  std::string label;
  char fill = '#';           ///< ASCII fill
  const char* colour = "";   ///< SVG fill
};

struct Lanes {
  std::vector<std::string> names;
  std::vector<Box> boxes;
  time_us from = 0;
  time_us until = 0;
};

std::string job_dot_subtask(const TraceEvent& ev) {
  return std::to_string(ev.job) + "." + std::to_string(ev.subtask);
}

/// Flattens the event stream into labelled boxes on port/tile/ISP lanes.
Lanes collect_lanes(const TraceData& trace, const TraceRenderOptions& options) {
  const TraceHeader& header = trace.header;
  const std::size_t ports =
      static_cast<std::size_t>(std::max(header.reconfig_ports, 1));
  const std::size_t tiles = static_cast<std::size_t>(std::max(header.tiles, 0));
  const std::size_t isps = static_cast<std::size_t>(std::max(header.isps, 1));

  Lanes lanes;
  for (std::size_t p = 0; p < ports; ++p)
    lanes.names.push_back("P" + std::to_string(p));
  for (std::size_t t = 0; t < tiles; ++t)
    lanes.names.push_back("T" + std::to_string(t));
  for (std::size_t i = 0; i < isps; ++i)
    lanes.names.push_back("I" + std::to_string(i));
  const std::size_t tile_base = ports;
  const std::size_t isp_base = ports + tiles;

  time_us horizon = 0;
  for (const TraceEvent& ev : trace.events) {
    Box box;
    box.start = ev.t;
    box.end = ev.t + ev.duration;
    switch (ev.kind) {
      case TraceEvent::Kind::load_start:
        if (ev.unit < 0 || static_cast<std::size_t>(ev.unit) >= ports)
          continue;
        box.lane = static_cast<std::size_t>(ev.unit);
        box.label = "L" + job_dot_subtask(ev);
        box.fill = '#';
        box.colour = "#4e79a7";
        break;
      case TraceEvent::Kind::prefetch_start:
        if (ev.unit < 0 || static_cast<std::size_t>(ev.unit) >= ports)
          continue;
        box.lane = static_cast<std::size_t>(ev.unit);
        box.label = "pf" + std::to_string(ev.config);
        box.fill = 'p';
        box.colour = "#59a14f";
        break;
      case TraceEvent::Kind::migration_start:
        if (ev.unit < 0 || static_cast<std::size_t>(ev.unit) >= ports)
          continue;
        box.lane = static_cast<std::size_t>(ev.unit);
        box.label = "mv" + std::to_string(ev.src) + ">" +
                    std::to_string(ev.dst);
        box.fill = 'm';
        box.colour = "#e15759";
        break;
      case TraceEvent::Kind::checkpoint_start:
        if (ev.unit < 0 || static_cast<std::size_t>(ev.unit) >= ports)
          continue;
        box.lane = static_cast<std::size_t>(ev.unit);
        box.label = "ck" + std::to_string(ev.job);
        box.fill = 'c';
        box.colour = "#f28e2b";
        break;
      case TraceEvent::Kind::exec_start:
        if (ev.aux != 0) {
          if (ev.unit < 0 || static_cast<std::size_t>(ev.unit) >= isps)
            continue;
          box.lane = isp_base + static_cast<std::size_t>(ev.unit);
          box.colour = "#edc948";
        } else {
          if (ev.unit < 0 || static_cast<std::size_t>(ev.unit) >= tiles)
            continue;
          box.lane = tile_base + static_cast<std::size_t>(ev.unit);
          box.colour = "#76b7b2";
        }
        box.label = job_dot_subtask(ev);
        box.fill = '=';
        break;
      case TraceEvent::Kind::run_end:
        horizon = std::max(horizon, ev.t);
        continue;
      default:
        horizon = std::max(horizon, ev.t);
        continue;
    }
    horizon = std::max(horizon, box.end);
    lanes.boxes.push_back(std::move(box));
  }

  lanes.from = std::max<time_us>(options.from, 0);
  lanes.until = options.until == k_no_time ? horizon : options.until;
  if (lanes.until <= lanes.from) lanes.until = lanes.from + 1;
  return lanes;
}

}  // namespace

std::string render_trace_ascii(const TraceData& trace,
                               const TraceRenderOptions& options) {
  const Lanes lanes = collect_lanes(trace, options);
  const int width = std::max(options.width, 10);
  const time_us total = lanes.until - lanes.from;
  auto x = [&](time_us t) {
    const time_us clamped =
        std::min(std::max(t, lanes.from), lanes.until) - lanes.from;
    return static_cast<int>((clamped * width) / total);
  };

  std::vector<std::string> rows(
      lanes.names.size(),
      std::string(static_cast<std::size_t>(width) + 1, ' '));
  for (const Box& box : lanes.boxes) {
    if (box.end <= lanes.from || box.start >= lanes.until) continue;
    gantt_draw_box(rows[box.lane], x(box.start), x(box.end), box.label,
                   box.fill);
  }

  std::ostringstream out;
  out << "trace " << trace.header.policy << " seed " << trace.header.seed
      << " (" << trace.events.size() << " events)\n";
  for (std::size_t lane = 0; lane < rows.size(); ++lane) {
    std::string name = lanes.names[lane];
    name.resize(4, ' ');
    out << "  " << name << " |" << rows[lane] << "|\n";
  }
  out << "  window: " << fmt_ms(lanes.from, 2) << " .. "
      << fmt_ms(lanes.until, 2)
      << " ms; '#' load, 'p' prefetch, 'm' migration, 'c' checkpoint, "
         "'=' execution\n";
  return out.str();
}

std::string render_trace_svg(const TraceData& trace,
                             const TraceRenderOptions& options) {
  const Lanes lanes = collect_lanes(trace, options);
  const int width = std::max(options.width, 100);
  const time_us total = lanes.until - lanes.from;
  const int lane_height = 18;
  const int lane_gap = 4;
  const int left = 56;   // lane-label gutter
  const int top = 28;    // title band
  const int height =
      top + static_cast<int>(lanes.names.size()) * (lane_height + lane_gap) +
      24;
  auto x = [&](time_us t) {
    const time_us clamped =
        std::min(std::max(t, lanes.from), lanes.until) - lanes.from;
    return left + static_cast<int>((clamped * width) / total);
  };
  auto lane_y = [&](std::size_t lane) {
    return top + static_cast<int>(lane) * (lane_height + lane_gap);
  };

  std::ostringstream out;
  out << "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\""
      << (left + width + 16) << "\" height=\"" << height << "\">\n"
      << "<style>text{font:10px monospace;fill:#333}"
         ".lane{fill:#f4f4f4}.box{stroke:#fff;stroke-width:0.5}</style>\n"
      << "<text x=\"4\" y=\"16\">trace " << trace.header.policy << " seed "
      << trace.header.seed << " &#183; " << fmt_ms(lanes.from, 2) << ".."
      << fmt_ms(lanes.until, 2) << " ms</text>\n";
  for (std::size_t lane = 0; lane < lanes.names.size(); ++lane) {
    out << "<rect class=\"lane\" x=\"" << left << "\" y=\"" << lane_y(lane)
        << "\" width=\"" << width << "\" height=\"" << lane_height
        << "\"/>\n"
        << "<text x=\"4\" y=\"" << (lane_y(lane) + 13) << "\">"
        << lanes.names[lane] << "</text>\n";
  }
  for (const Box& box : lanes.boxes) {
    if (box.end <= lanes.from || box.start >= lanes.until) continue;
    const int a = x(box.start);
    const int b = std::max(x(box.end), a + 1);
    const int y = lane_y(box.lane);
    out << "<rect class=\"box\" x=\"" << a << "\" y=\"" << y
        << "\" width=\"" << (b - a) << "\" height=\"" << lane_height
        << "\" fill=\"" << box.colour << "\"><title>" << box.label << " @ "
        << fmt_ms(box.start, 3) << ".." << fmt_ms(box.end, 3)
        << " ms</title></rect>\n";
    if (b - a >= 24)
      out << "<text x=\"" << (a + 2) << "\" y=\"" << (y + 13) << "\">"
          << box.label << "</text>\n";
  }
  out << "</svg>\n";
  return out.str();
}

}  // namespace drhw
