#include "prefetch/prefix_bound.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace drhw {

CombinedPrecedence combined_precedence(const SubtaskGraph& graph,
                                       const Placement& placement) {
  const std::size_t n = graph.size();
  std::vector<std::vector<SubtaskId>> succ(n);
  for (std::size_t v = 0; v < n; ++v)
    for (SubtaskId w : graph.successors(static_cast<SubtaskId>(v)))
      succ[v].push_back(w);
  auto add_chain = [&](const std::vector<std::vector<SubtaskId>>& seqs) {
    for (const auto& seq : seqs)
      for (std::size_t i = 1; i < seq.size(); ++i)
        succ[static_cast<std::size_t>(seq[i - 1])].push_back(seq[i]);
  };
  add_chain(placement.tile_sequence);
  add_chain(placement.isp_sequence);

  CombinedPrecedence out;
  std::vector<int> indeg(n, 0);
  for (std::size_t v = 0; v < n; ++v)
    for (SubtaskId w : succ[v]) ++indeg[static_cast<std::size_t>(w)];
  std::vector<SubtaskId> stack;
  for (std::size_t v = 0; v < n; ++v)
    if (indeg[v] == 0) stack.push_back(static_cast<SubtaskId>(v));
  while (!stack.empty()) {
    const SubtaskId v = stack.back();
    stack.pop_back();
    out.topo.push_back(v);
    for (SubtaskId w : succ[static_cast<std::size_t>(v)])
      if (--indeg[static_cast<std::size_t>(w)] == 0) stack.push_back(w);
  }
  DRHW_CHECK_MSG(out.topo.size() == n, "combined precedence has a cycle");

  out.reach.assign(n, std::vector<bool>(n, false));
  for (auto it = out.topo.rbegin(); it != out.topo.rend(); ++it) {
    const auto v = static_cast<std::size_t>(*it);
    for (SubtaskId s : succ[v]) {
      const auto sv = static_cast<std::size_t>(s);
      out.reach[v][sv] = true;
      for (std::size_t w = 0; w < n; ++w)
        if (out.reach[sv][w]) out.reach[v][w] = true;
    }
  }
  return out;
}

PrefixEvaluator::PrefixEvaluator(const SubtaskGraph& graph,
                                 const Placement& placement,
                                 const PlatformConfig& platform,
                                 const CombinedPrecedence& precedence,
                                 const std::vector<SubtaskId>& loads,
                                 time_us port_available_from)
    : n_(graph.size()),
      ports_(static_cast<std::size_t>(platform.reconfig_ports)),
      release_slot_(n_),
      port_slot_(2 * n_),
      last_start_slot_(2 * n_ + ports_),
      makespan_slot_(last_start_slot_ + 1),
      stride_(makespan_slot_ + 1) {
  DRHW_CHECK_GE_MSG(platform.reconfig_ports, 1,
                    "prefix evaluation needs >= 1 port");
  std::vector<char> is_load(n_, 0);
  for (SubtaskId s : loads) is_load[static_cast<std::size_t>(s)] = 1;

  exec_time_.resize(n_);
  load_duration_.resize(n_);
  unit_prev_.resize(n_);
  pred_begin_.assign(1, 0);
  desc_begin_.assign(1, 0);
  for (std::size_t v = 0; v < n_; ++v) {
    const auto id = static_cast<SubtaskId>(v);
    const Subtask& sub = graph.subtask(id);
    exec_time_[v] = sub.exec_time;
    load_duration_[v] =
        sub.load_time != k_no_time ? sub.load_time : platform.reconfig_latency;
    unit_prev_[v] = placement.prev_on_unit(id);

    // The evaluator's edge latency: units are tiles or ISPs, and an edge
    // within one unit is free.
    const bool to_isp = !placement.on_drhw(id);
    const TileId to_unit = to_isp ? placement.isp_of[v] : placement.tile_of[v];
    for (SubtaskId p : graph.predecessors(id)) {
      const auto pi = static_cast<std::size_t>(p);
      const bool from_isp = !placement.on_drhw(p);
      pred_id_.push_back(p);
      pred_comm_.push_back(icn_comm_latency(
          platform, from_isp ? placement.isp_of[pi] : placement.tile_of[pi],
          from_isp, to_unit, to_isp));
    }
    pred_begin_.push_back(pred_id_.size());

    if (is_load[v])
      for (SubtaskId w : precedence.topo)
        if (w == id || precedence.reach[v][static_cast<std::size_t>(w)])
          desc_.push_back(w);
    desc_begin_.push_back(desc_.size());
  }

  // Level 0: no loads, every release 0, every port free at
  // port_available_from; executions follow the combined topological order.
  levels_.assign((loads.size() + 1) * stride_, 0);
  time_us* level = levels_.data();
  std::fill_n(level + port_slot_, ports_, port_available_from);
  time_us makespan = 0;
  for (SubtaskId v : precedence.topo)
    makespan = std::max(makespan, relax(level, static_cast<std::size_t>(v)));
  level[makespan_slot_] = makespan;
}

time_us PrefixEvaluator::relax(time_us* level, std::size_t v) const {
  time_us start = level[release_slot_ + v];
  const SubtaskId prev = unit_prev_[v];
  if (prev != k_no_subtask)
    start = std::max(start, level[static_cast<std::size_t>(prev)]);
  for (std::size_t k = pred_begin_[v]; k < pred_begin_[v + 1]; ++k)
    start = std::max(
        start, level[static_cast<std::size_t>(pred_id_[k])] + pred_comm_[k]);
  return level[v] = start + exec_time_[v];
}

void PrefixEvaluator::push(std::size_t depth, SubtaskId s) {
  time_us* level = levels_.data() + (depth + 1) * stride_;
  std::copy_n(level - stride_, stride_, level);
  const auto idx = static_cast<std::size_t>(s);

  // Head-of-line explicit order: the load starts once the previous load has
  // started, its tile's previous execution has ended, and a port is free
  // (earliest-free port, lowest index on ties, as PortSet picks it).
  time_us* ports = level + port_slot_;
  std::size_t port = 0;
  for (std::size_t p = 1; p < ports_; ++p)
    if (ports[p] < ports[port]) port = p;
  time_us start = std::max(level[last_start_slot_], ports[port]);
  const SubtaskId prev = unit_prev_[idx];
  if (prev != k_no_subtask)
    start = std::max(start, level[static_cast<std::size_t>(prev)]);
  const time_us end = start + load_duration_[idx];
  ports[port] = end;
  level[last_start_slot_] = start;
  level[release_slot_ + idx] = end;

  // Only `s` and its combined descendants can move, and only later.
  time_us makespan = level[makespan_slot_];
  for (std::size_t k = desc_begin_[idx]; k < desc_begin_[idx + 1]; ++k)
    makespan = std::max(makespan,
                        relax(level, static_cast<std::size_t>(desc_[k])));
  level[makespan_slot_] = makespan;
}

}  // namespace drhw
