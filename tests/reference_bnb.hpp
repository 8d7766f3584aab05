#pragma once

// Reference branch & bound for the prefetch load order: the search as it
// was before the bound became incremental. Every node is bounded by a full
// evaluate() of its prefix, and candidates are sorted per node. It is the
// oracle optimal_prefetch must match bit for bit (order, node count,
// optimality flag), and, without pruning, the exhaustive optimum. Slow by
// design; keep inputs small.

#include <algorithm>
#include <cstdint>
#include <limits>
#include <vector>

#include "graph/algorithms.hpp"
#include "platform/platform.hpp"
#include "prefetch/bnb.hpp"
#include "prefetch/evaluator.hpp"
#include "util/check.hpp"

namespace drhw::testing {

/// Reachability over graph edges plus per-unit execution chains: entry
/// [u][v] is true iff u must finish before v can start.
inline std::vector<std::vector<bool>> reference_reachability(
    const SubtaskGraph& graph, const Placement& placement) {
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

  // Depth-first closure from every node (the relation is acyclic).
  std::vector<std::vector<bool>> reach(n, std::vector<bool>(n, false));
  for (std::size_t root = 0; root < n; ++root) {
    std::vector<SubtaskId> stack(succ[root].begin(), succ[root].end());
    while (!stack.empty()) {
      const auto v = static_cast<std::size_t>(stack.back());
      stack.pop_back();
      if (reach[root][v]) continue;
      reach[root][v] = true;
      for (SubtaskId w : succ[v]) stack.push_back(w);
    }
  }
  return reach;
}

/// The load ids of `needs_load` (ascending) and, per load index, the load
/// indices that must precede it: those whose subtask precedes (or is) the
/// subtask executed just before it on its tile.
struct ReferenceLoads {
  std::vector<SubtaskId> loads;
  std::vector<std::vector<int>> must_precede;
};

inline ReferenceLoads reference_loads(const SubtaskGraph& graph,
                                      const Placement& placement,
                                      const std::vector<bool>& needs_load) {
  ReferenceLoads out;
  for (std::size_t s = 0; s < graph.size(); ++s)
    if (needs_load[s]) out.loads.push_back(static_cast<SubtaskId>(s));
  const auto reach = reference_reachability(graph, placement);
  out.must_precede.assign(out.loads.size(), {});
  for (std::size_t i = 0; i < out.loads.size(); ++i) {
    const SubtaskId prev = placement.prev_on_unit(out.loads[i]);
    if (prev == k_no_subtask) continue;
    for (std::size_t j = 0; j < out.loads.size(); ++j) {
      const SubtaskId a = out.loads[j];
      if (i != j && (a == prev || reach[static_cast<std::size_t>(a)]
                                       [static_cast<std::size_t>(prev)]))
        out.must_precede[i].push_back(static_cast<int>(j));
    }
  }
  return out;
}

class ReferenceSearch {
 public:
  ReferenceSearch(const SubtaskGraph& graph, const Placement& placement,
                  const PlatformConfig& platform,
                  const std::vector<bool>& needs_load, time_us port_from,
                  std::uint64_t node_limit, bool prune)
      : graph_(graph),
        placement_(placement),
        platform_(platform),
        port_from_(port_from),
        node_limit_(node_limit),
        prune_(prune),
        ref_(reference_loads(graph, placement, needs_load)),
        weight_(subtask_weights(graph)),
        chosen_(ref_.loads.size(), 0) {}

  BnbResult run() {
    dfs();
    if (best_order_.size() != ref_.loads.size()) {
      // Budget ran out before any leaf: greedy linear extension, heaviest
      // available load first (lowest index on ties).
      best_order_.clear();
      std::vector<char> chosen(ref_.loads.size(), 0);
      while (best_order_.size() < ref_.loads.size()) {
        int pick = -1;
        for (int i = 0; i < static_cast<int>(ref_.loads.size()); ++i) {
          if (chosen[static_cast<std::size_t>(i)] || !ready(i, chosen))
            continue;
          if (pick < 0 || weight_of(i) > weight_of(pick)) pick = i;
        }
        DRHW_CHECK_MSG(pick >= 0, "load precedence is cyclic");
        chosen[static_cast<std::size_t>(pick)] = 1;
        best_order_.push_back(ref_.loads[static_cast<std::size_t>(pick)]);
      }
    }
    BnbResult result;
    result.order = best_order_;
    result.proven_optimal = !budget_exhausted_;
    result.nodes_explored = nodes_;
    result.eval = evaluate(graph_, placement_, platform_,
                           explicit_plan(graph_, result.order), port_from_);
    return result;
  }

 private:
  time_us weight_of(int i) const {
    return weight_[static_cast<std::size_t>(
        ref_.loads[static_cast<std::size_t>(i)])];
  }

  bool ready(int i, const std::vector<char>& chosen) const {
    for (int p : ref_.must_precede[static_cast<std::size_t>(i)])
      if (!chosen[static_cast<std::size_t>(p)]) return false;
    return true;
  }

  time_us prefix_bound() const {
    return evaluate(graph_, placement_, platform_,
                    explicit_plan(graph_, prefix_), port_from_)
        .makespan;
  }

  void dfs() {
    ++nodes_;
    if (node_limit_ != 0 && nodes_ > node_limit_) {
      budget_exhausted_ = true;
      return;
    }
    if (prefix_.size() == ref_.loads.size()) {
      const time_us makespan = prefix_bound();
      if (makespan < best_makespan_) {
        best_makespan_ = makespan;
        best_order_ = prefix_;
      }
      return;
    }
    if (prune_ && !prefix_.empty() && prefix_bound() >= best_makespan_) return;

    std::vector<int> candidates;
    for (int i = 0; i < static_cast<int>(ref_.loads.size()); ++i)
      if (!chosen_[static_cast<std::size_t>(i)] && ready(i, chosen_))
        candidates.push_back(i);
    std::sort(candidates.begin(), candidates.end(), [&](int a, int b) {
      if (weight_of(a) != weight_of(b)) return weight_of(a) > weight_of(b);
      return ref_.loads[static_cast<std::size_t>(a)] <
             ref_.loads[static_cast<std::size_t>(b)];
    });
    for (int i : candidates) {
      chosen_[static_cast<std::size_t>(i)] = 1;
      prefix_.push_back(ref_.loads[static_cast<std::size_t>(i)]);
      dfs();
      prefix_.pop_back();
      chosen_[static_cast<std::size_t>(i)] = 0;
      if (budget_exhausted_) return;
    }
  }

  const SubtaskGraph& graph_;
  const Placement& placement_;
  const PlatformConfig& platform_;
  time_us port_from_;
  std::uint64_t node_limit_;
  bool prune_;
  ReferenceLoads ref_;
  std::vector<time_us> weight_;
  std::vector<char> chosen_;
  std::vector<SubtaskId> prefix_;
  time_us best_makespan_ = std::numeric_limits<time_us>::max();
  std::vector<SubtaskId> best_order_;
  std::uint64_t nodes_ = 0;
  bool budget_exhausted_ = false;
};

/// The evaluate-per-node branch & bound (same options as optimal_prefetch).
inline BnbResult reference_optimal_prefetch(const SubtaskGraph& graph,
                                            const Placement& placement,
                                            const PlatformConfig& platform,
                                            const std::vector<bool>& needs_load,
                                            const BnbOptions& options = {}) {
  return ReferenceSearch(graph, placement, platform, needs_load,
                         options.port_available_from, options.node_limit,
                         /*prune=*/true)
      .run();
}

/// Exhaustive search without pruning (factorial cost — only use with a
/// handful of loads).
inline BnbResult exhaustive_prefetch(const SubtaskGraph& graph,
                                     const Placement& placement,
                                     const PlatformConfig& platform,
                                     const std::vector<bool>& needs_load,
                                     time_us port_available_from = 0) {
  return ReferenceSearch(graph, placement, platform, needs_load,
                         port_available_from, /*node_limit=*/0,
                         /*prune=*/false)
      .run();
}

}  // namespace drhw::testing
