#include "prefetch/bnb.hpp"

#include <algorithm>
#include <limits>

#include "graph/algorithms.hpp"
#include "prefetch/prefix_bound.hpp"
#include "util/check.hpp"

namespace drhw {

namespace {

struct SearchContext {
  SearchContext(const SubtaskGraph& graph, const Placement& placement,
                const PlatformConfig& platform,
                const CombinedPrecedence& precedence,
                std::vector<SubtaskId> load_ids, time_us port_from)
      : loads(std::move(load_ids)),
        bound(graph, placement, platform, precedence, loads, port_from) {
    const std::size_t count = loads.size();
    const std::vector<time_us> weight = subtask_weights(graph);
    auto weight_of = [&](int i) {
      return weight[static_cast<std::size_t>(
          loads[static_cast<std::size_t>(i)])];
    };
    for (int i = 0; i < static_cast<int>(count); ++i) by_weight.push_back(i);
    std::sort(by_weight.begin(), by_weight.end(), [&](int a, int b) {
      if (weight_of(a) != weight_of(b)) return weight_of(a) > weight_of(b);
      return a < b;
    });

    // Load i must come after load j when j's subtask must have *executed*
    // before load i's tile becomes reconfigurable (i.e. j precedes, in the
    // combined relation, the subtask scheduled immediately before i's).
    followers.assign(count, {});
    blockers.assign(count, 0);
    for (std::size_t i = 0; i < count; ++i) {
      const SubtaskId prev = placement.prev_on_unit(loads[i]);
      if (prev == k_no_subtask) continue;
      const auto& reach = precedence.reach;
      for (std::size_t j = 0; j < count; ++j) {
        const auto a = static_cast<std::size_t>(loads[j]);
        if (i == j || (loads[j] != prev &&
                       !reach[a][static_cast<std::size_t>(prev)]))
          continue;
        followers[j].push_back(static_cast<int>(i));
        ++blockers[i];
      }
    }
    chosen.assign(count, 0);
    prefix.reserve(count);
    best_order.reserve(count);
  }

  std::vector<SubtaskId> loads;  // all load ids, ascending
  PrefixEvaluator bound;
  std::uint64_t node_limit = 0;

  /// Indices into `loads`, heaviest (most critical) first, lower id on
  /// ties: the order candidates are tried in, so that the first solution
  /// found is already strong, improving pruning.
  std::vector<int> by_weight;
  /// followers[j]: the loads that must come after load j.
  std::vector<std::vector<int>> followers;
  /// Per load: how many of the loads that must precede it are unchosen.
  std::vector<int> blockers;
  std::vector<char> chosen;

  std::vector<SubtaskId> prefix;
  time_us best_makespan = std::numeric_limits<time_us>::max();
  std::vector<SubtaskId> best_order;
  std::uint64_t nodes = 0;
  bool budget_exhausted = false;

  bool available(int i) const {
    return !chosen[static_cast<std::size_t>(i)] &&
           blockers[static_cast<std::size_t>(i)] == 0;
  }

  void set_chosen(int i, bool on) {
    chosen[static_cast<std::size_t>(i)] = on;
    for (int f : followers[static_cast<std::size_t>(i)])
      blockers[static_cast<std::size_t>(f)] += on ? -1 : 1;
  }

  /// `bound.makespan(depth)` is the makespan of `prefix` evaluated as an
  /// explicit plan over the prefix loads only. Because adding loads never
  /// shortens a schedule, it is an admissible lower bound for every
  /// completion of the prefix. Nothing here allocates: `prefix` and
  /// `best_order` are reserved, and the levels of `bound` preallocated.
  void dfs(std::size_t depth) {
    ++nodes;
    if (node_limit != 0 && nodes > node_limit) {
      budget_exhausted = true;
      return;
    }
    if (depth == loads.size()) {
      const time_us makespan = bound.makespan(depth);
      if (makespan < best_makespan) {
        best_makespan = makespan;
        best_order = prefix;
      }
      return;
    }
    if (depth > 0 && bound.makespan(depth) >= best_makespan) return;

    // Candidates: unchosen loads whose required predecessors are all
    // chosen. Every child restores the state it changed, so the candidate
    // set is the same at each step of this loop.
    for (int i : by_weight) {
      if (!available(i)) continue;
      const SubtaskId s = loads[static_cast<std::size_t>(i)];
      set_chosen(i, true);
      prefix.push_back(s);
      bound.push(depth, s);
      dfs(depth + 1);
      prefix.pop_back();
      set_chosen(i, false);
      if (budget_exhausted) return;
    }
  }

  /// Greedy linear extension (take the heaviest available load each step);
  /// always feasible.
  std::vector<SubtaskId> greedy_order() {
    std::vector<SubtaskId> order;
    while (order.size() < loads.size()) {
      const auto it = std::find_if(by_weight.begin(), by_weight.end(),
                                   [&](int i) { return available(i); });
      DRHW_CHECK_MSG(it != by_weight.end(), "load precedence is cyclic");
      set_chosen(*it, true);
      order.push_back(loads[static_cast<std::size_t>(*it)]);
    }
    return order;
  }
};

}  // namespace

BnbResult optimal_prefetch(const SubtaskGraph& graph,
                           const Placement& placement,
                           const PlatformConfig& platform,
                           const std::vector<bool>& needs_load,
                           const BnbOptions& options) {
  platform.validate();
  std::vector<SubtaskId> loads;
  for (std::size_t s = 0; s < graph.size(); ++s)
    if (needs_load[s]) loads.push_back(static_cast<SubtaskId>(s));
  SearchContext ctx(graph, placement, platform,
                    combined_precedence(graph, placement), std::move(loads),
                    options.port_available_from);
  ctx.node_limit = options.node_limit;
  ctx.dfs(0);

  BnbResult result;
  // The node budget can run out before any leaf is reached: fall back to
  // the greedy order.
  result.order = ctx.best_order.size() == ctx.loads.size()
                     ? std::move(ctx.best_order)
                     : ctx.greedy_order();
  result.proven_optimal = !ctx.budget_exhausted;
  result.nodes_explored = ctx.nodes;
  LoadPlan plan = explicit_plan(graph, result.order);
  result.eval = evaluate(graph, placement, platform, plan,
                         options.port_available_from);
  return result;
}

}  // namespace drhw
