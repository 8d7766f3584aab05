#pragma once

/// \file bnb.hpp
/// Design-time optimal prefetch scheduling via branch & bound over load
/// orders (the paper's Section 5: "we apply a branch&bound algorithm that
/// always finds the optimal solution").
///
/// Only the load *order* needs exploring: starting a load earlier never
/// delays anything (a load occupies its tile only between the previous
/// execution on that tile and the subtask's own execution, and freeing the
/// port earlier is monotonically better), so non-delay schedules are optimal
/// and each order induces exactly one non-delay schedule.
///
/// The bound at a node is the makespan of its prefix evaluated alone, as
/// `evaluate(explicit_plan(prefix))` would, with the loads not yet ordered
/// treated as resident. PrefixEvaluator (prefetch/prefix_bound.hpp) computes
/// that value incrementally and exactly, not as a looser estimate, so
/// pruning, node counts and the orders chosen are those of the
/// evaluate-per-node search:
///  * Appending load `o` never moves a load already in the prefix. Under
///    head-of-line explicit order a load's start depends only on earlier
///    loads and on the end of the execution before it on its tile, and every
///    load that can move that execution must precede `o` (the precedence
///    below). So that execution's end is already final when `o` is appended.
///  * `o` starts at max(previous load start, end of the execution before it
///    on its tile or 0, earliest port free time). It ends `load_time` (or
///    the platform latency) later on that port. This is the earliest instant
///    at which the evaluator's port loop finds all three conditions true.
///  * An execution starts at max(own load end, end of the unit predecessor,
///    max over graph predecessors of end + ICN latency). Only `o` and its
///    combined descendants (graph edges plus unit chains) can change. They
///    are re-relaxed in topological order, and the makespan is the running
///    maximum, because ends only grow.
/// `BnbResult::eval` is still computed by evaluate(), the single reference
/// timing engine. tests/test_bnb_incremental.cpp checks every prefix of
/// random linear extensions against it.

#include <cstdint>
#include <vector>

#include "platform/platform.hpp"
#include "prefetch/evaluator.hpp"

namespace drhw {

/// Result of an optimal (or best-found) prefetch scheduling run.
struct BnbResult {
  std::vector<SubtaskId> order;  ///< best load order found
  EvalResult eval;               ///< its evaluation
  bool proven_optimal = true;    ///< false if the node budget was exhausted
  std::uint64_t nodes_explored = 0;
};

struct BnbOptions {
  /// Port busy until this relative time (composition with init phases).
  time_us port_available_from = 0;
  /// Search-node budget; the search returns the best order found so far
  /// (proven_optimal = false) when exceeded. 0 means unlimited.
  std::uint64_t node_limit = 2'000'000;
};

/// Finds the load order minimising the makespan for `needs_load`.
/// Orders are enumerated as linear extensions of the induced precedence
/// (load b cannot precede load a when b's tile is still owed an execution
/// that transitively depends on a), so every explored order is feasible.
/// \throws std::invalid_argument for an invalid platform.
BnbResult optimal_prefetch(const SubtaskGraph& graph,
                           const Placement& placement,
                           const PlatformConfig& platform,
                           const std::vector<bool>& needs_load,
                           const BnbOptions& options = {});

}  // namespace drhw
