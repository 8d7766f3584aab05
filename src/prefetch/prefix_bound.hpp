#pragma once

/// \file prefix_bound.hpp
/// Incremental evaluation of explicit load-order prefixes — the bound the
/// branch & bound search (prefetch/bnb.hpp) computes at every node.
///
/// PrefixEvaluator::makespan(d) is, bit for bit,
/// `evaluate(graph, placement, platform, explicit_plan(graph, prefix),
/// port_available_from).makespan` for the first `d` pushed loads, but a
/// push costs one level copy plus a relaxation of the pushed subtask's
/// descendants instead of a full event-driven simulation. The argument is
/// in bnb.hpp; tests/test_bnb_incremental.cpp checks it against evaluate().

#include <cstddef>
#include <vector>

#include "platform/platform.hpp"
#include "schedule/placement.hpp"

namespace drhw {

/// The combined precedence relation of a placed graph: graph edges plus the
/// per-unit (tile and ISP) execution chains. Acyclic for valid placements.
struct CombinedPrecedence {
  /// A topological order of the combined relation.
  std::vector<SubtaskId> topo;
  /// reach[u][v] is true iff u must finish before v can start.
  std::vector<std::vector<bool>> reach;
};

CombinedPrecedence combined_precedence(const SubtaskGraph& graph,
                                       const Placement& placement);

/// Makespans of growing explicit load-order prefixes, one fixed-stride
/// state level per prefix length, sized once at construction. A push copies
/// level d into level d + 1 and applies one load; returning to a shorter
/// prefix is free. push() never allocates.
class PrefixEvaluator {
 public:
  /// \param loads every subtask that may be pushed (the search's load set);
  ///        prefixes hold at most loads.size() entries.
  PrefixEvaluator(const SubtaskGraph& graph, const Placement& placement,
                  const PlatformConfig& platform,
                  const CombinedPrecedence& precedence,
                  const std::vector<SubtaskId>& loads,
                  time_us port_available_from);

  /// Makespan of the prefix held at `depth` (0 = no loads).
  time_us makespan(std::size_t depth) const {
    return levels_[depth * stride_ + makespan_slot_];
  }

  /// Sets level depth + 1 to level `depth` followed by the load of `s`.
  /// Requires `s` to be one of the constructor's loads, not already in the
  /// prefix, and every load that must precede it (bnb.hpp) to be in it.
  void push(std::size_t depth, SubtaskId s);

 private:
  /// Recomputes the execution end of `v` from its release, its unit
  /// predecessor and its graph predecessors (plus ICN latency).
  time_us relax(time_us* level, std::size_t v) const;

  std::size_t n_ = 0;
  std::size_t ports_ = 0;
  /// Slot offsets within a level: exec end [0, n), load end ("release",
  /// 0 when not loaded) [n, 2n), port free times [2n, 2n + ports), then
  /// the last load start and the makespan.
  std::size_t release_slot_ = 0;
  std::size_t port_slot_ = 0;
  std::size_t last_start_slot_ = 0;
  std::size_t makespan_slot_ = 0;
  std::size_t stride_ = 0;
  std::vector<time_us> levels_;

  std::vector<time_us> exec_time_;
  std::vector<time_us> load_duration_;
  std::vector<SubtaskId> unit_prev_;  ///< k_no_subtask when first on its unit
  /// Graph predecessors with the ICN latency of each edge (CSR).
  std::vector<std::size_t> pred_begin_;
  std::vector<SubtaskId> pred_id_;
  std::vector<time_us> pred_comm_;
  /// Per subtask: its load's relaxation list — itself, then its combined
  /// descendants in topological order (CSR; empty for non-loads).
  std::vector<std::size_t> desc_begin_;
  std::vector<SubtaskId> desc_;
};

}  // namespace drhw
