// The incremental branch & bound bound against its references:
//  * optimal_prefetch returns the same order, node count, optimality flag
//    and makespan as the evaluate-per-node search (reference_bnb.hpp) over
//    a generator corpus crossed with port counts, busy ports,
//    heterogeneous bitstreams, a non-ideal ICN, ISP subtasks and tiny node
//    budgets;
//  * every prefix of random linear extensions has the makespan evaluate()
//    gives its explicit plan, also after rewinding to a shorter prefix;
//  * the search allocates nothing per node;
//  * an invalid platform is still rejected with std::invalid_argument.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <stdexcept>
#include <string>
#include <vector>

#include "graph/generators.hpp"
#include "prefetch/bnb.hpp"
#include "prefetch/prefix_bound.hpp"
#include "reference_bnb.hpp"
#include "schedule/list_scheduler.hpp"

namespace drhw {
namespace {

// Heap allocations made while counting is on. The replacement operator new
// below is malloc-backed, so sanitizers still track every block.
std::atomic<bool> g_count_allocations{false};
std::atomic<std::uint64_t> g_allocations{0};

}  // namespace
}  // namespace drhw

void* operator new(std::size_t size) {
  if (drhw::g_count_allocations) ++drhw::g_allocations;
  if (void* p = std::malloc(size != 0 ? size : 1)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace drhw {
namespace {

enum class Variant { plain, hetero_loads, icn, isp };

struct Case {
  std::string name;
  SubtaskGraph graph;
  Placement placement;
  PlatformConfig platform;
  std::vector<bool> needs;
};

SubtaskGraph corpus_graph(int kind, Rng& rng, bool with_isp) {
  switch (kind) {
    case 0: {
      LayeredGraphParams params;
      params.subtasks = 11;
      params.min_exec = ms(1);
      params.max_exec = ms(12);
      params.isp_fraction = with_isp ? 0.3 : 0.0;
      return make_layered_graph(params, rng);
    }
    case 1:
      return make_fork_join_graph(3, 2, ms(2), ms(10), rng);
    case 2:
      return make_chain_graph(7, ms(1), ms(8), rng);
    case 3:
      return make_series_parallel_graph(5, ms(1), ms(10), rng);
    default:
      // Equal execution times: equal weights, so the candidate tie-break
      // decides which of several equally good orders is returned.
      return make_fork_join_graph(4, 1, ms(5), ms(5), rng);
  }
}

/// One small placed graph per (generator, variant, seed). Odd seeds make
/// some DRHW subtasks resident, so not every subtask needs a load.
Case make_case(int kind, Variant variant, std::uint64_t seed) {
  Rng rng(seed * 7919 + static_cast<std::uint64_t>(kind) * 104729 +
          static_cast<std::uint64_t>(variant));
  Case c;
  c.name = "kind" + std::to_string(kind) + "/variant" +
           std::to_string(static_cast<int>(variant)) + "/seed" +
           std::to_string(seed);
  c.graph = corpus_graph(kind, rng, variant == Variant::isp);
  if (variant == Variant::isp && kind != 0)
    for (std::size_t s = 1; s < c.graph.size(); s += 3)
      c.graph.subtask_mutable(static_cast<SubtaskId>(s)).resource =
          Resource::isp;
  if (variant == Variant::hetero_loads)
    for (std::size_t s = 0; s < c.graph.size(); ++s)
      if (rng.next_bool(0.6))
        c.graph.subtask_mutable(static_cast<SubtaskId>(s)).load_time =
            us(rng.next_int(300, 7000));

  const int tiles = 2 + static_cast<int>(rng.next_below(3));
  c.platform = virtex2_platform(tiles);
  if (variant == Variant::icn) {
    c.platform.icn.mesh_width = 2;
    c.platform.icn.hop_latency = us(400);
    c.platform.icn.isp_bridge_latency = us(250);
    c.placement = list_schedule_icn(c.graph, c.platform);
  } else {
    c.placement = list_schedule(c.graph, tiles);
  }
  c.needs.assign(c.graph.size(), false);
  for (std::size_t s = 0; s < c.graph.size(); ++s)
    c.needs[s] = c.placement.on_drhw(static_cast<SubtaskId>(s)) &&
                 (seed % 2 == 0 || !rng.next_bool(0.25));
  return c;
}

std::vector<Case> corpus() {
  std::vector<Case> out;
  for (int kind = 0; kind < 5; ++kind)
    for (Variant v : {Variant::plain, Variant::hetero_loads, Variant::icn,
                      Variant::isp})
      for (std::uint64_t seed = 1; seed <= 3; ++seed)
        out.push_back(make_case(kind, v, seed));
  return out;
}

void expect_same_search(const Case& c, const BnbOptions& options) {
  const BnbResult got = optimal_prefetch(c.graph, c.placement, c.platform,
                                         c.needs, options);
  const BnbResult want = testing::reference_optimal_prefetch(
      c.graph, c.placement, c.platform, c.needs, options);
  EXPECT_EQ(got.order, want.order);
  EXPECT_EQ(got.nodes_explored, want.nodes_explored);
  EXPECT_EQ(got.proven_optimal, want.proven_optimal);
  EXPECT_EQ(got.eval.makespan, want.eval.makespan);
}

TEST(BnbIncremental, SameSearchAsEvaluatePerNodeReference) {
  for (Case& c : corpus())
    for (int ports : {1, 2, 4})
      for (time_us port_from : {time_us{0}, ms(3)}) {
        SCOPED_TRACE(c.name + " ports=" + std::to_string(ports) +
                     " port_from=" + std::to_string(port_from));
        c.platform.reconfig_ports = ports;
        BnbOptions options;
        options.port_available_from = port_from;
        expect_same_search(c, options);
      }
}

TEST(BnbIncremental, SameFallbackUnderTinyNodeBudgets) {
  for (Case& c : corpus())
    for (std::uint64_t limit : {1, 3, 25})
      for (int ports : {1, 2}) {
        SCOPED_TRACE(c.name + " limit=" + std::to_string(limit) +
                     " ports=" + std::to_string(ports));
        c.platform.reconfig_ports = ports;
        BnbOptions options;
        options.node_limit = limit;
        expect_same_search(c, options);
      }
}

TEST(BnbIncremental, BudgetExhaustionIsReportedLikeTheReference) {
  // A corpus case with enough loads that a budget of 3 cannot finish.
  const Case c = make_case(0, Variant::plain, 2);
  BnbOptions options;
  options.node_limit = 3;
  const BnbResult got =
      optimal_prefetch(c.graph, c.placement, c.platform, c.needs, options);
  EXPECT_FALSE(got.proven_optimal);
  expect_same_search(c, options);
}

/// Walks random linear extensions of the load precedence, rewinding to a
/// random shorter prefix between walks, and checks every prefix's
/// incremental makespan against a full evaluation of its explicit plan.
void expect_exact_prefixes(const Case& c, time_us port_from, Rng& rng) {
  const testing::ReferenceLoads ref =
      testing::reference_loads(c.graph, c.placement, c.needs);
  const std::size_t count = ref.loads.size();
  const CombinedPrecedence precedence =
      combined_precedence(c.graph, c.placement);
  PrefixEvaluator bound(c.graph, c.placement, c.platform, precedence,
                        ref.loads, port_from);

  auto expect_prefix = [&](const std::vector<SubtaskId>& prefix) {
    const time_us want =
        evaluate(c.graph, c.placement, c.platform,
                 explicit_plan(c.graph, prefix), port_from)
            .makespan;
    EXPECT_EQ(bound.makespan(prefix.size()), want)
        << "prefix length " << prefix.size();
  };

  std::vector<SubtaskId> prefix;
  std::vector<char> chosen(count, 0);
  std::vector<int> chosen_index;
  expect_prefix(prefix);
  for (int walk = 0; walk < 6; ++walk) {
    // Rewind (a pop must cost nothing and leave shorter levels intact).
    const std::size_t keep =
        walk == 0 ? 0 : static_cast<std::size_t>(rng.next_below(count + 1));
    while (prefix.size() > keep) {
      chosen[static_cast<std::size_t>(chosen_index.back())] = 0;
      chosen_index.pop_back();
      prefix.pop_back();
    }
    while (prefix.size() < count) {
      std::vector<int> available;
      for (int i = 0; i < static_cast<int>(count); ++i) {
        if (chosen[static_cast<std::size_t>(i)]) continue;
        bool ready = true;
        for (int p : ref.must_precede[static_cast<std::size_t>(i)])
          ready = ready && chosen[static_cast<std::size_t>(p)];
        if (ready) available.push_back(i);
      }
      ASSERT_FALSE(available.empty());
      const int i = available[rng.pick_index(available)];
      chosen[static_cast<std::size_t>(i)] = 1;
      chosen_index.push_back(i);
      const SubtaskId s = ref.loads[static_cast<std::size_t>(i)];
      bound.push(prefix.size(), s);
      prefix.push_back(s);
      expect_prefix(prefix);
    }
  }
}

TEST(BnbIncremental, EveryPrefixMatchesEvaluate) {
  Rng rng(2005);
  for (Case& c : corpus())
    for (int ports : {1, 2, 4})
      for (time_us port_from : {time_us{0}, ms(3)}) {
        SCOPED_TRACE(c.name + " ports=" + std::to_string(ports) +
                     " port_from=" + std::to_string(port_from));
        c.platform.reconfig_ports = ports;
        expect_exact_prefixes(c, port_from, rng);
      }
}

TEST(BnbIncremental, EveryPrefixMatchesEvaluateOnLargerGraphs) {
  // Beyond what the reference search can afford: 30-node graphs.
  Rng rng(7);
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    Rng graph_rng(seed);
    LayeredGraphParams params;
    params.subtasks = 30;
    params.isp_fraction = seed % 2 ? 0.2 : 0.0;
    Case c;
    c.name = "layered30/seed" + std::to_string(seed);
    c.graph = make_layered_graph(params, graph_rng);
    c.platform = virtex2_platform(3 + static_cast<int>(seed % 4));
    c.platform.reconfig_ports = 1 + static_cast<int>(seed % 3);
    c.placement = list_schedule(c.graph, c.platform.tiles);
    c.needs.assign(c.graph.size(), false);
    for (std::size_t s = 0; s < c.graph.size(); ++s)
      c.needs[s] = c.placement.on_drhw(static_cast<SubtaskId>(s));
    SCOPED_TRACE(c.name);
    expect_exact_prefixes(c, seed % 2 ? ms(2) : 0, rng);
  }
}

TEST(BnbIncremental, SearchAllocatesNothingPerNode) {
  Rng rng(11);
  LayeredGraphParams params;
  params.subtasks = 30;
  params.min_layer_width = 2;
  params.max_layer_width = 5;
  const SubtaskGraph graph = make_layered_graph(params, rng);
  const Placement placement = list_schedule(graph, 3);
  const PlatformConfig platform = virtex2_platform(3);
  std::vector<bool> needs(graph.size(), false);
  for (std::size_t s = 0; s < graph.size(); ++s)
    needs[s] = placement.on_drhw(static_cast<SubtaskId>(s));
  BnbOptions options;
  options.node_limit = 20'000;

  g_allocations = 0;
  g_count_allocations = true;
  const BnbResult r =
      optimal_prefetch(graph, placement, platform, needs, options);
  g_count_allocations = false;
  // Set-up (precedence, levels, candidate order) and the final evaluate()
  // allocate a bounded number of blocks; the nodes allocate none.
  ASSERT_GE(r.nodes_explored, 10'000u);
  EXPECT_LT(g_allocations.load(), 1'000u) << r.nodes_explored << " nodes";
}

TEST(BnbIncremental, InvalidPlatformThrows) {
  Case c = make_case(0, Variant::plain, 2);
  c.platform.reconfig_ports = 0;
  EXPECT_THROW(optimal_prefetch(c.graph, c.placement, c.platform, c.needs),
               std::invalid_argument);
  c.platform.reconfig_ports = 1;
  c.platform.reconfig_latency = -1;
  EXPECT_THROW(optimal_prefetch(c.graph, c.placement, c.platform, c.needs),
               std::invalid_argument);
}

}  // namespace
}  // namespace drhw
