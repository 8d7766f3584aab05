// Tests for the prefetch schedulers: branch & bound optimality (against the
// exhaustive oracle), the list heuristic of ref. [7], and the ordering
// relations between policies.
//
// drhw-lint: allow-file(wall-clock: Section 4 cost bound times the host)

#include <gtest/gtest.h>

#include <chrono>
#include <limits>

#include "graph/generators.hpp"
#include "platform/platform.hpp"
#include "prefetch/bnb.hpp"
#include "prefetch/list_prefetch.hpp"
#include "reference_bnb.hpp"
#include "schedule/list_scheduler.hpp"
#include "schedule_checks.hpp"

namespace drhw {
namespace {

using testing::expect_valid_schedule;

std::vector<bool> all_drhw(const SubtaskGraph& g, const Placement& p) {
  std::vector<bool> needs(g.size(), false);
  for (std::size_t s = 0; s < g.size(); ++s)
    needs[s] = p.on_drhw(static_cast<SubtaskId>(s));
  return needs;
}

class RandomGraphPrefetch : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  void SetUp() override {
    Rng rng(GetParam());
    LayeredGraphParams params;
    params.subtasks = 7;  // small enough for the exhaustive oracle
    params.min_exec = ms(1);
    params.max_exec = ms(12);
    graph_ = make_layered_graph(params, rng);
    tiles_ = 3 + static_cast<int>(GetParam() % 3);
    placement_ = list_schedule(graph_, tiles_);
    platform_ = virtex2_platform(tiles_);
  }
  SubtaskGraph graph_;
  Placement placement_;
  PlatformConfig platform_ = virtex2_platform(4);
  int tiles_ = 4;
};

TEST_P(RandomGraphPrefetch, BnbMatchesExhaustiveOptimum) {
  const auto needs = all_drhw(graph_, placement_);
  const auto bnb = optimal_prefetch(graph_, placement_, platform_, needs);
  const auto oracle =
      testing::exhaustive_prefetch(graph_, placement_, platform_, needs);
  EXPECT_TRUE(bnb.proven_optimal);
  EXPECT_EQ(bnb.eval.makespan, oracle.eval.makespan);
  EXPECT_LE(bnb.nodes_explored, oracle.nodes_explored);
}

TEST_P(RandomGraphPrefetch, PolicyOrdering) {
  const auto needs = all_drhw(graph_, placement_);
  const auto bnb = optimal_prefetch(graph_, placement_, platform_, needs);
  const auto list = list_prefetch(graph_, placement_, platform_, needs);
  LoadPlan od;
  od.policy = LoadPolicy::on_demand;
  od.needs_load = needs;
  const auto ondemand = evaluate(graph_, placement_, platform_, od);
  const time_us ideal = placement_.ideal_makespan;

  EXPECT_GE(bnb.eval.makespan, ideal);
  EXPECT_LE(bnb.eval.makespan, list.makespan);      // optimal <= heuristic
  EXPECT_LE(bnb.eval.makespan, ondemand.makespan);  // optimal <= no prefetch
}

TEST_P(RandomGraphPrefetch, AllPoliciesProduceValidSchedules) {
  const auto needs = all_drhw(graph_, placement_);
  {
    LoadPlan plan;
    plan.policy = LoadPolicy::on_demand;
    plan.needs_load = needs;
    const auto r = evaluate(graph_, placement_, platform_, plan);
    expect_valid_schedule(graph_, placement_, platform_, plan, r);
  }
  {
    const LoadPlan plan = priority_plan(graph_, needs);
    const auto r = evaluate(graph_, placement_, platform_, plan);
    expect_valid_schedule(graph_, placement_, platform_, plan, r);
  }
  {
    const auto bnb = optimal_prefetch(graph_, placement_, platform_, needs);
    const LoadPlan plan = explicit_plan(graph_, bnb.order);
    expect_valid_schedule(graph_, placement_, platform_, plan, bnb.eval);
  }
}

TEST_P(RandomGraphPrefetch, LoadRemovalIsMonotone) {
  // Removing loads (more reuse) never increases the makespan — the property
  // the hybrid's run-time cancellations rely on.
  Rng rng(GetParam() ^ 0xabcdef);
  auto needs = all_drhw(graph_, placement_);
  const auto full = list_prefetch(graph_, placement_, platform_, needs);
  auto reduced = needs;
  for (std::size_t s = 0; s < reduced.size(); ++s)
    if (reduced[s] && rng.next_bool(0.4)) reduced[s] = false;
  const auto fewer = list_prefetch(graph_, placement_, platform_, reduced);
  EXPECT_LE(fewer.makespan, full.makespan);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomGraphPrefetch,
                         ::testing::Range<std::uint64_t>(1, 21));

TEST(Bnb, EmptyLoadSetIsIdeal) {
  Rng rng(5);
  const auto g = make_chain_graph(4, ms(5), ms(9), rng);
  const auto p = list_schedule(g, 4);
  std::vector<bool> none(g.size(), false);
  const auto r = optimal_prefetch(g, p, virtex2_platform(4), none);
  EXPECT_EQ(r.eval.makespan, p.ideal_makespan);
  EXPECT_TRUE(r.order.empty());
}

TEST(Bnb, ChainOrderIsForced) {
  // On a chain the combined precedence forces the natural load order.
  Rng rng(6);
  const auto g = make_chain_graph(5, ms(6), ms(6), rng);
  const auto p = list_schedule(g, 5);
  std::vector<bool> needs(g.size(), true);
  const auto r = optimal_prefetch(g, p, virtex2_platform(5), needs);
  EXPECT_EQ(r.order, (std::vector<SubtaskId>{0, 1, 2, 3, 4}));
  // Only the first load can be exposed: makespan = ideal + latency.
  EXPECT_EQ(r.eval.makespan, p.ideal_makespan + ms(4));
}

TEST(Bnb, NodeBudgetFallsBackGracefully) {
  Rng rng(7);
  LayeredGraphParams params;
  params.subtasks = 9;
  const auto g = make_layered_graph(params, rng);
  const auto p = list_schedule(g, 4);
  std::vector<bool> needs(g.size(), true);
  BnbOptions opts;
  opts.node_limit = 3;  // absurdly small: forces the greedy fallback
  const auto r = optimal_prefetch(g, p, virtex2_platform(4), needs, opts);
  EXPECT_FALSE(r.proven_optimal);
  EXPECT_EQ(r.order.size(), g.size());
  // The fallback must still be feasible (evaluation succeeded).
  EXPECT_GE(r.eval.makespan, p.ideal_makespan);
}

TEST(ListPrefetch, CustomPriorityChangesOrder) {
  Rng rng(8);
  const auto g = make_fork_join_graph(3, 1, ms(10), ms(10), rng);
  const auto p = list_schedule(g, static_cast<int>(g.size()));
  std::vector<bool> needs(g.size(), true);
  // Reverse priorities: branch 3 should be loaded before branch 1.
  std::vector<time_us> prio(g.size());
  for (std::size_t s = 0; s < g.size(); ++s)
    prio[s] = static_cast<time_us>(s);
  const auto r = list_prefetch_with_priority(g, p, virtex2_platform(8), needs,
                                             prio);
  // Subtask ids 1..3 are the branches; highest priority (3) loads first
  // among the branches.
  std::size_t pos1 = 0, pos3 = 0;
  for (std::size_t i = 0; i < r.load_order.size(); ++i) {
    if (r.load_order[i] == 1) pos1 = i;
    if (r.load_order[i] == 3) pos3 = i;
  }
  EXPECT_LT(pos3, pos1);
}

TEST(ListPrefetch, ComplexityScalesNearLinear) {
  // Sanity guard on the N log N claim: 16x nodes must not cost 100x time.
  Rng rng(9);
  LayeredGraphParams small;
  small.subtasks = 50;
  LayeredGraphParams big;
  big.subtasks = 800;
  const auto gs = make_layered_graph(small, rng);
  const auto gb = make_layered_graph(big, rng);
  const auto ps = list_schedule(gs, 8);
  const auto pb = list_schedule(gb, 8);
  std::vector<bool> ns(gs.size(), true), nb(gb.size(), true);
  for (std::size_t s = 0; s < gs.size(); ++s)
    ns[s] = ps.on_drhw(static_cast<SubtaskId>(s));
  for (std::size_t s = 0; s < gb.size(); ++s)
    nb[s] = pb.on_drhw(static_cast<SubtaskId>(s));

  // Wall-clock ratio under parallel ctest load is noisy: keep the best of
  // several rounds per size so one preempted round cannot fail the test.
  auto best_of = [](auto&& fn) {
    std::int64_t best = std::numeric_limits<std::int64_t>::max();
    for (int round = 0; round < 3; ++round) {
      const auto t0 = std::chrono::steady_clock::now();
      fn();
      const auto t1 = std::chrono::steady_clock::now();
      best = std::min<std::int64_t>(best, (t1 - t0).count());
    }
    return best;
  };
  const auto small_time = best_of([&] {
    for (int i = 0; i < 20; ++i) list_prefetch(gs, ps, virtex2_platform(8), ns);
  });
  const auto big_time = best_of([&] {
    for (int i = 0; i < 20; ++i) list_prefetch(gb, pb, virtex2_platform(8), nb);
  });
  EXPECT_LT(big_time, small_time * 400) << "list prefetch is not ~N log N";
}

}  // namespace
}  // namespace drhw
