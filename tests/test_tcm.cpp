// Tests for the TCM layer: Pareto-curve generation and the run-time
// point selector.

#include <gtest/gtest.h>

#include "apps/multimedia.hpp"
#include "tcm/pareto.hpp"
#include "tcm/runtime_selector.hpp"

namespace drhw {
namespace {

std::vector<ParetoPoint> jpeg_curve(int max_tiles = 8) {
  ConfigSpace cs;
  auto task = make_parallel_jpeg(cs);
  return build_pareto_curve(task.scenarios[0], max_tiles,
                            virtex2_platform(max_tiles));
}

TEST(Pareto, CurveIsAFront) {
  const auto curve = jpeg_curve();
  ASSERT_GE(curve.size(), 2u);
  for (std::size_t i = 1; i < curve.size(); ++i) {
    EXPECT_LT(curve[i].exec_time, curve[i - 1].exec_time);
    EXPECT_GT(curve[i].energy, curve[i - 1].energy);
  }
}

TEST(Pareto, NoDominatedPoints) {
  const auto curve = jpeg_curve();
  for (const auto& a : curve)
    for (const auto& b : curve) {
      if (&a == &b) continue;
      const bool dominates = a.exec_time <= b.exec_time &&
                             a.energy <= b.energy &&
                             (a.exec_time < b.exec_time || a.energy < b.energy);
      EXPECT_FALSE(dominates);
    }
}

TEST(Pareto, MoreTilesNeverSlower) {
  ConfigSpace cs;
  auto task = make_parallel_jpeg(cs);
  const auto& g = task.scenarios[0];
  time_us prev = std::numeric_limits<time_us>::max();
  for (int tiles = 1; tiles <= 8; ++tiles) {
    const auto curve = build_pareto_curve(g, tiles, virtex2_platform(tiles));
    // The fastest point never gets slower with a bigger budget.
    EXPECT_LE(curve.back().exec_time, prev);
    prev = curve.back().exec_time;
  }
}

TEST(Pareto, PlacementsAreConsistent) {
  const auto curve = jpeg_curve();
  ConfigSpace cs;
  auto task = make_parallel_jpeg(cs);
  for (const auto& point : curve) {
    EXPECT_EQ(point.exec_time, point.placement.ideal_makespan);
    EXPECT_EQ(point.tiles, point.placement.tiles_used);
  }
}

TEST(Pareto, RejectsBadBudget) {
  ConfigSpace cs;
  auto task = make_jpeg_decoder(cs);
  EXPECT_THROW(
      build_pareto_curve(task.scenarios[0], 0, virtex2_platform(1)),
      std::invalid_argument);
}

TEST(Selector, PicksMinEnergyMeetingDeadline) {
  const auto curve = jpeg_curve();
  // A deadline met by the slowest point selects the cheapest (first) one.
  const auto relaxed =
      select_point(curve, curve.front().exec_time + ms(1), 8);
  ASSERT_TRUE(relaxed.has_value());
  EXPECT_EQ(*relaxed, 0u);

  // A deadline only the fastest point meets selects it.
  const auto tight = select_point(curve, curve.back().exec_time, 8);
  ASSERT_TRUE(tight.has_value());
  EXPECT_EQ(*tight, curve.size() - 1);
}

TEST(Selector, FallsBackToFastestWhenDeadlineImpossible) {
  const auto curve = jpeg_curve();
  const auto best_effort = select_point(curve, ms(1), 8);
  ASSERT_TRUE(best_effort.has_value());
  EXPECT_EQ(curve[*best_effort].exec_time, curve.back().exec_time);
}

TEST(Selector, RespectsTileBudget) {
  const auto curve = jpeg_curve();
  const auto constrained = select_point(curve, ms(1), 2);
  ASSERT_TRUE(constrained.has_value());
  EXPECT_LE(curve[*constrained].tiles, 2);
}

TEST(Selector, NoFittingPointReturnsNullopt) {
  const auto curve = jpeg_curve();
  EXPECT_FALSE(select_point(curve, ms(1000), 0).has_value());
}

TEST(Selector, PipelineUpgradesUntilDeadline) {
  ConfigSpace cs;
  auto tasks = make_multimedia_taskset(cs);
  std::vector<std::vector<ParetoPoint>> curves;
  for (const auto& t : tasks)
    curves.push_back(
        build_pareto_curve(t.scenarios[0], 8, virtex2_platform(8)));
  std::vector<const std::vector<ParetoPoint>*> refs;
  for (const auto& c : curves) refs.push_back(&c);

  // Total of the fastest points, as the feasibility limit.
  time_us fastest_total = 0;
  for (const auto& c : curves) fastest_total += c.back().exec_time;

  const auto choice =
      select_points_for_pipeline(refs, fastest_total + ms(5), 8);
  ASSERT_EQ(choice.size(), curves.size());
  time_us total = 0;
  for (std::size_t t = 0; t < curves.size(); ++t)
    total += curves[t][choice[t]].exec_time;
  EXPECT_LE(total, fastest_total + ms(5));

  // A relaxed deadline keeps energy at the minimum.
  const auto relaxed = select_points_for_pipeline(refs, ms(100000), 8);
  for (std::size_t t = 0; t < curves.size(); ++t) {
    double min_energy = 1e300;
    for (const auto& p : curves[t]) min_energy = std::min(min_energy, p.energy);
    EXPECT_DOUBLE_EQ(curves[t][relaxed[t]].energy, min_energy);
  }
}

TEST(Selector, PipelineImpossibleTileBudgetReturnsEmpty) {
  ConfigSpace cs;
  auto task = make_parallel_jpeg(cs);
  const auto curve =
      build_pareto_curve(task.scenarios[0], 8, virtex2_platform(8));
  std::vector<const std::vector<ParetoPoint>*> refs{&curve};
  EXPECT_TRUE(select_points_for_pipeline(refs, ms(1000), 0).empty());
}

}  // namespace
}  // namespace drhw
