// Differential tests for the word-bitset tile pool: TileSet against a
// std::vector<bool> model, TilePoolManager against the char-vector
// reference pool (tests/reference_pool.hpp) over seeded random operation
// sequences at tile counts on both sides of every word boundary, and
// bind_tiles() on an allowed set against binding on a copied view store.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "graph/algorithms.hpp"
#include "pool/tile_pool.hpp"
#include "reference_pool.hpp"
#include "reuse/reuse_module.hpp"
#include "schedule/list_scheduler.hpp"
#include "util/rng.hpp"
#include "util/tile_set.hpp"

namespace drhw {
namespace {

using testing::ReferencePool;

/// Tile counts around every word boundary, plus one that spills the
/// TileSet's inline words to the heap.
const int k_tile_counts[] = {1, 5, 12, 63, 64, 65, 130, 300};

std::vector<PhysTileId> members(const TileSet& set) {
  std::vector<PhysTileId> out;
  set.for_each([&](int t) { out.push_back(t); });
  return out;
}

TEST(TileSet, MatchesABoolVectorModel) {
  for (const int size : k_tile_counts) {
    SCOPED_TRACE("size " + std::to_string(size));
    Rng rng(static_cast<std::uint64_t>(size) * 7919U);
    TileSet set(size);
    std::vector<bool> model(static_cast<std::size_t>(size), false);
    for (int step = 0; step < 400; ++step) {
      const int a = static_cast<int>(rng.next_below(size));
      const int b = static_cast<int>(rng.next_below(size + 1));
      const int lo = std::min(a, b), hi = std::max(a, b);
      switch (rng.next_below(5)) {
        case 0:
          set.set(a);
          model[static_cast<std::size_t>(a)] = true;
          break;
        case 1:
          set.reset(a);
          model[static_cast<std::size_t>(a)] = false;
          break;
        case 2:
          set.set_range(lo, hi);
          for (int t = lo; t < hi; ++t)
            model[static_cast<std::size_t>(t)] = true;
          break;
        case 3:
          set.reset_range(lo, hi);
          for (int t = lo; t < hi; ++t)
            model[static_cast<std::size_t>(t)] = false;
          break;
        default:
          set.flip();
          model.flip();
          break;
      }
      int count = 0, best_run = 0, run = 0, in_range = 0;
      std::vector<PhysTileId> listed;
      for (int t = 0; t < size; ++t) {
        const bool in = model[static_cast<std::size_t>(t)];
        ASSERT_EQ(set.test(t), in);
        count += in;
        run = in ? run + 1 : 0;
        best_run = std::max(best_run, run);
        if (in) listed.push_back(t);
        if (t >= lo && t < hi) in_range += in;
      }
      ASSERT_EQ(set.count(), count);
      ASSERT_EQ(set.longest_run(), best_run);
      ASSERT_EQ(set.count_in(lo, hi), in_range);
      ASSERT_EQ(members(set), listed);
      const auto first_from = [&](int from, bool want) {
        for (int t = from; t < size; ++t)
          if (model[static_cast<std::size_t>(t)] == want) return t;
        return want ? -1 : size;
      };
      ASSERT_EQ(set.next(a), first_from(a, true));
      ASSERT_EQ(set.next_absent(a), first_from(a, false));
      if (count > 0) {
        const int rank = static_cast<int>(rng.next_below(count));
        ASSERT_EQ(set.nth(rank), listed[static_cast<std::size_t>(rank)]);
      }
      const TileSet copy = set;
      ASSERT_EQ(copy, set);
    }
  }
}

TEST(TileSet, AlgebraKeepsTheTailClear) {
  for (const int size : k_tile_counts) {
    TileSet full(size, /*all=*/true);
    EXPECT_EQ(full.count(), size);
    EXPECT_EQ(full.longest_run(), size);
    TileSet none(size);
    none.flip();
    EXPECT_EQ(none, full);
    full.flip();
    EXPECT_EQ(full.count(), 0);
    EXPECT_EQ(full.next(0), -1);
    EXPECT_EQ(full.next_absent(0), 0);
    TileSet odd(size), even(size);
    for (int t = 0; t < size; ++t) (t % 2 ? odd : even).set(t);
    TileSet both = odd;
    both |= even;
    EXPECT_EQ(both.count(), size);
    both.subtract(even);
    EXPECT_EQ(both, odd);
    both.subtract(odd);
    EXPECT_EQ(both.count(), 0);
  }
}

// --- TilePoolManager vs the char-vector reference -------------------------

class PoolHarness {
 public:
  PoolHarness(int tiles, const PoolOptions& options, std::uint64_t seed)
      : options_(options),
        pool_(tiles, options),
        ref_(tiles, options),
        rng_(seed),
        tiles_(tiles) {}

  void run(int steps) {
    for (int step = 0; step < steps && !::testing::Test::HasFailure();
         ++step) {
      SCOPED_TRACE("step " + std::to_string(step));
      now_ += static_cast<time_us>(rng_.next_below(3));
      apply(static_cast<int>(rng_.next_below(10)));
      expect_same();
    }
  }

 private:
  ConfigId random_config() {
    return static_cast<ConfigId>(rng_.next_below(16));
  }

  TileSet random_set(double p) {
    TileSet set(tiles_);
    for (int t = 0; t < tiles_; ++t)
      if (rng_.next_bool(p)) set.set(t);
    return set;
  }

  static std::vector<char> as_chars(const TileSet& set) {
    std::vector<char> out(static_cast<std::size_t>(set.size()), 0);
    set.for_each([&](int t) { out[static_cast<std::size_t>(t)] = 1; });
    return out;
  }

  template <typename T>
  T take(std::vector<T>& from) {
    const std::size_t i = rng_.pick_index(from);
    const T picked = from[i];
    from.erase(from.begin() + static_cast<std::ptrdiff_t>(i));
    return picked;
  }

  bool fits(int needed) const {
    return options_.contiguous ? pool_.largest_free_block() >= needed
                               : pool_.free_count() >= needed;
  }

  std::vector<ConfigId> random_wanted() {
    std::vector<ConfigId> wanted;
    for (auto n = rng_.next_below(4); n > 0; --n)
      wanted.push_back(random_config());
    return wanted;
  }

  void apply(int op) {
    switch (op) {
      case 0: {  // an instance arrives
        const int needed =
            rng_.next_bool(0.6)
                ? static_cast<int>(rng_.next_int(1, std::min(tiles_, 3)))
                : static_cast<int>(rng_.next_int(0, tiles_));
        pool_.enqueue(next_job_, needed, now_);
        ref_.enqueue(next_job_, needed);
        queued_.push_back(next_job_++);
        break;
      }
      case 1: {  // a queued instance is admitted onto (part of) its offer
        if (queued_.empty()) break;
        const std::size_t i = rng_.pick_index(queued_);
        const std::int32_t job = queued_[i];
        const int needed = ref_.needed_of(job);
        if (!fits(needed)) break;
        const std::vector<ConfigId> wanted = random_wanted();
        std::vector<PhysTileId> offered = members(pool_.offer(job, wanted));
        ASSERT_EQ(offered, ref_.offer(job, wanted));
        rng_.shuffle(offered);
        offered.resize(static_cast<std::size_t>(needed));
        pool_.occupy(job, offered, now_);
        ref_.occupy(job, offered);
        queued_.erase(queued_.begin() + static_cast<std::ptrdiff_t>(i));
        live_.push_back(job);
        break;
      }
      case 2: {  // a live instance retires (never one mid-checkpoint)
        if (live_.empty()) break;
        const std::int32_t job = live_[rng_.pick_index(live_)];
        for (const PhysTileId t : checkpointing_)
          if (pool_.owner(t) == job) return;
        pool_.release(job, now_);
        ref_.release(job);
        live_.erase(std::find(live_.begin(), live_.end(), job));
        break;
      }
      case 3: {  // a load lands on a held tile, or an execution uses it
        const PhysTileId t = static_cast<PhysTileId>(rng_.next_below(tiles_));
        if (!pool_.held(t)) break;
        if (rng_.next_bool(0.3)) {
          pool_.store().record_use(t, now_);
          ref_.store.record_use(t, now_);
          break;
        }
        const ConfigId config = random_config();
        const double value = static_cast<double>(rng_.next_below(4));
        pool_.store().record_load(t, config, now_, value);
        ref_.store.record_load(t, config, now_, value);
        break;
      }
      case 4: {  // a backlog prefetch reserves a victim
        const TileSet protect = random_set(0.3);
        const PhysTileId victim = pool_.prefetch_victim(protect);
        ASSERT_EQ(victim, ref_.prefetch_victim(as_chars(protect)));
        if (victim == k_no_phys_tile) break;
        const ConfigId config = random_config();
        const double value = static_cast<double>(rng_.next_below(4));
        pool_.reserve(victim, config, value, now_);
        ref_.reserve(victim, config, value);
        prefetching_.push_back(victim);
        break;
      }
      case 5: {  // a prefetch lands
        if (prefetching_.empty()) break;
        const PhysTileId t = take(prefetching_);
        ASSERT_EQ(pool_.finish_prefetch(t, now_),
                  ref_.finish_prefetch(t, now_));
        break;
      }
      case 6: {  // the defragmentation pass plans (and starts) a move
        const TileSet movable = random_set(0.85);
        const auto plan = pool_.plan_defrag(movable);
        const auto expected = ref_.plan_defrag(as_chars(movable));
        ASSERT_EQ(plan.has_value(), expected.has_value());
        if (!plan) break;
        ASSERT_EQ(plan->src, expected->src);
        ASSERT_EQ(plan->dst, expected->dst);
        ASSERT_EQ(plan->owner, expected->owner);
        ASSERT_EQ(plan->config, expected->config);
        ASSERT_EQ(plan->value, expected->value);
        if (plan->needs_port()) {
          pool_.begin_migration(*plan, now_);
          ref_.begin_migration(*plan);
          moving_.push_back(*plan);
        } else {
          pool_.apply_remap(*plan, now_);
          ref_.apply_remap(*plan);
        }
        break;
      }
      case 7: {  // a move lands
        if (moving_.empty()) break;
        const MigrationPlan plan = take(moving_);
        ASSERT_EQ(pool_.finish_migration(plan, now_),
                  ref_.finish_migration(plan, now_));
        break;
      }
      case 8: {  // a checkpoint writeout starts on a quietly held tile
        const PhysTileId t = static_cast<PhysTileId>(rng_.next_below(tiles_));
        if (!pool_.held(t) || pool_.migrating(t) || pool_.reserved(t)) break;
        pool_.begin_checkpoint(t);
        ref_.begin_checkpoint(t);
        checkpointing_.push_back(t);
        break;
      }
      default: {  // a checkpoint lands or is abandoned
        if (checkpointing_.empty()) break;
        const PhysTileId t = take(checkpointing_);
        if (rng_.next_bool(0.7)) {
          pool_.finish_checkpoint(t, now_);
          ref_.finish_checkpoint(t);
        } else {
          pool_.abort_checkpoint(t);
          ref_.abort_checkpoint(t);
        }
        break;
      }
    }
  }

  void expect_same() {
    std::vector<PhysTileId> free;
    for (int t = 0; t < tiles_; ++t) {
      const auto i = static_cast<std::size_t>(t);
      ASSERT_EQ(pool_.held(t), ref_.held[i] != 0) << "tile " << t;
      ASSERT_EQ(pool_.reserved(t), ref_.reserved[i] != 0) << "tile " << t;
      ASSERT_EQ(pool_.migrating(t), ref_.migrating[i] != 0) << "tile " << t;
      ASSERT_EQ(pool_.owner(t), ref_.owner[i]) << "tile " << t;
      ASSERT_EQ(pool_.store().config_on(t), ref_.store.config_on(t));
      ASSERT_EQ(pool_.store().last_used(t), ref_.store.last_used(t));
      ASSERT_EQ(pool_.store().value_of(t), ref_.store.value_of(t));
      if (ref_.tile_free(t)) free.push_back(t);
    }
    ASSERT_EQ(members(pool_.free_tiles()), free);
    const int free_count = ref_.free_count();
    const int largest = ref_.largest_free_block();
    ASSERT_EQ(pool_.free_count(), free_count);
    ASSERT_EQ(pool_.largest_free_block(), largest);
    ASSERT_EQ(pool_.fragmentation_pct(),
              free_count == 0
                  ? 0.0
                  : 100.0 * (1.0 - static_cast<double>(largest) /
                                       static_cast<double>(free_count)));
    ASSERT_EQ(pool_.head_fragmentation_blocked(),
              ref_.head_fragmentation_blocked());
    const TileSet protect = random_set(0.3);
    ASSERT_EQ(pool_.prefetch_victim(protect),
              ref_.prefetch_victim(as_chars(protect)));
    if (!queued_.empty()) {
      const std::int32_t job = queued_[rng_.pick_index(queued_)];
      if (fits(ref_.needed_of(job))) {
        const std::vector<ConfigId> wanted = random_wanted();
        ASSERT_EQ(members(pool_.offer(job, wanted)), ref_.offer(job, wanted));
      }
    }
  }

  PoolOptions options_;
  TilePoolManager pool_;
  ReferencePool ref_;
  Rng rng_;
  int tiles_;
  time_us now_ = 0;
  std::int32_t next_job_ = 0;
  std::vector<std::int32_t> queued_, live_;
  std::vector<PhysTileId> prefetching_, checkpointing_;
  std::vector<MigrationPlan> moving_;
};

TEST(PoolReference, RandomOperationsMatchTheCharVectorPool) {
  PoolOptions count_based;
  PoolOptions contiguous;
  contiguous.contiguous = true;
  PoolOptions defrag = contiguous;
  defrag.defrag = true;
  for (const int tiles : k_tile_counts)
    for (const PoolOptions& options : {count_based, contiguous, defrag})
      for (std::uint64_t seed = 1; seed <= 2; ++seed) {
        SCOPED_TRACE("tiles " + std::to_string(tiles) + " contiguous " +
                     std::to_string(options.contiguous) + " defrag " +
                     std::to_string(options.defrag) + " seed " +
                     std::to_string(seed));
        PoolHarness(tiles, options, seed * 1000003U + tiles).run(1500);
        if (HasFailure()) return;
      }
}

// --- bind_tiles on an allowed set vs a copied view store --------------------

TEST(PoolReference, AllowedSetBindingMatchesTheViewStore) {
  const ReplacementPolicy policies[] = {
      ReplacementPolicy::lru, ReplacementPolicy::weight_aware,
      ReplacementPolicy::critical_first, ReplacementPolicy::random_tile,
      ReplacementPolicy::oracle};
  Rng rng(20051);
  for (const ReplacementPolicy policy : policies)
    for (const int tiles : k_tile_counts)
      for (int trial = 0; trial < 40; ++trial) {
        SCOPED_TRACE(std::string(to_string(policy)) + " tiles " +
                     std::to_string(tiles) + " trial " +
                     std::to_string(trial));
        ConfigStore store(tiles);
        for (int t = 0; t < tiles; ++t)
          if (rng.next_bool(0.7))
            store.record_load(t, static_cast<ConfigId>(rng.next_below(12)),
                              static_cast<time_us>(rng.next_below(50)),
                              static_cast<double>(rng.next_below(3)));
        TileSet allowed(tiles);
        for (int t = 0; t < tiles; ++t)
          if (rng.next_bool(0.6)) allowed.set(t);
        if (allowed.count() == 0) allowed.set(0);

        SubtaskGraph graph("bind");
        const int subtasks = static_cast<int>(rng.next_int(1, 8));
        for (int s = 0; s < subtasks; ++s)
          graph.add_subtask({"s", ms(1 + s), Resource::drhw,
                             static_cast<ConfigId>(rng.next_below(12)), 0});
        graph.finalize();
        const int width = static_cast<int>(
            rng.next_int(1, std::min(subtasks, allowed.count())));
        const Placement placement = list_schedule(graph, width);
        std::vector<time_us> values(graph.size());
        for (time_us& v : values) v = static_cast<time_us>(rng.next_below(9));
        std::vector<long> rank(13);
        for (long& r : rank) r = static_cast<long>(rng.next_below(5));
        const NextUseRank next_use = [&rank](ConfigId c) {
          return rank[static_cast<std::size_t>(c + 1)];
        };

        const std::uint64_t seed = rng.next_u64();
        Rng bind_rng(seed), view_rng(seed);
        Binding binding;
        bind_tiles(graph, placement, store, allowed, policy, values, bind_rng,
                   next_use, binding);
        const Binding expected = testing::reference_bind_on_view(
            graph, placement, store, members(allowed), policy, values,
            view_rng, next_use);
        ASSERT_EQ(binding.phys_of_tile, expected.phys_of_tile);
        ASSERT_EQ(binding.resident, expected.resident);
        ASSERT_EQ(binding.reused_subtasks, expected.reused_subtasks);
        ASSERT_EQ(bind_rng.next_u64(), view_rng.next_u64())
            << "both binders must draw the same random numbers";
        for (const PhysTileId p : binding.phys_of_tile) {
          if (p != k_no_phys_tile) {
            ASSERT_TRUE(allowed.test(p));
          }
        }
      }
}

}  // namespace
}  // namespace drhw
