#pragma once

// Reference tile pool: occupancy as per-tile char vectors and every query
// as the one-tile-at-a-time scan the pool ran before its state became
// TileSets. It is the oracle TilePoolManager's free count, longest free
// run, contiguous offer, prefetch victim and defragmentation plans must
// match after every operation, at any tile count. Also the binding oracle:
// bind_tiles() restricted to an allowed set must equal binding onto a copied
// store that holds only the allowed tiles. Slow by design; test-only.

#include <algorithm>
#include <cstdint>
#include <limits>
#include <optional>
#include <vector>

#include "pool/tile_pool.hpp"
#include "reuse/config_store.hpp"
#include "reuse/reuse_module.hpp"
#include "util/check.hpp"

namespace drhw::testing {

class ReferencePool {
 public:
  ReferencePool(int tiles, const PoolOptions& options)
      : options_(options),
        store(tiles),
        held(static_cast<std::size_t>(tiles), 0),
        reserved(held),
        migrating(held),
        owner(static_cast<std::size_t>(tiles), -1),
        prefetch_config(static_cast<std::size_t>(tiles), k_no_config),
        prefetch_value(static_cast<std::size_t>(tiles), 0.0) {}

  int tiles() const { return static_cast<int>(held.size()); }

  // --- admission queue: arrival order, only what the queries read --------

  void enqueue(std::int32_t job, int needed) {
    queue_.push_back({job, needed});
  }
  bool queue_empty() const { return queue_.empty(); }
  int needed_of(std::int32_t job) const { return entry(job).needed; }

  // --- state transitions ---------------------------------------------------

  void occupy(std::int32_t job, const std::vector<PhysTileId>& tiles) {
    for (const PhysTileId t : tiles) {
      DRHW_CHECK(tile_free(t));
      held[idx(t)] = 1;
      owner[idx(t)] = job;
    }
    queue_.erase(std::find_if(queue_.begin(), queue_.end(),
                              [&](const Waiting& w) { return w.job == job; }));
    if (defrag_target_ == job) {
      defrag_target_ = -1;
      defrag_window_ = -1;
      defrag_window_size_ = 0;
    }
  }

  void release(std::int32_t job) {
    for (std::size_t t = 0; t < held.size(); ++t)
      if (owner[t] == job) {
        held[t] = 0;
        owner[t] = -1;
      }
  }

  void reserve(PhysTileId tile, ConfigId config, double value) {
    DRHW_CHECK(tile_free(tile));
    reserved[idx(tile)] = 1;
    prefetch_config[idx(tile)] = config;
    prefetch_value[idx(tile)] = value;
  }

  ConfigId finish_prefetch(PhysTileId tile, time_us now) {
    DRHW_CHECK(reserved[idx(tile)]);
    const ConfigId config = prefetch_config[idx(tile)];
    store.record_load(tile, config, now, prefetch_value[idx(tile)]);
    reserved[idx(tile)] = 0;
    prefetch_config[idx(tile)] = k_no_config;
    return config;
  }

  void begin_migration(const MigrationPlan& plan) {
    DRHW_CHECK(held[idx(plan.src)] && !migrating[idx(plan.src)]);
    DRHW_CHECK(tile_free(plan.dst));
    reserved[idx(plan.dst)] = 1;
    migrating[idx(plan.src)] = 1;
  }

  bool finish_migration(const MigrationPlan& plan, time_us now) {
    const std::size_t src = idx(plan.src), dst = idx(plan.dst);
    DRHW_CHECK(migrating[src] && reserved[dst]);
    reserved[dst] = 0;
    migrating[src] = 0;
    const bool transfer = held[src] && owner[src] == plan.owner &&
                          store.config_on(plan.src) == plan.config;
    if (transfer) {
      store.relocate(plan.src, plan.dst, now);
      held[dst] = 1;
      owner[dst] = plan.owner;
      held[src] = 0;
      owner[src] = -1;
    } else {
      store.record_load(plan.dst, plan.config, now, plan.value);
    }
    return transfer;
  }

  void apply_remap(const MigrationPlan& plan) {
    const std::size_t src = idx(plan.src), dst = idx(plan.dst);
    DRHW_CHECK(held[src] && !migrating[src] && owner[src] == plan.owner);
    DRHW_CHECK(tile_free(plan.dst));
    held[dst] = 1;
    owner[dst] = plan.owner;
    held[src] = 0;
    owner[src] = -1;
  }

  void begin_checkpoint(PhysTileId tile) {
    DRHW_CHECK(held[idx(tile)] && !migrating[idx(tile)] &&
               !reserved[idx(tile)]);
    migrating[idx(tile)] = 1;
  }
  void finish_checkpoint(PhysTileId tile) {
    DRHW_CHECK(held[idx(tile)] && migrating[idx(tile)]);
    migrating[idx(tile)] = 0;
    held[idx(tile)] = 0;
    owner[idx(tile)] = -1;
  }
  void abort_checkpoint(PhysTileId tile) {
    DRHW_CHECK(held[idx(tile)] && migrating[idx(tile)]);
    migrating[idx(tile)] = 0;
  }

  // --- queries -------------------------------------------------------------

  bool tile_free(PhysTileId t) const {
    return !held[idx(t)] && !reserved[idx(t)] && !migrating[idx(t)];
  }

  int free_count() const {
    int free = 0;
    for (int t = 0; t < tiles(); ++t) free += tile_free(t);
    return free;
  }

  int largest_free_block() const {
    int best = 0, run = 0;
    for (int t = 0; t < tiles(); ++t) {
      run = tile_free(t) ? run + 1 : 0;
      best = std::max(best, run);
    }
    return best;
  }

  bool head_fragmentation_blocked() const {
    if (!options_.contiguous || queue_.empty()) return false;
    const int needed = queue_.front().needed;
    return free_count() >= needed && largest_free_block() < needed;
  }

  /// The offered tiles, ascending (TilePoolManager::offer as a list).
  std::vector<PhysTileId> offer(std::int32_t job,
                                const std::vector<ConfigId>& wanted) const {
    std::vector<PhysTileId> out;
    if (!options_.contiguous) {
      for (int t = 0; t < tiles(); ++t)
        if (tile_free(t)) out.push_back(t);
      return out;
    }
    const int needed = needed_of(job);
    if (needed == 0) return out;
    int best_start = -1, best_score = -1, best_overlap = 0;
    for (int s = 0; s + needed <= tiles(); ++s) {
      bool free_run = true;
      int score = 0, overlap = 0;
      for (int t = s; t < s + needed; ++t) {
        if (!tile_free(t)) {
          free_run = false;
          break;
        }
        const ConfigId resident = store.config_on(t);
        if (resident != k_no_config &&
            std::find(wanted.begin(), wanted.end(), resident) != wanted.end())
          ++score;
        if (defrag_window_ >= 0 && t >= defrag_window_ &&
            t < defrag_window_ + defrag_window_size_)
          ++overlap;
      }
      if (!free_run) continue;
      if (best_start < 0 || score > best_score ||
          (score == best_score && overlap < best_overlap)) {
        best_start = s;
        best_score = score;
        best_overlap = overlap;
      }
    }
    DRHW_CHECK_GE(best_start, 0);
    for (int t = best_start; t < best_start + needed; ++t) out.push_back(t);
    return out;
  }

  PhysTileId prefetch_victim(const std::vector<char>& protected_tiles) const {
    PhysTileId victim = k_no_phys_tile;
    for (int p = 0; p < tiles(); ++p) {
      if (!tile_free(p) || protected_tiles[idx(p)]) continue;
      if (store.config_on(p) == k_no_config) return p;
      bool better = victim == k_no_phys_tile;
      if (!better) {
        if (store.value_of(p) != store.value_of(victim))
          better = store.value_of(p) < store.value_of(victim);
        else
          better = store.last_used(p) < store.last_used(victim);
      }
      if (better) victim = p;
    }
    return victim;
  }

  std::optional<MigrationPlan> plan_defrag(const std::vector<char>& movable) {
    if (!options_.defrag || !head_fragmentation_blocked()) return std::nullopt;
    const Waiting& oldest = queue_.front();
    const int needed = oldest.needed;
    if (defrag_target_ != oldest.job) {
      defrag_target_ = oldest.job;
      defrag_window_ = -1;
    }
    defrag_window_size_ = needed;
    if (defrag_window_ >= 0) {
      const WindowScan scan = scan_window(defrag_window_, needed, movable);
      if (scan.feasible && scan.blockers == 0 && scan.migrating > 0)
        return std::nullopt;
      if (!scan.feasible || scan.blockers == 0) defrag_window_ = -1;
    }
    if (defrag_window_ < 0) {
      int best = -1, best_blockers = tiles() + 1;
      for (int s = 0; s + needed <= tiles(); ++s) {
        const WindowScan scan = scan_window(s, needed, movable);
        if (scan.feasible && scan.blockers > 0 &&
            scan.blockers < best_blockers) {
          best = s;
          best_blockers = scan.blockers;
        }
      }
      if (best < 0) return std::nullopt;
      defrag_window_ = best;
    }
    PhysTileId src = k_no_phys_tile;
    for (int t = defrag_window_; t < defrag_window_ + needed; ++t)
      if (held[idx(t)] && !migrating[idx(t)]) {
        src = t;
        break;
      }
    if (src == k_no_phys_tile) return std::nullopt;
    PhysTileId dst = k_no_phys_tile;
    for (int t = 0; t < tiles(); ++t) {
      if (t >= defrag_window_ && t < defrag_window_ + needed) continue;
      if (tile_free(t)) {
        dst = t;
        break;
      }
    }
    if (dst == k_no_phys_tile) return std::nullopt;
    MigrationPlan plan;
    plan.src = src;
    plan.dst = dst;
    plan.owner = owner[idx(src)];
    plan.config = store.config_on(src);
    plan.value = store.value_of(src);
    return plan;
  }

 private:
  struct Waiting {
    std::int32_t job = -1;
    int needed = 0;
  };
  struct WindowScan {
    int blockers = 0;
    int migrating = 0;
    bool feasible = true;
  };

  static std::size_t idx(PhysTileId t) { return static_cast<std::size_t>(t); }

  const Waiting& entry(std::int32_t job) const {
    const auto it =
        std::find_if(queue_.begin(), queue_.end(),
                     [&](const Waiting& w) { return w.job == job; });
    DRHW_CHECK(it != queue_.end());
    return *it;
  }

  WindowScan scan_window(int start, int needed,
                         const std::vector<char>& movable) const {
    WindowScan scan;
    for (int t = start; t < start + needed; ++t) {
      if (reserved[idx(t)]) {
        scan.feasible = false;
        return scan;
      }
      if (migrating[idx(t)]) {
        ++scan.migrating;
        continue;
      }
      if (held[idx(t)]) {
        if (!movable[idx(t)]) {
          scan.feasible = false;
          return scan;
        }
        ++scan.blockers;
      }
    }
    return scan;
  }

  PoolOptions options_;
  std::vector<Waiting> queue_;
  int defrag_window_ = -1;
  int defrag_window_size_ = 0;
  std::int32_t defrag_target_ = -1;

 public:
  ConfigStore store;
  std::vector<char> held, reserved, migrating;
  std::vector<std::int32_t> owner;
  std::vector<ConfigId> prefetch_config;
  std::vector<double> prefetch_value;
};

/// bind_tiles() as it was before it took an allowed set: a per-call
/// claimed vector and one scan over every store tile per victim.
inline Binding reference_bind_tiles(const SubtaskGraph& graph,
                                    const Placement& placement,
                                    const ConfigStore& store,
                                    ReplacementPolicy policy,
                                    const std::vector<time_us>& values,
                                    Rng& rng, const NextUseRank& next_use) {
  DRHW_CHECK_LE(placement.tiles_occupied(), store.tiles());
  DRHW_CHECK(values.size() == graph.size());
  Binding binding;
  binding.reused_subtasks = 0;
  binding.phys_of_tile.assign(static_cast<std::size_t>(placement.tiles_used),
                              k_no_phys_tile);
  binding.resident.assign(graph.size(), false);

  std::vector<char> claimed(static_cast<std::size_t>(store.tiles()), 0);

  // Phase 1 — reuse matching: a virtual tile whose first subtask's
  // configuration is resident binds to that physical tile. ICN-aware
  // placements may contain empty virtual tiles (a mesh position no subtask
  // was assigned to); they execute nothing and stay unbound.
  for (int v = 0; v < placement.tiles_used; ++v) {
    const auto& seq = placement.tile_sequence[static_cast<std::size_t>(v)];
    if (seq.empty()) continue;
    const SubtaskId first = seq.front();
    const ConfigId config = graph.subtask(first).config;
    if (const auto tile = store.find(config);
        tile && !claimed[static_cast<std::size_t>(*tile)]) {
      claimed[static_cast<std::size_t>(*tile)] = 1;
      binding.phys_of_tile[static_cast<std::size_t>(v)] = *tile;
      binding.resident[static_cast<std::size_t>(first)] = true;
      ++binding.reused_subtasks;
    }
  }

  // Phase 2 — replacement: bind the rest, preferring empty tiles, then the
  // policy's victim among the unclaimed.
  for (int v = 0; v < placement.tiles_used; ++v) {
    if (placement.tile_sequence[static_cast<std::size_t>(v)].empty())
      continue;  // unbound by design, see phase 1
    auto& slot = binding.phys_of_tile[static_cast<std::size_t>(v)];
    if (slot != k_no_phys_tile) continue;

    PhysTileId victim = k_no_phys_tile;
    // Empty tiles first (no information is lost by using them).
    for (int t = 0; t < store.tiles(); ++t) {
      const auto idx = static_cast<std::size_t>(t);
      if (claimed[idx] || store.config_on(t) != k_no_config) continue;
      victim = t;
      break;
    }
    if (victim == k_no_phys_tile) {
      switch (policy) {
        case ReplacementPolicy::lru: {
          time_us oldest = std::numeric_limits<time_us>::max();
          for (int t = 0; t < store.tiles(); ++t) {
            if (claimed[static_cast<std::size_t>(t)]) continue;
            if (store.last_used(t) < oldest) {
              oldest = store.last_used(t);
              victim = t;
            }
          }
          break;
        }
        case ReplacementPolicy::weight_aware:
        case ReplacementPolicy::critical_first: {
          double lowest = std::numeric_limits<double>::max();
          time_us oldest = std::numeric_limits<time_us>::max();
          for (int t = 0; t < store.tiles(); ++t) {
            if (claimed[static_cast<std::size_t>(t)]) continue;
            const double value = store.value_of(t);
            const time_us used = store.last_used(t);
            if (value < lowest || (value == lowest && used < oldest)) {
              lowest = value;
              oldest = used;
              victim = t;
            }
          }
          break;
        }
        case ReplacementPolicy::random_tile: {
          std::vector<PhysTileId> unclaimed;
          for (int t = 0; t < store.tiles(); ++t)
            if (!claimed[static_cast<std::size_t>(t)]) unclaimed.push_back(t);
          DRHW_CHECK(!unclaimed.empty());
          victim = unclaimed[rng.pick_index(unclaimed)];
          break;
        }
        case ReplacementPolicy::oracle: {
          DRHW_CHECK_MSG(next_use != nullptr,
                         "oracle policy needs next-use information");
          long farthest = -1;
          time_us oldest = std::numeric_limits<time_us>::max();
          for (int t = 0; t < store.tiles(); ++t) {
            if (claimed[static_cast<std::size_t>(t)]) continue;
            const long rank = next_use(store.config_on(t));
            const time_us used = store.last_used(t);
            if (rank > farthest || (rank == farthest && used < oldest)) {
              farthest = rank;
              oldest = used;
              victim = t;
            }
          }
          break;
        }
      }
    }
    DRHW_CHECK_MSG(victim != k_no_phys_tile, "no victim tile available");
    claimed[static_cast<std::size_t>(victim)] = 1;
    slot = victim;
  }
  return binding;
}

/// Binding as the online kernel did it before bind_tiles() took an allowed
/// set: copy the allowed tiles' configurations into a fresh view store (one
/// view tile per allowed tile, ascending), bind onto the view, and map the
/// view tiles back to physical ones.
inline Binding reference_bind_on_view(const SubtaskGraph& graph,
                                      const Placement& placement,
                                      const ConfigStore& store,
                                      const std::vector<PhysTileId>& allowed,
                                      ReplacementPolicy policy,
                                      const std::vector<time_us>& values,
                                      Rng& rng, const NextUseRank& next_use) {
  ConfigStore view(static_cast<int>(allowed.size()));
  for (std::size_t i = 0; i < allowed.size(); ++i) {
    const PhysTileId p = allowed[i];
    if (store.config_on(p) != k_no_config)
      view.record_load(static_cast<PhysTileId>(i), store.config_on(p),
                       store.last_used(p), store.value_of(p));
  }
  Binding binding = reference_bind_tiles(graph, placement, view, policy,
                                         values, rng, next_use);
  for (PhysTileId& p : binding.phys_of_tile)
    if (p != k_no_phys_tile) p = allowed[static_cast<std::size_t>(p)];
  return binding;
}

}  // namespace drhw::testing
