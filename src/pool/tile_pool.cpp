#include "pool/tile_pool.hpp"

#include <algorithm>
#include <stdexcept>

#include "sim/report_accumulator.hpp"
#include "util/check.hpp"

namespace drhw {

const char* to_string(AdmissionPolicy policy) {
  switch (policy) {
    case AdmissionPolicy::fifo_hol:
      return "fifo_hol";
    case AdmissionPolicy::backfill_bypass:
      return "backfill_bypass";
    case AdmissionPolicy::window_reorder:
      return "window_reorder";
  }
  return "?";
}

AdmissionPolicy admission_policy_from_string(const std::string& text) {
  if (text == "fifo_hol") return AdmissionPolicy::fifo_hol;
  if (text == "backfill_bypass") return AdmissionPolicy::backfill_bypass;
  if (text == "window_reorder") return AdmissionPolicy::window_reorder;
  throw std::invalid_argument("unknown admission policy '" + text + "'");
}

void PoolOptions::validate() const {
  if (reorder_window < 1)
    throw std::invalid_argument("pool reorder window must be >= 1");
  if (max_bypass < 0)
    throw std::invalid_argument("pool bypass bound must be >= 0");
  if (defrag && !contiguous)
    throw std::invalid_argument(
        "pool defragmentation requires contiguous allocation — without a "
        "contiguity requirement there is nothing to defragment");
}

TilePoolManager::TilePoolManager(int tiles, const PoolOptions& options)
    : options_(options),
      store_(tiles),
      held_(tiles),
      reserved_(tiles),
      migrating_(tiles) {
  options_.validate();
  const auto n = static_cast<std::size_t>(tiles);
  owner_.assign(n, -1);
  prefetch_config_.assign(n, k_no_config);
  prefetch_value_.assign(n, 0.0);
}

// --- admission queue --------------------------------------------------------

void TilePoolManager::enqueue(std::int32_t job, int needed, time_us now,
                              long long urgency) {
  DRHW_CHECK_GE_MSG(job, 0, "queued instance needs a non-negative id");
  DRHW_CHECK_GE_MSG(needed, 0, "queued instance needs a negative tile count");
  DRHW_CHECK_LE_MSG(needed, tiles(),
                    "queued instance needs more tiles than the pool has");
  if (perf_ && queue_.size() == queue_.capacity()) perf_->note_alloc();
  queue_.push_back(Waiting{job, needed, now, 0, urgency});
  ++queued_count_;
}

std::int32_t TilePoolManager::queue_head() const {
  return queued_count_ == 0 ? -1 : head().job;
}

std::size_t TilePoolManager::position_of(std::int32_t job) const {
  if (last_pick_ < queue_.size() && queue_[last_pick_].job == job)
    return last_pick_;
  for (std::size_t p = head_; p < queue_.size(); ++p)
    if (queue_[p].job == job) return p;
  return queue_.size();
}

bool TilePoolManager::fits(int needed) const {
  return options_.contiguous ? largest_free_block() >= needed
                             : free_count() >= needed;
}

std::int32_t TilePoolManager::take_pick(std::size_t pick, time_us now) {
  if (pick >= queue_.size()) return -1;
  for (std::size_t i = head_; i < pick; ++i)
    if (queue_[i].job >= 0) {
      ++queue_[i].skips;
      if (metrics_) metrics_->on_queue_skip(now);
    }
  last_pick_ = pick;
  return queue_[pick].job;
}

std::int32_t TilePoolManager::select(time_us now) {
  if (queued_count_ == 0) return -1;
  const std::size_t none = queue_.size();
  std::size_t pick = none;
  switch (options_.admission) {
    case AdmissionPolicy::fifo_hol:
      if (fits(head().needed)) pick = head_;
      break;
    case AdmissionPolicy::backfill_bypass: {
      if (fits(head().needed)) {
        pick = head_;
        break;
      }
      if (head().skips >= options_.max_bypass) break;
      for (std::size_t i = head_ + 1; i < queue_.size(); ++i)
        if (queue_[i].job >= 0 && queue_[i].needed < head().needed &&
            fits(queue_[i].needed)) {
          pick = i;
          break;
        }
      break;
    }
    case AdmissionPolicy::window_reorder: {
      const std::size_t window = std::min(
          queued_count_, static_cast<std::size_t>(options_.reorder_window));
      std::size_t seen = 0;
      for (std::size_t i = head_; i < queue_.size() && seen < window; ++i) {
        if (queue_[i].job < 0) continue;
        ++seen;
        if (fits(queue_[i].needed) &&
            (pick == none || queue_[i].needed > queue_[pick].needed))
          pick = i;
      }
      if (pick != none && pick != head_ &&
          head().skips >= options_.max_bypass)
        pick = fits(head().needed) ? head_ : none;
      break;
    }
  }
  return take_pick(pick, now);
}

std::int32_t TilePoolManager::select_urgent(time_us now) {
  if (queued_count_ == 0) return -1;
  const std::size_t none = queue_.size();
  std::size_t pick = none;
  for (std::size_t i = head_; i < queue_.size(); ++i) {
    if (queue_[i].job < 0 || !fits(queue_[i].needed)) continue;
    if (pick == none || queue_[i].urgency < queue_[pick].urgency) pick = i;
  }
  if (pick != none && pick != head_ && head().skips >= options_.max_bypass)
    pick = fits(head().needed) ? head_ : none;
  return take_pick(pick, now);
}

TileSet TilePoolManager::offer(std::int32_t job,
                               const std::vector<ConfigId>& wanted) const {
  const TileSet free = free_tiles();
  if (!options_.contiguous) return free;

  const std::size_t pos = position_of(job);
  DRHW_CHECK_LT_MSG(pos, queue_.size(),
                    "offer() for a job that is not queued");
  const int needed = queue_[pos].needed;
  TileSet out(tiles());
  if (needed == 0) return out;

  // Placement-aware block selection: among the free blocks of the job's
  // size, prefer the one with the most wanted configurations already
  // resident (reuse), then the least overlap with the defragmentation
  // window (so backfilled instances do not re-fragment the run the defrag
  // pass is clearing), then the leftmost. Candidate windows are the
  // needed-wide slices of each free run, scored by popcount.
  TileSet resident_wanted(tiles());
  if (!wanted.empty())
    free.for_each([&](int t) {
      const ConfigId resident = store_.config_on(t);
      if (resident != k_no_config &&
          std::find(wanted.begin(), wanted.end(), resident) != wanted.end())
        resident_wanted.set(t);
    });
  const int window_end = defrag_window_ + defrag_window_size_;
  int best_start = -1, best_score = -1, best_overlap = 0;
  for (int run = free.next(0); run >= 0;) {
    const int run_end = free.next_absent(run);
    for (int s = run; s + needed <= run_end; ++s) {
      const int score = resident_wanted.count_in(s, s + needed);
      const int overlap =
          defrag_window_ < 0
              ? 0
              : std::max(0, std::min(s + needed, window_end) -
                                std::max(s, defrag_window_));
      if (best_start < 0 || score > best_score ||
          (score == best_score && overlap < best_overlap)) {
        best_start = s;
        best_score = score;
        best_overlap = overlap;
      }
    }
    run = free.next(run_end);
  }
  DRHW_CHECK_GE_MSG(best_start, 0,
                    "offer() called without a fitting contiguous block");
  out.set_range(best_start, best_start + needed);
  return out;
}

void TilePoolManager::occupy(std::int32_t job,
                             const std::vector<PhysTileId>& tiles,
                             time_us now) {
  touch(now);
  for (const PhysTileId t : tiles) {
    const int idx = checked(t);
    DRHW_CHECK_MSG(tile_free(idx), "occupying a tile that is not free");
    held_.set(idx);
    owner_[static_cast<std::size_t>(idx)] = job;
  }
  const std::size_t pos = position_of(job);
  DRHW_CHECK_LT_MSG(pos, queue_.size(),
                    "occupy() for a job that is not queued");
  queue_[pos].job = -1;  // tombstone; skips/needed are dead with it
  --queued_count_;
  last_pick_ = static_cast<std::size_t>(-1);
  while (head_ < queue_.size() && queue_[head_].job < 0) ++head_;
  if (queued_count_ == 0) {
    queue_.clear();  // keeps capacity: the backlog storage is recycled
    head_ = 0;
  } else if (head_ >= 64 && head_ >= queue_.size() / 2) {
    queue_.erase(queue_.begin(),
                 queue_.begin() + static_cast<std::ptrdiff_t>(head_));
    head_ = 0;
  }
  if (defrag_target_ == job) {
    defrag_target_ = -1;
    defrag_window_ = -1;
    defrag_window_size_ = 0;
  }
}

void TilePoolManager::release(std::int32_t job, time_us now) {
  touch(now);
  held_.for_each([&](int t) {
    std::int32_t& owner = owner_[static_cast<std::size_t>(t)];
    if (owner != job) return;
    held_.reset(t);
    owner = -1;
  });
}

// --- backlog-prefetch reservations ------------------------------------------

PhysTileId TilePoolManager::prefetch_victim(
    const TileSet& protected_tiles) const {
  TileSet candidates = free_tiles();
  candidates.subtract(protected_tiles);
  PhysTileId victim = k_no_phys_tile;
  for (int p = candidates.next(0); p >= 0; p = candidates.next(p + 1)) {
    if (store_.config_on(p) == k_no_config) return p;
    bool better = victim == k_no_phys_tile;
    if (!better) {
      if (store_.value_of(p) != store_.value_of(victim))
        better = store_.value_of(p) < store_.value_of(victim);
      else
        better = store_.last_used(p) < store_.last_used(victim);
    }
    if (better) victim = p;
  }
  return victim;
}

void TilePoolManager::reserve(PhysTileId tile, ConfigId config, double value,
                              time_us now) {
  touch(now);
  const int idx = checked(tile);
  DRHW_CHECK_MSG(tile_free(idx), "reserving a tile that is not free");
  reserved_.set(idx);
  prefetch_config_[static_cast<std::size_t>(idx)] = config;
  prefetch_value_[static_cast<std::size_t>(idx)] = value;
}

ConfigId TilePoolManager::finish_prefetch(PhysTileId tile, time_us now) {
  touch(now);
  const auto idx = static_cast<std::size_t>(checked(tile));
  DRHW_CHECK_MSG(reserved_.test(tile),
                 "prefetch completion on an unreserved tile");
  const ConfigId config = prefetch_config_[idx];
  store_.record_load(tile, config, now, prefetch_value_[idx]);
  reserved_.reset(tile);
  prefetch_config_[idx] = k_no_config;
  return config;
}

// --- occupancy queries ------------------------------------------------------

bool TilePoolManager::held(PhysTileId tile) const {
  return held_.test(checked(tile));
}

bool TilePoolManager::reserved(PhysTileId tile) const {
  return reserved_.test(checked(tile));
}

std::int32_t TilePoolManager::owner(PhysTileId tile) const {
  return owner_[static_cast<std::size_t>(checked(tile))];
}

TileSet TilePoolManager::free_tiles() const {
  TileSet free = held_;
  free |= reserved_;
  free |= migrating_;
  return free.flip();
}

double TilePoolManager::fragmentation_pct() const {
  const TileSet free_set = free_tiles();
  const int free = free_set.count();
  if (free == 0) return 0.0;
  return 100.0 * (1.0 - static_cast<double>(free_set.longest_run()) /
                            static_cast<double>(free));
}

// --- defragmentation --------------------------------------------------------

bool TilePoolManager::head_fragmentation_blocked() const {
  if (!options_.contiguous || queued_count_ == 0) return false;
  const int needed = head().needed;
  const TileSet free = free_tiles();
  return free.count() >= needed && free.longest_run() < needed;
}

std::optional<MigrationPlan> TilePoolManager::plan_defrag(
    const TileSet& movable) {
  if (!options_.defrag || !head_fragmentation_blocked()) return std::nullopt;
  const Waiting& oldest = head();
  const int needed = oldest.needed;
  if (defrag_target_ != oldest.job) {
    defrag_target_ = oldest.job;
    defrag_window_ = -1;
  }
  defrag_window_size_ = needed;
  // A window's blockers are its held tiles still to relocate. Tiles already
  // being copied out by an in-flight move are neither blockers nor vetoes
  // (the window is clearing); a reserved tile or an unmovable blocker
  // vetoes the window.
  TileSet blockers = held_;
  blockers.subtract(migrating_);
  TileSet stuck = blockers;
  stuck.subtract(movable);
  const auto feasible = [&](int start) {
    return reserved_.count_in(start, start + needed) == 0 &&
           stuck.count_in(start, start + needed) == 0;
  };
  if (defrag_window_ >= 0) {
    const int end = defrag_window_ + needed;
    const bool clearable = feasible(defrag_window_);
    const int left = blockers.count_in(defrag_window_, end);
    // Hold the window while moves out of it are still landing; drop it
    // when it was taken over, drained, or is no longer clearable.
    if (clearable && left == 0 && migrating_.count_in(defrag_window_, end) > 0)
      return std::nullopt;
    if (!clearable || left == 0) defrag_window_ = -1;
  }
  if (defrag_window_ < 0) {
    int best = -1, best_blockers = tiles() + 1;
    for (int s = 0; s + needed <= tiles(); ++s) {
      const int left = blockers.count_in(s, s + needed);
      if (left > 0 && left < best_blockers && feasible(s)) {
        best = s;
        best_blockers = left;
      }
    }
    if (best < 0) return std::nullopt;
    defrag_window_ = best;
  }

  const int window_end = defrag_window_ + needed;
  const PhysTileId src = blockers.next(defrag_window_);
  if (src < 0 || src >= window_end)
    return std::nullopt;  // window already clear
  TileSet destinations = free_tiles();
  destinations.reset_range(defrag_window_, window_end);
  const PhysTileId dst = destinations.next(0);
  if (dst < 0) return std::nullopt;  // nowhere to move to

  MigrationPlan plan;
  plan.src = src;
  plan.dst = dst;
  plan.owner = owner_[static_cast<std::size_t>(src)];
  plan.config = store_.config_on(src);
  plan.value = store_.value_of(src);
  return plan;
}

void TilePoolManager::begin_migration(const MigrationPlan& plan, time_us now) {
  touch(now);
  DRHW_CHECK_MSG(plan.needs_port(), "free remaps use apply_remap()");
  const int src = checked(plan.src);
  DRHW_CHECK(held_.test(src) && !migrating_.test(src));
  const int dst = checked(plan.dst);
  DRHW_CHECK_MSG(tile_free(dst), "migration destination is not free");
  reserved_.set(dst);
  migrating_.set(src);
  ++migrations_in_flight_;
}

bool TilePoolManager::finish_migration(const MigrationPlan& plan,
                                       time_us now) {
  touch(now);
  const int src = checked(plan.src);
  const int dst = checked(plan.dst);
  DRHW_CHECK(migrating_.test(src) && reserved_.test(dst));
  reserved_.reset(dst);
  migrating_.reset(src);
  --migrations_in_flight_;
  // The transfer only holds when the owner is still live on `src` and no
  // competing load overwrote the source mid-flight; otherwise the loaded
  // copy stays behind as an ordinary reusable cached configuration.
  const bool transfer = held_.test(src) &&
                        owner_[static_cast<std::size_t>(src)] == plan.owner &&
                        store_.config_on(plan.src) == plan.config;
  if (transfer) {
    store_.relocate(plan.src, plan.dst, now);
    move_holding(src, dst);
  } else {
    store_.record_load(plan.dst, plan.config, now, plan.value);
  }
  if (metrics_) metrics_->on_migration_done(now, plan.src, plan.dst, transfer);
  return transfer;
}

void TilePoolManager::apply_remap(const MigrationPlan& plan, time_us now) {
  touch(now);
  DRHW_CHECK_MSG(!plan.needs_port(), "port migrations use begin/finish");
  const int src = checked(plan.src);
  const int dst = checked(plan.dst);
  DRHW_CHECK(held_.test(src) && !migrating_.test(src) &&
             owner_[static_cast<std::size_t>(src)] == plan.owner);
  DRHW_CHECK(tile_free(dst));
  move_holding(src, dst);
  if (metrics_) metrics_->on_remap(now, plan.src, plan.dst, plan.owner);
}

// --- preemptive checkpointing -----------------------------------------------

void TilePoolManager::begin_checkpoint(PhysTileId tile) {
  const int idx = checked(tile);
  DRHW_CHECK_MSG(held_.test(idx) && !migrating_.test(idx) &&
                     !reserved_.test(idx),
                 "checkpointing a tile that is not quietly held");
  migrating_.set(idx);
  ++migrations_in_flight_;
}

void TilePoolManager::finish_checkpoint(PhysTileId tile, time_us now) {
  touch(now);
  const int idx = checked(tile);
  DRHW_CHECK_MSG(held_.test(idx) && migrating_.test(idx),
                 "checkpoint completion on a tile that is not checkpointing");
  migrating_.reset(idx);
  --migrations_in_flight_;
  // Free with the resident configuration left cached — release() semantics,
  // per tile: the store keeps the config, so the victim's re-admission
  // finds it through the reuse module.
  held_.reset(idx);
  owner_[static_cast<std::size_t>(idx)] = -1;
}

void TilePoolManager::abort_checkpoint(PhysTileId tile) {
  const int idx = checked(tile);
  DRHW_CHECK_MSG(held_.test(idx) && migrating_.test(idx),
                 "checkpoint abort on a tile that is not checkpointing");
  migrating_.reset(idx);
  --migrations_in_flight_;
}

// --- metrics ----------------------------------------------------------------

void TilePoolManager::touch(time_us now) {
  // The sample carries the fragmentation that *held over* the elapsed
  // interval, so the integral multiplies it by that interval.
  if (metrics_ && metrics_->frag_sample_due(now))
    metrics_->on_frag_sample(now, fragmentation_pct());
}

void TilePoolManager::move_holding(int src, int dst) {
  held_.set(dst);
  owner_[static_cast<std::size_t>(dst)] = owner_[static_cast<std::size_t>(src)];
  held_.reset(src);
  owner_[static_cast<std::size_t>(src)] = -1;
}

int TilePoolManager::checked(PhysTileId tile) const {
  if (tile < 0 || tile >= tiles())
    throw std::invalid_argument("physical tile id out of range");
  return tile;
}

}  // namespace drhw
