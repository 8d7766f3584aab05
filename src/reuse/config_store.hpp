#pragma once

/// \file config_store.hpp
/// Run-time state of the physical tile pool: which configuration each tile
/// currently holds, when it was last touched, and how valuable it is to the
/// replacement policy. This is the state the reuse and replacement modules
/// (paper Figure 2, refs [6,7]) operate on across task instances.
///
/// Stored as parallel per-tile arrays, so the residency scans (find, holds,
/// the TileSet-restricted find) walk one contiguous ConfigId array.

#include <optional>
#include <vector>

#include "util/ids.hpp"
#include "util/tile_set.hpp"
#include "util/time.hpp"

namespace drhw {

/// Mutable pool of physical tiles and their resident configurations.
class ConfigStore {
 public:
  /// All tiles start empty.
  explicit ConfigStore(int tiles);

  int tiles() const { return static_cast<int>(configs_.size()); }

  /// Configuration currently on `tile` (k_no_config when empty).
  ConfigId config_on(PhysTileId tile) const { return configs_[checked(tile)]; }

  /// Finds the lowest tile holding `config`, if any.
  std::optional<PhysTileId> find(ConfigId config) const {
    if (config == k_no_config) return std::nullopt;
    for (std::size_t t = 0; t < configs_.size(); ++t)
      if (configs_[t] == config) return static_cast<PhysTileId>(t);
    return std::nullopt;
  }

  /// Finds the lowest tile of `among` holding `config`, if any.
  std::optional<PhysTileId> find(ConfigId config, const TileSet& among) const {
    if (config == k_no_config) return std::nullopt;
    for (std::size_t t = 0; t < configs_.size(); ++t)
      if (configs_[t] == config && among.test(static_cast<int>(t)))
        return static_cast<PhysTileId>(t);
    return std::nullopt;
  }

  bool holds(ConfigId config) const { return find(config).has_value(); }

  /// Records that `config` was loaded onto `tile` at absolute time `when`
  /// with replacement value `value` (typically the subtask's ALAP weight).
  void record_load(PhysTileId tile, ConfigId config, time_us when,
                   double value);

  /// Records an execution using `tile` finishing at absolute time `when`.
  void record_use(PhysTileId tile, time_us when);

  /// Relocation path of the online defragmentation pass: the configuration
  /// resident on `from` is loaded onto `to` at absolute time `when`,
  /// carrying its replacement value along. The source tile is left
  /// untouched — in hardware the old frames still hold the bitstream, so
  /// it remains a reusable cached copy until something overwrites it.
  void relocate(PhysTileId from, PhysTileId to, time_us when);

  time_us last_used(PhysTileId tile) const;
  double value_of(PhysTileId tile) const;

  /// Forgets every resident configuration (e.g. between experiments).
  void clear();

 private:
  std::size_t checked(PhysTileId tile) const;
  std::vector<ConfigId> configs_;  ///< per tile; k_no_config when empty
  std::vector<time_us> last_used_;
  std::vector<double> values_;
};

}  // namespace drhw
