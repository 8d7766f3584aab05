#include "reuse/config_store.hpp"

#include <algorithm>
#include <stdexcept>

#include "util/check.hpp"

namespace drhw {

ConfigStore::ConfigStore(int tiles) {
  if (tiles < 1) throw std::invalid_argument("config store needs >= 1 tile");
  configs_.resize(static_cast<std::size_t>(tiles), k_no_config);
  last_used_.resize(configs_.size(), 0);
  values_.resize(configs_.size(), 0.0);
}

void ConfigStore::record_load(PhysTileId tile, ConfigId config, time_us when,
                              double value) {
  const std::size_t t = checked(tile);
  DRHW_CHECK_MSG(when >= last_used_[t],
                 "configuration load recorded before the tile's last event — "
                 "per-tile timeline must be monotone");
  configs_[t] = config;
  last_used_[t] = when;
  values_[t] = value;
}

void ConfigStore::record_use(PhysTileId tile, time_us when) {
  const std::size_t t = checked(tile);
  DRHW_CHECK_MSG(when >= last_used_[t],
                 "tile use recorded before the tile's last event — "
                 "per-tile timeline must be monotone");
  last_used_[t] = when;
}

void ConfigStore::relocate(PhysTileId from, PhysTileId to, time_us when) {
  const std::size_t f = checked(from);
  DRHW_CHECK_MSG(configs_[f] != k_no_config,
                 "relocating an empty tile — nothing to copy");
  DRHW_CHECK_MSG(from != to, "relocating a tile onto itself");
  record_load(to, configs_[f], when, values_[f]);
}

time_us ConfigStore::last_used(PhysTileId tile) const {
  return last_used_[checked(tile)];
}

double ConfigStore::value_of(PhysTileId tile) const {
  return values_[checked(tile)];
}

void ConfigStore::clear() {
  std::fill(configs_.begin(), configs_.end(), k_no_config);
  std::fill(last_used_.begin(), last_used_.end(), 0);
  std::fill(values_.begin(), values_.end(), 0.0);
}

std::size_t ConfigStore::checked(PhysTileId tile) const {
  if (tile < 0 || static_cast<std::size_t>(tile) >= configs_.size())
    throw std::invalid_argument("physical tile id out of range");
  return static_cast<std::size_t>(tile);
}

}  // namespace drhw
