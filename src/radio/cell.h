// wild5g/radio: per-cell scheduler model — airtime allocation across the
// active UEs of one cell.
//
// The paper's campaigns measure one UE against an effectively unloaded
// network; at metro scale the dominant throughput factor is how the cell's
// radio resources are split across its users (the Mid-Band 5G measurement
// study finds cell load, not signal strength, explains most of the
// production throughput variance). CellScheduler is that split:
//
//  - Airtime allocation: full-buffer equal-airtime round robin. With `n`
//    active UEs each gets (1 - background_load) / n of the frame;
//    `background_load` models traffic the campaign does not simulate
//    per-UE (the busy-hour dial of the load-sweep figure).
//  - Throughput: per-UE goodput = loaded_link_capacity_mbps(...) at the
//    cell's utilization (interference rise) times the UE's airtime share.
//    Strictly non-increasing in both load and the number of sharers.
//
// Everything here is arithmetic over explicit inputs — no Rng, no clocks —
// so a scheduler query from inside a parallel_map task is race-free and
// draw-free by construction.
#pragma once

#include "radio/channel.h"
#include "radio/types.h"
#include "radio/ue.h"

namespace wild5g::radio {

struct CellSchedulerConfig {
  /// Airtime fraction in [0, 1) consumed by traffic the campaign does not
  /// model per-UE; the remainder is shared equally by the active UEs.
  double background_load = 0.0;
};

class CellScheduler {
 public:
  explicit CellScheduler(CellSchedulerConfig config);

  /// Airtime fraction granted to one of `active_ues` active UEs:
  /// (1 - background_load) / max(1, active_ues).
  [[nodiscard]] double airtime_share(int active_ues) const;
  /// Cell utilization in [0, 1] driving the interference rise: background
  /// plus the full non-background frame whenever anyone is active
  /// (full-buffer UEs drain every granted slot).
  [[nodiscard]] double utilization(int active_ues) const;
  /// Transport-layer goodput for one of `active_ues` full-buffer UEs
  /// camped on `network` at `rsrp`: the loaded whole-cell capacity times
  /// this UE's airtime share. active_ues counts the querying UE itself.
  [[nodiscard]] double ue_throughput_mbps(const NetworkConfig& network,
                                          const UeProfile& ue,
                                          Direction direction, double rsrp,
                                          int active_ues) const;

 private:
  CellSchedulerConfig config_;
};

}  // namespace wild5g::radio
