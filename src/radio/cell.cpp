#include "radio/cell.h"

#include <algorithm>

#include "core/error.h"

namespace wild5g::radio {

CellScheduler::CellScheduler(CellSchedulerConfig config) : config_(config) {
  require(config_.background_load >= 0.0 && config_.background_load < 1.0,
          "CellScheduler: background_load out of [0, 1)");
}

double CellScheduler::airtime_share(int active_ues) const {
  require(active_ues >= 0, "CellScheduler: active_ues must be non-negative");
  return (1.0 - config_.background_load) /
         static_cast<double>(std::max(1, active_ues));
}

double CellScheduler::utilization(int active_ues) const {
  require(active_ues >= 0, "CellScheduler: active_ues must be non-negative");
  // Full-buffer UEs drain every slot they are granted: any active UE takes
  // the whole non-background frame, so utilization saturates at 1 the
  // moment the cell serves anyone. With nobody active only the background
  // traffic loads the cell — and at background 0 that is exactly 0.0, which
  // keeps unloaded campaigns bit-identical.
  return active_ues > 0 ? 1.0 : config_.background_load;
}

double CellScheduler::ue_throughput_mbps(const NetworkConfig& network,
                                         const UeProfile& ue,
                                         Direction direction, double rsrp,
                                         int active_ues) const {
  require(active_ues >= 1,
          "CellScheduler::ue_throughput_mbps: querying UE must be active");
  const double cell_capacity = loaded_link_capacity_mbps(
      network, ue, direction, rsrp, utilization(active_ues));
  return cell_capacity * airtime_share(active_ues);
}

}  // namespace wild5g::radio
