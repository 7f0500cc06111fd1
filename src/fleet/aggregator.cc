#include "fleet/aggregator.h"

#include <algorithm>
#include <numeric>
#include <stdexcept>

#include "common/timing.h"
#include "nr/dci.h"
#include "nr/rach.h"

namespace nrs {

FleetSummary fold_fleet_summary(const std::vector<CellReport>& cells,
                                const std::vector<std::string>& names) {
  FleetSummary s;
  std::uint64_t retx_total = 0;
  s.cells.reserve(cells.size());
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const CellReport& r = cells[i];
    s.cells.push_back(CellSummary{
        .cell_index = r.cell_index,
        .name = names[i],
        .state = r.cell_state,
        .slots = r.slots,
        .dcis = r.dcis,
        .restarts = r.restarts,
        .active_ues = r.active_ues,
        .dl_mbps = r.dl_mbps,
        .ul_mbps = r.ul_mbps,
        .retx_rate = r.retx_rate,
        .utilization = r.utilization,
    });
    s.slot = std::max(s.slot, r.slots);
    s.dcis_total += r.dcis;
    s.restarts_total += r.restarts;
    s.dl_mbps_total += r.dl_mbps;
    s.ul_mbps_total += r.ul_mbps;
    retx_total += r.retx_dcis;
  }
  s.retx_rate = s.dcis_total > 0 ? static_cast<double>(retx_total) /
                                       static_cast<double>(s.dcis_total)
                                 : 0.0;
  std::vector<std::size_t> order(cells.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&cells](std::size_t a, std::size_t b) {
                     return cells[a].spare_prb_rate > cells[b].spare_prb_rate;
                   });
  s.spare_ranking.reserve(order.size());
  for (const std::size_t i : order) {
    s.spare_ranking.push_back(cells[i].cell_index);
  }
  return s;
}

FleetAggregator::FleetAggregator(MetricsRegistry& registry)
    : registry_(&registry),
      m_slots_total_(&registry.counter("fleet.slots")),
      m_dcis_total_(&registry.counter("fleet.dcis")),
      m_restarts_total_(&registry.counter("fleet.cell.restarts")) {}

void FleetAggregator::add_cell(std::uint32_t cell_index,
                               const CellConfig& cell) {
  std::lock_guard lock(mutex_);
  if (cells_.size() <= cell_index) {
    cells_.resize(cell_index + 1);
  }
  if (cells_[cell_index] != nullptr) {
    throw std::invalid_argument("FleetAggregator: cell " +
                                std::to_string(cell_index) +
                                " registered twice");
  }
  auto agg = std::make_unique<CellAgg>(cell);
  MetricsNamespace ns =
      registry_->with_prefix("fleet.cell" + std::to_string(cell_index) + ".");
  agg->m_slots = &ns.counter("slots");
  agg->m_dcis = &ns.counter("dcis");
  agg->m_retx = &ns.counter("retx_dcis");
  agg->m_restarts = &ns.counter("restarts");
  agg->m_degraded = &ns.counter("degraded_slots");
  agg->m_resync = &ns.counter("resync_slots");
  agg->m_active_ues = &ns.gauge("active_ues");
  cells_[cell_index] = std::move(agg);
}

void FleetAggregator::on_cell_slot(std::uint32_t cell_index,
                                   const SlotResult& result) {
  std::lock_guard lock(mutex_);
  CellAgg& agg = *cells_.at(cell_index);
  ++agg.lifetime_slots;
  const TddPattern& tdd = agg.cell.tdd;
  agg.offered_prb_slots += static_cast<double>(agg.cell.n_prb) *
                           static_cast<double>(tdd.n_dl) /
                           static_cast<double>(tdd.period);

  std::uint64_t slot_retx = 0;
  for (const DecodedDci& dci : result.dcis) {
    // MSG2 DCIs carry RA-RNTIs: they count as cell traffic, not as UEs.
    if (is_plausible_crnti(dci.rnti)) {
      agg.last_seen[dci.rnti] = agg.lifetime_slots;
    }
    if (dci.is_retx) {
      ++slot_retx;
    }
    if (is_downlink(dci.dci.format)) {
      agg.used_prb_slots += static_cast<double>(dci.grant.prb_len);
      if (!dci.is_retx) {
        agg.dl_rate.add(agg.lifetime_slots, dci.grant.tbs);
      }
    } else if (!dci.is_retx) {
      agg.ul_rate.add(agg.lifetime_slots, dci.grant.tbs);
    }
  }
  agg.dcis += result.dcis.size();
  agg.retx_dcis += slot_retx;
  if (result.degraded) {
    agg.m_degraded->inc();
  }
  if (result.sync_state == SyncState::kResync) {
    agg.m_resync->inc();
  }

  agg.m_slots->inc();
  m_slots_total_->inc();
  if (!result.dcis.empty()) {
    agg.m_dcis->inc(result.dcis.size());
    m_dcis_total_->inc(result.dcis.size());
  }
  if (slot_retx > 0) {
    agg.m_retx->inc(slot_retx);
  }
}

void FleetAggregator::on_cell_restart(std::uint32_t cell_index) {
  std::lock_guard lock(mutex_);
  CellAgg& agg = *cells_.at(cell_index);
  ++agg.restarts;
  agg.m_restarts->inc();
  m_restarts_total_->inc();
}

std::uint64_t FleetAggregator::cell_slots(std::uint32_t cell_index) const {
  std::lock_guard lock(mutex_);
  return cells_.at(cell_index)->lifetime_slots;
}

CellReport FleetAggregator::report(std::uint32_t cell_index) const {
  std::lock_guard lock(mutex_);
  const CellAgg& agg = *cells_.at(cell_index);
  CellReport r;
  r.cell_index = cell_index;
  r.slots = agg.lifetime_slots;
  r.dcis = agg.dcis;
  r.retx_dcis = agg.retx_dcis;
  r.restarts = agg.restarts;
  for (const auto& [rnti, seen] : agg.last_seen) {
    if (agg.lifetime_slots - seen < kFleetRateWindowSlots) {
      ++r.active_ues;
    }
  }
  agg.m_active_ues->set(r.active_ues);
  const double slot_s = slot_duration_s(agg.cell.scs);
  r.dl_mbps = agg.dl_rate.rate_bps(agg.lifetime_slots, slot_s) / 1e6;
  r.ul_mbps = agg.ul_rate.rate_bps(agg.lifetime_slots, slot_s) / 1e6;
  r.retx_rate = agg.dcis > 0 ? static_cast<double>(agg.retx_dcis) /
                                   static_cast<double>(agg.dcis)
                             : 0.0;
  r.utilization =
      agg.offered_prb_slots > 0.0
          ? std::min(1.0, agg.used_prb_slots / agg.offered_prb_slots)
          : 0.0;
  const double dl_fraction = static_cast<double>(agg.cell.tdd.n_dl) /
                             static_cast<double>(agg.cell.tdd.period);
  r.spare_prb_rate = (1.0 - r.utilization) *
                     static_cast<double>(agg.cell.n_prb) * dl_fraction;
  return r;
}

}  // namespace nrs
