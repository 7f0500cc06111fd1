// Cross-cell telemetry fan-in for the fleet orchestrator: every cell's
// pipeline pushes its in-order SlotResults here (from that cell's collector
// thread), and the aggregator maintains restart-surviving lifetime totals —
// per-cell slot/DCI/retransmission counts, new-data throughput windows, PRB
// utilization and the slot each C-RNTI was last seen.  report() renders one
// cell as the wire CellReport a distributed worker sends, and
// fold_fleet_summary() turns a set of such reports into the FleetSummary
// with the spare-capacity ranking the paper's section 5.4.1 use case asks
// for, fleet-wide.  All per-cell counters also land in the registry under
// the fleet.cell<N>.* namespace.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "common/types.h"
#include "net/wire.h"
#include "nr/cell_config.h"
#include "nrscope/nrscope.h"
#include "nrscope/telemetry.h"

namespace nrs {

/// Span of the per-cell throughput windows and the active-UE horizon.
inline constexpr std::uint64_t kFleetRateWindowSlots = 2000;

/// The one fold from per-cell lifetime reports to the fleet aggregate:
/// a CellSummary per report (named by `names[i]`, state from cell_state),
/// the fleet totals, retx_rate = sum(retx_dcis) / sum(dcis), and the cell
/// indices ordered by spare_prb_rate, most spare first (ties keep report
/// order).  `names` runs parallel to `cells`.
[[nodiscard]] FleetSummary fold_fleet_summary(
    const std::vector<CellReport>& cells,
    const std::vector<std::string>& names);

class FleetAggregator {
 public:
  /// `registry` receives fleet.slots / fleet.dcis / fleet.cell.restarts
  /// plus per-cell fleet.cell<N>.{slots,dcis,retx_dcis,restarts,
  /// degraded_slots,resync_slots} counters and the fleet.cell<N>.active_ues
  /// gauge.
  explicit FleetAggregator(MetricsRegistry& registry);

  FleetAggregator(const FleetAggregator&) = delete;
  FleetAggregator& operator=(const FleetAggregator&) = delete;

  /// Register a cell before its first on_cell_slot().  The cell config
  /// supplies the capacity model (n_prb, TDD pattern) and the SCS for
  /// rate conversion.
  void add_cell(std::uint32_t cell_index, const CellConfig& cell);

  /// One delivered slot from cell `cell_index`'s pipeline.  Thread-safe:
  /// every cell's collector thread calls in concurrently.
  void on_cell_slot(std::uint32_t cell_index, const SlotResult& result);

  /// The supervisor restarted this cell (counted, surfaced in reports and
  /// the fleet.cell.restarts metric; lifetime totals are NOT reset).
  void on_cell_restart(std::uint32_t cell_index);

  /// Lifetime slots delivered by one cell (across restarts).
  [[nodiscard]] std::uint64_t cell_slots(std::uint32_t cell_index) const;

  /// One cell's lifetime telemetry: cell_index, slots, dcis, retx_dcis,
  /// restarts, active_ues and the rates.  lease_id, epoch, cell_state and
  /// rows are the caller's.  Also refreshes the active_ues gauge.
  [[nodiscard]] CellReport report(std::uint32_t cell_index) const;

 private:
  struct CellAgg {
    explicit CellAgg(CellConfig cell_config)
        : cell(std::move(cell_config)), dl_rate(kFleetRateWindowSlots),
          ul_rate(kFleetRateWindowSlots) {}

    CellConfig cell;
    std::uint64_t lifetime_slots = 0;
    std::uint64_t dcis = 0;
    std::uint64_t retx_dcis = 0;
    std::uint64_t restarts = 0;
    /// PRB-slot accounting for utilization: offered accumulates the cell's
    /// average DL capacity per slot (n_prb * n_dl / period — a fractional
    /// model so it stays correct across restart-induced TDD phase shifts),
    /// used accumulates granted DL PRBs.
    double used_prb_slots = 0.0;
    double offered_prb_slots = 0.0;
    RateWindow dl_rate;  ///< fed with lifetime slots, so restarts don't
    RateWindow ul_rate;  ///< rewind the window clock
    /// Lifetime slot of each C-RNTI's latest DCI (RA-RNTIs excluded).
    std::map<Rnti, std::uint64_t> last_seen;

    Counter* m_slots = nullptr;
    Counter* m_dcis = nullptr;
    Counter* m_retx = nullptr;
    Counter* m_restarts = nullptr;
    Counter* m_degraded = nullptr;
    Counter* m_resync = nullptr;
    Gauge* m_active_ues = nullptr;
  };

  MetricsRegistry* registry_;
  Counter* m_slots_total_;
  Counter* m_dcis_total_;
  Counter* m_restarts_total_;

  mutable std::mutex mutex_;
  std::vector<std::unique_ptr<CellAgg>> cells_;  ///< indexed by cell_index
};

}  // namespace nrs
