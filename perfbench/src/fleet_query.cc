// The `fleet_query` workload: a FleetCoordinator and one FleetWorker over
// loopback running two default cells, with a TelemetryStreamServer
// answering open-loop dashboard queries against the coordinator's store
// while worker reports keep writing to it.
#include <chrono>
#include <memory>
#include <stdexcept>
#include <thread>

#include "common/alloc_hooks.h"
#include "dist/coordinator.h"
#include "dist/worker.h"
#include "net/stream_server.h"
#include "perfbench.h"
#include "store/query.h"

namespace nrs::perfbench {
namespace {

constexpr std::uint32_t kCells = 2;

/// Coordinator, worker and query server of one fleet.  The worker leaves
/// and the server stops before the coordinator (whose store they read)
/// goes away.
struct Fleet {
  explicit Fleet(std::uint64_t seed) {
    CoordinatorConfig config;
    config.seed = seed;
    for (std::uint32_t c = 0; c < kCells; ++c) {
      CoordinatorCellSpec spec;
      spec.name = "cell" + std::to_string(c);
      config.cells.push_back(spec);
    }
    coordinator =
        std::make_unique<FleetCoordinator>(config, &coordinator_registry);
    WorkerConfig worker_config;
    worker_config.port = coordinator->port();
    worker_config.backoff_seed = seed;
    worker = std::make_unique<FleetWorker>(worker_config, &worker_registry);
    StreamServerConfig server_config;
    server_config.query_handler = history_query_handler(coordinator->store());
    server = std::make_unique<TelemetryStreamServer>(server_config,
                                                     &net_registry);
    for (std::uint32_t c = 0; c < kCells; ++c) {
      // Leases are granted in cell order, so the worker's local cell c is
      // the fleet's cell c.
      delivered.push_back(&worker_registry.counter(
          "fleet.cell" + std::to_string(c) + ".slots"));
    }
  }

  ~Fleet() {
    server.reset();
    worker.reset();
    coordinator.reset();
  }

  Fleet(const Fleet&) = delete;
  Fleet& operator=(const Fleet&) = delete;

  /// Every lease active and every cell's spare-capacity rows readable.
  [[nodiscard]] bool serving() const {
    if (!coordinator->all_cells_active()) {
      return false;
    }
    for (std::uint32_t c = 0; c < kCells; ++c) {
      const StoreSeries* series = coordinator->store().find_series(
          {c, kStoreCellRnti, StoreMetric::kCellSparePrbs});
      if (series == nullptr || series->row_count() == 0) {
        return false;
      }
    }
    return true;
  }

  QueryTarget query_target() {
    QueryTarget target;
    target.store = &coordinator->store();
    target.port = server->port();
    for (std::uint32_t c = 0; c < kCells; ++c) {
      target.cells.push_back(c);
    }
    // The coordinator store holds cell-level series only.
    target.per_ue_aggregate = false;
    // A slot is handed on when the worker's pipeline delivers it (seen
    // here when the delivery counter passes it); its row lands in the
    // store at the same index on the fleet-lifetime axis.
    target.next_slot = [this](std::uint32_t cell) {
      return delivered[cell]->value();
    };
    target.handed_at = [this](std::uint32_t cell, std::uint64_t slot) {
      return delivered[cell]->value() > slot ? now_ns() : 0;
    };
    return target;
  }

  MetricsRegistry coordinator_registry;
  MetricsRegistry worker_registry;
  MetricsRegistry net_registry;
  std::unique_ptr<FleetCoordinator> coordinator;
  std::unique_ptr<FleetWorker> worker;
  std::unique_ptr<TelemetryStreamServer> server;
  std::vector<Counter*> delivered;
};

/// Readings bracketing the timed window.
struct FleetBracket {
  MetricsSnapshot coordinator;
  MetricsSnapshot worker;
  MetricsSnapshot net;
  std::uint64_t slots = 0;
  std::uint64_t dcis = 0;
  std::uint64_t reassignments = 0;
  double cpu_s = 0.0;
  std::uint64_t allocs = 0;
  std::int64_t t_ns = 0;

  static FleetBracket take(const Fleet& fleet) {
    FleetBracket b;
    b.coordinator = fleet.coordinator_registry.snapshot();
    b.worker = fleet.worker_registry.snapshot();
    b.net = fleet.net_registry.snapshot();
    b.slots = fleet.worker->slots_total();
    b.dcis = fleet.coordinator->summary().dcis_total;
    b.reassignments = fleet.coordinator->reassignments();
    b.cpu_s = process_cpu_s();
    b.allocs = alloc::totals().allocs;
    b.t_ns = now_ns();
    return b;
  }
};

double delta(const MetricsSnapshot& before, const MetricsSnapshot& after,
             const std::string& counter) {
  return static_cast<double>(after.counter_value(counter) -
                             before.counter_value(counter));
}

}  // namespace

Report run_fleet_query(const Options& options) {
  std::vector<double> setups;
  std::unique_ptr<Fleet> fleet;
  std::unique_ptr<QueryLoad> load;
  for (int i = 0; i < kSetupRepeats; ++i) {
    load.reset();
    fleet.reset();
    release_freed_memory();
    const std::int64_t t0 = now_us();
    fleet = std::make_unique<Fleet>(options.seed);
    const std::int64_t give_up = t0 + 60'000'000;
    while (!fleet->serving()) {
      if (now_us() > give_up) {
        throw std::runtime_error("fleet_query: cells never became readable");
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    load = std::make_unique<QueryLoad>(fleet->query_target());
    setups.push_back(static_cast<double>(now_us() - t0) / 1e6);
  }

  const FleetBracket before = FleetBracket::take(*fleet);
  load->run(before.t_ns + static_cast<std::int64_t>(options.seconds * 1e9));
  const FleetBracket after = FleetBracket::take(*fleet);
  const double rss_mb = peak_rss_mb();
  const QueryStats& q = load->stats();

  const double wall_s = static_cast<double>(after.t_ns - before.t_ns) / 1e9;
  const auto slots = static_cast<double>(after.slots - before.slots);
  const double restarts =
      delta(before.worker, after.worker, "fleet.cell.restarts");
  const double reassigned =
      static_cast<double>(after.reassignments - before.reassignments);

  Report r;
  r.ops = q.sent;
  r.ops_failed = q.failed + static_cast<std::uint64_t>(restarts + reassigned);
  const double rtf = slots / kCells / wall_s / kAirSlotsPerSecond;
  const double goodput = static_cast<double>(after.dcis - before.dcis) / wall_s;
  const HistogramSnapshot* lb =
      before.worker.find_histogram("fleet.slot_latency_us");
  const HistogramSnapshot* la =
      after.worker.find_histogram("fleet.slot_latency_us");

  r.e2e("setup_s", median_setup_s(setups), "s");
  r.e2e("rtf", rtf, "x");
  r.e2e("slot_latency_p50_us", histogram_delta_percentile(lb, la, 50.0),
        "us");
  r.e2e("dci_goodput", goodput, "DCI/s");
  r.e2e("staleness_p50_ms", q.staleness_ms.percentile(50.0), "ms");
  r.e2e("cpu_per_air_s",
        (after.cpu_s - before.cpu_s) / (slots / kAirSlotsPerSecond),
        "CPU-s/air-s");
  r.e2e("peak_rss_mb", rss_mb, "MB");

  r.check(q.sent > 0 && q.failed == 0,
          std::to_string(q.sent) + " queries answered kOk, top-K ranks "
          "both cells (" + std::to_string(q.failed) + " failed" +
          (q.failures.empty() ? "" : ": " + q.failures.front()) + ")");
  r.check(restarts == 0.0 && reassigned == 0.0,
          "no cell restart or lease reassignment (" +
              std::to_string(static_cast<int>(restarts)) + " restarts, " +
              std::to_string(static_cast<int>(reassigned)) +
              " reassignments)");
  r.check(slots > 0 && after.dcis > before.dcis,
          "both cells delivered slots and DCIs into the coordinator");
  r.check(q.staleness_ms.size() > 0,
          std::to_string(q.staleness_ms.size()) + " staleness probes");
  add_query_rows(r, q);
  for (const double p : {90.0, 99.0}) {
    const std::string tail = p == 90.0 ? "p90" : "p99";
    r.layer("e2e.slot_latency_" + tail + "_us",
            histogram_delta_percentile(lb, la, p), "us");
  }
  if (options.trace) {
    const HistogramSnapshot* qb = before.net.find_histogram("query.latency_us");
    const HistogramSnapshot* qa = after.net.find_histogram("query.latency_us");
    const double server_p50 = histogram_delta_percentile(qb, qa, 50.0);
    r.layer("store.query_server_us.p50", server_p50, "us");
    r.layer("store.query_server_us.p99",
            histogram_delta_percentile(qb, qa, 99.0), "us");
    r.layer("query.rtt_us.p50", q.rtt_us.percentile(50.0), "us");
    r.layer("net.query_us.p50", q.rtt_us.percentile(50.0) - server_p50, "us");
    r.layer("store.rows_ingested_per_s",
            delta(before.coordinator, after.coordinator,
                  "store.rows_ingested") /
                wall_s);
    r.layer("dist.worker.report_bytes_per_s",
            delta(before.worker, after.worker, "dist.worker.report_bytes") /
                wall_s);
    r.layer("dist.worker.report_batches",
            delta(before.worker, after.worker, "dist.worker.report_batches"));
    r.layer("fleet.slot_latency_us.p50",
            histogram_delta_percentile(lb, la, 50.0), "us");
    r.layer("fleet.slot_latency_us.p99",
            histogram_delta_percentile(lb, la, 99.0), "us");
    r.layer("fleet.cell.restarts", restarts);
    r.layer("fleet.stalls", delta(before.worker, after.worker, "fleet.stalls"));
    r.layer("dist.reassignments", reassigned);
    r.layer("dist.leases_expired", delta(before.coordinator, after.coordinator,
                                         "dist.leases_expired"));
    r.layer("dist.worker.reconnects",
            delta(before.worker, after.worker, "dist.worker.reconnects"));
    r.layer("nrscope.dcis_per_slot",
            delta(before.worker, after.worker, "fleet.dcis") /
                delta(before.worker, after.worker, "fleet.slots"),
            "DCI/slot");
    r.not_measured({"gnb.", "radio.", "pipeline.", "nrscope.engine_us",
                    "nrscope.blind_decode_us", "nrscope.tracking_share",
                    "nrscope.tracked_ues", "sink.", "accounted_share"},
                   "FleetWorker keeps its cells' gNB, radio, pipeline, "
                   "engine and sinks private; fleet.* rows cover them");
    r.layer("alloc.per_slot",
            static_cast<double>(after.allocs - before.allocs) / slots);
    r.layer("wall_us_per_slot", wall_s * 1e6 / slots, "us");
    r.layer("trace.rtf", rtf, "x");
    r.layer("trace.dci_goodput", goodput, "DCI/s");
  }
  load.reset();
  fleet.reset();
  return r;
}

}  // namespace nrs::perfbench
