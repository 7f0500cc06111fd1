// The repository benchmark: three workloads driven through the public API
// of every layer (gNB simulator, virtual radio, sniffer pipeline, sinks,
// wire/query path, fleet and distribution), one untraced run reporting the
// end-to-end metrics and one traced run reporting the per-layer ledger.
// See perfbench/README.md for what each workload isolates.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "common/metrics.h"
#include "net/stream_client.h"
#include "store/history_store.h"

namespace nrs::perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string commit = "unknown";
  std::string weights = "tools/weights/predictor_v1.txt";
  std::string ledger;  ///< JSON ledger path ("" = do not write)
};

/// Set-ups per run; set-up time is reported as their median.
inline constexpr int kSetupRepeats = 3;
/// Value of a per-layer row the workload cannot observe.
inline constexpr double kNotMeasured = -1.0;
/// Air slots per second of a 30 kHz cell: the real-time reference.
inline constexpr double kAirSlotsPerSecond = 2000.0;

/// Raw latency samples; percentiles by nearest rank on a sorted copy.
class Samples {
 public:
  void reserve(std::size_t n) { values_.reserve(n); }
  void add(double v) { values_.push_back(v); }
  [[nodiscard]] std::size_t size() const { return values_.size(); }
  [[nodiscard]] double mean() const;
  [[nodiscard]] double percentile(double p) const;

 private:
  std::vector<double> values_;
};

/// Everything one workload run reports.
struct Report {
  struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
  };

  bool correct = true;
  std::uint64_t ops = 0;         ///< attempted operations
  std::uint64_t ops_failed = 0;  ///< failed operations
  std::vector<Metric> end_to_end;
  std::vector<Metric> layers;
  std::vector<std::string> checks;  ///< one line per correctness check

  void e2e(std::string name, double value, std::string unit) {
    end_to_end.push_back({std::move(name), value, std::move(unit)});
  }
  void layer(std::string name, double value, std::string unit = "") {
    layers.push_back({std::move(name), value, std::move(unit)});
  }
  /// Record a correctness check; a failing one clears `correct`.
  void check(bool ok, const std::string& what);
  [[nodiscard]] double layer_value(const std::string& name) const;
  /// Declare the per-layer rows starting with any of `prefixes` as not
  /// observable on this workload (reported as kNotMeasured), and why.
  void not_measured(std::vector<std::string> prefixes, const std::string& why);
  [[nodiscard]] bool is_not_measured(const std::string& name) const;

 private:
  std::vector<std::string> not_measured_;
};

/// Monotonic clock in microseconds (schedules) and nanoseconds (samples).
[[nodiscard]] std::int64_t now_us();
[[nodiscard]] std::int64_t now_ns();
[[nodiscard]] double process_cpu_s();
[[nodiscard]] double peak_rss_mb();

/// Median of `kSetupRepeats` set-up durations (seconds).
[[nodiscard]] double median_setup_s(std::vector<double> durations);

/// Hand the heap a discarded set-up freed back to the system, so that
/// peak_rss_mb measures one deployment rather than the allocator's
/// history of kSetupRepeats.
void release_freed_memory();

/// Percentile of the observations a histogram gained between two
/// snapshots of it (both may be null: no observations -> 0).
[[nodiscard]] double histogram_delta_percentile(const HistogramSnapshot* before,
                                                const HistogramSnapshot* after,
                                                double p);
[[nodiscard]] double histogram_delta_mean(const HistogramSnapshot* before,
                                          const HistogramSnapshot* after);

/// Open-loop query load plus staleness probes against one history store
/// through the wire (TelemetryStreamServer + one TelemetryStreamClient).
/// The store side is described by callbacks so the same generator serves
/// a local sniffer store and the fleet coordinator's store.
struct QueryTarget {
  const HistoryStore* store = nullptr;
  std::uint16_t port = 0;
  std::vector<std::uint32_t> cells;
  /// Index of the next slot the writer side will hand on for `cell`
  /// (single cell: push into the pipeline; fleet: the worker's pipeline
  /// delivering it).
  std::function<std::uint64_t(std::uint32_t cell)> next_slot;
  /// When slot `slot` of `cell` was handed on (ns), or 0 if not yet.
  std::function<std::int64_t(std::uint32_t cell, std::uint64_t slot)>
      handed_at;
  /// When the writer made the row of `slot` readable (ns), once it is.
  /// Null: a probe's row counts as readable when a poll first finds it.
  std::function<std::int64_t(std::uint32_t cell, std::uint64_t slot)>
      stored_at;
  /// Query the per-UE dl_bits series (else the cell's used PRBs).
  bool per_ue_aggregate = true;
};

struct QueryStats {
  Samples latency_us;   ///< due -> response
  Samples rtt_us;       ///< send -> response
  Samples late_us;      ///< due -> send (generator lag)
  Samples staleness_ms;
  std::uint64_t sent = 0;
  std::uint64_t failed = 0;  ///< timeouts, non-kOk, incomplete top-K
  std::vector<std::string> failures;  ///< first few failure descriptions
};

class QueryLoad {
 public:
  static constexpr double kRateHz = 200.0;
  static constexpr double kProbePeriodS = 0.01;

  /// Connects the client; throws std::runtime_error when it cannot.
  explicit QueryLoad(QueryTarget target);
  ~QueryLoad();
  QueryLoad(const QueryLoad&) = delete;
  QueryLoad& operator=(const QueryLoad&) = delete;

  /// Run the schedule on the calling thread until `deadline_ns` or until
  /// `stop` turns true.
  void run(std::int64_t deadline_ns, const std::atomic<bool>* stop = nullptr);

  [[nodiscard]] const QueryStats& stats() const { return stats_; }

 private:
  void send(std::uint64_t i, std::int64_t due_ns);
  [[nodiscard]] QueryRequest make_request(std::uint64_t i);
  [[nodiscard]] bool check_response(const QueryRequest& request,
                                    const QueryResponse& response,
                                    std::string& why) const;
  [[nodiscard]] std::uint64_t recent_slot(std::uint32_t cell) const;

  /// One staleness sample: a slot picked before it was handed on, then
  /// followed until its row is readable.
  struct Probe {
    std::uint32_t cell = 0;
    std::uint64_t slot = 0;
    std::int64_t opened_ns = 0;
    std::int64_t handed_ns = 0;  ///< 0 until the slot has been handed on
  };

  QueryTarget target_;
  TelemetryStreamClient client_;
  QueryStats stats_;
  std::vector<Probe> pending_;
};

/// The query-side user metrics that are reported but not gated (they
/// follow the host's wake-up latency): query latency median and tails,
/// staleness tails, generator lateness.
void add_query_rows(Report& report, const QueryStats& stats);

Report run_live_cell(const Options& options);
Report run_replay_crowd(const Options& options);
Report run_fleet_query(const Options& options);

}  // namespace nrs::perfbench
