// Shared pieces of the benchmark: sample statistics, process resource
// readings, the sink timing decorator and the open-loop query load.
#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <limits>
#include <stdexcept>
#include <thread>

#include "perfbench.h"

namespace nrs::perfbench {

double Samples::mean() const {
  if (values_.empty()) {
    return 0.0;
  }
  double sum = 0.0;
  for (double v : values_) {
    sum += v;
  }
  return sum / static_cast<double>(values_.size());
}

double Samples::percentile(double p) const {
  if (values_.empty()) {
    return 0.0;
  }
  std::vector<double> sorted = values_;
  std::sort(sorted.begin(), sorted.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(sorted.size()));
  const auto index = static_cast<std::size_t>(std::max(rank, 1.0)) - 1;
  return sorted[std::min(index, sorted.size() - 1)];
}

void Report::check(bool ok, const std::string& what) {
  checks.push_back(std::string(ok ? "ok   " : "FAIL ") + what);
  correct = correct && ok;
}

void Report::not_measured(std::vector<std::string> prefixes,
                          const std::string& why) {
  std::string line = "info not measured on this workload (reported as " +
                     std::to_string(static_cast<int>(kNotMeasured)) + "):";
  for (const std::string& prefix : prefixes) {
    line += " " + prefix + "*";
  }
  checks.push_back(line + " -- " + why);
  not_measured_ = std::move(prefixes);
}

bool Report::is_not_measured(const std::string& name) const {
  for (const std::string& prefix : not_measured_) {
    if (name.rfind(prefix, 0) == 0) {
      return true;
    }
  }
  return false;
}

double Report::layer_value(const std::string& name) const {
  for (const Metric& m : layers) {
    if (m.name == name) {
      return m.value;
    }
  }
  return 0.0;
}

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::int64_t now_us() { return now_ns() / 1000; }

double process_cpu_s() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

void release_freed_memory() { malloc_trim(0); }

double median_setup_s(std::vector<double> durations) {
  std::sort(durations.begin(), durations.end());
  return durations.empty() ? 0.0 : durations[durations.size() / 2];
}

namespace {

/// `after` minus `before`, as a snapshot whose percentile() covers only
/// the observations made in between.
HistogramSnapshot histogram_delta(const HistogramSnapshot* before,
                                  const HistogramSnapshot* after) {
  HistogramSnapshot delta;
  if (after == nullptr) {
    return delta;
  }
  delta = *after;
  if (before != nullptr && before->counts.size() == after->counts.size()) {
    for (std::size_t i = 0; i < delta.counts.size(); ++i) {
      delta.counts[i] -= before->counts[i];
    }
    delta.count -= before->count;
    delta.sum -= before->sum;
  }
  return delta;
}

}  // namespace

double histogram_delta_percentile(const HistogramSnapshot* before,
                                  const HistogramSnapshot* after, double p) {
  const HistogramSnapshot delta = histogram_delta(before, after);
  return delta.count == 0 ? 0.0 : delta.percentile(p);
}

double histogram_delta_mean(const HistogramSnapshot* before,
                            const HistogramSnapshot* after) {
  return histogram_delta(before, after).mean();
}

// ---- Query load ---------------------------------------------------------

void add_query_rows(Report& report, const QueryStats& stats) {
  report.layer("e2e.query_p50_us", stats.latency_us.percentile(50.0), "us");
  for (const double p : {90.0, 99.0}) {
    const std::string tail = p == 90.0 ? "p90" : "p99";
    report.layer("e2e.query_" + tail + "_us", stats.latency_us.percentile(p),
                 "us");
    report.layer("e2e.staleness_" + tail + "_ms",
                 stats.staleness_ms.percentile(p), "ms");
  }
  report.layer("query.generator_late_us.p99", stats.late_us.percentile(99.0),
               "us");
  char line[96];
  std::snprintf(line, sizeof(line),
                "info query generator late p50 %.0f us, p99 %.0f us",
                stats.late_us.percentile(50.0), stats.late_us.percentile(99.0));
  report.checks.push_back(line);
}

namespace {

StreamClientConfig client_config(std::uint16_t port) {
  StreamClientConfig config;
  config.port = port;
  return config;
}

constexpr std::uint64_t kRangeSlots = 400;
constexpr std::uint64_t kTopKSlots = 2000;
constexpr std::uint64_t kBucketSlots = 100;
constexpr double kQueryTimeoutS = 1.0;
constexpr std::size_t kMaxFailureNotes = 5;

}  // namespace

QueryLoad::QueryLoad(QueryTarget target)
    : target_(std::move(target)),
      client_(client_config(target_.port), StreamClientHandlers{}) {
  if (!client_.wait_connected(5.0)) {
    throw std::runtime_error("query client could not connect");
  }
  // Sized for a minute of load, so the timed region does not allocate.
  for (Samples* samples : {&stats_.latency_us, &stats_.rtt_us,
                           &stats_.late_us, &stats_.staleness_ms}) {
    samples->reserve(static_cast<std::size_t>(kRateHz * 60));
  }
  pending_.reserve(64);
}

QueryLoad::~QueryLoad() { client_.stop(); }

std::uint64_t QueryLoad::recent_slot(std::uint32_t cell) const {
  const std::uint64_t next = target_.next_slot(cell);
  return next > 0 ? next - 1 : 0;
}

QueryRequest QueryLoad::make_request(std::uint64_t i) {
  const std::uint32_t cell =
      target_.cells[(i / 3) % target_.cells.size()];
  const std::uint64_t recent = recent_slot(cell);
  QueryRequest request;
  request.cell = cell;
  request.rnti = kStoreCellRnti;
  switch (i % 3) {
    case 0:  // one cell's recent per-slot DCI counts
      request.kind = QueryKind::kRange;
      request.metric = static_cast<std::uint8_t>(StoreMetric::kCellDcis);
      request.slot_from = recent > kRangeSlots ? recent - kRangeSlots : 0;
      request.slot_to = recent + 1;
      break;
    case 1: {  // bucketed per-UE throughput (cell-level when no UE yet)
      request.kind = QueryKind::kAggregate;
      request.metric = static_cast<std::uint8_t>(StoreMetric::kCellUsedPrbs);
      if (target_.per_ue_aggregate) {
        std::vector<Rnti> ues;
        for (const SeriesKey& key : target_.store->keys()) {
          if (key.cell == cell && key.rnti != kStoreCellRnti &&
              key.metric == StoreMetric::kDlBits) {
            ues.push_back(key.rnti);
          }
        }
        if (!ues.empty()) {
          request.rnti = ues[(i / 3) % ues.size()];
          request.metric = static_cast<std::uint8_t>(StoreMetric::kDlBits);
        }
      }
      request.slot_from = 0;
      request.slot_to = recent + 1;
      request.bucket_slots = kBucketSlots;
      request.op = AggregateOp::kAvg;
      break;
    }
    default: {  // spare-capacity ranking across every cell
      std::uint64_t newest = 0;
      for (std::uint32_t c : target_.cells) {
        newest = std::max(newest, recent_slot(c));
      }
      request.kind = QueryKind::kTopK;
      request.cell = kStoreAnyCell;
      request.metric = static_cast<std::uint8_t>(StoreMetric::kCellSparePrbs);
      request.slot_from = newest > kTopKSlots ? newest - kTopKSlots : 0;
      request.slot_to = newest + 1;
      request.k = static_cast<std::uint32_t>(target_.cells.size() + 2);
      break;
    }
  }
  return request;
}

bool QueryLoad::check_response(const QueryRequest& request,
                               const QueryResponse& response,
                               std::string& why) const {
  if (response.status != QueryStatus::kOk) {
    why = std::string(to_string(request.kind)) + " status " +
          std::to_string(static_cast<int>(response.status)) + ": " +
          response.error;
    return false;
  }
  if (response.kind != request.kind) {
    why = "response kind mismatch";
    return false;
  }
  if (request.kind == QueryKind::kTopK) {
    for (std::uint32_t cell : target_.cells) {
      const bool ranked = std::any_of(
          response.ranking.begin(), response.ranking.end(),
          [cell](const TopKEntry& e) { return e.cell == cell; });
      if (!ranked) {
        why = "top-K does not rank cell " + std::to_string(cell);
        return false;
      }
    }
  }
  return true;
}

void QueryLoad::send(std::uint64_t i, std::int64_t due_ns) {
  const QueryRequest request = make_request(i);
  const std::int64_t sent = now_ns();
  const std::optional<QueryResponse> response =
      client_.query(request, kQueryTimeoutS);
  const std::int64_t done = now_ns();
  ++stats_.sent;
  stats_.late_us.add(static_cast<double>(sent - due_ns) / 1e3);
  stats_.latency_us.add(static_cast<double>(done - due_ns) / 1e3);
  stats_.rtt_us.add(static_cast<double>(done - sent) / 1e3);
  std::string why = "timeout";
  if (!response.has_value() || !check_response(request, *response, why)) {
    ++stats_.failed;
    if (stats_.failures.size() < kMaxFailureNotes) {
      stats_.failures.push_back(why);
    }
  }
}

void QueryLoad::run(std::int64_t deadline_ns, const std::atomic<bool>* stop) {
  const auto period_ns = static_cast<std::int64_t>(1e9 / kRateHz);
  const auto probe_ns = static_cast<std::int64_t>(kProbePeriodS * 1e9);
  const std::int64_t start = now_ns();
  std::uint64_t next_index = 0;
  std::int64_t next_query = start;
  std::int64_t next_probe = start;
  std::uint64_t probes = 0;
  for (;;) {
    std::int64_t now = now_ns();
    if (now >= deadline_ns ||
        (stop != nullptr && stop->load(std::memory_order_acquire))) {
      break;
    }
    if (now >= next_query) {
      // Open loop: the due times are fixed in advance, so a slow answer
      // delays (and is charged to) the queries behind it.
      send(next_index, next_query);
      ++next_index;
      next_query = start + static_cast<std::int64_t>(next_index) * period_ns;
      continue;
    }
    if (now >= next_probe) {
      Probe probe;
      probe.cell = target_.cells[probes % target_.cells.size()];
      probe.slot = target_.next_slot(probe.cell);
      probe.opened_ns = now;
      pending_.push_back(probe);
      ++probes;
      next_probe += probe_ns;
    }
    now = now_ns();
    std::int64_t oldest = now;
    for (std::size_t i = 0; i < pending_.size();) {
      Probe& probe = pending_[i];
      if (probe.handed_ns == 0) {
        probe.handed_ns = target_.handed_at(probe.cell, probe.slot);
      }
      const StoreSeries* series =
          probe.handed_ns == 0
              ? nullptr
              : target_.store->find_series(
                    {probe.cell, kStoreCellRnti, StoreMetric::kCellDcis});
      std::int64_t readable = 0;
      if (series != nullptr &&
          series->fold_range(probe.slot,
                             std::numeric_limits<std::uint64_t>::max())
                  .count > 0) {
        // The writer's stamp can trail its row by a moment; until it is
        // this slot's (not older than the hand-on), poll again.
        readable = target_.stored_at
                       ? target_.stored_at(probe.cell, probe.slot)
                       : now;
      }
      if (readable >= probe.handed_ns && readable != 0) {
        stats_.staleness_ms.add(
            static_cast<double>(readable - probe.handed_ns) / 1e6);
        pending_[i] = pending_.back();
        pending_.pop_back();
      } else {
        oldest = std::min(oldest, probe.opened_ns);
        ++i;
      }
    }
    std::int64_t wake = std::min(next_query, next_probe);
    if (!pending_.empty()) {
      // Poll at ~1/32 of the age of the oldest open probe (at least every
      // 20 us): a few percent resolution without spinning on long waits.
      wake = std::min(wake, now + std::max<std::int64_t>(20'000,
                                                         (now - oldest) / 32));
    }
    if (wake > now) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(wake - now));
    }
  }
}

}  // namespace nrs::perfbench
