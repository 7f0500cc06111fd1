// nrs_perfbench: runs one workload and prints every metric by name and
// unit, the correctness checks, an environment block, and as its last
// line one JSON object {"correct", "attempted", "failed", "metrics"}.
//
//   nrs_perfbench --workload live_cell|replay_crowd|fleet_query
//                 [--seed N] [--seconds S] [--trace 0|1]
//                 [--commit ID] [--weights PATH] [--ledger PATH]
//
// --trace 0 reports the end-to-end metrics; --trace 1 wraps each layer's
// public calls in timers and reports the per-layer ledger instead.
// --ledger writes everything (both kinds, checks, environment) as JSON.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iterator>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>

#include "common/alloc_shim.h"
#include "perfbench.h"
#include "phy/kernels/kernels.h"

#ifndef NRS_PERFBENCH_BUILD_TYPE
#define NRS_PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace nrs::perfbench {
namespace {

struct MetricSpec {
  const char* name;
  const char* unit;
};

/// The end-to-end metrics, reported by every workload's untraced run.
constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},
    {"rtf", "x"},
    {"slot_latency_p50_us", "us"},
    {"dci_goodput", "DCI/s"},
    {"staleness_p50_ms", "ms"},
    {"cpu_per_air_s", "CPU-s/air-s"},
    {"peak_rss_mb", "MB"},
};

/// The per-layer ledger, reported by every workload's traced run.
constexpr MetricSpec kPerLayer[] = {
    {"e2e.query_p50_us", "us"},
    {"e2e.slot_latency_p90_us", "us"},
    {"e2e.slot_latency_p99_us", "us"},
    {"e2e.query_p90_us", "us"},
    {"e2e.query_p99_us", "us"},
    {"e2e.staleness_p90_ms", "ms"},
    {"e2e.staleness_p99_ms", "ms"},
    {"gnb.step_us.mean", "us"},
    {"gnb.step_us.p50", "us"},
    {"gnb.step_us.p99", "us"},
    {"radio.capture_us.mean", "us"},
    {"radio.capture_us.p50", "us"},
    {"radio.capture_us.p99", "us"},
    {"pipeline.push_us.mean", "us"},
    {"pipeline.push_us.p50", "us"},
    {"pipeline.push_us.p99", "us"},
    {"pipeline.push_refused_share", "share"},
    {"pipeline.latency_us.p50", "us"},
    {"pipeline.latency_us.p99", "us"},
    {"pipeline.demod_us.mean", "us"},
    {"pipeline.demod_us.p50", "us"},
    {"pipeline.collector_wait_us.mean", "us"},
    {"pipeline.collector_wait_us.p50", "us"},
    {"nrscope.engine_us.mean", "us"},
    {"nrscope.engine_us.p50", "us"},
    {"nrscope.engine_us.p99", "us"},
    {"nrscope.blind_decode_us.mean", "us"},
    {"nrscope.blind_decode_us.p50", "us"},
    {"nrscope.tracking_share", "share"},
    {"nrscope.dcis_per_slot", "DCI/slot"},
    {"nrscope.tracked_ues", "count"},
    {"sink.store.on_slot_us.mean", "us"},
    {"sink.store.on_slot_us.p50", "us"},
    {"sink.store.on_slot_us.p99", "us"},
    {"sink.prediction.on_slot_us.mean", "us"},
    {"sink.prediction.on_slot_us.p50", "us"},
    {"sink.prediction.on_slot_us.p99", "us"},
    {"store.query_server_us.p50", "us"},
    {"store.query_server_us.p99", "us"},
    {"query.rtt_us.p50", "us"},
    {"net.query_us.p50", "us"},
    {"query.generator_late_us.p99", "us"},
    {"store.rows_ingested_per_s", "rows/s"},
    {"dist.worker.report_bytes_per_s", "B/s"},
    {"dist.worker.report_batches", "count"},
    {"fleet.slot_latency_us.p50", "us"},
    {"fleet.slot_latency_us.p99", "us"},
    {"fleet.cell.restarts", "count"},
    {"fleet.stalls", "count"},
    {"dist.reassignments", "count"},
    {"dist.leases_expired", "count"},
    {"dist.worker.reconnects", "count"},
    {"alloc.per_slot", "allocs/slot"},
    {"wall_us_per_slot", "us"},
    {"accounted_share", "share"},
    {"trace.rtf", "x"},
    {"trace.dci_goodput", "DCI/s"},
};

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

std::string json_number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.12g", v);
  return buf;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        return line.substr(line.find_first_not_of(' ', colon + 1));
      }
    }
  }
  return "unknown";
}

std::string environment_json(const Options& options) {
  const char* simd = std::getenv("NRS_SIMD");
  std::ostringstream out;
  out << "{\"cpu\": \"" << json_escape(cpu_model()) << "\", \"nproc\": "
      << std::thread::hardware_concurrency() << ", \"isa\": \""
      << kernels::to_string(kernels::active().isa) << "\", \"nrs_simd\": \""
      << json_escape(simd != nullptr ? simd : "auto")
      << "\", \"build_type\": \"" << NRS_PERFBENCH_BUILD_TYPE
      << "\", \"compiler\": \"" << json_escape(__VERSION__)
      << "\", \"commit\": \"" << json_escape(options.commit)
      << "\", \"workload\": \"" << options.workload
      << "\", \"seed\": " << options.seed
      << ", \"seconds\": " << json_number(options.seconds)
      << ", \"trace\": " << (options.trace ? 1 : 0) << "}";
  return out.str();
}

const Report::Metric* find(const std::vector<Report::Metric>& metrics,
                           const char* name) {
  for (const Report::Metric& m : metrics) {
    if (m.name == name) {
      return &m;
    }
  }
  return nullptr;
}

std::string metrics_json(const std::vector<Report::Metric>& metrics) {
  std::ostringstream out;
  out << "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    out << (i ? ", " : "") << "\"" << metrics[i].name
        << "\": {\"value\": " << json_number(metrics[i].value)
        << ", \"unit\": \"" << metrics[i].unit << "\"}";
  }
  out << "}";
  return out.str();
}

/// The reported metrics in canonical order and units; a missing or
/// non-finite one fails the run's correctness unless the workload declared
/// it not measurable.
std::vector<Report::Metric> canonical(Report& report, const MetricSpec* specs,
                                      std::size_t n,
                                      const std::vector<Report::Metric>& from) {
  std::vector<Report::Metric> out;
  for (std::size_t i = 0; i < n; ++i) {
    const Report::Metric* m = find(from, specs[i].name);
    if (m == nullptr && report.is_not_measured(specs[i].name)) {
      out.push_back({specs[i].name, kNotMeasured, specs[i].unit});
      continue;
    }
    const bool ok = m != nullptr && std::isfinite(m->value);
    if (!ok) {
      report.check(false, std::string("metric ") + specs[i].name +
                              " was not measured");
    }
    out.push_back({specs[i].name, ok ? m->value : -1.0, specs[i].unit});
  }
  return out;
}

void usage() {
  std::fprintf(stderr,
               "usage: nrs_perfbench --workload live_cell|replay_crowd|"
               "fleet_query [--seed N] [--seconds S] [--trace 0|1]\n"
               "                     [--commit ID] [--weights PATH] "
               "[--ledger PATH]\n");
}

bool parse(int argc, char** argv, Options& options) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      return false;
    }
    const std::string value = argv[++i];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      options.seconds = std::stod(value);
    } else if (flag == "--trace") {
      options.trace = value == "1";
    } else if (flag == "--commit") {
      options.commit = value;
    } else if (flag == "--weights") {
      options.weights = value;
    } else if (flag == "--ledger") {
      options.ledger = value;
    } else {
      return false;
    }
  }
  return !options.workload.empty() && options.seconds > 0.0;
}

int run(int argc, char** argv) {
  Options options;
  try {
    if (!parse(argc, argv, options)) {
      usage();
      return 2;
    }
  } catch (const std::exception&) {
    usage();
    return 2;
  }
  Report report;
  if (options.workload == "live_cell") {
    report = run_live_cell(options);
  } else if (options.workload == "replay_crowd") {
    report = run_replay_crowd(options);
  } else if (options.workload == "fleet_query") {
    report = run_fleet_query(options);
  } else {
    usage();
    return 2;
  }

  const std::vector<Report::Metric> e2e = canonical(
      report, kEndToEnd, std::size(kEndToEnd), report.end_to_end);
  const std::vector<Report::Metric> layers =
      options.trace ? canonical(report, kPerLayer, std::size(kPerLayer),
                                report.layers)
                    : std::vector<Report::Metric>{};
  const std::string env = environment_json(options);

  std::printf("perfbench %s seed=%lu seconds=%g trace=%d\n",
              options.workload.c_str(),
              static_cast<unsigned long>(options.seed), options.seconds,
              options.trace ? 1 : 0);
  std::printf("env %s\n", env.c_str());
  for (const Report::Metric& m : e2e) {
    std::printf("  %-34s %16.4f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  std::printf("  %-34s %16lu\n  %-34s %16lu\n", "ops",
              static_cast<unsigned long>(report.ops), "ops_failed",
              static_cast<unsigned long>(report.ops_failed));
  // Untraced runs also print the ungated user metrics (e2e.* rows).
  for (const Report::Metric& m : options.trace ? layers : report.layers) {
    std::printf("  %-34s %16.4f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  for (const std::string& line : report.checks) {
    std::printf("check %s\n", line.c_str());
  }

  if (!options.ledger.empty()) {
    std::ofstream out(options.ledger);
    out << "{\n  \"env\": " << env << ",\n  \"correct\": "
        << (report.correct ? "true" : "false") << ",\n  \"ops\": "
        << report.ops << ",\n  \"ops_failed\": " << report.ops_failed
        << ",\n  \"end_to_end\": " << metrics_json(e2e)
        << ",\n  \"layers\": "
        << metrics_json(options.trace ? layers : report.layers)
        << ",\n  \"checks\": [";
    for (std::size_t i = 0; i < report.checks.size(); ++i) {
      out << (i ? ", " : "") << "\"" << json_escape(report.checks[i]) << "\"";
    }
    out << "]\n}\n";
    if (!out) {
      std::fprintf(stderr, "cannot write ledger %s\n", options.ledger.c_str());
      return 1;
    }
  }

  std::printf("{\"correct\": %s, \"attempted\": %lu, \"failed\": %lu, "
              "\"metrics\": %s}\n",
              report.correct ? "true" : "false",
              static_cast<unsigned long>(std::max<std::uint64_t>(report.ops, 1)),
              static_cast<unsigned long>(report.ops_failed),
              metrics_json(options.trace ? layers : e2e).c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace
}  // namespace nrs::perfbench

int main(int argc, char** argv) {
  try {
    return nrs::perfbench::run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "nrs_perfbench: %s\n", e.what());
    return 1;
  }
}
