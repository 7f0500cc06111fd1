// The two single-cell workloads: `live_cell` (closed loop gNB -> radio ->
// sniffer pipeline -> sinks) and `replay_crowd` (a recorded 32-UE cell
// replayed through the same pipeline, engine config and sinks).  Both
// attach the same read path: a TelemetryStreamServer answering queries
// against the sinks' HistoryStore, driven by one open-loop client.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <limits>
#include <memory>
#include <stdexcept>
#include <thread>

#include "analysis/matching.h"
#include "analysis/prediction_sink.h"
#include "analysis/predictor.h"
#include "common/alloc_hooks.h"
#include "common/rng.h"
#include "gnb/gnb_sim.h"
#include "gnb/presets.h"
#include "net/stream_server.h"
#include "nrscope/pipeline.h"
#include "perfbench.h"
#include "radio/virtual_radio.h"
#include "store/query.h"
#include "store/store_sink.h"
#include "ue/traffic.h"

namespace nrs::perfbench {
namespace {

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t z = seed * 0x9E3779B97F4A7C15ull + stream + 1;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

/// Decorator that times another sink's on_slot() (traced runs only).
class TimedSink : public SlotSink {
 public:
  TimedSink(std::shared_ptr<SlotSink> inner, Samples* out)
      : inner_(std::move(inner)), out_(out) {}
  void on_slot(const SlotResult& result) override {
    const std::int64_t t0 = now_ns();
    inner_->on_slot(result);
    out_->add(static_cast<double>(now_ns() - t0) / 1e3);
  }
  void on_finish() override { inner_->on_finish(); }

 private:
  std::shared_ptr<SlotSink> inner_;
  Samples* out_;
};

/// A timestamp (ns) per recent slot index, written by one thread and read
/// by others: the feeder's push time, the store sink's write time.
class SlotClock {
 public:
  SlotClock() : stamps_(kRing) {}
  void set(std::uint64_t slot, std::int64_t t_ns) {
    stamps_[slot % kRing].store(t_ns, std::memory_order_release);
  }
  [[nodiscard]] std::int64_t at(std::uint64_t slot) const {
    return stamps_[slot % kRing].load(std::memory_order_acquire);
  }

 private:
  static constexpr std::size_t kRing = 8192;
  std::vector<std::atomic<std::int64_t>> stamps_;
};

/// Ledger of the traced feeder-side layers.
struct FeederTrace {
  Samples gnb_step_us;
  Samples radio_capture_us;
  Samples push_us;
  std::uint64_t pushes = 0;
  std::uint64_t refused = 0;
};

/// The engine configuration FleetOrchestrator deploys for a cell.
NrScopeConfig fleet_engine_config(const CellConfig& cell) {
  NrScopeConfig config;
  config.n_prb = cell.n_prb;
  config.scs = cell.scs;
  config.n_dci_threads = 1;
  return config;
}

std::shared_ptr<const ThroughputPredictor> load_predictor(
    const std::string& path) {
  std::optional<PredictorWeights> weights = PredictorWeights::load(path);
  if (!weights) {
    throw std::runtime_error("cannot load predictor weights from " + path);
  }
  return std::make_shared<const ThroughputPredictor>(std::move(*weights));
}

/// Last sink of the chain: checks slot order, stamps push -> last sink
/// latency, keeps the decoded DCIs of the timed window for ground-truth
/// matching, and publishes progress to the feeder.
class CheckSink : public SlotSink {
 public:
  explicit CheckSink(const SlotClock& clock) : clock_(clock) {
    latency_us.reserve(1 << 18);
    engine_us.reserve(1 << 18);
    dcis.reserve(1 << 18);
  }

  /// First slot index of the timed window (call before pushing it).
  void open_window(std::uint64_t from_slot) {
    window_from_.store(from_slot, std::memory_order_release);
  }

  void on_slot(const SlotResult& result) override {
    const std::int64_t t = now_ns();
    if (seen_any_ && result.slot <= last_slot_) {
      order_ok = false;
    }
    seen_any_ = true;
    last_slot_ = result.slot;
    for (const NewUe& ue : result.new_ues) {
      if (std::find(learned_.begin(), learned_.end(), ue.c_rnti) ==
          learned_.end()) {
        learned_.push_back(ue.c_rnti);
      }
    }
    if (result.slot >= window_from_.load(std::memory_order_acquire)) {
      latency_us.add(static_cast<double>(t - clock_.at(result.slot)) / 1e3);
      engine_us.add(result.processing_time_us);
      dcis.insert(dcis.end(), result.dcis.begin(), result.dcis.end());
      ++window_slots;
      last_delivery_ns = t;
    }
    learned_count_.store(learned_.size(), std::memory_order_release);
    tracking_.store(result.sync_state == SyncState::kTracking,
                    std::memory_order_release);
    delivered_.fetch_add(1, std::memory_order_acq_rel);
  }

  [[nodiscard]] std::uint64_t delivered() const {
    return delivered_.load(std::memory_order_acquire);
  }
  [[nodiscard]] std::size_t learned_ues() const {
    return learned_count_.load(std::memory_order_acquire);
  }
  [[nodiscard]] bool tracking() const {
    return tracking_.load(std::memory_order_acquire);
  }

  // Collector-thread state; read only after the pipeline has stopped.
  Samples latency_us;
  Samples engine_us;
  std::vector<DecodedDci> dcis;
  std::uint64_t window_slots = 0;
  std::int64_t last_delivery_ns = 0;
  bool order_ok = true;

 private:
  const SlotClock& clock_;
  bool seen_any_ = false;
  std::uint64_t last_slot_ = 0;
  std::vector<Rnti> learned_;
  std::atomic<std::uint64_t> window_from_{
      std::numeric_limits<std::uint64_t>::max()};
  std::atomic<std::size_t> learned_count_{0};
  std::atomic<bool> tracking_{false};
  std::atomic<std::uint64_t> delivered_{0};
};

/// First sink of a traced chain: push -> first sink latency.
class FirstSink : public SlotSink {
 public:
  FirstSink(const SlotClock& clock, Samples* out) : clock_(clock), out_(out) {}
  void on_slot(const SlotResult& result) override {
    out_->add(static_cast<double>(now_ns() - clock_.at(result.slot)) / 1e3);
  }

 private:
  const SlotClock& clock_;
  Samples* out_;
};

/// Sink right after the store sink: the slot's rows are readable in the
/// store from the moment it runs.
class StoredSink : public SlotSink {
 public:
  explicit StoredSink(SlotClock& clock) : clock_(clock) {}
  void on_slot(const SlotResult& result) override {
    clock_.set(result.slot, now_ns());
  }

 private:
  SlotClock& clock_;
};

/// Sniffer pipeline, sinks, history store and query server of one cell.
/// Members are ordered so that the pipeline stops before the sinks and
/// the server before the store they reference.
struct CellStack {
  CellStack(const CellConfig& cell, unsigned n_demod_workers, bool trace,
            std::shared_ptr<const ThroughputPredictor> predictor)
      : store(HistoryStoreConfig{}, &store_registry),
        server(server_config(store), &net_registry),
        check(std::make_shared<CheckSink>(clock)) {
    first_latency_us.reserve(1 << 18);
    store_us.reserve(1 << 18);
    prediction_us.reserve(1 << 18);
    pipeline = std::make_unique<NrScopePipeline>(fleet_engine_config(cell),
                                                 n_demod_workers);
    StoreSinkConfig store_config;
    store_config.cell_index = 0;
    store_config.n_prb = cell.n_prb;
    // Cell rows every slot, so staleness and the range/top-K queries are
    // defined while the engine is blind too.
    store_config.cell_rows_only_when_tracking = false;
    std::shared_ptr<SlotSink> store_sink =
        std::make_shared<HistoryStoreSink>(store, store_config);
    PredictionSinkConfig prediction_config;
    prediction_config.cell_index = 0;
    prediction_config.features.scs = cell.scs;
    prediction_config.features.n_prb = cell.n_prb;
    std::shared_ptr<SlotSink> prediction_sink =
        std::make_shared<PredictionSink>(std::move(predictor),
                                         prediction_config);
    if (trace) {
      pipeline->add_sink("first",
                         std::make_shared<FirstSink>(clock, &first_latency_us));
      store_sink = std::make_shared<TimedSink>(store_sink, &store_us);
      prediction_sink =
          std::make_shared<TimedSink>(prediction_sink, &prediction_us);
    }
    pipeline->add_sink("store", store_sink);
    pipeline->add_sink("stored", std::make_shared<StoredSink>(stored_clock));
    pipeline->add_sink("prediction", prediction_sink);
    pipeline->add_sink("check", check);
  }

  static StreamServerConfig server_config(const HistoryStore& store) {
    StreamServerConfig config;
    config.query_handler = history_query_handler(store);
    return config;
  }

  /// Drop the traced sink samples of the warm-up.  Only while the
  /// pipeline is drained and idle: the collector writes them.
  void reset_samples() {
    first_latency_us = Samples{};
    store_us = Samples{};
    prediction_us = Samples{};
    first_latency_us.reserve(1 << 18);
    store_us.reserve(1 << 18);
    prediction_us.reserve(1 << 18);
  }

  /// Publish an accepted push (for staleness probes and query ranges).
  void note_pushed(std::uint64_t slot) {
    next_slot.store(slot + 1, std::memory_order_release);
  }

  QueryTarget query_target() {
    QueryTarget target;
    target.store = &store;
    target.port = server.port();
    target.cells = {0};
    target.per_ue_aggregate = true;
    target.next_slot = [this](std::uint32_t) {
      return next_slot.load(std::memory_order_acquire);
    };
    target.handed_at = [this](std::uint32_t, std::uint64_t slot) {
      return next_slot.load(std::memory_order_acquire) > slot ? clock.at(slot)
                                                              : 0;
    };
    target.stored_at = [this](std::uint32_t, std::uint64_t slot) {
      return stored_clock.at(slot);
    };
    return target;
  }

  MetricsRegistry store_registry;
  HistoryStore store;
  MetricsRegistry net_registry;
  TelemetryStreamServer server;
  SlotClock clock;  ///< push times
  SlotClock stored_clock;  ///< store sink write times
  Samples first_latency_us;
  Samples store_us;
  Samples prediction_us;
  std::shared_ptr<CheckSink> check;
  std::atomic<std::uint64_t> next_slot{0};  ///< after the newest accepted push
  std::unique_ptr<NrScopePipeline> pipeline;
};

/// Wait until the collector has delivered `count` slots.
void wait_delivered(const CheckSink& check, std::uint64_t count) {
  const std::int64_t give_up = now_us() + 30'000'000;
  while (check.delivered() < count) {
    if (now_us() > give_up) {
      throw std::runtime_error("pipeline stopped delivering slots");
    }
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
}

/// Metrics snapshot values bracketing the timed window.
struct Bracket {
  MetricsSnapshot engine;
  MetricsSnapshot store;
  MetricsSnapshot net;
  double cpu_s = 0.0;
  std::uint64_t allocs = 0;
  std::int64_t t_ns = 0;

  static Bracket take(const CellStack& stack) {
    Bracket b;
    b.engine = stack.pipeline->metrics();
    b.store = stack.store_registry.snapshot();
    b.net = stack.net_registry.snapshot();
    b.cpu_s = process_cpu_s();
    b.allocs = alloc::totals().allocs;
    b.t_ns = now_ns();
    return b;
  }
};

double counter_delta(const MetricsSnapshot& before,
                     const MetricsSnapshot& after, const std::string& name) {
  return static_cast<double>(after.counter_value(name) -
                             before.counter_value(name));
}

void add_histogram_rows(Report& r, const std::string& row,
                        const MetricsSnapshot& before,
                        const MetricsSnapshot& after,
                        const std::string& name) {
  const HistogramSnapshot* b = before.find_histogram(name);
  const HistogramSnapshot* a = after.find_histogram(name);
  r.layer(row + ".mean", histogram_delta_mean(b, a), "us");
  r.layer(row + ".p50", histogram_delta_percentile(b, a, 50.0), "us");
}

void add_samples_rows(Report& r, const std::string& row, const Samples& s) {
  r.layer(row + ".mean", s.mean(), "us");
  r.layer(row + ".p50", s.percentile(50.0), "us");
  r.layer(row + ".p99", s.percentile(99.0), "us");
}

/// Outcome of one timed window of a local cell, before reporting.
struct Window {
  double wall_s = 0.0;
  std::uint64_t slots = 0;
  MissRateReport miss;
  Bracket before;
  Bracket after;
  double rss_mb = 0.0;
};

/// Report everything a local-cell workload shares: end-to-end metrics,
/// DCI accounting, query checks, and (traced) the per-layer ledger.
void report_local(const Options& options, CellStack& stack,
                  const Window& w, const QueryStats& q,
                  const FeederTrace& feeder, double setup_s, Report& r) {
  const CheckSink& check = *stack.check;
  const std::uint64_t matched = w.miss.dl_matched + w.miss.ul_matched;
  const std::uint64_t truth = w.miss.dl_truth + w.miss.ul_truth;
  r.ops = truth;
  r.ops_failed = (truth - matched) + w.miss.false_positives;
  const double rtf =
      static_cast<double>(w.slots) / w.wall_s / kAirSlotsPerSecond;
  const double goodput = static_cast<double>(matched) / w.wall_s;
  const double air_s = static_cast<double>(w.slots) / kAirSlotsPerSecond;

  r.e2e("setup_s", setup_s, "s");
  r.e2e("rtf", rtf, "x");
  r.e2e("slot_latency_p50_us", check.latency_us.percentile(50.0), "us");
  r.e2e("dci_goodput", goodput, "DCI/s");
  r.e2e("staleness_p50_ms", q.staleness_ms.percentile(50.0), "ms");
  r.e2e("cpu_per_air_s", (w.after.cpu_s - w.before.cpu_s) / air_s,
        "CPU-s/air-s");
  r.e2e("peak_rss_mb", w.rss_mb, "MB");

  r.check(check.order_ok, "slots reach the sinks in slot order");
  r.check(truth > 0, "ground truth holds " + std::to_string(truth) +
                         " DCIs for the timed window");
  r.check(q.sent > 0 && q.failed == 0,
          std::to_string(q.sent) + " queries answered kOk, top-K ranks "
          "the cell (" + std::to_string(q.failed) + " failed" +
          (q.failures.empty() ? "" : ": " + q.failures.front()) + ")");
  r.check(q.staleness_ms.size() > 0,
          std::to_string(q.staleness_ms.size()) + " staleness probes");
  char line[160];
  std::snprintf(line, sizeof(line),
                "DCI miss share %.4f (dl %lu/%lu, ul %lu/%lu matched, "
                "%lu false positives)",
                truth ? static_cast<double>(r.ops_failed) /
                            static_cast<double>(truth)
                      : 0.0,
                static_cast<unsigned long>(w.miss.dl_matched),
                static_cast<unsigned long>(w.miss.dl_truth),
                static_cast<unsigned long>(w.miss.ul_matched),
                static_cast<unsigned long>(w.miss.ul_truth),
                static_cast<unsigned long>(w.miss.false_positives));
  r.checks.push_back(std::string("info ") + line);

  add_query_rows(r, q);
  for (const double p : {90.0, 99.0}) {
    const std::string tail = p == 90.0 ? "p90" : "p99";
    r.layer("e2e.slot_latency_" + tail + "_us", check.latency_us.percentile(p),
            "us");
  }
  if (!options.trace) {
    return;
  }
  const double wall_per_slot = w.wall_s * 1e6 / static_cast<double>(w.slots);
  add_samples_rows(r, "gnb.step_us", feeder.gnb_step_us);
  add_samples_rows(r, "radio.capture_us", feeder.radio_capture_us);
  add_samples_rows(r, "pipeline.push_us", feeder.push_us);
  r.layer("pipeline.push_refused_share",
          feeder.pushes ? static_cast<double>(feeder.refused) /
                              static_cast<double>(feeder.pushes)
                        : 0.0);
  r.layer("pipeline.latency_us.p50", stack.first_latency_us.percentile(50.0),
          "us");
  r.layer("pipeline.latency_us.p99", stack.first_latency_us.percentile(99.0),
          "us");
  add_histogram_rows(r, "pipeline.demod_us", w.before.engine, w.after.engine,
                     "pipeline.demod_us");
  add_histogram_rows(r, "pipeline.collector_wait_us", w.before.engine,
                     w.after.engine, "pipeline.collector_wait_us");
  add_samples_rows(r, "nrscope.engine_us", check.engine_us);
  add_histogram_rows(r, "nrscope.blind_decode_us", w.before.engine,
                     w.after.engine, "nrscope.blind_decode_us");
  double state_slots = 0.0;
  for (const char* state : {"searching", "wait_sib1", "tracking", "resync"}) {
    state_slots += counter_delta(w.before.engine, w.after.engine,
                                 std::string("nrscope.slots_") + state);
  }
  r.layer("nrscope.tracking_share",
          state_slots > 0 ? counter_delta(w.before.engine, w.after.engine,
                                          "nrscope.slots_tracking") /
                                state_slots
                          : 0.0);
  r.layer("nrscope.dcis_per_slot", static_cast<double>(check.dcis.size()) /
                                       static_cast<double>(w.slots));
  r.layer("nrscope.tracked_ues",
          static_cast<double>(stack.pipeline->engine().known_ues().size()));
  add_samples_rows(r, "sink.store.on_slot_us", stack.store_us);
  add_samples_rows(r, "sink.prediction.on_slot_us", stack.prediction_us);
  const HistogramSnapshot* qb = w.before.net.find_histogram("query.latency_us");
  const HistogramSnapshot* qa = w.after.net.find_histogram("query.latency_us");
  const double server_p50 = histogram_delta_percentile(qb, qa, 50.0);
  r.layer("store.query_server_us.p50", server_p50, "us");
  r.layer("store.query_server_us.p99",
          histogram_delta_percentile(qb, qa, 99.0), "us");
  r.layer("query.rtt_us.p50", q.rtt_us.percentile(50.0), "us");
  r.layer("net.query_us.p50", q.rtt_us.percentile(50.0) - server_p50, "us");
  r.layer("store.rows_ingested_per_s",
          counter_delta(w.before.store, w.after.store, "store.rows_ingested") /
              w.wall_s);
  r.layer("dist.worker.report_bytes_per_s", 0.0);
  r.layer("dist.worker.report_batches", 0.0);
  // A single local cell: the fleet's push -> delivery latency is the
  // pipeline's push -> first sink latency, and nothing restarts.
  r.layer("fleet.slot_latency_us.p50", r.layer_value("pipeline.latency_us.p50"),
          "us");
  r.layer("fleet.slot_latency_us.p99", r.layer_value("pipeline.latency_us.p99"),
          "us");
  for (const char* counter :
       {"fleet.cell.restarts", "fleet.stalls", "dist.reassignments",
        "dist.leases_expired", "dist.worker.reconnects"}) {
    r.layer(counter, 0.0);
  }
  r.layer("alloc.per_slot", static_cast<double>(w.after.allocs -
                                                w.before.allocs) /
                                static_cast<double>(w.slots));
  r.layer("wall_us_per_slot", wall_per_slot, "us");
  r.layer("trace.rtf", rtf, "x");
  r.layer("trace.dci_goodput", goodput, "DCI/s");
}

// ---- live_cell ----------------------------------------------------------

constexpr unsigned kLiveUes = 4;
/// Slots the live cell runs before its timed window, the same for every
/// seed: the sniffer tracks every UE within the first 20 or so, and the
/// rest is one telemetry rate window (1000 slots) so grow-only state is at
/// steady capacity.  A whole number of frames.
constexpr std::uint64_t kLiveWarmupSlots = 1100;
/// Timed slots per requested second.  The window is a fixed slot count,
/// not a deadline, so that a seed's channel, and so its DCI misses, is the
/// same in every run; radio synthesis holds the closed loop at about
/// 400-700 slots/s on a 4-vCPU x86 host, so a run takes at most about the
/// requested time.
constexpr double kLiveSlotsPerSecond = 400.0;
/// Bound on pushed slots in flight, below the pipeline's input queue
/// depth (64), so that no push is refused and no slot is lost.
constexpr std::uint64_t kLiveInFlight = 32;

struct LiveCell {
  std::unique_ptr<GnbSim> gnb;
  std::unique_ptr<VirtualRadio> radio;
  std::unique_ptr<CellStack> stack;
  std::uint64_t next_slot = 0;  ///< gNB slots stepped (pushed or skipped)
  std::uint64_t accepted = 0;
  std::uint64_t tracked_by = 0;  ///< slot by which every UE was tracked
};

std::unique_ptr<LiveCell> build_live(const Options& options) {
  auto c = std::make_unique<LiveCell>();
  GnbConfig gnb_config;
  gnb_config.cell = amarisoft_cell();
  gnb_config.seed = mix_seed(options.seed, 1);
  c->gnb = std::make_unique<GnbSim>(gnb_config);
  for (unsigned u = 0; u < kLiveUes; ++u) {
    UeConfig ue;
    ue.id = u;
    ue.channel.snr_db = 24.0;
    ue.channel.seed = mix_seed(options.seed, 1000 + u);
    ue.seed = mix_seed(options.seed, 2000 + u);
    ue.dl_traffic = std::make_unique<CbrSource>(2e6);
    ue.ul_traffic = std::make_unique<CbrSource>(0.5e6);
    c->gnb->add_ue(std::move(ue));
  }
  VirtualRadioConfig radio_config;
  radio_config.n_prb = gnb_config.cell.n_prb;
  radio_config.channel.profile = ChannelProfile::kPedestrian;
  radio_config.channel.snr_db = 28.0;
  radio_config.channel.seed = mix_seed(options.seed, 3000);
  c->radio = std::make_unique<VirtualRadio>(radio_config);
  c->stack = std::make_unique<CellStack>(gnb_config.cell, 2, options.trace,
                                         load_predictor(options.weights));
  return c;
}

/// One closed-loop slot: gNB step -> radio capture into a pooled buffer ->
/// push.  The feeder first waits for the sniffer to hold fewer than
/// kLiveInFlight slots; a push refused all the same is a lost slot,
/// declared to the pipeline, and fails the run's delivery check.
void feed_live_slot(LiveCell& c, FeederTrace* trace) {
  NrScopePipeline& pipeline = *c.stack->pipeline;
  while (c.accepted - c.stack->check->delivered() >= kLiveInFlight) {
    std::this_thread::sleep_for(std::chrono::microseconds(20));
  }
  const std::int64_t t0 = trace ? now_ns() : 0;
  const ResourceGrid& grid = c.gnb->step();
  const std::int64_t t1 = trace ? now_ns() : 0;
  auto samples = pipeline.acquire_samples();
  const std::int64_t t2 = trace ? now_ns() : 0;
  c.radio->capture_into(grid, *samples);
  const std::int64_t t3 = now_ns();
  const std::uint64_t slot = c.next_slot++;
  c.stack->clock.set(slot, t3);
  const bool accepted = pipeline.push_slot(std::move(samples));
  if (accepted) {
    ++c.accepted;
    c.stack->note_pushed(slot);
  } else {
    pipeline.skip_slots(1);
  }
  if (trace != nullptr) {
    const std::int64_t t4 = now_ns();
    trace->gnb_step_us.add(static_cast<double>(t1 - t0) / 1e3);
    trace->radio_capture_us.add(static_cast<double>(t3 - t2) / 1e3);
    trace->push_us.add(static_cast<double>((t2 - t1) + (t4 - t3)) / 1e3);
    ++trace->pushes;
    trace->refused += accepted ? 0 : 1;
  }
}

/// Run the cell for kLiveWarmupSlots, noting by which slot the sniffer
/// tracked every UE, then drain the pipeline.
void warm_up_live(LiveCell& c) {
  const CheckSink& check = *c.stack->check;
  while (c.next_slot < kLiveWarmupSlots) {
    feed_live_slot(c, nullptr);
    if (c.tracked_by == 0 && check.tracking() &&
        check.learned_ues() >= kLiveUes) {
      c.tracked_by = c.next_slot;
    }
  }
  wait_delivered(check, c.accepted);
}

struct LiveRun {
  Window window;
  std::uint64_t slots = 0;     ///< slots stepped in the timed window
  std::uint64_t accepted = 0;  ///< pushes accepted in the timed window
  FeederTrace feeder;
  QueryStats queries;
};

/// The timed closed loop over a fixed number of whole frames, with the
/// query load on a second thread.
LiveRun run_live_window(LiveCell& c, QueryLoad& load, double seconds,
                        bool trace) {
  LiveRun run;
  FeederTrace* feeder = trace ? &run.feeder : nullptr;
  const std::uint64_t spf = slots_per_frame(c.gnb->cell().scs);
  const std::uint64_t n_slots =
      std::max<std::uint64_t>(
          1, static_cast<std::uint64_t>(seconds * kLiveSlotsPerSecond) / spf) *
      spf;
  if (trace) {
    run.feeder.gnb_step_us.reserve(n_slots);
    run.feeder.radio_capture_us.reserve(n_slots);
    run.feeder.push_us.reserve(n_slots);
  }
  CellStack& stack = *c.stack;
  const std::uint64_t first_slot = c.next_slot;
  const std::uint64_t accepted_before = c.accepted;
  stack.reset_samples();
  stack.check->open_window(first_slot);
  run.window.before = Bracket::take(stack);
  std::atomic<bool> feeder_done{false};
  std::thread observer([&] {
    load.run(std::numeric_limits<std::int64_t>::max(), &feeder_done);
  });
  while (c.next_slot < first_slot + n_slots) {
    feed_live_slot(c, feeder);
  }
  stack.pipeline->stop();  // drains every accepted slot through the sinks
  feeder_done.store(true, std::memory_order_release);
  observer.join();
  run.window.after = Bracket::take(stack);
  run.window.rss_mb = peak_rss_mb();
  run.window.slots = stack.check->window_slots;
  run.window.wall_s =
      static_cast<double>(stack.check->last_delivery_ns -
                          run.window.before.t_ns) /
      1e9;
  run.queries = load.stats();
  run.slots = n_slots;
  run.accepted = c.accepted - accepted_before;
  run.window.miss =
      compute_miss_rate(c.gnb->truth(), stack.check->dcis, first_slot);
  return run;
}

}  // namespace

Report run_live_cell(const Options& options) {
  std::vector<double> setups;
  std::unique_ptr<LiveCell> cell;
  std::unique_ptr<QueryLoad> load;
  for (int i = 0; i < kSetupRepeats; ++i) {
    load.reset();
    cell.reset();
    release_freed_memory();
    const std::int64_t t0 = now_us();
    cell = build_live(options);
    load = std::make_unique<QueryLoad>(cell->stack->query_target());
    warm_up_live(*cell);
    setups.push_back(static_cast<double>(now_us() - t0) / 1e6);
  }
  LiveRun run = run_live_window(*cell, *load, options.seconds, options.trace);
  Report report;
  report_local(options, *cell->stack, run.window, run.queries, run.feeder,
               median_setup_s(setups), report);
  report.check(run.window.slots == run.slots && run.accepted == run.slots,
               "every timed slot was pushed and delivered (" +
                   std::to_string(run.window.slots) + " of " +
                   std::to_string(run.slots) + ")");
  report.check(cell->tracked_by != 0,
               "the sniffer tracked every UE during the " +
                   std::to_string(kLiveWarmupSlots) + "-slot warm-up (by slot " +
                   std::to_string(cell->tracked_by) + ")");
  if (options.trace) {
    // Feeder side: gNB + radio + push means over the wall time per slot.
    report.layer("accounted_share",
                 (report.layer_value("gnb.step_us.mean") +
                  report.layer_value("radio.capture_us.mean") +
                  report.layer_value("pipeline.push_us.mean")) /
                     report.layer_value("wall_us_per_slot"));
  }
  load.reset();
  return report;
}

// ---- replay_crowd -------------------------------------------------------

namespace {

constexpr unsigned kCrowdUes = 32;
constexpr unsigned kWindowFrames = 8;
/// Bound on replayed slots in flight (queue, demod workers, reorder ring,
/// engine) once the sniffer falls behind the replay pace: it then sets the
/// rate, and its slot latency is this many slots of queueing.
constexpr std::uint64_t kReplayInFlight = 8;
/// Replay pace: half the air rate.  At the full air rate the engine's
/// 500 us budget was only about twice its cost on a shared 4-vCPU host,
/// and in slow spells the sniffer fell behind, so the slot latency of
/// whole runs tripled; at half the rate a sniffer that keeps up still
/// reads rtf 0.5 and one that cannot falls below it.
constexpr double kReplaySlotsPerSecond = kAirSlotsPerSecond / 2;

/// A recorded crowded cell: IQ and ground truth from power-on until every
/// UE has attached (ending on a frame boundary), plus a cyclic window of
/// whole frames.
struct Recording {
  std::unique_ptr<GnbSim> gnb;
  std::vector<IqBuffer> slots;
  std::size_t window_start = 0;
  std::size_t window_len = 0;
  FeederTrace trace;  ///< gNB / radio cost while recording

  /// The recorded slot that replayed slot `i` plays back.
  [[nodiscard]] std::size_t source(std::uint64_t i) const {
    return i < window_start
               ? static_cast<std::size_t>(i)
               : window_start + static_cast<std::size_t>(
                                    (i - window_start) % window_len);
  }
};

Recording record_crowd(std::uint64_t seed, bool trace) {
  Recording rec;
  GnbConfig gnb_config;
  gnb_config.cell = amarisoft_cell();
  gnb_config.seed = mix_seed(seed, 1);
  rec.gnb = std::make_unique<GnbSim>(gnb_config);
  Rng rng(mix_seed(seed, 9));
  for (unsigned u = 0; u < kCrowdUes; ++u) {
    UeConfig ue;
    ue.id = u;
    ue.channel.snr_db = rng.uniform(18.0, 25.0);
    ue.channel.seed = mix_seed(seed, 1000 + u);
    ue.seed = mix_seed(seed, 2000 + u);
    const std::uint64_t traffic_seed = mix_seed(seed, 4000 + u);
    switch (u % 4) {
      case 0:
        ue.dl_traffic = std::make_unique<CbrSource>(1e6);
        break;
      case 1:
        ue.dl_traffic = std::make_unique<VideoSource>(2e6, traffic_seed);
        break;
      case 2:
        ue.dl_traffic =
            std::make_unique<PoissonSource>(125.0, 1000, traffic_seed);
        break;
      default:
        ue.dl_traffic =
            std::make_unique<FileDownloadSource>(125000, 1.0, traffic_seed);
        break;
    }
    ue.ul_traffic = std::make_unique<CbrSource>(0.25e6);
    rec.gnb->add_ue(std::move(ue));
  }
  VirtualRadioConfig radio_config;
  radio_config.n_prb = rec.gnb->cell().n_prb;
  radio_config.channel.profile = ChannelProfile::kAwgn;
  radio_config.channel.snr_db = 28.0;
  radio_config.channel.seed = mix_seed(seed, 3000);
  VirtualRadio radio(radio_config);

  const unsigned spf = slots_per_frame(rec.gnb->cell().scs);
  auto record_slot = [&] {
    const std::int64_t t0 = trace ? now_ns() : 0;
    const ResourceGrid& grid = rec.gnb->step();
    const std::int64_t t1 = trace ? now_ns() : 0;
    rec.slots.emplace_back();
    radio.capture_into(grid, rec.slots.back());
    if (trace) {
      rec.trace.gnb_step_us.add(static_cast<double>(t1 - t0) / 1e3);
      rec.trace.radio_capture_us.add(static_cast<double>(now_ns() - t1) /
                                     1e3);
    }
  };
  for (;;) {
    if (rec.slots.size() > 8000) {
      throw std::runtime_error("replay_crowd: UEs never all attached");
    }
    record_slot();
    if (rec.slots.size() % spf == 0 &&
        rec.gnb->connected_rntis().size() >= kCrowdUes) {
      break;
    }
  }
  rec.window_start = rec.slots.size();
  rec.window_len = kWindowFrames * spf;
  for (std::size_t i = 0; i < rec.window_len; ++i) {
    record_slot();
  }
  return rec;
}

void accumulate(MissRateReport& total, const MissRateReport& part) {
  total.dl_truth += part.dl_truth;
  total.dl_matched += part.dl_matched;
  total.ul_truth += part.ul_truth;
  total.ul_matched += part.ul_matched;
  total.false_positives += part.false_positives;
}

/// Match the decoded DCIs of a replay that ended on a window boundary
/// against the recorded truth: every replayed slot is mapped back to the
/// slot it was recorded from, one pass of the window at a time (the
/// power-on prefix rides with the first pass).
MissRateReport match_replay(const Recording& rec,
                            const std::vector<DecodedDci>& decoded,
                            std::uint64_t n_slots) {
  const GroundTruthLog& truth = rec.gnb->truth();
  const std::uint64_t first_pass_end = rec.window_start + rec.window_len;
  const std::uint64_t passes =
      1 + (n_slots - first_pass_end) / rec.window_len;
  const MissRateReport blind_pass = compute_miss_rate(truth, {}, rec.window_start);
  MissRateReport total;
  std::vector<DecodedDci> pass_dcis;
  auto it = decoded.begin();
  for (std::uint64_t pass = 0; pass < passes; ++pass) {
    const std::uint64_t end = first_pass_end + pass * rec.window_len;
    pass_dcis.clear();
    for (; it != decoded.end() && it->slot < end; ++it) {
      DecodedDci dci = *it;
      dci.slot = rec.source(dci.slot);
      pass_dcis.push_back(dci);
    }
    if (pass == 0) {
      accumulate(total, compute_miss_rate(truth, pass_dcis));
    } else if (pass_dcis.empty()) {
      accumulate(total, blind_pass);
    } else {
      accumulate(total, compute_miss_rate(truth, pass_dcis, rec.window_start));
    }
  }
  return total;
}

}  // namespace

Report run_replay_crowd(const Options& options) {
  std::vector<double> setups;
  std::unique_ptr<Recording> rec;
  std::unique_ptr<CellStack> stack;
  std::unique_ptr<QueryLoad> load;
  for (int i = 0; i < kSetupRepeats; ++i) {
    load.reset();
    stack.reset();
    rec.reset();
    release_freed_memory();
    const std::int64_t t0 = now_us();
    rec = std::make_unique<Recording>(record_crowd(options.seed, options.trace));
    stack = std::make_unique<CellStack>(rec->gnb->cell(), 2, options.trace,
                                        load_predictor(options.weights));
    load = std::make_unique<QueryLoad>(stack->query_target());
    setups.push_back(static_cast<double>(now_us() - t0) / 1e6);
  }

  // Timed: replay from power-on through whole passes of the cyclic window,
  // as many slots as the requested seconds hold at kReplaySlotsPerSecond
  // (a fixed count, so a seed's ground truth is the same in every run).
  // The pace is kept (a late feeder catches up), with at most
  // kReplayInFlight slots in flight, so a sniffer slower than the pace
  // falls behind and shows it in rtf; a refused push is retried.
  FeederTrace feeder;
  feeder.push_us.reserve(static_cast<std::size_t>(options.seconds * 20000));
  stack->check->open_window(0);
  Window w;
  w.before = Bracket::take(*stack);
  std::atomic<bool> feeder_done{false};
  std::thread observer([&] {
    load->run(std::numeric_limits<std::int64_t>::max(), &feeder_done);
  });
  NrScopePipeline& pipeline = *stack->pipeline;
  std::uint64_t pushed = 0;
  // End on a window boundary so every replayed pass is whole.
  const std::uint64_t first_pass_end = rec->window_start + rec->window_len;
  const auto paced_slots =
      static_cast<std::uint64_t>(options.seconds * kReplaySlotsPerSecond);
  const std::uint64_t n_slots =
      paced_slots <= first_pass_end
          ? first_pass_end
          : first_pass_end + (paced_slots - first_pass_end + rec->window_len -
                              1) / rec->window_len * rec->window_len;
  const double slot_ns = 1e9 / kReplaySlotsPerSecond;
  while (pushed < n_slots) {
    const std::int64_t due =
        w.before.t_ns + static_cast<std::int64_t>(
                            static_cast<double>(pushed) * slot_ns);
    const std::int64_t early_ns = due - now_ns();
    if (early_ns > 0) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(early_ns));
      continue;
    }
    if (pushed - stack->check->delivered() >= kReplayInFlight) {
      std::this_thread::sleep_for(std::chrono::microseconds(20));
      continue;
    }
    const IqBuffer& src = rec->slots[rec->source(pushed)];
    for (;;) {
      auto samples = pipeline.acquire_samples();
      samples->assign(src.begin(), src.end());
      const std::int64_t t0 = now_ns();
      stack->clock.set(pushed, t0);
      const bool accepted = pipeline.push_slot(std::move(samples));
      if (options.trace) {
        feeder.push_us.add(static_cast<double>(now_ns() - t0) / 1e3);
      }
      ++feeder.pushes;
      if (accepted) {
        break;
      }
      ++feeder.refused;
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
    stack->note_pushed(pushed);
    ++pushed;
  }
  pipeline.stop();
  feeder_done.store(true, std::memory_order_release);
  observer.join();
  w.after = Bracket::take(*stack);
  w.rss_mb = peak_rss_mb();
  w.slots = stack->check->window_slots;
  w.wall_s =
      static_cast<double>(stack->check->last_delivery_ns - w.before.t_ns) /
      1e9;
  w.miss = match_replay(*rec, stack->check->dcis, pushed);

  Report report;
  feeder.gnb_step_us = rec->trace.gnb_step_us;
  feeder.radio_capture_us = rec->trace.radio_capture_us;
  report_local(options, *stack, w, load->stats(), feeder,
               median_setup_s(setups), report);
  report.check(w.slots == pushed, "every replayed slot was delivered (" +
                                      std::to_string(pushed) + ")");
  if (options.trace) {
    // Collector side: engine + sinks, plus the wait for the next
    // demodulated slot, which is the slack of the pace while it keeps up.
    const double accounted =
        report.layer_value("nrscope.engine_us.mean") +
        report.layer_value("sink.store.on_slot_us.mean") +
        report.layer_value("sink.prediction.on_slot_us.mean") +
        report.layer_value("pipeline.collector_wait_us.mean");
    report.layer("accounted_share",
                 accounted / report.layer_value("wall_us_per_slot"));
  }
  load.reset();
  return report;
}

}  // namespace nrs::perfbench
