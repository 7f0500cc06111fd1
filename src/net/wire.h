// Length-prefixed binary wire protocol for live telemetry streaming and
// the distributed fleet.  A TelemetryStreamServer serializes each
// SlotResult (and periodic MetricsSnapshots) into self-delimiting frames;
// any remote consumer that speaks this protocol — TelemetryStreamClient
// here, or a foreign-language tool — can reconstruct the per-TTI feed the
// paper's downstream applications (e.g. the cloud-gaming work) consume.
//
// Frame layout (all integers little-endian, assembled byte by byte so the
// encoding is identical on any host):
//
//   | magic u32 | version u16 | type u16 | payload_len u32 | payload ... |
//
// Each payload struct's field order is written down once, as a `fields`
// schema in wire.cc that drives encoding, decoding and sizing alike.
// Decoding never throws and never reads past the buffer: truncated,
// corrupt or over-long input yields std::nullopt (WireReader carries a
// sticky error flag), which tests/net/test_wire.cc fuzzes for every
// payload type.
#pragma once

#include <bit>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "nrscope/nrscope.h"

namespace nrs {

inline constexpr std::uint32_t kWireMagic = 0x4E525357;  // "NRSW"
/// The one protocol version this build speaks.  Every in-tree peer is
/// built from the same source, so there is no compatibility window: a
/// frame stamped with any other version is answered with
/// kUnsupportedVersion and the connection is dropped.
inline constexpr std::uint16_t kWireVersion = 5;
/// Upper bound on a sane payload; a bigger announced length means the
/// stream is corrupt (or hostile) and the connection should be dropped.
inline constexpr std::uint32_t kWireMaxPayload = 64u * 1024u * 1024u;
/// Bytes before the payload: magic + version + type + payload_len.
inline constexpr std::size_t kWireHeaderSize = 12;
/// Longest string a frame carries (u16 length prefix); longer strings are
/// cut to this many bytes on encode.
inline constexpr std::size_t kWireMaxString = 0xFFFF;

enum class FrameType : std::uint16_t {
  kHello = 1,      ///< server -> client greeting right after accept
  kSlot = 2,       ///< one serialized SlotResult
  kMetrics = 3,    ///< one serialized MetricsSnapshot
  kHeartbeat = 4,  ///< keep-alive when the stream is idle (empty payload)
  kEnd = 5,        ///< end of stream: the run finished (empty payload)
  kFleet = 6,      ///< one serialized FleetSummary (cross-cell rollup)
  kQuery = 7,        ///< client -> server: one QueryRequest
  kQueryResult = 8,  ///< server -> client: the matching QueryResponse
  // Distributed fleet (coordinator/worker work assignment).
  kWorkerHello = 9,       ///< worker -> coordinator: join the fleet
  kLease = 10,            ///< coordinator -> worker: grant/renew one cell
  kLeaseAck = 11,         ///< worker -> coordinator: accept/refuse a lease
  kWorkerHeartbeat = 12,  ///< worker -> coordinator: liveness + lease state
  // 13 was a single-report frame, superseded by kCellReportBatch.
  kLeaseRevoke = 14,      ///< coordinator -> worker: stop running a cell
  /// Structured protocol-mismatch error: sent (best effort) to a peer whose
  /// frames carry a version other than kWireVersion right before the
  /// connection is dropped, so the peer sees a clear error instead of a
  /// silent disconnect.
  kUnsupportedVersion = 15,
  kPrediction = 16,       ///< one serialized PredictionSet (analysis sink)
  kCellReportBatch = 17,  ///< worker -> coordinator: per-cell telemetry
  // Coordinator high availability (replication + epoch fencing).
  kStandbyHello = 18,     ///< standby -> primary: attach as replication tail
  kReplicaSnapshot = 19,  ///< primary -> standby: full coordinator state
  kReplicaEvent = 20,     ///< primary -> standby: one incremental mutation
  kNotPrimary = 21,       ///< standby -> worker: not serving leases here
};

const char* to_string(FrameType type);

/// Greeting payload: lets a (re)connecting client learn where the live
/// stream currently stands.
struct HelloInfo {
  std::uint16_t version = kWireVersion;
  std::uint64_t next_slot = 0;  ///< next slot index the server will send
  [[nodiscard]] bool operator==(const HelloInfo&) const = default;
};

/// One cell's entry in the fleet aggregate frame (FrameType::kFleet).
/// `state` is the fleet-layer FleetCellState as a raw byte — the wire
/// layer does not depend on src/fleet; consumers that care cast it back.
struct CellSummary {
  std::uint32_t cell_index = 0;
  std::string name;
  std::uint8_t state = 0;
  std::uint64_t slots = 0;  ///< slots processed (lifetime, across restarts)
  std::uint64_t dcis = 0;
  std::uint64_t restarts = 0;
  std::uint32_t active_ues = 0;
  double dl_mbps = 0.0;       ///< trailing-window downlink throughput
  double ul_mbps = 0.0;
  double retx_rate = 0.0;     ///< retransmitted / observed DCIs
  double utilization = 0.0;   ///< granted PRB-slots / downlink capacity
  [[nodiscard]] bool operator==(const CellSummary&) const = default;
};

/// Cross-cell aggregate (fold_fleet_summary in src/fleet) that fleet
/// monitors and coordinators broadcast periodically: fleet totals, one
/// CellSummary per cell, and the spare-capacity ranking (cell indices,
/// most spare capacity first — the section 5.4.1 use case lifted from one
/// cell to the fleet).
struct FleetSummary {
  std::uint64_t slot = 0;  ///< fleet slots processed when this was emitted
  std::uint64_t dcis_total = 0;
  std::uint64_t restarts_total = 0;
  double dl_mbps_total = 0.0;
  double ul_mbps_total = 0.0;
  double retx_rate = 0.0;
  std::vector<std::uint32_t> spare_ranking;
  std::vector<CellSummary> cells;
  [[nodiscard]] bool operator==(const FleetSummary&) const = default;
};

// ---- Query request/response ------------------------------------------
//
// The wire layer defines the query *shapes* only; executing them against a
// history store lives in src/store (run_query), wired into the server as
// an opaque handler so nrs_net never depends on the store.

enum class QueryKind : std::uint8_t {
  kRange = 0,      ///< raw (slot, value) rows of one series in [from, to)
  kAggregate = 1,  ///< per-bucket count/sum/avg/max downsampling
  kTopK = 2,       ///< series ranked by mean value over [from, to)
};

const char* to_string(QueryKind kind);

/// Which per-bucket statistic the caller cares about (the response carries
/// all of them; this records intent for display layers).
enum class AggregateOp : std::uint8_t {
  kSum = 0,
  kAvg = 1,
  kMax = 2,
};

/// One telemetry history query.  `cell`/`rnti`/`metric` select the series
/// (raw StoreMetric value; the wire layer does not depend on src/store).
/// kTopK treats `cell` == 0xFFFFFFFF as "every cell" and ignores `rnti`,
/// ranking all series of `metric` — e.g. metric = cell_spare_prbs over all
/// cells is the fleet-wide spare-capacity ranking.
struct QueryRequest {
  std::uint64_t correlation_id = 0;  ///< echoed verbatim in the response
  QueryKind kind = QueryKind::kRange;
  std::uint32_t cell = 0;
  std::uint16_t rnti = 0;
  std::uint8_t metric = 0;
  std::uint64_t slot_from = 0;
  std::uint64_t slot_to = 0;        ///< exclusive
  std::uint64_t bucket_slots = 0;   ///< kAggregate: bucket width in slots
  std::uint32_t k = 0;              ///< kTopK: ranking size
  AggregateOp op = AggregateOp::kAvg;
  [[nodiscard]] bool operator==(const QueryRequest&) const = default;
};

/// One raw row of a range scan.
struct QueryRowWire {
  std::uint64_t slot = 0;
  double value = 0.0;
  [[nodiscard]] bool operator==(const QueryRowWire&) const = default;
};

/// One downsampling bucket [start, start + width).
struct QueryBucket {
  std::uint64_t slot_start = 0;
  std::uint64_t count = 0;
  double sum = 0.0;
  double avg = 0.0;
  double max = 0.0;
  [[nodiscard]] bool operator==(const QueryBucket&) const = default;
};

/// One ranked series in a top-K response, best first.
struct TopKEntry {
  std::uint32_t cell = 0;
  std::uint16_t rnti = 0;
  double score = 0.0;       ///< mean value over the queried range
  std::uint64_t rows = 0;   ///< rows the score was computed from
  [[nodiscard]] bool operator==(const TopKEntry&) const = default;
};

enum class QueryStatus : std::uint8_t {
  kOk = 0,
  kBadRequest = 1,    ///< malformed parameters (bad metric, empty range)
  kNotFound = 2,      ///< no such series
  kUnavailable = 3,   ///< server has no query handler attached
};

const char* to_string(QueryStatus status);

struct QueryResponse {
  std::uint64_t correlation_id = 0;
  QueryStatus status = QueryStatus::kOk;
  QueryKind kind = QueryKind::kRange;
  std::string error;  ///< human-readable detail when status != kOk
  std::vector<QueryRowWire> rows;       ///< kRange
  std::vector<QueryBucket> buckets;     ///< kAggregate
  std::vector<TopKEntry> ranking;       ///< kTopK
  [[nodiscard]] bool operator==(const QueryResponse&) const = default;
};

// ---- Distributed fleet (coordinator/worker) --------------------------
//
// The wire layer defines the work-assignment *shapes* only; granting,
// renewing and revoking leases is src/dist's business.  Cell specs travel
// as (preset name + overrides) rather than a full CellConfig dump: both
// ends of the protocol link the preset table, and an unknown preset is a
// lease refusal, not a decode error.

/// Payload of FrameType::kUnsupportedVersion.  The accepted range is a
/// single version; both bounds stay on the wire so the frame keeps the
/// layout foreign peers already parse.
struct VersionReject {
  std::uint16_t rejected = 0;  ///< the version the peer spoke
  std::uint16_t min_version = kWireVersion;
  std::uint16_t max_version = kWireVersion;
  std::string message;
  [[nodiscard]] bool operator==(const VersionReject&) const = default;
};

/// Worker -> coordinator greeting: who I am and how many cells I can run.
/// `epoch` is the highest coordinator term the worker has seen (0 on a
/// fresh worker); a coordinator receiving a hello from a *newer* epoch
/// knows it has been deposed and fences itself instead of registering the
/// worker.
struct WorkerHello {
  std::string name;
  std::uint32_t capacity = 1;  ///< max concurrent cell leases
  std::uint16_t version = kWireVersion;
  std::uint32_t pool_threads = 0;  ///< informational (capacity planning)
  std::uint64_t epoch = 0;         ///< highest coordinator term seen
  [[nodiscard]] bool operator==(const WorkerHello&) const = default;
};

/// Everything a worker needs to run one cell: a preset name plus the
/// overrides the coordinator chose.  `incarnation` is the cell's handoff
/// count — seeds derive from (seed, incarnation), so a reassigned cell
/// draws a fresh but reproducible stream on its new worker.
struct WireCellSpec {
  std::uint32_t cell_index = 0;  ///< fleet-global index
  std::string name;
  std::string preset;
  std::uint16_t pci = 0;  ///< 0 = keep the preset's PCI
  std::uint32_t n_ues = 2;
  double ue_rate_bps = 2e6;
  double ue_snr_db = 18.0;
  double sniffer_snr_db = 28.0;
  std::uint64_t seed = 1;
  std::uint32_t incarnation = 0;
  [[nodiscard]] bool operator==(const WireCellSpec&) const = default;
};

/// Coordinator -> worker: run `spec` under lease `lease_id` for `ttl_ms`.
/// A grant for a lease_id the worker already holds is a renewal (the TTL
/// clock restarts); the spec is identical by construction.
struct LeaseGrant {
  std::uint64_t lease_id = 0;
  std::uint32_t ttl_ms = 0;
  /// Coordinator-side lifetime slots already credited to this cell by
  /// earlier leases (informational: lets a worker log global positions).
  std::uint64_t base_slot = 0;
  /// Coordinator term the grant was issued under.  Workers adopt higher
  /// epochs and refuse grants from a lower one (deposed primary).
  std::uint64_t epoch = 0;
  WireCellSpec spec;
  [[nodiscard]] bool operator==(const LeaseGrant&) const = default;
};

/// Worker -> coordinator: lease accepted (cell is starting) or refused
/// (unknown preset, over capacity) with a reason.
struct LeaseAck {
  std::uint64_t lease_id = 0;
  std::uint32_t cell_index = 0;
  bool accepted = false;
  std::string message;
  std::uint64_t epoch = 0;  ///< the worker's current coordinator term
  [[nodiscard]] bool operator==(const LeaseAck&) const = default;
};

/// One held lease's state inside a worker heartbeat.
struct LeaseStatus {
  std::uint64_t lease_id = 0;
  std::uint32_t cell_index = 0;
  std::uint64_t slots = 0;      ///< slots delivered within this lease
  std::uint8_t cell_state = 0;  ///< raw FleetCellState
  [[nodiscard]] bool operator==(const LeaseStatus&) const = default;
};

/// Worker -> coordinator liveness.  Receiving one renews every listed
/// lease; a worker that goes silent past the heartbeat timeout is declared
/// dead and its cells are reassigned.
struct WorkerHeartbeat {
  std::uint64_t seq = 0;
  std::uint64_t epoch = 0;  ///< highest coordinator term the worker saw
  std::vector<LeaseStatus> leases;
  [[nodiscard]] bool operator==(const WorkerHeartbeat&) const = default;
};

/// One history-store row forwarded inside a cell report.  `slot` is
/// lease-local; the coordinator rebases it onto the cell's lifetime slot
/// axis before ingest.
struct StoreRowUpdate {
  std::uint16_t rnti = 0;
  std::uint8_t metric = 0;  ///< raw StoreMetric
  std::uint64_t slot = 0;
  double value = 0.0;
  [[nodiscard]] bool operator==(const StoreRowUpdate&) const = default;
};

/// One cell's telemetry record — the per-cell input of the fleet fold.  A
/// worker sends its orchestrator's record for the cell under one lease,
/// with the lease fields and rows set.  Counters are lease-local lifetime
/// totals (monotonic within the lease); the coordinator adds them to the
/// totals committed by earlier leases, which is what keeps the fleet view
/// monotonic across a reassignment.
struct CellReport {
  std::uint64_t lease_id = 0;
  std::uint64_t epoch = 0;  ///< coordinator term the lease was granted under
  std::uint32_t cell_index = 0;
  std::uint8_t cell_state = 0;  ///< raw FleetCellState
  std::uint64_t slots = 0;
  std::uint64_t dcis = 0;
  std::uint64_t retx_dcis = 0;
  std::uint64_t restarts = 0;  ///< worker-supervisor restarts, this lease
  std::uint32_t active_ues = 0;
  double dl_mbps = 0.0;
  double ul_mbps = 0.0;
  double retx_rate = 0.0;
  double utilization = 0.0;
  double spare_prb_rate = 0.0;
  std::vector<StoreRowUpdate> rows;
  [[nodiscard]] bool operator==(const CellReport&) const = default;
};

/// Worker -> coordinator: every live lease's CellReport folded into one
/// frame per report interval (FrameType::kCellReportBatch), so a worker
/// running N cells costs one send + one syscall per interval instead of N.
struct CellReportBatch {
  std::vector<CellReport> reports;
  [[nodiscard]] bool operator==(const CellReportBatch&) const = default;
};

/// One UE's row in a PredictionSet.  `predicted_bps` is the downlink
/// throughput the analysis predictor forecast over `horizon_slots`;
/// when `has_actual` is set the horizon has matured and `actual_bps` /
/// `abs_error_bps` carry the realized value and |predicted - actual|.
/// `degraded` marks forecasts made while the engine was resyncing
/// (SlotResult::degraded) — consumers should trust them less.
struct PredictionEntry {
  std::uint16_t rnti = 0;
  bool has_actual = false;
  bool degraded = false;
  double predicted_bps = 0.0;
  double actual_bps = 0.0;
  double abs_error_bps = 0.0;
  [[nodiscard]] bool operator==(const PredictionEntry&) const = default;
};

/// Periodic output of the analysis PredictionSink
/// (FrameType::kPrediction): fresh per-UE throughput forecasts plus the
/// predicted-vs-actual scoring of forecasts whose horizon just matured.
/// `model_version` stamps which trained weights produced the numbers so
/// fleet-wide consumers can tell cells running stale models apart.
struct PredictionSet {
  std::uint32_t cell_index = 0;
  std::uint64_t slot = 0;  ///< sink-local slot the set was emitted at
  std::uint32_t horizon_slots = 0;
  std::uint32_t model_version = 0;
  std::vector<PredictionEntry> entries;
  [[nodiscard]] bool operator==(const PredictionSet&) const = default;
};

/// Coordinator -> worker: stop running this cell (rebalance toward a
/// newly joined worker, or an operator decision).  The worker tears the
/// cell down and stops reporting under this lease.
struct LeaseRevoke {
  std::uint64_t lease_id = 0;
  std::uint32_t cell_index = 0;
  std::string reason;
  std::uint64_t epoch = 0;  ///< coordinator term; stale revokes are ignored
  [[nodiscard]] bool operator==(const LeaseRevoke&) const = default;
};

// ---- Coordinator replication ------------------------------------------
//
// A standby coordinator attaches to the primary with kStandbyHello and
// receives one kReplicaSnapshot (the full mirrored state) followed by a
// stream of kReplicaEvent mutations.  On primary death the standby bumps
// the epoch and takes over; a worker that dials the standby *before* the
// promotion is answered with kNotPrimary and tries the next address.

/// Standby -> primary: attach this connection as a replication tail.
struct StandbyHello {
  std::string name;
  std::uint16_t version = kWireVersion;
  [[nodiscard]] bool operator==(const StandbyHello&) const = default;
};

/// Coordinator -> worker (or to a second standby): this endpoint is not
/// the acting primary.  `epoch` lets the caller learn how stale its view
/// is; `message` is human-readable detail ("standby", "deposed").
struct NotPrimary {
  std::uint64_t epoch = 0;
  std::string message;
  [[nodiscard]] bool operator==(const NotPrimary&) const = default;
};

/// One mirrored catalog entry inside a ReplicaSnapshot.
struct ReplicaWorker {
  std::uint64_t worker_id = 0;
  std::string name;
  std::uint32_t capacity = 1;
  [[nodiscard]] bool operator==(const ReplicaWorker&) const = default;
};

/// One cell's lifetime ledger at the coordinator: the totals committed by
/// ended leases, the store-axis base of the current lease and its latest
/// report.  The coordinator keeps one per cell and replicates it verbatim
/// in the snapshot and in every cell event.  `live` never holds rows —
/// history rows replicate separately (already rebased) via kStoreRows
/// events.
struct CellLedger {
  // Committed: ended leases only; grows monotonically.
  std::uint64_t committed_slots = 0;
  std::uint64_t committed_dcis = 0;
  std::uint64_t committed_retx = 0;
  std::uint64_t committed_restarts = 0;
  std::uint64_t lease_base_slot = 0;  ///< committed_slots at the grant
  bool has_report = false;            ///< `live` came from the current lease
  CellReport live;
  [[nodiscard]] bool operator==(const CellLedger&) const = default;
};

/// One cell's full replicated state: the spec (so a standby needs no cell
/// list of its own), the lease binding and the ledger.
struct ReplicaCell {
  WireCellSpec spec;
  std::uint8_t lease_state = 0;  ///< raw dist LeaseState
  std::uint64_t lease_id = 0;
  std::uint64_t worker_id = 0;
  std::uint32_t handoffs = 0;
  CellLedger ledger;
  [[nodiscard]] bool operator==(const ReplicaCell&) const = default;
};

/// Primary -> standby: the complete coordinator state, sent once right
/// after kStandbyHello (and again after a replication reconnect).
struct ReplicaSnapshot {
  std::uint64_t epoch = 0;
  /// Lease-id high-water mark (the highest id ever issued), so a promoted
  /// standby never reuses a live lease id.
  std::uint64_t next_lease_id = 0;
  std::vector<ReplicaWorker> workers;
  std::vector<ReplicaCell> cells;
  [[nodiscard]] bool operator==(const ReplicaSnapshot&) const = default;
};

/// What one kReplicaEvent mutates.  The event payload is a fixed superset
/// of every kind's fields (unused ones travel as zeros/empties) so its
/// schema stays flat, with no kind-dependent branching.  The four cell
/// kinds name why the primary sent it; each carries the cell's whole lease
/// binding (lease_id, worker_id, lease_state, handoffs) and ledger.
enum class ReplicaEventKind : std::uint8_t {
  kWorkerJoin = 0,    ///< catalog add: worker_id, worker_name, capacity
  kWorkerLeave = 1,   ///< catalog remove: worker_id
  kLeaseGrant = 2,    ///< cell: lease granted
  kLeaseRenew = 3,    ///< cell: lease acked, or rebound after failover
  kLeaseRelease = 4,  ///< cell: lease ended, totals folded
  kCellTotals = 5,    ///< cell: report ingested
  kStoreRows = 6,     ///< history rows, already rebased to global slots
};

const char* to_string(ReplicaEventKind kind);

/// Primary -> standby: one incremental state mutation.
struct ReplicaEvent {
  ReplicaEventKind kind = ReplicaEventKind::kLeaseRenew;
  std::uint64_t epoch = 0;
  std::uint32_t cell_index = 0;
  std::uint64_t lease_id = 0;
  std::uint64_t worker_id = 0;
  std::uint8_t lease_state = 0;  ///< raw dist LeaseState
  std::uint32_t handoffs = 0;
  std::string worker_name;   ///< kWorkerJoin
  std::uint32_t capacity = 0;  ///< kWorkerJoin
  CellLedger ledger;           ///< cell kinds
  /// kStoreRows: rows with `slot` already rebased to the cell's global
  /// lifetime axis (unlike CellReport rows, which are lease-local).
  std::vector<StoreRowUpdate> rows;
  [[nodiscard]] bool operator==(const ReplicaEvent&) const = default;
};

// ---- Byte-level primitives -------------------------------------------

/// Appends little-endian fields to a byte buffer.
class WireWriter {
 public:
  void u8(std::uint8_t v) { out_.push_back(v); }
  void u16(std::uint16_t v) { put(v, 2); }
  void u32(std::uint32_t v) { put(v, 4); }
  void u64(std::uint64_t v) { put(v, 8); }
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }
  /// u16 length prefix + raw bytes, cut to kWireMaxString bytes so the
  /// prefix always matches what follows.
  void str(const std::string& s);
  void bytes(std::span<const std::uint8_t> data);
  void reserve(std::size_t n) { out_.reserve(n); }

  [[nodiscard]] const std::vector<std::uint8_t>& data() const {
    return out_;
  }
  [[nodiscard]] std::vector<std::uint8_t> take() { return std::move(out_); }

 private:
  void put(std::uint64_t v, std::size_t n);  ///< low n bytes, LSB first

  std::vector<std::uint8_t> out_;
};

/// Reads little-endian fields from a byte buffer.  Reading past the end
/// sets a sticky error flag and returns zeros; callers check ok() once at
/// the end instead of guarding every field.
class WireReader {
 public:
  explicit WireReader(std::span<const std::uint8_t> data) : data_(data) {}

  std::uint8_t u8() { return static_cast<std::uint8_t>(take(1)); }
  std::uint16_t u16() { return static_cast<std::uint16_t>(take(2)); }
  std::uint32_t u32() { return static_cast<std::uint32_t>(take(4)); }
  std::uint64_t u64() { return take(8); }
  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
  double f64() { return std::bit_cast<double>(u64()); }
  std::string str();
  /// Enter the sticky error state (a field failed validation); every
  /// later read fails too.
  void fail() {
    ok_ = false;
    pos_ = data_.size();
  }

  [[nodiscard]] bool ok() const { return ok_; }
  [[nodiscard]] std::size_t remaining() const { return data_.size() - pos_; }
  /// True when the whole buffer was consumed without error (a decode that
  /// leaves trailing bytes saw a different layout than the encoder wrote).
  [[nodiscard]] bool done() const { return ok_ && remaining() == 0; }

 private:
  std::uint64_t take(std::size_t n);  ///< n bytes, LSB first

  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

// ---- Frames ----------------------------------------------------------

/// One parsed frame; `payload` is a copy, safe to keep after the parser
/// buffer changes.
struct Frame {
  FrameType type = FrameType::kHeartbeat;
  std::vector<std::uint8_t> payload;
};

/// Wrap a payload in a framed header.
std::vector<std::uint8_t> encode_frame(FrameType type,
                                       std::span<const std::uint8_t> payload);

/// Incremental frame parser for a TCP byte stream: feed() arbitrary chunks,
/// pop complete frames with next().  A malformed header (bad magic, a
/// version other than kWireVersion, oversized payload) puts the parser in
/// a sticky error state — on a reliable transport that means protocol
/// mismatch, and the right response is to drop the connection.  When the
/// failure was specifically a version mismatch, the offending version is
/// recorded so the owner can answer with a structured kUnsupportedVersion
/// frame before disconnecting.
class FrameParser {
 public:
  void feed(std::span<const std::uint8_t> data);
  std::optional<Frame> next();

  [[nodiscard]] bool error() const { return !error_.empty(); }
  [[nodiscard]] const std::string& error_message() const { return error_; }
  /// Set iff the sticky error is a protocol-version mismatch: the version
  /// the peer's header announced.
  [[nodiscard]] std::optional<std::uint16_t> rejected_version() const {
    return rejected_version_;
  }

 private:
  std::vector<std::uint8_t> buffer_;
  std::size_t consumed_ = 0;
  std::string error_;
  std::optional<std::uint16_t> rejected_version_;
};

std::vector<std::uint8_t> heartbeat_frame();
std::vector<std::uint8_t> end_frame();
/// The kUnsupportedVersion answer to a peer whose header announced
/// `rejected` (FrameParser::rejected_version()).
std::vector<std::uint8_t> version_reject_frame(std::uint16_t rejected);

// ---- Payload codecs --------------------------------------------------

/// Every payload type with the frame type that carries it.  The codec
/// templates below are instantiated for exactly these types.
#define NRS_WIRE_PAYLOADS(X)            \
  X(HelloInfo, kHello)                  \
  X(SlotResult, kSlot)                  \
  X(MetricsSnapshot, kMetrics)          \
  X(FleetSummary, kFleet)               \
  X(QueryRequest, kQuery)               \
  X(QueryResponse, kQueryResult)        \
  X(VersionReject, kUnsupportedVersion) \
  X(WorkerHello, kWorkerHello)          \
  X(LeaseGrant, kLease)                 \
  X(LeaseAck, kLeaseAck)                \
  X(WorkerHeartbeat, kWorkerHeartbeat)  \
  X(LeaseRevoke, kLeaseRevoke)          \
  X(PredictionSet, kPrediction)         \
  X(CellReportBatch, kCellReportBatch)  \
  X(StandbyHello, kStandbyHello)        \
  X(ReplicaSnapshot, kReplicaSnapshot)  \
  X(ReplicaEvent, kReplicaEvent)        \
  X(NotPrimary, kNotPrimary)

/// The FrameType that carries payload type T.
template <class T>
struct FrameTypeOf;
#define NRS_WIRE_FRAME_TYPE_OF(T, type)                 \
  template <>                                           \
  struct FrameTypeOf<T> {                               \
    static constexpr FrameType value = FrameType::type; \
  };
NRS_WIRE_PAYLOADS(NRS_WIRE_FRAME_TYPE_OF)
#undef NRS_WIRE_FRAME_TYPE_OF

/// The payload bytes of `value`, without a frame header.
template <class T>
std::vector<std::uint8_t> encode(const T& value);

/// Inverse of encode(): nullopt when the payload is truncated, carries an
/// out-of-range enum or a count larger than the bytes left, or has
/// trailing bytes.
template <class T>
std::optional<T> decode(std::span<const std::uint8_t> payload);

/// encode() behind the header of T's frame type, in one buffer.
template <class T>
std::vector<std::uint8_t> frame(const T& value);

/// Exact size of encode(value), computed without encoding.  Defined for
/// every payload type plus StoreRowUpdate (a cell report's per-row cost).
template <class T>
std::size_t wire_size(const T& value);

}  // namespace nrs
