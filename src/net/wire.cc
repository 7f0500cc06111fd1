#include "net/wire.h"

#include <algorithm>
#include <type_traits>

namespace nrs {

const char* to_string(FrameType type) {
  switch (type) {
    case FrameType::kHello: return "hello";
    case FrameType::kSlot: return "slot";
    case FrameType::kMetrics: return "metrics";
    case FrameType::kHeartbeat: return "heartbeat";
    case FrameType::kEnd: return "end";
    case FrameType::kFleet: return "fleet";
    case FrameType::kQuery: return "query";
    case FrameType::kQueryResult: return "query_result";
    case FrameType::kWorkerHello: return "worker_hello";
    case FrameType::kLease: return "lease";
    case FrameType::kLeaseAck: return "lease_ack";
    case FrameType::kWorkerHeartbeat: return "worker_heartbeat";
    case FrameType::kLeaseRevoke: return "lease_revoke";
    case FrameType::kUnsupportedVersion: return "unsupported_version";
    case FrameType::kPrediction: return "prediction";
    case FrameType::kCellReportBatch: return "cell_report_batch";
    case FrameType::kStandbyHello: return "standby_hello";
    case FrameType::kReplicaSnapshot: return "replica_snapshot";
    case FrameType::kReplicaEvent: return "replica_event";
    case FrameType::kNotPrimary: return "not_primary";
  }
  return "unknown";
}

const char* to_string(ReplicaEventKind kind) {
  switch (kind) {
    case ReplicaEventKind::kWorkerJoin: return "worker_join";
    case ReplicaEventKind::kWorkerLeave: return "worker_leave";
    case ReplicaEventKind::kLeaseGrant: return "lease_grant";
    case ReplicaEventKind::kLeaseRenew: return "lease_renew";
    case ReplicaEventKind::kLeaseRelease: return "lease_release";
    case ReplicaEventKind::kCellTotals: return "cell_totals";
    case ReplicaEventKind::kStoreRows: return "store_rows";
  }
  return "unknown";
}

const char* to_string(QueryKind kind) {
  switch (kind) {
    case QueryKind::kRange: return "range";
    case QueryKind::kAggregate: return "aggregate";
    case QueryKind::kTopK: return "topk";
  }
  return "unknown";
}

const char* to_string(QueryStatus status) {
  switch (status) {
    case QueryStatus::kOk: return "ok";
    case QueryStatus::kBadRequest: return "bad-request";
    case QueryStatus::kNotFound: return "not-found";
    case QueryStatus::kUnavailable: return "unavailable";
  }
  return "unknown";
}

// ---- WireWriter / WireReader -----------------------------------------

void WireWriter::put(std::uint64_t v, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    out_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
}

void WireWriter::str(const std::string& s) {
  const std::size_t n = std::min(s.size(), kWireMaxString);
  u16(static_cast<std::uint16_t>(n));
  out_.insert(out_.end(), s.begin(),
              s.begin() + static_cast<std::ptrdiff_t>(n));
}

void WireWriter::bytes(std::span<const std::uint8_t> data) {
  out_.insert(out_.end(), data.begin(), data.end());
}

std::uint64_t WireReader::take(std::size_t n) {
  if (n > remaining()) {
    fail();
    return 0;
  }
  std::uint64_t v = 0;
  for (std::size_t i = n; i-- > 0;) {
    v = (v << 8) | data_[pos_ + i];
  }
  pos_ += n;
  return v;
}

std::string WireReader::str() {
  const std::uint16_t len = u16();
  if (len > remaining()) {
    fail();
    return {};
  }
  std::string s(reinterpret_cast<const char*>(data_.data() + pos_), len);
  pos_ += len;
  return s;
}

// ---- Framing ---------------------------------------------------------

namespace {

void write_header(WireWriter& w, FrameType type, std::size_t payload_size) {
  w.u32(kWireMagic);
  w.u16(kWireVersion);
  w.u16(static_cast<std::uint16_t>(type));
  w.u32(static_cast<std::uint32_t>(payload_size));
}

}  // namespace

std::vector<std::uint8_t> encode_frame(
    FrameType type, std::span<const std::uint8_t> payload) {
  WireWriter w;
  w.reserve(kWireHeaderSize + payload.size());
  write_header(w, type, payload.size());
  w.bytes(payload);
  return w.take();
}

std::vector<std::uint8_t> heartbeat_frame() {
  return encode_frame(FrameType::kHeartbeat, {});
}

std::vector<std::uint8_t> end_frame() {
  return encode_frame(FrameType::kEnd, {});
}

namespace {

std::string version_mismatch(std::uint16_t version) {
  return "unsupported protocol version " + std::to_string(version) +
         " (this peer speaks " + std::to_string(kWireVersion) + ")";
}

}  // namespace

std::vector<std::uint8_t> version_reject_frame(std::uint16_t rejected) {
  VersionReject reject;
  reject.rejected = rejected;
  reject.message = version_mismatch(rejected);
  return frame(reject);
}

void FrameParser::feed(std::span<const std::uint8_t> data) {
  if (!error_.empty()) {
    return;
  }
  // Compact lazily: drop consumed bytes once they dominate the buffer.
  if (consumed_ > 4096 && consumed_ * 2 > buffer_.size()) {
    buffer_.erase(buffer_.begin(),
                  buffer_.begin() + static_cast<std::ptrdiff_t>(consumed_));
    consumed_ = 0;
  }
  buffer_.insert(buffer_.end(), data.begin(), data.end());
}

std::optional<Frame> FrameParser::next() {
  if (!error_.empty()) {
    return std::nullopt;
  }
  const std::size_t avail = buffer_.size() - consumed_;
  if (avail < kWireHeaderSize) {
    return std::nullopt;
  }
  WireReader header(std::span<const std::uint8_t>(
      buffer_.data() + consumed_, kWireHeaderSize));
  const std::uint32_t magic = header.u32();
  const std::uint16_t version = header.u16();
  const std::uint16_t type = header.u16();
  const std::uint32_t len = header.u32();
  if (magic != kWireMagic) {
    error_ = "bad magic";
    return std::nullopt;
  }
  if (version != kWireVersion) {
    error_ = version_mismatch(version);
    rejected_version_ = version;
    return std::nullopt;
  }
  if (len > kWireMaxPayload) {
    error_ = "payload length " + std::to_string(len) + " exceeds limit";
    return std::nullopt;
  }
  if (avail < kWireHeaderSize + len) {
    return std::nullopt;  // wait for more bytes
  }
  Frame frame;
  frame.type = static_cast<FrameType>(type);
  const auto* begin = buffer_.data() + consumed_ + kWireHeaderSize;
  frame.payload.assign(begin, begin + len);
  consumed_ += kWireHeaderSize + len;
  return frame;
}

// ---- Archives --------------------------------------------------------
//
// A payload's `fields(ar, value)` lists its wire fields in order, once.
// Three archives walk that list: Encoder appends the fields to a
// WireWriter, Decoder reads them back from a WireReader (sticky error,
// checked once by decode()), and Sizer only adds up their sizes.  `ar(x)`
// handles one field: integers and doubles at their own width, strings
// with a u16 length prefix, and anything else through its `fields`.
// fields() takes the value by non-const reference so one schema serves
// both directions; Encoder and Sizer never write through it.

namespace {

class Encoder {
 public:
  static constexpr bool kReading = false;
  explicit Encoder(WireWriter& out) : out_(out) {}
  void operator()(std::uint8_t& v) { out_.u8(v); }
  void operator()(std::uint16_t& v) { out_.u16(v); }
  void operator()(std::uint32_t& v) { out_.u32(v); }
  void operator()(std::uint64_t& v) { out_.u64(v); }
  void operator()(std::int64_t& v) { out_.i64(v); }
  void operator()(double& v) { out_.f64(v); }
  void operator()(std::string& v) { out_.str(v); }
  template <class T>
  void operator()(T& v) {
    fields(*this, v);
  }

 private:
  WireWriter& out_;
};

class Decoder {
 public:
  static constexpr bool kReading = true;
  explicit Decoder(std::span<const std::uint8_t> in) : in_(in) {}
  void operator()(std::uint8_t& v) { v = in_.u8(); }
  void operator()(std::uint16_t& v) { v = in_.u16(); }
  void operator()(std::uint32_t& v) { v = in_.u32(); }
  void operator()(std::uint64_t& v) { v = in_.u64(); }
  void operator()(std::int64_t& v) { v = in_.i64(); }
  void operator()(double& v) { v = in_.f64(); }
  void operator()(std::string& v) { v = in_.str(); }
  template <class T>
  void operator()(T& v) {
    fields(*this, v);
  }
  [[nodiscard]] std::size_t remaining() const { return in_.remaining(); }
  [[nodiscard]] bool done() const { return in_.done(); }
  void fail() { in_.fail(); }

 private:
  WireReader in_;
};

class Sizer {
 public:
  static constexpr bool kReading = false;
  template <class T>
    requires std::is_arithmetic_v<T>
  void operator()(T& /*v*/) {
    size += sizeof(T);
  }
  void operator()(std::string& v) {
    size += 2 + std::min(v.size(), kWireMaxString);
  }
  template <class T>
  void operator()(T& v) {
    fields(*this, v);
  }
  std::size_t size = 0;
};

/// `v` travels as the (narrower) wire type W.
template <class W, class Ar, class T>
void narrow(Ar& ar, T& v) {
  auto wire = static_cast<W>(v);
  ar(wire);
  if constexpr (Ar::kReading) {
    v = static_cast<T>(wire);
  }
}

/// A one-byte enum; a decoded value that fails `valid` fails the decode.
template <class Ar, class E, class Valid>
void checked(Ar& ar, E& v, Valid valid) {
  narrow<std::uint8_t>(ar, v);
  if constexpr (Ar::kReading) {
    if (!valid(v)) {
      ar.fail();
    }
  }
}

template <class E>
auto at_most(E max) {
  return [max](E v) { return v <= max; };
}

bool valid_modulation(Modulation m) {
  switch (m) {
    case Modulation::kBpsk:
    case Modulation::kQpsk:
    case Modulation::kQam16:
    case Modulation::kQam64:
    case Modulation::kQam256:
      return true;
  }
  return false;
}

bool valid_mcs_table(McsTable t) {
  return t >= McsTable::kQam64 && t <= McsTable::kQam64LowSe;
}

template <class Ar>
void fields(Ar& ar, bool& v) {
  narrow<std::uint8_t>(ar, v);
}

/// u32 element count, then the elements.  Every element is at least one
/// byte, so a decoded count above the bytes left is corrupt and is
/// rejected before anything is allocated.
template <class Ar, class T>
void fields(Ar& ar, std::vector<T>& v) {
  auto n = static_cast<std::uint32_t>(v.size());
  ar(n);
  if constexpr (Ar::kReading) {
    if (n > ar.remaining()) {
      ar.fail();
      return;
    }
    v.resize(n);
  }
  for (T& item : v) {
    ar(item);
  }
}

// ---- Field schemas ---------------------------------------------------

template <class Ar>
void fields(Ar& ar, HelloInfo& v) {
  ar(v.version);
  ar(v.next_slot);
}

template <class Ar>
void fields(Ar& ar, Dci& v) {
  checked(ar, v.format, at_most(DciFormat::kDl1_1));
  ar(v.freq_alloc_riv);
  ar(v.time_alloc);
  ar(v.mcs);
  ar(v.ndi);
  ar(v.rv);
  ar(v.harq_id);
  ar(v.dai);
  ar(v.tpc);
  ar(v.pucch_resource);
  ar(v.harq_feedback);
  ar(v.ports);
  ar(v.srs_request);
  ar(v.dmrs_id);
}

template <class Ar>
void fields(Ar& ar, Grant& v) {
  ar(v.rnti);
  checked(ar, v.format, at_most(DciFormat::kDl1_1));
  narrow<std::uint16_t>(ar, v.prb_start);
  narrow<std::uint16_t>(ar, v.prb_len);
  narrow<std::uint8_t>(ar, v.start_symbol);
  narrow<std::uint8_t>(ar, v.n_symbols);
  narrow<std::uint8_t>(ar, v.mcs);
  checked(ar, v.modulation, valid_modulation);
  ar(v.code_rate);
  narrow<std::uint8_t>(ar, v.n_layers);
  ar(v.tbs);
  ar(v.ndi);
  ar(v.rv);
  ar(v.harq_id);
}

template <class Ar>
void fields(Ar& ar, DecodedDci& v) {
  ar(v.slot);
  ar(v.rnti);
  ar(v.dci);
  ar(v.grant);
  narrow<std::uint16_t>(ar, v.agg_level);
  narrow<std::uint16_t>(ar, v.cce_start);
  ar(v.is_retx);
}

template <class Ar>
void fields(Ar& ar, RrcSetup& v) {
  ar(v.ue_ss.ue_specific);
  // Aggregation levels carry a u8 count (at most five levels exist).
  auto n_levels = static_cast<std::uint8_t>(v.ue_ss.agg_levels.size());
  ar(n_levels);
  if constexpr (Ar::kReading) {
    v.ue_ss.agg_levels.resize(n_levels);
  }
  for (unsigned& level : v.ue_ss.agg_levels) {
    narrow<std::uint16_t>(ar, level);
  }
  narrow<std::uint16_t>(ar, v.ue_ss.candidates_per_level);
  checked(ar, v.dl_format, at_most(DciFormat::kDl1_1));
  checked(ar, v.mcs_table, valid_mcs_table);
  narrow<std::uint8_t>(ar, v.max_mimo_layers);
  narrow<std::uint8_t>(ar, v.n_harq_processes);
}

template <class Ar>
void fields(Ar& ar, NewUe& v) {
  ar(v.c_rnti);
  ar(v.slot);
  ar(v.verified);
  ar(v.config);
}

template <class Ar>
void fields(Ar& ar, Mib& v) {
  ar(v.sfn);
  checked(ar, v.scs_common, at_most(Scs::kHz60));
  ar(v.coreset0_rb_start);
  ar(v.coreset0_n_prb6);
  ar(v.coreset0_duration);
  ar(v.searchspace0);
  ar(v.cell_barred);
}

template <class Ar>
void fields(Ar& ar, SlotResult& v) {
  ar(v.slot);
  ar(v.processing_time_us);
  // One flag byte: MIB present, SIB1 decoded, degraded, and the sync state
  // in bits 4-5.
  auto flags = static_cast<std::uint8_t>(
      (v.mib ? 0x1 : 0) | (v.sib1_decoded ? 0x2 : 0) |
      (v.degraded ? 0x4 : 0) |
      ((static_cast<std::uint8_t>(v.sync_state) & 0x3) << 4));
  ar(flags);
  if constexpr (Ar::kReading) {
    v.sib1_decoded = (flags & 0x2) != 0;
    v.degraded = (flags & 0x4) != 0;
    v.sync_state = static_cast<SyncState>((flags >> 4) & 0x3);
    if ((flags & 0x1) != 0) {
      v.mib.emplace();
    }
  }
  if (v.mib) {
    ar(*v.mib);
  }
  ar(v.dcis);
  ar(v.new_ues);
}

template <class Ar>
void fields(Ar& ar, CounterSnapshot& v) {
  ar(v.name);
  ar(v.value);
}

template <class Ar>
void fields(Ar& ar, GaugeSnapshot& v) {
  ar(v.name);
  ar(v.value);
}

template <class Ar>
void fields(Ar& ar, HistogramSnapshot& v) {
  ar(v.name);
  ar(v.count);
  ar(v.sum);
  ar(v.min);
  ar(v.max);
  ar(v.bounds);
  // bounds.size() + 1 bucket counts follow, with no count of their own.
  if constexpr (Ar::kReading) {
    v.counts.resize(v.bounds.size() + 1);
  }
  for (std::uint64_t& count : v.counts) {
    ar(count);
  }
}

template <class Ar>
void fields(Ar& ar, MetricsSnapshot& v) {
  ar(v.counters);
  ar(v.gauges);
  ar(v.histograms);
  if constexpr (Ar::kReading) {
    // Re-derive the fast-lookup flag rather than trusting the wire: the
    // peer's snapshot is registry-sorted in practice, but a hand-built one
    // must not get binary-searched.
    const auto by_name = [](const auto& a, const auto& b) {
      return a.name < b.name;
    };
    v.sorted_by_name =
        std::is_sorted(v.counters.begin(), v.counters.end(), by_name) &&
        std::is_sorted(v.gauges.begin(), v.gauges.end(), by_name) &&
        std::is_sorted(v.histograms.begin(), v.histograms.end(), by_name);
  }
}

template <class Ar>
void fields(Ar& ar, CellSummary& v) {
  ar(v.cell_index);
  ar(v.name);
  ar(v.state);
  ar(v.slots);
  ar(v.dcis);
  ar(v.restarts);
  ar(v.active_ues);
  ar(v.dl_mbps);
  ar(v.ul_mbps);
  ar(v.retx_rate);
  ar(v.utilization);
}

template <class Ar>
void fields(Ar& ar, FleetSummary& v) {
  ar(v.slot);
  ar(v.dcis_total);
  ar(v.restarts_total);
  ar(v.dl_mbps_total);
  ar(v.ul_mbps_total);
  ar(v.retx_rate);
  ar(v.spare_ranking);
  ar(v.cells);
}

template <class Ar>
void fields(Ar& ar, QueryRequest& v) {
  ar(v.correlation_id);
  checked(ar, v.kind, at_most(QueryKind::kTopK));
  ar(v.cell);
  ar(v.rnti);
  ar(v.metric);
  ar(v.slot_from);
  ar(v.slot_to);
  ar(v.bucket_slots);
  ar(v.k);
  checked(ar, v.op, at_most(AggregateOp::kMax));
}

template <class Ar>
void fields(Ar& ar, QueryRowWire& v) {
  ar(v.slot);
  ar(v.value);
}

template <class Ar>
void fields(Ar& ar, QueryBucket& v) {
  ar(v.slot_start);
  ar(v.count);
  ar(v.sum);
  ar(v.avg);
  ar(v.max);
}

template <class Ar>
void fields(Ar& ar, TopKEntry& v) {
  ar(v.cell);
  ar(v.rnti);
  ar(v.score);
  ar(v.rows);
}

template <class Ar>
void fields(Ar& ar, QueryResponse& v) {
  ar(v.correlation_id);
  checked(ar, v.status, at_most(QueryStatus::kUnavailable));
  checked(ar, v.kind, at_most(QueryKind::kTopK));
  ar(v.error);
  ar(v.rows);
  ar(v.buckets);
  ar(v.ranking);
}

template <class Ar>
void fields(Ar& ar, VersionReject& v) {
  ar(v.rejected);
  ar(v.min_version);
  ar(v.max_version);
  ar(v.message);
}

template <class Ar>
void fields(Ar& ar, WorkerHello& v) {
  ar(v.name);
  ar(v.capacity);
  ar(v.version);
  ar(v.pool_threads);
  ar(v.epoch);
}

template <class Ar>
void fields(Ar& ar, WireCellSpec& v) {
  ar(v.cell_index);
  ar(v.name);
  ar(v.preset);
  ar(v.pci);
  ar(v.n_ues);
  ar(v.ue_rate_bps);
  ar(v.ue_snr_db);
  ar(v.sniffer_snr_db);
  ar(v.seed);
  ar(v.incarnation);
}

template <class Ar>
void fields(Ar& ar, LeaseGrant& v) {
  ar(v.lease_id);
  ar(v.ttl_ms);
  ar(v.base_slot);
  ar(v.epoch);
  ar(v.spec);
}

template <class Ar>
void fields(Ar& ar, LeaseAck& v) {
  ar(v.lease_id);
  ar(v.cell_index);
  ar(v.accepted);
  ar(v.message);
  ar(v.epoch);
}

template <class Ar>
void fields(Ar& ar, LeaseStatus& v) {
  ar(v.lease_id);
  ar(v.cell_index);
  ar(v.slots);
  ar(v.cell_state);
}

template <class Ar>
void fields(Ar& ar, WorkerHeartbeat& v) {
  ar(v.seq);
  ar(v.epoch);
  ar(v.leases);
}

template <class Ar>
void fields(Ar& ar, StoreRowUpdate& v) {
  ar(v.rnti);
  ar(v.metric);
  ar(v.slot);
  ar(v.value);
}

template <class Ar>
void fields(Ar& ar, CellReport& v) {
  ar(v.lease_id);
  ar(v.epoch);
  ar(v.cell_index);
  ar(v.cell_state);
  ar(v.slots);
  ar(v.dcis);
  ar(v.retx_dcis);
  ar(v.restarts);
  ar(v.active_ues);
  ar(v.dl_mbps);
  ar(v.ul_mbps);
  ar(v.retx_rate);
  ar(v.utilization);
  ar(v.spare_prb_rate);
  ar(v.rows);
}

template <class Ar>
void fields(Ar& ar, CellReportBatch& v) {
  ar(v.reports);
}

template <class Ar>
void fields(Ar& ar, PredictionEntry& v) {
  ar(v.rnti);
  auto flags = static_cast<std::uint8_t>((v.has_actual ? 0x1 : 0) |
                                         (v.degraded ? 0x2 : 0));
  ar(flags);
  if constexpr (Ar::kReading) {
    v.has_actual = (flags & 0x1) != 0;
    v.degraded = (flags & 0x2) != 0;
  }
  ar(v.predicted_bps);
  ar(v.actual_bps);
  ar(v.abs_error_bps);
}

template <class Ar>
void fields(Ar& ar, PredictionSet& v) {
  ar(v.cell_index);
  ar(v.slot);
  ar(v.horizon_slots);
  ar(v.model_version);
  ar(v.entries);
}

template <class Ar>
void fields(Ar& ar, LeaseRevoke& v) {
  ar(v.lease_id);
  ar(v.cell_index);
  ar(v.reason);
  ar(v.epoch);
}

template <class Ar>
void fields(Ar& ar, StandbyHello& v) {
  ar(v.name);
  ar(v.version);
}

template <class Ar>
void fields(Ar& ar, NotPrimary& v) {
  ar(v.epoch);
  ar(v.message);
}

template <class Ar>
void fields(Ar& ar, ReplicaWorker& v) {
  ar(v.worker_id);
  ar(v.name);
  ar(v.capacity);
}

template <class Ar>
void fields(Ar& ar, CellLedger& v) {
  ar(v.committed_slots);
  ar(v.committed_dcis);
  ar(v.committed_retx);
  ar(v.committed_restarts);
  ar(v.lease_base_slot);
  ar(v.has_report);
  ar(v.live);
}

template <class Ar>
void fields(Ar& ar, ReplicaCell& v) {
  ar(v.spec);
  ar(v.lease_state);
  ar(v.lease_id);
  ar(v.worker_id);
  ar(v.handoffs);
  ar(v.ledger);
}

template <class Ar>
void fields(Ar& ar, ReplicaSnapshot& v) {
  ar(v.epoch);
  ar(v.next_lease_id);
  ar(v.workers);
  ar(v.cells);
}

template <class Ar>
void fields(Ar& ar, ReplicaEvent& v) {
  checked(ar, v.kind, at_most(ReplicaEventKind::kStoreRows));
  ar(v.epoch);
  ar(v.cell_index);
  ar(v.lease_id);
  ar(v.worker_id);
  ar(v.lease_state);
  ar(v.handoffs);
  ar(v.worker_name);
  ar(v.capacity);
  ar(v.ledger);
  ar(v.rows);
}

}  // namespace

// ---- Generic codecs --------------------------------------------------

template <class T>
std::size_t wire_size(const T& value) {
  Sizer ar;
  ar(const_cast<T&>(value));
  return ar.size;
}

template <class T>
std::vector<std::uint8_t> encode(const T& value) {
  WireWriter w;
  w.reserve(wire_size(value));
  Encoder ar(w);
  ar(const_cast<T&>(value));
  return w.take();
}

template <class T>
std::optional<T> decode(std::span<const std::uint8_t> payload) {
  Decoder ar(payload);
  T value;
  ar(value);
  if (!ar.done()) {
    return std::nullopt;
  }
  return value;
}

template <class T>
std::vector<std::uint8_t> frame(const T& value) {
  const std::size_t size = wire_size(value);
  WireWriter w;
  w.reserve(kWireHeaderSize + size);
  write_header(w, FrameTypeOf<T>::value, size);
  Encoder ar(w);
  ar(const_cast<T&>(value));
  return w.take();
}

#define NRS_WIRE_INSTANTIATE(T, type)                                 \
  template std::vector<std::uint8_t> encode<T>(const T&);             \
  template std::optional<T> decode<T>(std::span<const std::uint8_t>); \
  template std::vector<std::uint8_t> frame<T>(const T&);              \
  template std::size_t wire_size<T>(const T&);
NRS_WIRE_PAYLOADS(NRS_WIRE_INSTANTIATE)
#undef NRS_WIRE_INSTANTIATE
template std::size_t wire_size<StoreRowUpdate>(const StoreRowUpdate&);

}  // namespace nrs
