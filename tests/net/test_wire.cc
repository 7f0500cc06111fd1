// Wire-protocol unit tests.  Every payload type's fixed sample (see
// wire_samples.h) must round-trip exactly and must reject damage: every
// truncation and a trailing byte fail to decode, and random byte flips and
// garbage never crash or over-read (the asan build checks the latter).
// Semantic tests cover enum validation, randomized round-trips, epoch
// fields, overlong strings and incremental frame parsing.
#include <gtest/gtest.h>

#include <concepts>
#include <cstddef>
#include <vector>

#include "common/rng.h"
#include "net/wire.h"
#include "wire_samples.h"

namespace nrs {
namespace {

using wire_samples::sample;
using wire_samples::sample_cell_report;

// ---- Generators for randomized round-trips ---------------------------

Dci random_dci(Rng& rng) {
  Dci dci;
  dci.format = static_cast<DciFormat>(rng.uniform_int(0, 3));
  dci.freq_alloc_riv = static_cast<std::uint32_t>(
      rng.uniform_int(0, 0xFFFFFFFFLL));
  dci.time_alloc = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
  dci.mcs = static_cast<std::uint8_t>(rng.uniform_int(0, 31));
  dci.ndi = static_cast<std::uint8_t>(rng.uniform_int(0, 1));
  dci.rv = static_cast<std::uint8_t>(rng.uniform_int(0, 3));
  dci.harq_id = static_cast<std::uint8_t>(rng.uniform_int(0, 15));
  dci.dai = static_cast<std::uint8_t>(rng.uniform_int(0, 3));
  dci.tpc = static_cast<std::uint8_t>(rng.uniform_int(0, 3));
  dci.pucch_resource = static_cast<std::uint8_t>(rng.uniform_int(0, 7));
  dci.harq_feedback = static_cast<std::uint8_t>(rng.uniform_int(0, 7));
  dci.ports = static_cast<std::uint8_t>(rng.uniform_int(0, 3));
  dci.srs_request = static_cast<std::uint8_t>(rng.uniform_int(0, 3));
  dci.dmrs_id = static_cast<std::uint8_t>(rng.uniform_int(0, 1));
  return dci;
}

Grant random_grant(Rng& rng) {
  static constexpr Modulation kMods[] = {
      Modulation::kBpsk, Modulation::kQpsk, Modulation::kQam16,
      Modulation::kQam64, Modulation::kQam256};
  Grant grant;
  grant.rnti = static_cast<Rnti>(rng.uniform_int(1, 0xFFFF));
  grant.format = static_cast<DciFormat>(rng.uniform_int(0, 3));
  grant.prb_start = static_cast<unsigned>(rng.uniform_int(0, 270));
  grant.prb_len = static_cast<unsigned>(rng.uniform_int(1, 270));
  grant.start_symbol = static_cast<unsigned>(rng.uniform_int(0, 13));
  grant.n_symbols = static_cast<unsigned>(rng.uniform_int(1, 14));
  grant.mcs = static_cast<unsigned>(rng.uniform_int(0, 31));
  grant.modulation = kMods[rng.uniform_int(0, 4)];
  grant.code_rate = rng.uniform();
  grant.n_layers = static_cast<unsigned>(rng.uniform_int(1, 4));
  grant.tbs = static_cast<unsigned>(rng.uniform_int(0, 1 << 20));
  grant.ndi = static_cast<std::uint8_t>(rng.uniform_int(0, 1));
  grant.rv = static_cast<std::uint8_t>(rng.uniform_int(0, 3));
  grant.harq_id = static_cast<std::uint8_t>(rng.uniform_int(0, 15));
  return grant;
}

SlotResult random_slot_result(Rng& rng) {
  SlotResult result;
  result.slot = static_cast<std::uint64_t>(rng.uniform_int(0, 1 << 30));
  result.processing_time_us = rng.uniform(0.0, 50000.0);
  result.sib1_decoded = rng.chance(0.5);
  if (rng.chance(0.3)) {
    Mib mib;
    mib.sfn = static_cast<std::uint16_t>(rng.uniform_int(0, 1023));
    mib.scs_common = static_cast<Scs>(rng.uniform_int(0, 2));
    mib.coreset0_rb_start =
        static_cast<std::uint8_t>(rng.uniform_int(0, 255));
    mib.coreset0_n_prb6 = static_cast<std::uint8_t>(rng.uniform_int(1, 16));
    mib.coreset0_duration =
        static_cast<std::uint8_t>(rng.uniform_int(1, 3));
    mib.searchspace0 = static_cast<std::uint8_t>(rng.uniform_int(0, 15));
    mib.cell_barred = rng.chance(0.1);
    result.mib = mib;
  }
  const auto n_dcis = static_cast<std::size_t>(rng.uniform_int(0, 8));
  for (std::size_t i = 0; i < n_dcis; ++i) {
    DecodedDci dci;
    dci.slot = result.slot;
    dci.rnti = static_cast<Rnti>(rng.uniform_int(1, 0xFFFF));
    dci.dci = random_dci(rng);
    dci.grant = random_grant(rng);
    dci.agg_level = 1u << rng.uniform_int(0, 4);
    dci.cce_start = static_cast<unsigned>(rng.uniform_int(0, 100));
    dci.is_retx = rng.chance(0.2);
    result.dcis.push_back(dci);
  }
  const auto n_ues = static_cast<std::size_t>(rng.uniform_int(0, 3));
  for (std::size_t i = 0; i < n_ues; ++i) {
    NewUe ue;
    ue.c_rnti = static_cast<Rnti>(rng.uniform_int(1, 0xFFFF));
    ue.slot = result.slot;
    ue.verified = rng.chance(0.8);
    ue.config.ue_ss.ue_specific = true;
    ue.config.ue_ss.agg_levels.clear();
    for (std::int64_t l = 0, n = rng.uniform_int(1, 4); l < n; ++l) {
      ue.config.ue_ss.agg_levels.push_back(
          1u << static_cast<unsigned>(rng.uniform_int(0, 4)));
    }
    ue.config.ue_ss.candidates_per_level =
        static_cast<unsigned>(rng.uniform_int(1, 8));
    ue.config.dl_format =
        rng.chance(0.5) ? DciFormat::kDl1_0 : DciFormat::kDl1_1;
    ue.config.mcs_table = static_cast<McsTable>(rng.uniform_int(1, 3));
    ue.config.max_mimo_layers =
        static_cast<unsigned>(rng.uniform_int(1, 4));
    ue.config.n_harq_processes =
        static_cast<unsigned>(rng.uniform_int(1, 16));
    result.new_ues.push_back(ue);
  }
  return result;
}

template <class T>
void expect_same(const T& a, const T& b) {
  if constexpr (std::equality_comparable<T>) {
    EXPECT_EQ(a, b);
  } else {
    EXPECT_EQ(encode(a), encode(b));
  }
}

/// decode(encode(v)) == v, wire_size() is exact, and frame() parses back
/// as T's frame type.
template <class T>
void expect_round_trip(const T& value) {
  const std::vector<std::uint8_t> payload = encode(value);
  EXPECT_EQ(wire_size(value), payload.size());
  const auto decoded = decode<T>(payload);
  ASSERT_TRUE(decoded.has_value());
  expect_same(*decoded, value);
  FrameParser parser;
  parser.feed(frame(value));
  const auto parsed = parser.next();
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->type, FrameTypeOf<T>::value);
  EXPECT_EQ(parsed->payload, payload);
}

/// Every strict prefix and the payload plus one trailing byte fail to
/// decode; seeded random byte flips and garbage buffers decode to nullopt
/// or to something that re-encodes, never to a crash or an over-read.
template <class T>
void expect_rejects_damage(const T& value) {
  const std::vector<std::uint8_t> full = encode(value);
  for (std::size_t len = 0; len < full.size(); ++len) {
    EXPECT_FALSE(decode<T>(std::span(full.data(), len)).has_value())
        << "prefix length " << len;
  }
  std::vector<std::uint8_t> trailing = full;
  trailing.push_back(0x00);
  EXPECT_FALSE(decode<T>(trailing).has_value());
  Rng rng(full.size());
  const auto byte = [&rng] {
    return static_cast<std::uint8_t>(rng.uniform_int(0, 255));
  };
  const auto max_index = static_cast<std::int64_t>(full.size()) - 1;
  for (int i = 0; i < 300; ++i) {
    std::vector<std::uint8_t> flipped = full;
    for (std::int64_t n = rng.uniform_int(1, 4); n > 0; --n) {
      flipped[static_cast<std::size_t>(rng.uniform_int(0, max_index))] ^=
          static_cast<std::uint8_t>(byte() | 1);
    }
    if (const auto decoded = decode<T>(flipped)) {
      (void)encode(*decoded);
    }
    std::vector<std::uint8_t> garbage(
        static_cast<std::size_t>(rng.uniform_int(0, 2 * max_index + 2)));
    for (auto& b : garbage) {
      b = byte();
    }
    (void)decode<T>(garbage);
  }
}

/// Concatenated frames of several payloads parse back in order.
template <class... T>
void expect_stream_round_trip(const T&... values) {
  std::vector<std::uint8_t> stream;
  const auto append = [&stream](const std::vector<std::uint8_t>& bytes) {
    stream.insert(stream.end(), bytes.begin(), bytes.end());
  };
  (append(frame(values)), ...);
  FrameParser parser;
  parser.feed(stream);
  const auto next_is = [&parser]<class U>(const U& value) {
    const auto parsed = parser.next();
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(parsed->type, FrameTypeOf<U>::value);
    const auto decoded = decode<U>(parsed->payload);
    ASSERT_TRUE(decoded.has_value());
    expect_same(*decoded, value);
  };
  (next_is(values), ...);
  EXPECT_FALSE(parser.next().has_value());
  EXPECT_FALSE(parser.error());
}

// ---- Primitives ------------------------------------------------------

TEST(Wire, PrimitivesRoundTripLittleEndian) {
  WireWriter w;
  w.u8(0xAB);
  w.u16(0x1234);
  w.u32(0xDEADBEEF);
  w.u64(0x0123456789ABCDEFull);
  w.f64(-1234.5e-7);
  w.str("nrscope");
  const std::vector<std::uint8_t>& data = w.data();
  // Spot-check the byte order of the u16: LSB first.
  EXPECT_EQ(data[1], 0x34);
  EXPECT_EQ(data[2], 0x12);

  WireReader r(data);
  EXPECT_EQ(r.u8(), 0xAB);
  EXPECT_EQ(r.u16(), 0x1234);
  EXPECT_EQ(r.u32(), 0xDEADBEEFu);
  EXPECT_EQ(r.u64(), 0x0123456789ABCDEFull);
  EXPECT_DOUBLE_EQ(r.f64(), -1234.5e-7);
  EXPECT_EQ(r.str(), "nrscope");
  EXPECT_TRUE(r.done());
}

TEST(Wire, ReaderPastEndSetsStickyError) {
  const std::vector<std::uint8_t> data = {0x01, 0x02};
  WireReader r(data);
  EXPECT_EQ(r.u32(), 0u);  // only 2 bytes available
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.u64(), 0u);  // stays failed
  EXPECT_FALSE(r.done());
}

// ---- Round trips ------------------------------------------------------

TEST(Wire, HelloRoundTrip) { expect_round_trip(sample<HelloInfo>()); }

TEST(Wire, SlotResultRoundTripExhaustiveFields) {
  expect_round_trip(sample<SlotResult>());
}

TEST(Wire, MetricsSnapshotRoundTrip) {
  MetricsSnapshot unsorted = sample<MetricsSnapshot>();
  expect_round_trip(unsorted);
  // sorted_by_name is not on the wire: the decoder re-derives it.
  EXPECT_TRUE(decode<MetricsSnapshot>(encode(unsorted))->sorted_by_name);
  std::swap(unsorted.counters[0], unsorted.counters[1]);
  EXPECT_FALSE(decode<MetricsSnapshot>(encode(unsorted))->sorted_by_name);
}

TEST(Wire, FleetSummaryRoundTrip) { expect_round_trip(sample<FleetSummary>()); }

TEST(Wire, QueryRequestRoundTrip) { expect_round_trip(sample<QueryRequest>()); }

TEST(Wire, QueryResponseRoundTrip) {
  expect_round_trip(sample<QueryResponse>());
}

TEST(Wire, VersionRejectRoundTrip) {
  expect_round_trip(sample<VersionReject>());
  // A default reject advertises the single version this build speaks.
  EXPECT_EQ(VersionReject{}.min_version, kWireVersion);
  EXPECT_EQ(VersionReject{}.max_version, kWireVersion);
}

TEST(Wire, WorkerHelloRoundTrip) { expect_round_trip(sample<WorkerHello>()); }

TEST(Wire, LeaseGrantRoundTrip) { expect_round_trip(sample<LeaseGrant>()); }

TEST(Wire, LeaseAckRoundTrip) { expect_round_trip(sample<LeaseAck>()); }

TEST(Wire, WorkerHeartbeatRoundTrip) {
  expect_round_trip(sample<WorkerHeartbeat>());
}

TEST(Wire, LeaseRevokeRoundTrip) { expect_round_trip(sample<LeaseRevoke>()); }

TEST(Wire, PredictionSetRoundTrip) {
  expect_round_trip(sample<PredictionSet>());
}

TEST(Wire, CellReportBatchRoundTrip) {
  expect_round_trip(sample<CellReportBatch>());
}

TEST(Wire, CellReportBatchEmptyRoundTrip) {
  expect_round_trip(CellReportBatch{});
}

TEST(Wire, StandbyHelloRoundTrip) { expect_round_trip(sample<StandbyHello>()); }

TEST(Wire, NotPrimaryRoundTrip) { expect_round_trip(sample<NotPrimary>()); }

TEST(Wire, ReplicaSnapshotRoundTrip) {
  expect_round_trip(sample<ReplicaSnapshot>());
}

TEST(Wire, ReplicaEventRoundTripEveryKind) {
  for (std::uint8_t kind = 0; kind <= 6; ++kind) {
    ReplicaEvent event = sample<ReplicaEvent>();
    event.kind = static_cast<ReplicaEventKind>(kind);
    SCOPED_TRACE(to_string(event.kind));
    expect_round_trip(event);
  }
}

TEST(Wire, SlotResultFuzzRoundTrip) {
  Rng rng(42);
  for (int i = 0; i < 200; ++i) {
    const SlotResult result = random_slot_result(rng);
    const auto decoded = decode<SlotResult>(encode(result));
    ASSERT_TRUE(decoded.has_value()) << "iteration " << i;
    EXPECT_EQ(*decoded, result) << "iteration " << i;
  }
}

TEST(Wire, PredictionSetFuzzRoundTrip) {
  Rng rng(19);
  for (int i = 0; i < 200; ++i) {
    PredictionSet set;
    set.cell_index = static_cast<std::uint32_t>(rng.uniform_int(0, 1000));
    set.slot = static_cast<std::uint64_t>(rng.uniform_int(0, 1 << 30));
    set.horizon_slots =
        static_cast<std::uint32_t>(rng.uniform_int(1, 100000));
    set.model_version = static_cast<std::uint32_t>(rng.uniform_int(0, 99));
    const auto n = static_cast<std::size_t>(rng.uniform_int(0, 16));
    for (std::size_t j = 0; j < n; ++j) {
      PredictionEntry e;
      e.rnti = static_cast<Rnti>(rng.uniform_int(1, 0xFFFF));
      e.has_actual = rng.chance(0.5);
      e.degraded = rng.chance(0.2);
      e.predicted_bps = rng.uniform(0.0, 1e9);
      if (e.has_actual) {
        e.actual_bps = rng.uniform(0.0, 1e9);
        e.abs_error_bps = rng.uniform(0.0, 1e8);
      }
      set.entries.push_back(e);
    }
    const auto decoded = decode<PredictionSet>(encode(set));
    ASSERT_TRUE(decoded.has_value()) << "iteration " << i;
    EXPECT_EQ(*decoded, set) << "iteration " << i;
  }
}

template <class T>
std::uint64_t epoch_after_round_trip(T value) {
  value.epoch = 42;
  const auto decoded = decode<T>(encode(value));
  return decoded ? decoded->epoch : 0;
}

TEST(Wire, EpochFieldsRoundTripOnLeaseAndReportPayloads) {
  // Every lease-protocol payload stamps the coordinator term so a deposed
  // primary can be fenced; make sure no schema drops it.
  EXPECT_EQ(epoch_after_round_trip(LeaseGrant{}), 42u);
  EXPECT_EQ(epoch_after_round_trip(LeaseAck{}), 42u);
  EXPECT_EQ(epoch_after_round_trip(WorkerHello{}), 42u);
  EXPECT_EQ(epoch_after_round_trip(WorkerHeartbeat{}), 42u);
  EXPECT_EQ(epoch_after_round_trip(LeaseRevoke{}), 42u);
  CellReport report = sample_cell_report();
  report.epoch = 42;
  const auto batch = decode<CellReportBatch>(encode(CellReportBatch{{report}}));
  ASSERT_TRUE(batch.has_value());
  EXPECT_EQ(batch->reports.at(0).epoch, 42u);
}

TEST(Wire, OverlongStringIsCutToASelfConsistentFrame) {
  // The length prefix is a u16: a longer string must be cut to what the
  // prefix can announce, not written whole behind a wrapped length.
  WorkerHello hello = sample<WorkerHello>();
  hello.name.assign(70000, 'w');
  const std::vector<std::uint8_t> payload = encode(hello);
  EXPECT_EQ(payload.size(), wire_size(hello));
  const auto decoded = decode<WorkerHello>(payload);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->name, std::string(kWireMaxString, 'w'));
  EXPECT_EQ(decoded->epoch, hello.epoch);
}

// ---- Damage: truncation, trailing bytes, corruption -------------------

TEST(Wire, HelloInfoEveryTruncationFailsCleanly) {
  expect_rejects_damage(sample<HelloInfo>());
}

TEST(Wire, SlotResultEveryTruncationFailsCleanly) {
  expect_rejects_damage(sample<SlotResult>());
}

TEST(Wire, MetricsSnapshotTruncationFailsCleanly) {
  expect_rejects_damage(sample<MetricsSnapshot>());
}

TEST(Wire, FleetSummaryTruncationFailsCleanly) {
  expect_rejects_damage(sample<FleetSummary>());
}

TEST(Wire, QueryRequestEveryTruncationFailsCleanly) {
  expect_rejects_damage(sample<QueryRequest>());
}

TEST(Wire, QueryResponseEveryTruncationFailsCleanly) {
  expect_rejects_damage(sample<QueryResponse>());
}

TEST(Wire, VersionRejectEveryTruncationFailsCleanly) {
  expect_rejects_damage(sample<VersionReject>());
}

TEST(Wire, WorkerHelloEveryTruncationFailsCleanly) {
  expect_rejects_damage(sample<WorkerHello>());
}

TEST(Wire, LeaseGrantEveryTruncationFailsCleanly) {
  expect_rejects_damage(sample<LeaseGrant>());
}

TEST(Wire, LeaseAckEveryTruncationFailsCleanly) {
  expect_rejects_damage(sample<LeaseAck>());
}

TEST(Wire, WorkerHeartbeatEveryTruncationFailsCleanly) {
  expect_rejects_damage(sample<WorkerHeartbeat>());
}

TEST(Wire, LeaseRevokeEveryTruncationFailsCleanly) {
  expect_rejects_damage(sample<LeaseRevoke>());
}

TEST(Wire, PredictionSetEveryTruncationFailsCleanly) {
  expect_rejects_damage(sample<PredictionSet>());
}

TEST(Wire, CellReportBatchEveryTruncationFailsCleanly) {
  expect_rejects_damage(sample<CellReportBatch>());
}

TEST(Wire, StandbyHelloEveryTruncationFailsCleanly) {
  expect_rejects_damage(sample<StandbyHello>());
}

TEST(Wire, NotPrimaryEveryTruncationFailsCleanly) {
  expect_rejects_damage(sample<NotPrimary>());
}

TEST(Wire, ReplicaSnapshotEveryTruncationFailsCleanly) {
  expect_rejects_damage(sample<ReplicaSnapshot>());
}

TEST(Wire, ReplicaEventEveryTruncationFailsCleanly) {
  expect_rejects_damage(sample<ReplicaEvent>());
}

// Minimal payloads (empty vectors and strings) next to the samples above.
TEST(Wire, SlotResultRejectsTrailingGarbage) {
  expect_rejects_damage(SlotResult{});
}

TEST(Wire, FleetSummaryRejectsTrailingGarbage) {
  expect_rejects_damage(FleetSummary{});
}

TEST(Wire, PredictionSetRejectsTrailingGarbage) {
  expect_rejects_damage(PredictionSet{});
}

TEST(Wire, HaPayloadsRejectTrailingGarbage) {
  expect_rejects_damage(StandbyHello{});
  expect_rejects_damage(NotPrimary{});
  expect_rejects_damage(ReplicaSnapshot{});
  expect_rejects_damage(ReplicaEvent{});
}

TEST(Wire, ReplicaEventGarbageBytesNeverCrash) {
  // The standby feeds attacker-reachable bytes to these decoders: long
  // random buffers must decode to nullopt, never crash or over-read.
  Rng rng(77);
  for (int i = 0; i < 500; ++i) {
    std::vector<std::uint8_t> bytes(
        static_cast<std::size_t>(rng.uniform_int(0, 600)));
    for (auto& b : bytes) {
      b = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
    }
    (void)decode<ReplicaEvent>(bytes);
    (void)decode<ReplicaSnapshot>(bytes);
  }
}

// ---- Enum validation -------------------------------------------------

TEST(Wire, SlotResultRejectsCorruptEnums) {
  SlotResult result;
  result.slot = 5;
  DecodedDci dci;
  dci.rnti = 0x4601;
  result.dcis.push_back(dci);
  std::vector<std::uint8_t> bytes = encode(result);
  // The DCI format byte sits right after slot(8) + time(8) + flags(1) +
  // n_dcis(4) + dci.slot(8) + rnti(2) = offset 31.  Make it nonsense.
  bytes[31] = 0x77;
  EXPECT_FALSE(decode<SlotResult>(bytes).has_value());
}

TEST(Wire, QueryRejectsCorruptEnumsAndTrailingGarbage) {
  std::vector<std::uint8_t> request = encode(sample<QueryRequest>());
  request[8] = 0x66;  // kind follows the 8-byte correlation id
  EXPECT_FALSE(decode<QueryRequest>(request).has_value());
  std::vector<std::uint8_t> response = encode(sample<QueryResponse>());
  response[8] = 0x66;  // status byte
  EXPECT_FALSE(decode<QueryResponse>(response).has_value());
  expect_rejects_damage(QueryRequest{});
  expect_rejects_damage(QueryResponse{});
}

TEST(Wire, ReplicaEventRejectsCorruptKind) {
  std::vector<std::uint8_t> bytes = encode(sample<ReplicaEvent>());
  bytes[0] = 0x7F;  // kind is the first byte of the payload
  EXPECT_FALSE(decode<ReplicaEvent>(bytes).has_value());
}

// ---- Framing ---------------------------------------------------------

TEST(Wire, FleetFrameRoundTripsThroughParser) {
  expect_stream_round_trip(sample<FleetSummary>());
}

TEST(Wire, QueryFramesRoundTripThroughParser) {
  expect_stream_round_trip(sample<QueryRequest>(), sample<QueryResponse>());
}

TEST(Wire, DistFramesRoundTripThroughParser) {
  expect_stream_round_trip(sample<WorkerHello>(), sample<LeaseGrant>(),
                           sample<LeaseAck>(), sample<WorkerHeartbeat>(),
                           sample<CellReportBatch>(), sample<LeaseRevoke>(),
                           sample<VersionReject>());
}

TEST(Wire, PredictionFramesRoundTripThroughParser) {
  expect_stream_round_trip(sample<PredictionSet>(),
                           sample<CellReportBatch>());
}

TEST(Wire, HaFramesRoundTripThroughParser) {
  expect_stream_round_trip(sample<StandbyHello>(), sample<ReplicaSnapshot>(),
                           sample<ReplicaEvent>(), sample<NotPrimary>());
}

TEST(Wire, FrameParserReassemblesAcrossArbitraryChunks) {
  Rng rng(11);
  std::vector<SlotResult> sent;
  std::vector<std::uint8_t> stream;
  for (int i = 0; i < 20; ++i) {
    sent.push_back(random_slot_result(rng));
    const auto bytes = frame(sent.back());
    stream.insert(stream.end(), bytes.begin(), bytes.end());
  }
  const auto beat = heartbeat_frame();
  stream.insert(stream.end(), beat.begin(), beat.end());
  const auto end = end_frame();
  stream.insert(stream.end(), end.begin(), end.end());

  FrameParser parser;
  std::vector<SlotResult> received;
  bool saw_heartbeat = false;
  bool saw_end = false;
  std::size_t pos = 0;
  while (pos < stream.size()) {
    const auto chunk = static_cast<std::size_t>(rng.uniform_int(1, 97));
    const std::size_t n = std::min(chunk, stream.size() - pos);
    parser.feed(std::span<const std::uint8_t>(stream.data() + pos, n));
    pos += n;
    while (auto frame = parser.next()) {
      switch (frame->type) {
        case FrameType::kSlot: {
          const auto slot = decode<SlotResult>(frame->payload);
          ASSERT_TRUE(slot.has_value());
          received.push_back(*slot);
          break;
        }
        case FrameType::kHeartbeat:
          saw_heartbeat = true;
          EXPECT_TRUE(frame->payload.empty());
          break;
        case FrameType::kEnd:
          saw_end = true;
          break;
        default:
          FAIL() << "unexpected frame type";
      }
    }
  }
  EXPECT_FALSE(parser.error());
  ASSERT_EQ(received.size(), sent.size());
  for (std::size_t i = 0; i < sent.size(); ++i) {
    EXPECT_EQ(received[i], sent[i]) << "frame " << i;
  }
  EXPECT_TRUE(saw_heartbeat);
  EXPECT_TRUE(saw_end);
}

TEST(Wire, FrameParserRejectsBadMagic) {
  auto frame = heartbeat_frame();
  frame[0] ^= 0xFF;
  FrameParser parser;
  parser.feed(frame);
  EXPECT_FALSE(parser.next().has_value());
  EXPECT_TRUE(parser.error());
  EXPECT_EQ(parser.error_message(), "bad magic");
}

TEST(Wire, FrameParserRejectsWrongVersion) {
  auto frame = heartbeat_frame();
  frame[4] = static_cast<std::uint8_t>(kWireVersion + 1);
  FrameParser parser;
  parser.feed(frame);
  EXPECT_FALSE(parser.next().has_value());
  EXPECT_TRUE(parser.error());
}

TEST(Wire, FrameParserRejectsOversizedPayload) {
  WireWriter w;
  w.u32(kWireMagic);
  w.u16(kWireVersion);
  w.u16(static_cast<std::uint16_t>(FrameType::kSlot));
  w.u32(kWireMaxPayload + 1);
  FrameParser parser;
  parser.feed(w.data());
  EXPECT_FALSE(parser.next().has_value());
  EXPECT_TRUE(parser.error());
}

TEST(Wire, FrameParserWaitsForPartialHeader) {
  const auto frame = heartbeat_frame();
  FrameParser parser;
  parser.feed(std::span<const std::uint8_t>(frame.data(), kWireHeaderSize - 1));
  EXPECT_FALSE(parser.next().has_value());
  EXPECT_FALSE(parser.error());
  parser.feed(std::span<const std::uint8_t>(frame.data() + kWireHeaderSize - 1, 1));
  const auto parsed = parser.next();
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->type, FrameType::kHeartbeat);
}

// ---- Version ---------------------------------------------------------

/// A heartbeat frame stamped with `version` (header bytes 4-5).
std::vector<std::uint8_t> heartbeat_with_version(std::uint16_t version) {
  std::vector<std::uint8_t> bytes = heartbeat_frame();
  bytes[4] = static_cast<std::uint8_t>(version);
  bytes[5] = static_cast<std::uint8_t>(version >> 8);
  return bytes;
}

void expect_version_rejected(std::uint16_t version) {
  FrameParser parser;
  parser.feed(heartbeat_with_version(version));
  EXPECT_FALSE(parser.next().has_value());
  EXPECT_TRUE(parser.error());
  ASSERT_TRUE(parser.rejected_version().has_value());
  EXPECT_EQ(*parser.rejected_version(), version);
}

// One version is spoken; the neighbours on either side are both rejected.
TEST(Wire, FrameParserReportsRejectedVersionBelowWindow) {
  expect_version_rejected(kWireVersion - 1);
  expect_version_rejected(3);
}

TEST(Wire, FrameParserReportsRejectedVersionAboveWindow) {
  expect_version_rejected(kWireVersion + 1);
}

TEST(Wire, BadMagicIsNotAVersionReject) {
  auto frame = heartbeat_frame();
  frame[0] ^= 0xFF;
  FrameParser parser;
  parser.feed(frame);
  EXPECT_FALSE(parser.next().has_value());
  EXPECT_TRUE(parser.error());
  EXPECT_FALSE(parser.rejected_version().has_value());
}

}  // namespace
}  // namespace nrs
