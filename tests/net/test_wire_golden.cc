// Golden bytes: the exact frame every payload type's fixed sample encodes
// to.  The wire format is a contract with peers built from other commits
// (and with foreign-language consumers), so a codec change that moves a
// single byte must fail here.  Small frames are pinned as full hex, large
// ones as length + FNV-1a-64 of the whole frame.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "net/wire.h"
#include "wire_samples.h"

namespace nrs {
namespace {

using wire_samples::sample;

std::string to_hex(const std::vector<std::uint8_t>& bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  for (const std::uint8_t b : bytes) {
    out += kDigits[b >> 4];
    out += kDigits[b & 0xF];
  }
  return out;
}

std::uint64_t fnv1a64(const std::vector<std::uint8_t>& bytes) {
  std::uint64_t hash = 0xcbf29ce484222325ull;
  for (const std::uint8_t b : bytes) {
    hash = (hash ^ b) * 0x100000001b3ull;
  }
  return hash;
}

void expect_digest(const std::vector<std::uint8_t>& bytes, std::size_t size,
                   std::uint64_t hash) {
  EXPECT_EQ(bytes.size(), size);
  EXPECT_EQ(fnv1a64(bytes), hash) << std::hex << "0x" << fnv1a64(bytes);
}

TEST(WireGolden, Hello) {
  EXPECT_EQ(to_hex(frame(sample<HelloInfo>())),
            "5753524e050001000a0000000500b168de3a00000000");
}

TEST(WireGolden, Slot) {
  expect_digest(frame(sample<SlotResult>()), 188, 0x7aeab4d154d6ec18ull);
}

TEST(WireGolden, Metrics) {
  expect_digest(frame(sample<MetricsSnapshot>()), 212, 0xe7d569d0235a4829ull);
}

TEST(WireGolden, Fleet) {
  expect_digest(frame(sample<FleetSummary>()), 296, 0xc9e0a5e20646c46aull);
}

TEST(WireGolden, Query) {
  EXPECT_EQ(to_hex(frame(sample<QueryRequest>())),
            "5753524e050007002d00000088776655443322110103000000014607e8030000"
            "000000002823000000000000f4010000000000000400000002");
}

TEST(WireGolden, QueryResult) {
  expect_digest(frame(sample<QueryResponse>()), 222, 0x966012292d54de33ull);
}

TEST(WireGolden, UnsupportedVersion) {
  EXPECT_EQ(to_hex(frame(sample<VersionReject>())),
            "5753524e05000f00260000000300050005001e00756e737570706f7274656420"
            "70726f746f636f6c2076657273696f6e2033");
}

TEST(WireGolden, WorkerHello) {
  EXPECT_EQ(to_hex(frame(sample<WorkerHello>())),
            "5753524e05000900210000000d007261636b332d736e69666665720c00000005"
            "00060000002900000000000000");
}

TEST(WireGolden, Lease) {
  expect_digest(frame(sample<LeaseGrant>()), 102, 0x1d82991c8ce1765cull);
}

TEST(WireGolden, LeaseAck) {
  EXPECT_EQ(to_hex(frame(sample<LeaseAck>())),
            "5753524e05000b002b0000004d0000000000000005000000011400756e6b6e6f"
            "776e207072657365742027666f6f272a00000000000000");
}

TEST(WireGolden, WorkerHeartbeat) {
  EXPECT_EQ(to_hex(frame(sample<WorkerHeartbeat>())),
            "5753524e05000c003e000000df030000000000002a0000000000000002000000"
            "0b0000000000000000000000a00f000000000000000c00000000000000030000"
            "00fa0000000000000002");
}

TEST(WireGolden, LeaseRevoke) {
  EXPECT_EQ(to_hex(frame(sample<LeaseRevoke>())),
            "5753524e05000e001f0000000d00000000000000040000000900726562616c61"
            "6e63652a00000000000000");
}

TEST(WireGolden, CellReportBatch) {
  expect_digest(frame(sample<CellReportBatch>()), 275, 0x6a6918d60bbbd8f9ull);
}

TEST(WireGolden, Prediction) {
  expect_digest(frame(sample<PredictionSet>()), 90, 0xd8cfd092b8ffb75cull);
}

TEST(WireGolden, StandbyHello) {
  EXPECT_EQ(to_hex(frame(sample<StandbyHello>())),
            "5753524e05001200100000000c007374616e6462793a393230310500");
}

TEST(WireGolden, NotPrimary) {
  EXPECT_EQ(to_hex(frame(sample<NotPrimary>())),
            "5753524e0500150011000000040000000000000007007374616e646279");
}

TEST(WireGolden, ReplicaSnapshot) {
  expect_digest(frame(sample<ReplicaSnapshot>()), 524, 0xdbf58841d11d682dull);
}

TEST(WireGolden, ReplicaEvent) {
  expect_digest(frame(sample<ReplicaEvent>()), 241, 0x31992216daca5b40ull);
}

TEST(WireGolden, HeartbeatAndEnd) {
  EXPECT_EQ(to_hex(heartbeat_frame()),
            "5753524e0500040000000000");
  EXPECT_EQ(to_hex(end_frame()),
            "5753524e0500050000000000");
}

}  // namespace
}  // namespace nrs
