// The shared socket layer on real sockets.  send_exact(): complete sends
// report kOk, a peer that vanished reports kFailed with nothing written,
// and — the case that used to truncate frames silently — a wedged peer
// behind a full send buffer and an SO_SNDTIMEO deadline reports
// kPartial/kFailed, never kOk, so the caller knows the stream is torn and
// drops the connection.  read_frames(): frames across recv() boundaries,
// EOF, garbage and foreign versions.  RedialSchedule: rotation order,
// attempt cap, reset on success.
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "net/socket_io.h"

namespace nrs {
namespace {

struct SocketPair {
  int a = -1;
  int b = -1;
  SocketPair() {
    int fds[2] = {-1, -1};
    EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    a = fds[0];
    b = fds[1];
  }
  ~SocketPair() {
    if (a >= 0) {
      ::close(a);
    }
    if (b >= 0) {
      ::close(b);
    }
  }
};

TEST(SocketIo, CompleteSendReportsOkAndDeliversBytes) {
  SocketPair pair;
  std::vector<std::uint8_t> data(4096);
  std::iota(data.begin(), data.end(), 0);
  ASSERT_EQ(send_exact(pair.a, data.data(), data.size()), SendResult::kOk);
  std::vector<std::uint8_t> received(data.size());
  std::size_t got = 0;
  while (got < received.size()) {
    const ssize_t n =
        ::recv(pair.b, received.data() + got, received.size() - got, 0);
    ASSERT_GT(n, 0);
    got += static_cast<std::size_t>(n);
  }
  EXPECT_EQ(received, data);
}

TEST(SocketIo, ClosedPeerReportsFailureNotOk) {
  SocketPair pair;
  ::close(pair.b);
  pair.b = -1;
  std::vector<std::uint8_t> data(1024, 0x5A);
  // Depending on buffering the first send may land in the dead socket's
  // buffer; keep writing and the failure must surface without SIGPIPE.
  SendResult result = SendResult::kOk;
  for (int i = 0; i < 64 && result == SendResult::kOk; ++i) {
    result = send_exact(pair.a, data.data(), data.size());
  }
  EXPECT_NE(result, SendResult::kOk);
}

TEST(SocketIo, WedgedPeerWithSendTimeoutNeverReportsOk) {
  // The coordinator's frame-writing regression: a tiny send buffer, a
  // peer that never reads, and an SO_SNDTIMEO deadline.  Filling the pipe
  // MUST eventually return kPartial (bytes went out, then the deadline
  // hit mid-buffer) or kFailed — reporting kOk here is the silent
  // mid-stream truncation this API exists to prevent.
  SocketPair pair;
  const int tiny = 4096;
  ::setsockopt(pair.a, SOL_SOCKET, SO_SNDBUF, &tiny, sizeof(tiny));
  timeval timeout{};
  timeout.tv_usec = 50 * 1000;  // 50 ms
  ASSERT_EQ(::setsockopt(pair.a, SOL_SOCKET, SO_SNDTIMEO, &timeout,
                         sizeof(timeout)),
            0);
  // Larger than any plausible kernel buffering for the pair.
  std::vector<std::uint8_t> frame(16 * 1024 * 1024, 0xA5);
  const SendResult result = send_exact(pair.a, frame.data(), frame.size());
  EXPECT_NE(result, SendResult::kOk);
  // And specifically: some bytes DID go out before the deadline, so this
  // is the torn-frame case, distinct from kFailed.
  EXPECT_EQ(result, SendResult::kPartial);
}

TEST(SocketIo, SendAllMatchesSendExactOk) {
  SocketPair pair;
  const std::uint8_t byte = 0x42;
  EXPECT_TRUE(send_all(pair.a, &byte, 1));
  ::close(pair.b);
  pair.b = -1;
  bool ok = true;
  std::vector<std::uint8_t> data(1024, 0);
  for (int i = 0; i < 64 && ok; ++i) {
    ok = send_all(pair.a, data.data(), data.size());
  }
  EXPECT_FALSE(ok);
}

TEST(SocketIo, ListenDialAcceptRoundTripsFrames) {
  const TcpListener listener = listen_tcp("127.0.0.1", 0);
  ASSERT_GE(listener.fd, 0);
  ASSERT_NE(listener.port, 0);
  const int client = dial_tcp("127.0.0.1", listener.port);
  ASSERT_GE(client, 0);
  const int server = accept_tcp(listener.fd, /*bound_sends=*/false);
  ASSERT_GE(server, 0);

  // Two frames written as one buffer, the second split by the reader's
  // own recv() boundaries: both must come out whole and in order.
  std::vector<std::uint8_t> bytes = heartbeat_frame();
  const std::vector<std::uint8_t> end = end_frame();
  bytes.insert(bytes.end(), end.begin(), end.end());
  ASSERT_TRUE(send_all(client, bytes.data(), bytes.size()));
  FrameParser parser;
  std::vector<FrameType> seen;
  std::size_t received = 0;
  while (received < bytes.size()) {
    const ReadResult result =
        read_frames(server, parser, [&](const Frame& frame) {
          seen.push_back(frame.type);
          return true;
        });
    ASSERT_EQ(result.status, ReadStatus::kOpen);
    received += result.bytes;
  }
  EXPECT_EQ(seen, (std::vector<FrameType>{FrameType::kHeartbeat,
                                          FrameType::kEnd}));

  ::close(client);
  const ReadResult eof =
      read_frames(server, parser, [](const Frame&) { return true; });
  EXPECT_EQ(eof.status, ReadStatus::kClosed);
  ::close(server);
  ::close(listener.fd);
}

TEST(SocketIo, DialToClosedPortFails) {
  const TcpListener listener = listen_tcp("127.0.0.1", 0);
  ::close(listener.fd);
  EXPECT_LT(dial_tcp("127.0.0.1", listener.port), 0);
  EXPECT_LT(dial_tcp("not-an-address", listener.port), 0);
  EXPECT_THROW(listen_tcp("not-an-address", 0), std::runtime_error);
}

TEST(SocketIo, ReadStepReportsForeignVersionAndGarbage) {
  {
    SocketPair pair;
    std::vector<std::uint8_t> old = heartbeat_frame();
    old[4] = static_cast<std::uint8_t>(kWireVersion - 1);  // version u16
    ASSERT_TRUE(send_all(pair.a, old.data(), old.size()));
    FrameParser parser;
    const ReadResult result =
        read_frames(pair.b, parser, [](const Frame&) { return true; });
    EXPECT_EQ(result.status, ReadStatus::kProtocolError);
    ASSERT_TRUE(result.rejected_version.has_value());
    EXPECT_EQ(*result.rejected_version, kWireVersion - 1);
    // The shared reply names the rejected version and ours.
    const std::vector<std::uint8_t> reply =
        version_reject_frame(*result.rejected_version);
    FrameParser reply_parser;
    reply_parser.feed(reply);
    const auto frame = reply_parser.next();
    ASSERT_TRUE(frame.has_value());
    ASSERT_EQ(frame->type, FrameType::kUnsupportedVersion);
    const auto reject = decode<VersionReject>(frame->payload);
    ASSERT_TRUE(reject.has_value());
    EXPECT_EQ(reject->rejected, kWireVersion - 1);
    EXPECT_EQ(reject->max_version, kWireVersion);
  }
  {
    SocketPair pair;
    const std::vector<std::uint8_t> garbage(32, 0xEE);
    ASSERT_TRUE(send_all(pair.a, garbage.data(), garbage.size()));
    FrameParser parser;
    const ReadResult result =
        read_frames(pair.b, parser, [](const Frame&) { return true; });
    EXPECT_EQ(result.status, ReadStatus::kProtocolError);
    EXPECT_FALSE(result.rejected_version.has_value());
  }
}

TEST(SocketIo, ReadStepNonBlockingWithNothingPendingStaysOpen) {
  SocketPair pair;
  FrameParser parser;
  const ReadResult result = read_frames(
      pair.b, parser, [](const Frame&) { return true; }, MSG_DONTWAIT);
  EXPECT_EQ(result.status, ReadStatus::kOpen);
  EXPECT_EQ(result.bytes, 0u);
}

TEST(SocketIo, ParseEndpoint) {
  const auto full = parse_endpoint("10.0.0.7:9200");
  ASSERT_TRUE(full.has_value());
  EXPECT_EQ(full->host, "10.0.0.7");
  EXPECT_EQ(full->port, 9200);
  const auto bare = parse_endpoint(":9201");
  ASSERT_TRUE(bare.has_value());
  EXPECT_EQ(bare->host, "127.0.0.1");
  for (const char* bad : {"", "host", "host:", "host:0", "host:65536",
                          "host:12x"}) {
    EXPECT_FALSE(parse_endpoint(bad).has_value()) << bad;
  }
}

TEST(RedialSchedule, RotatesCapsAndResetsOnSuccess) {
  using Clock = RedialSchedule::Clock;
  const BackoffPolicy policy{1.0, 4.0};
  RedialSchedule redial({{"a", 1}, {"b", 2}, {"c", 3}}, policy, /*seed=*/7,
                        /*max_failures=*/3);
  const auto t0 = Clock::now();
  const auto at = [&](double s) {
    return t0 + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(s));
  };
  EXPECT_TRUE(redial.due(t0));
  EXPECT_EQ(redial.endpoint().host, "a");

  // Failures rotate a -> b -> c -> a and back off 1, 2, 4 (jittered down
  // to half at most) seconds, capped at 4.
  redial.dial_failed(t0);
  EXPECT_EQ(redial.endpoint().host, "b");
  EXPECT_FALSE(redial.due(at(0.49)));
  EXPECT_TRUE(redial.due(at(1.0)));
  redial.dial_failed(at(1.0));
  EXPECT_EQ(redial.endpoint().host, "c");
  EXPECT_FALSE(redial.due(at(1.99)));
  EXPECT_TRUE(redial.due(at(3.0)));
  redial.dial_failed(at(3.0));
  EXPECT_EQ(redial.endpoint().host, "a");
  EXPECT_FALSE(redial.due(at(4.99)));
  EXPECT_TRUE(redial.due(at(7.0)));
  EXPECT_FALSE(redial.exhausted());
  redial.dial_failed(at(7.0));
  EXPECT_FALSE(redial.due(at(8.99)));  // capped: 4 s at most, 2 s at least
  EXPECT_TRUE(redial.due(at(11.0)));
  EXPECT_TRUE(redial.exhausted()) << "4 failures exceed a cap of 3";

  // Success resets the escalation and the cap; a dropped link moves on
  // without waiting.
  redial.dial_succeeded();
  EXPECT_FALSE(redial.exhausted());
  EXPECT_EQ(redial.endpoint().host, "b");
  redial.link_dropped();
  EXPECT_EQ(redial.endpoint().host, "c");
  EXPECT_TRUE(redial.due(at(11.0)));
  redial.dial_failed(at(11.0));
  EXPECT_FALSE(redial.due(at(11.49)));
  EXPECT_TRUE(redial.due(at(12.0))) << "back to the first backoff step";

  // A negative cap never gives up.
  RedialSchedule forever({{"x", 1}}, policy, 7);
  for (int i = 0; i < 100; ++i) {
    forever.dial_failed(t0);
  }
  EXPECT_FALSE(forever.exhausted());
  EXPECT_EQ(forever.endpoint().host, "x");
}

}  // namespace
}  // namespace nrs
