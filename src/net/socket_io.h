// The one place that touches TCP sockets, shared by the stream server and
// client and the fleet coordinator and worker: listen / accept / dial, the
// framed read step, the blocking send and the redial schedule.  The socket
// rules each helper owns are listed in DESIGN.md ("Connection layer").
// The crucial one: a short write that cannot be completed leaves HALF A
// FRAME in the peer's stream, so the connection must be closed — writing
// the next frame after it would land mid-frame and corrupt the stream.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/backoff.h"
#include "common/rng.h"
#include "net/wire.h"

namespace nrs {

/// SO_SNDTIMEO of dialed sockets and of accept_tcp(.., true) sockets.
inline constexpr int kSendTimeoutS = 2;

struct TcpEndpoint {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;
};

/// "host:port" (empty host = 127.0.0.1); nullopt on a bad port.
std::optional<TcpEndpoint> parse_endpoint(std::string_view text);

struct TcpListener {
  int fd = -1;
  std::uint16_t port = 0;  ///< resolves a requested port 0
};

/// Bind and listen on an IPv4 address (port 0 = ephemeral).  Throws
/// std::runtime_error naming the address when that fails.
TcpListener listen_tcp(const std::string& bind_address, std::uint16_t port);

/// Accept one connection with TCP_NODELAY, plus the kSendTimeoutS send
/// bound when `bound_sends`.  -1 when none was pending.
int accept_tcp(int listen_fd, bool bound_sends);

/// Connect with TCP_NODELAY and the kSendTimeoutS send bound; -1 on
/// failure.
int dial_tcp(const std::string& host, std::uint16_t port);

enum class ReadStatus : std::uint8_t {
  kOpen = 0,           ///< still usable (also: nothing to read yet)
  kClosed = 1,         ///< EOF or hard error
  kProtocolError = 2,  ///< unparseable stream; cannot resynchronise
};

struct ReadResult {
  ReadStatus status = ReadStatus::kOpen;
  std::size_t bytes = 0;  ///< bytes received by this step
  /// Set when a foreign protocol version caused kProtocolError; answer
  /// it with version_reject_frame().
  std::optional<std::uint16_t> rejected_version;
};

/// One recv() (`flags` as for recv(2)) into `parser`, each complete frame
/// to `on_frame` until it returns false (it closed the connection or wants
/// to stop; the step then reports kOpen).  EINTR/EAGAIN report kOpen.
ReadResult read_frames(int fd, FrameParser& parser,
                       const std::function<bool(const Frame&)>& on_frame,
                       int flags = 0);

enum class SendResult : std::uint8_t {
  kOk = 0,       ///< every byte written
  kFailed = 1,   ///< nothing written (frame never reached the stream)
  kPartial = 2,  ///< short write: the stream now carries a torn frame
};

/// write() the whole buffer, riding out EINTR and benign partial sends.
/// Uses MSG_NOSIGNAL so a vanished peer surfaces as EPIPE, not SIGPIPE.
/// On an SO_SNDTIMEO socket a wedged peer fails the send (EAGAIN) instead
/// of wedging the calling thread; if that happens after some bytes went
/// out the result is kPartial and the connection must be dropped.
SendResult send_exact(int fd, const std::uint8_t* data, std::size_t size);

/// Convenience: true iff the whole buffer was written.  Any false return
/// means the connection is no longer usable for framed traffic.
inline bool send_all(int fd, const std::uint8_t* data, std::size_t size) {
  return send_exact(fd, data, size) == SendResult::kOk;
}

/// Where and when a reconnecting peer dials next: round-robin over its
/// endpoints, jittered exponential backoff across consecutive failed
/// dials, an optional cap on them (< 0 = none), reset on success.  Pure
/// bookkeeping: the caller owns the socket and the clock.
class RedialSchedule {
 public:
  using Clock = std::chrono::steady_clock;

  /// `endpoints` must not be empty; `seed` 0 derives a per-instance seed.
  RedialSchedule(std::vector<TcpEndpoint> endpoints, BackoffPolicy policy,
                 std::uint64_t seed, int max_failures = -1);

  [[nodiscard]] const TcpEndpoint& endpoint() const {
    return endpoints_[index_];
  }
  [[nodiscard]] bool due(Clock::time_point now) const {
    return now >= retry_at_;
  }
  [[nodiscard]] bool exhausted() const {
    return max_failures_ >= 0 && failures_ > unsigned(max_failures_);
  }
  /// Back off one more step, then try the next endpoint.
  void dial_failed(Clock::time_point now);
  void dial_succeeded() { failures_ = 0; }
  /// A live link dropped: the next endpoint, without waiting.
  void link_dropped() { index_ = (index_ + 1) % endpoints_.size(); }

 private:
  std::vector<TcpEndpoint> endpoints_;
  BackoffPolicy policy_;
  Rng rng_;
  int max_failures_;
  std::size_t index_ = 0;
  unsigned failures_ = 0;  ///< consecutive failed dials
  Clock::time_point retry_at_{};
};

}  // namespace nrs
