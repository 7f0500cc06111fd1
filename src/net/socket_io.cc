#include "net/socket_io.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <sys/types.h>
#include <unistd.h>

#include <cerrno>
#include <charconv>
#include <stdexcept>
#include <utility>

namespace nrs {

namespace {

bool to_sockaddr(const std::string& host, std::uint16_t port,
                 sockaddr_in& addr) {
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  return ::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) == 1;
}

void set_connection_options(int fd, bool bound_sends) {
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  if (bound_sends) {
    timeval send_timeout{};
    send_timeout.tv_sec = kSendTimeoutS;
    ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &send_timeout,
                 sizeof(send_timeout));
  }
}

}  // namespace

std::optional<TcpEndpoint> parse_endpoint(std::string_view text) {
  const auto colon = text.rfind(':');
  unsigned value = 0;
  const char* last = text.data() + text.size();
  if (colon == std::string_view::npos ||
      std::from_chars(text.data() + colon + 1, last, value).ptr != last ||
      value == 0 || value > 65535) {
    return std::nullopt;
  }
  TcpEndpoint endpoint;
  if (colon > 0) {
    endpoint.host = std::string(text.substr(0, colon));
  }
  endpoint.port = static_cast<std::uint16_t>(value);
  return endpoint;
}

TcpListener listen_tcp(const std::string& bind_address, std::uint16_t port) {
  sockaddr_in addr{};
  TcpListener listener;
  if (!to_sockaddr(bind_address, port, addr)) {
    throw std::runtime_error("bad bind address " + bind_address);
  }
  listener.fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listener.fd < 0) {
    throw std::runtime_error("socket() failed");
  }
  const int one = 1;
  ::setsockopt(listener.fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  if (::bind(listener.fd, reinterpret_cast<sockaddr*>(&addr),
             sizeof(addr)) != 0 ||
      ::listen(listener.fd, 16) != 0) {
    ::close(listener.fd);
    throw std::runtime_error("cannot listen on " + bind_address + ":" +
                             std::to_string(port));
  }
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  ::getsockname(listener.fd, reinterpret_cast<sockaddr*>(&bound), &len);
  listener.port = ntohs(bound.sin_port);
  return listener;
}

int accept_tcp(int listen_fd, bool bound_sends) {
  const int fd = ::accept(listen_fd, nullptr, nullptr);
  if (fd >= 0) {
    set_connection_options(fd, bound_sends);
  }
  return fd;
}

int dial_tcp(const std::string& host, std::uint16_t port) {
  sockaddr_in addr{};
  const int fd =
      to_sockaddr(host, port, addr) ? ::socket(AF_INET, SOCK_STREAM, 0) : -1;
  if (fd < 0) {
    return -1;
  }
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  set_connection_options(fd, /*bound_sends=*/true);
  return fd;
}

ReadResult read_frames(int fd, FrameParser& parser,
                       const std::function<bool(const Frame&)>& on_frame,
                       int flags) {
  std::uint8_t buf[65536];  // no smaller than any peer's old buffer
  const ssize_t n = ::recv(fd, buf, sizeof(buf), flags);
  ReadResult result;
  if (n <= 0) {
    const bool benign =
        n < 0 && (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK);
    result.status = benign ? ReadStatus::kOpen : ReadStatus::kClosed;
    return result;
  }
  result.bytes = static_cast<std::size_t>(n);
  parser.feed({buf, result.bytes});
  while (auto frame = parser.next()) {
    if (!on_frame(*frame)) {
      return result;
    }
  }
  if (parser.error()) {
    result.status = ReadStatus::kProtocolError;
    result.rejected_version = parser.rejected_version();
  }
  return result;
}

SendResult send_exact(int fd, const std::uint8_t* data, std::size_t size) {
  std::size_t sent = 0;
  while (sent < size) {
    const ssize_t n = ::send(fd, data + sent, size - sent, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      return sent == 0 ? SendResult::kFailed : SendResult::kPartial;
    }
    if (n == 0) {
      // A 0-byte send() on a stream socket should not happen, but treat
      // it as failure rather than spinning forever.
      return sent == 0 ? SendResult::kFailed : SendResult::kPartial;
    }
    sent += static_cast<std::size_t>(n);
  }
  return SendResult::kOk;
}

RedialSchedule::RedialSchedule(std::vector<TcpEndpoint> endpoints,
                               BackoffPolicy policy, std::uint64_t seed,
                               int max_failures)
    : endpoints_(std::move(endpoints)),
      policy_(policy),
      // Seed 0: mix identity and clock so identical peers de-correlate.
      rng_(seed != 0 ? seed
                     : reinterpret_cast<std::uintptr_t>(this) ^
                           static_cast<std::uint64_t>(
                               Clock::now().time_since_epoch().count())),
      max_failures_(max_failures) {
  if (endpoints_.empty()) {
    throw std::invalid_argument("RedialSchedule: no endpoints");
  }
}

void RedialSchedule::dial_failed(Clock::time_point now) {
  const double delay = jittered_backoff_delay(policy_, failures_, rng_);
  ++failures_;
  retry_at_ = now + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(delay));
  index_ = (index_ + 1) % endpoints_.size();
}

}  // namespace nrs
