// The one audited home of raw socket syscalls (see socket.hpp and the
// das_lint no-naked-socket-call rule).
#include "dassa/serve/socket.hpp"

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <filesystem>
#include <utility>

#include "dassa/common/counters.hpp"
#include "dassa/common/error.hpp"
#include "dassa/serve/protocol.hpp"

namespace dassa::serve {

namespace {

[[noreturn]] void throw_errno(const std::string& what) {
  throw IoError(what + ": " + std::strerror(errno));
}

/// Write all of `n` bytes (EINTR-safe); throws IoError on failure.
/// MSG_NOSIGNAL: a vanished peer must surface as EPIPE -> IoError, not
/// a process-killing SIGPIPE.
void write_full(int fd, const void* src, std::size_t n) {
  const char* p = static_cast<const char*>(src);
  while (n > 0) {
    const ssize_t w = ::send(fd, p, n, MSG_NOSIGNAL);
    if (w < 0) {
      if (errno == EINTR) continue;
      throw_errno("socket write failed");
    }
    p += w;
    n -= static_cast<std::size_t>(w);
  }
}

/// Read exactly `n` bytes. Returns false on end-of-stream *before the
/// first byte*; a mid-buffer EOF is a torn frame (IoError).
bool read_full(int fd, void* dst, std::size_t n) {
  char* p = static_cast<char*>(dst);
  std::size_t got = 0;
  while (got < n) {
    const ssize_t r = ::read(fd, p + got, n - got);
    if (r < 0) {
      if (errno == EINTR) continue;
      // A reset from a peer that vanished mid-conversation reads the
      // same as an abrupt close: end the stream, torn if mid-buffer.
      if (errno == ECONNRESET && got == 0) return false;
      throw_errno("socket read failed");
    }
    if (r == 0) {
      if (got == 0) return false;
      throw IoError("socket closed mid-frame");
    }
    got += static_cast<std::size_t>(r);
  }
  return true;
}

sockaddr_un local_address(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  // Leave room for the terminating NUL within sun_path.
  DASSA_CHECK(path.size() < sizeof(addr.sun_path),
              "socket path too long: " + path);
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  return addr;
}

}  // namespace

Connection::~Connection() { close_fd(); }

Connection::Connection(Connection&& other) noexcept
    : fd_(std::exchange(other.fd_, -1)) {}

Connection& Connection::operator=(Connection&& other) noexcept {
  if (this != &other) {
    close_fd();
    fd_ = std::exchange(other.fd_, -1);
  }
  return *this;
}

void Connection::close_fd() noexcept {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

void Connection::send_frame(std::span<const std::byte> payload) {
  DASSA_CHECK(valid(), "send_frame on a closed connection");
  DASSA_CHECK(payload.size() <= kMaxFrameBytes,
              "frame exceeds kMaxFrameBytes");
  const std::uint32_t len = static_cast<std::uint32_t>(payload.size());
  write_full(fd_, &len, sizeof len);
  if (!payload.empty()) write_full(fd_, payload.data(), payload.size());
  static Counter& sent = global_counters().counter(counters::kServeBytesSent);
  sent.add(sizeof len + payload.size());
}

std::optional<std::vector<std::byte>> Connection::recv_frame() {
  DASSA_CHECK(valid(), "recv_frame on a closed connection");
  std::uint32_t len = 0;
  if (!read_full(fd_, &len, sizeof len)) return std::nullopt;
  if (len > kMaxFrameBytes) {
    throw FormatError("serve frame length prefix exceeds the limit");
  }
  std::vector<std::byte> payload(len);
  if (len != 0 && !read_full(fd_, payload.data(), len)) {
    throw IoError("socket closed mid-frame");
  }
  static Counter& received =
      global_counters().counter(counters::kServeBytesReceived);
  received.add(sizeof len + len);
  return payload;
}

void Connection::shutdown() {
  if (fd_ >= 0) ::shutdown(fd_, SHUT_RDWR);
}

Listener::Listener(const std::string& path) : path_(path) {
  DASSA_CHECK(!path.empty(), "listener needs a socket path");
  const sockaddr_un addr = local_address(path);
  std::filesystem::remove(path);  // a stale socket file from a dead server
  fd_ = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd_ < 0) throw_errno("socket() failed");
  if (::bind(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) <
      0) {
    const int saved = errno;
    ::close(fd_);
    fd_ = -1;
    errno = saved;
    throw_errno("bind(" + path + ") failed");
  }
  if (::listen(fd_, 64) < 0) {
    const int saved = errno;
    ::close(fd_);
    fd_ = -1;
    errno = saved;
    throw_errno("listen(" + path + ") failed");
  }
}

Listener::~Listener() {
  if (fd_ >= 0) ::close(fd_);
  std::error_code ec;
  std::filesystem::remove(path_, ec);  // best-effort unlink
}

std::optional<Connection> Listener::accept() {
  DASSA_CHECK(fd_ >= 0, "accept on a closed listener");
  while (true) {
    if (down_.load(std::memory_order_acquire)) return std::nullopt;
    const int client = ::accept4(fd_, nullptr, nullptr, SOCK_CLOEXEC);
    if (client >= 0) return Connection(client);
    if (errno == EINTR) continue;
    // shutdown() makes a blocked accept return EINVAL; treat any
    // failure after shutdown as the clean end of the accept stream.
    if (down_.load(std::memory_order_acquire)) return std::nullopt;
    throw_errno("accept() failed");
  }
}

void Listener::shutdown() {
  down_.store(true, std::memory_order_release);
  if (fd_ >= 0) ::shutdown(fd_, SHUT_RDWR);
}

Connection connect_local(const std::string& path) {
  DASSA_CHECK(!path.empty(), "connect_local needs a socket path");
  const sockaddr_un addr = local_address(path);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) throw_errno("socket() failed");
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) <
      0) {
    const int saved = errno;
    ::close(fd);
    errno = saved;
    throw_errno("connect(" + path + ") failed");
  }
  return Connection(fd);
}

}  // namespace dassa::serve
