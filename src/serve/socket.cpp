#include "serve/socket.hpp"

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstring>
#include <list>
#include <thread>

#include "core/common.hpp"
#include "serve/server.hpp"

namespace swlb::serve {

namespace {

sockaddr_un make_addr(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path))
    throw Error("socket path too long: " + path);
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  return addr;
}

}  // namespace

// ---- LineStream --------------------------------------------------------

LineStream::~LineStream() { close(); }

std::optional<std::string> LineStream::readLine() {
  std::size_t scanned = 0;  // leading bytes of buf_ known to hold no '\n'
  for (;;) {
    const auto nl = buf_.find('\n', scanned);
    if ((nl == std::string::npos ? buf_.size() : nl) > kMaxLineBytes) {
      // No protocol line is this long: stop reading this peer for good.
      buf_ = std::string();
      if (fd_ >= 0) ::shutdown(fd_, SHUT_RD);
      return std::nullopt;
    }
    if (nl != std::string::npos) {
      std::string line = buf_.substr(0, nl);
      buf_.erase(0, nl + 1);
      return line;
    }
    scanned = buf_.size();
    if (fd_ < 0) return std::nullopt;
    char chunk[4096];
    const ssize_t n = ::read(fd_, chunk, sizeof(chunk));
    if (n > 0) {
      buf_.append(chunk, static_cast<std::size_t>(n));
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    return std::nullopt;  // EOF or error: a partial last line is dropped
  }
}

bool LineStream::writeLine(const std::string& line) {
  if (fd_ < 0) return false;
  std::string out = line;
  out.push_back('\n');
  std::size_t off = 0;
  while (off < out.size()) {
    // MSG_NOSIGNAL: a vanished peer is an EPIPE for this stream, not a
    // SIGPIPE that ends the whole daemon.
    const ssize_t n =
        ::send(fd_, out.data() + off, out.size() - off, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    off += static_cast<std::size_t>(n);
  }
  return true;
}

void LineStream::close() {
  if (fd_ >= 0) {
    ::shutdown(fd_, SHUT_RDWR);
    ::close(fd_);
    fd_ = -1;
  }
}

// ---- UnixListener ------------------------------------------------------

UnixListener::UnixListener(const std::string& path) : path_(path), fd_(-1) {
  const sockaddr_un addr = make_addr(path);
  fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd_ < 0) throw Error("socket() failed: " + std::string(strerror(errno)));
  ::unlink(path.c_str());  // replace a stale socket from a crashed daemon
  if (::bind(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) <
      0) {
    const int err = errno;
    ::close(fd_);
    throw Error("bind(" + path + ") failed: " + strerror(err));
  }
  if (::listen(fd_, 64) < 0) {
    const int err = errno;
    ::close(fd_);
    ::unlink(path.c_str());
    throw Error("listen(" + path + ") failed: " + strerror(err));
  }
}

UnixListener::~UnixListener() {
  close();
  ::unlink(path_.c_str());
}

std::optional<int> UnixListener::accept() {
  for (;;) {
    const int fd = fd_;
    if (fd < 0) return std::nullopt;
    const int c = ::accept(fd, nullptr, nullptr);
    if (c >= 0) return c;
    if (errno == EINTR) continue;
    return std::nullopt;  // listener closed under us
  }
}

void UnixListener::close() {
  // The server's shutdown hook and the destructor may both get here, on
  // different threads: exactly one of them takes the fd.
  const int fd = fd_.exchange(-1);
  if (fd >= 0) {
    // shutdown() wakes a blocked accept() portably on Linux.
    ::shutdown(fd, SHUT_RDWR);
    ::close(fd);
  }
}

int connect_unix(const std::string& path) {
  const sockaddr_un addr = make_addr(path);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) throw Error("socket() failed: " + std::string(strerror(errno)));
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) <
      0) {
    const int err = errno;
    ::close(fd);
    throw Error("connect(" + path + ") failed: " + strerror(err));
  }
  return fd;
}

// ---- serve_unix --------------------------------------------------------

void serve_unix(Server& server, const std::string& path) {
  UnixListener listener(path);
  server.addShutdownHook([&listener] { listener.close(); });

  // One thread per connection, flagged done as it ends; the accept loop
  // joins the finished ones before it starts the next, so only live
  // connections hold a thread (and its stack).
  struct Conn {
    std::atomic<bool> done{false};
    std::thread thread;
  };
  std::list<Conn> conns;  // stable nodes: each thread flags its own
  while (const auto fd = listener.accept()) {
    for (auto it = conns.begin(); it != conns.end();) {
      if (!it->done) {
        ++it;
        continue;
      }
      it->thread.join();
      it = conns.erase(it);
    }
    Conn& conn = conns.emplace_back();
    conn.thread = std::thread([&server, &done = conn.done, cfd = *fd] {
      auto stream = std::make_shared<LineStream>(cfd);
      Session& session = server.openSession();
      // Writer: session events -> socket.  Ends when the session closes
      // (server shutdown) or the peer stops reading.
      std::thread writer([stream, &session] {
        while (const auto ev = session.nextEvent())
          if (!stream->writeLine(*ev)) break;
        stream->close();  // wake the reader if the peer is still connected
      });
      // Reader: socket lines -> dispatch, on this connection's thread.
      while (const auto line = stream->readLine()) {
        if (line->empty()) continue;
        session.request(*line);
      }
      session.close();
      writer.join();
      done = true;
    });
  }
  for (auto& c : conns) c.thread.join();
}

}  // namespace swlb::serve
