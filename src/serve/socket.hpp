// Local-socket transport for the `swlb::serve` daemon (DESIGN.md §12).
//
// The Server itself is transport-agnostic (Sessions are in-process
// mailboxes); this layer exposes it over an AF_UNIX stream socket with
// the same line-delimited flat-JSON protocol: one request per line in,
// one event per line out.  Used by the `swlb_serve` example daemon; the
// tests and bench drive Sessions directly and skip the socket.
#pragma once

#include <atomic>
#include <cstddef>
#include <optional>
#include <string>

namespace swlb::serve {

class Server;

/// Longest line a LineStream reads.  Protocol lines stay under 1 KiB; a
/// peer that sends more without a newline loses its connection instead
/// of growing the daemon's memory.
inline constexpr std::size_t kMaxLineBytes = std::size_t{1} << 20;

/// Buffered line reader/writer over a connected stream socket fd.
/// Owns the fd; closes it on destruction.
class LineStream {
 public:
  explicit LineStream(int fd) : fd_(fd) {}
  ~LineStream();

  LineStream(const LineStream&) = delete;
  LineStream& operator=(const LineStream&) = delete;

  /// Next '\n'-terminated line (terminator stripped); std::nullopt at
  /// EOF, on a read error, or once a line passes kMaxLineBytes (which
  /// shuts the read side down: every later call returns nullopt too).
  std::optional<std::string> readLine();

  /// Write one line + '\n'; false once the peer is gone (never a
  /// SIGPIPE).
  bool writeLine(const std::string& line);

  /// Shut the socket down (wakes a blocked readLine); idempotent.
  void close();

  int fd() const { return fd_; }

 private:
  int fd_;
  std::string buf_;
};

/// Listening AF_UNIX socket bound at `path` (any stale socket file is
/// replaced).  Unlinks the path on destruction.
class UnixListener {
 public:
  explicit UnixListener(const std::string& path);
  ~UnixListener();

  UnixListener(const UnixListener&) = delete;
  UnixListener& operator=(const UnixListener&) = delete;

  /// Block for the next connection; std::nullopt once close()d.
  std::optional<int> accept();

  /// Stop accepting (wakes a blocked accept); idempotent.
  void close();

  const std::string& path() const { return path_; }

 private:
  std::string path_;
  std::atomic<int> fd_;  ///< -1 once closed; close() may race accept()
};

/// Connect to a serve daemon's socket; throws Error on failure.  The
/// returned fd is owned by the caller (hand it to a LineStream).
int connect_unix(const std::string& path);

/// Run the accept loop for `server` on a socket at `path`: each
/// connection gets a Session, a reader pumping request lines in and a
/// writer pumping event lines out.  A finished connection's thread is
/// joined when the next connection is accepted.  Blocks until the server
/// shuts down (a shutdown hook closes the listener), then joins the
/// remaining connection threads.
void serve_unix(Server& server, const std::string& path);

}  // namespace swlb::serve
