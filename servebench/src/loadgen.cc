#include "loadgen.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

namespace servebench {
namespace {

/// Open-loop send cadence: lines due within one tick leave together.
constexpr std::int64_t kTickNs = 100'000;
/// A send loop that makes no progress for this long gives up.
constexpr std::int64_t kStallTimeoutNs = 60'000'000'000;
constexpr std::int64_t kReplyTimeoutMs = 150'000;
constexpr std::size_t kMaxWrite = 1u << 20;
constexpr std::int64_t kScrapeEveryNs = 1'000'000'000;
/// Fixed socket send buffer. The bytes in flight between the generator
/// and the server set how long a line waits before the server reads it
/// when sending as fast as possible; a fixed buffer keeps that from
/// depending on the kernel's buffer autotuning from run to run.
constexpr int kSendBufferBytes = 1 << 20;

/// Owns one socket descriptor.
class Socket {
 public:
  Socket() = default;
  ~Socket() { Reset(); }
  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;

  int fd() const { return fd_; }
  bool valid() const { return fd_ >= 0; }
  void Reset(int fd = -1) {
    if (fd_ >= 0) ::close(fd_);
    fd_ = fd;
  }

 private:
  int fd_ = -1;
};

bool Connect(std::uint16_t port, bool nonblocking, Socket* socket,
             std::string* error) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    *error = std::string("socket: ") + std::strerror(errno);
    return false;
  }
  socket->Reset(fd);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    *error = "connect to port " + std::to_string(port) + ": " +
             std::strerror(errno);
    return false;
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  ::setsockopt(fd, SOL_SOCKET, SO_SNDBUF, &kSendBufferBytes,
               sizeof(kSendBufferBytes));
  if (nonblocking) ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL) | O_NONBLOCK);
  return true;
}

/// Reads whatever is available; returns bytes read, 0 on EOF, -1 when
/// nothing is available, -2 on error.
long ReadSome(int fd, std::string* into) {
  char buffer[65536];
  const ssize_t n = ::recv(fd, buffer, sizeof(buffer), 0);
  if (n > 0) {
    into->append(buffer, static_cast<std::size_t>(n));
    return n;
  }
  if (n == 0) return 0;
  return (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) ? -1 : -2;
}

bool SendAll(int fd, const std::string& text) {
  std::size_t done = 0;
  while (done < text.size()) {
    const ssize_t n =
        ::send(fd, text.data() + done, text.size() - done, MSG_NOSIGNAL);
    if (n > 0) {
      done += static_cast<std::size_t>(n);
    } else if (n < 0 && (errno == EAGAIN || errno == EINTR)) {
      pollfd pfd{fd, POLLOUT, 0};
      ::poll(&pfd, 1, 1000);
    } else {
      return false;
    }
  }
  return true;
}

/// The once-a-second PATTERNS and GET /metrics round trips, driven
/// without blocking the send loop.
class Scraper {
 public:
  Scraper(const GenConfig& config, int admin_fd, GenResult* result)
      : config_(config), admin_fd_(admin_fd), result_(result) {}

  bool idle() const { return !awaiting_patterns_ && !http_.valid(); }

  /// Starts the round trips that are due.
  bool Start(std::int64_t now, std::string* error) {
    if (!config_.scrape || now < next_ns_ || !idle()) return true;
    next_ns_ = now + kScrapeEveryNs;
    patterns_sent_ns_ = NowNs();
    if (!SendAll(admin_fd_, "PATTERNS\n")) {
      *error = "PATTERNS send failed";
      return false;
    }
    awaiting_patterns_ = true;
    if (config_.http_port != 0) {
      http_sent_ns_ = NowNs();
      if (!Connect(config_.http_port, /*nonblocking=*/true, &http_, error) ||
          !SendAll(http_.fd(), "GET /metrics HTTP/1.0\r\n\r\n")) {
        return false;
      }
      response_.clear();
    }
    return true;
  }

  /// Poll entries for the replies still outstanding.
  void AddPollFds(std::vector<pollfd>* fds) const {
    if (awaiting_patterns_) fds->push_back(pollfd{admin_fd_, POLLIN, 0});
    if (http_.valid()) fds->push_back(pollfd{http_.fd(), POLLIN, 0});
  }

  /// Reads available replies and records finished round trips.
  bool Service(std::string* error) {
    if (awaiting_patterns_) {
      const long n = ReadSome(admin_fd_, &admin_buffer_);
      if (n == 0 || n == -2) {
        *error = "admin connection closed during PATTERNS";
        return false;
      }
      const std::size_t newline = admin_buffer_.find('\n');
      if (newline != std::string::npos) {
        const std::int64_t done = NowNs();
        if (admin_buffer_.compare(0, 1, "{") != 0) {
          *error = "PATTERNS reply: " + admin_buffer_.substr(0, newline);
          return false;
        }
        result_->patterns_ms.push_back(
            static_cast<double>(done - patterns_sent_ns_) / 1e6);
        if (config_.spans != nullptr) {
          config_.spans->Add("mine", "patterns_round_trip", patterns_sent_ns_,
                             done, newline + 1);
        }
        admin_buffer_.erase(0, newline + 1);
        awaiting_patterns_ = false;
      }
    }
    if (http_.valid()) {
      long n = 0;
      while ((n = ReadSome(http_.fd(), &response_)) > 0) {
      }
      if (n == -2) {
        *error = "GET /metrics failed";
        return false;
      }
      if (n == 0) {  // the server closes after one response
        const std::int64_t done = NowNs();
        const std::size_t head = response_.find("\r\n\r\n");
        if (response_.compare(0, 12, "HTTP/1.1 200") != 0 ||
            head == std::string::npos) {
          *error = "GET /metrics: " + response_.substr(0, 40);
          return false;
        }
        const double body = static_cast<double>(response_.size() - head - 4);
        result_->scrape_ms.push_back(
            static_cast<double>(done - http_sent_ns_) / 1e6);
        result_->scrape_bytes.push_back(body);
        if (config_.spans != nullptr) {
          config_.spans->Add("obs", "metrics_scrape", http_sent_ns_, done,
                             static_cast<std::uint64_t>(body));
        }
        http_.Reset();
      }
    }
    return true;
  }

 private:
  const GenConfig& config_;
  const int admin_fd_;
  GenResult* result_;
  std::int64_t next_ns_ = 0;
  bool awaiting_patterns_ = false;
  std::int64_t patterns_sent_ns_ = 0;
  std::string admin_buffer_;
  Socket http_;
  std::int64_t http_sent_ns_ = 0;
  std::string response_;
};

}  // namespace

GenResult RunGenerator(const Input& input, const GenConfig& config) {
  GenResult result;
  const std::int64_t cpu_start = ThreadCpuNs();
  Socket data[2];
  Socket admin;
  std::string error;
  if (!Connect(config.data_port, true, &data[0], &error) ||
      !Connect(config.data_port, true, &data[1], &error) ||
      !Connect(config.admin_port, true, &admin, &error)) {
    result.error = error;
    return result;
  }
  Scraper scraper(config, admin.fd(), &result);

  const std::uint64_t total_lines = input.num_lines;
  std::size_t next_line[2] = {0, 0};
  std::uint64_t sent[2] = {0, 0};
  const std::uint64_t total_bytes[2] = {input.conns[0].text.size(),
                                        input.conns[1].text.size()};
  const bool open_loop = config.rate_lps > 0.0;
  const double ns_per_line = open_loop ? 1e9 / config.rate_lps : 0.0;

  result.start_ns = NowNs();
  std::int64_t last_progress = result.start_ns;
  std::int64_t stall_ns = 0;  // current run of waits without progress
  std::vector<pollfd> fds;
  while (true) {
    const std::int64_t now = NowNs();
    const std::uint64_t due =
        open_loop ? std::min<std::uint64_t>(
                        total_lines,
                        static_cast<std::uint64_t>(
                            static_cast<double>(now - result.start_ns) /
                            ns_per_line) +
                            1)
                  : total_lines;
    bool blocked[2] = {false, false};
    const std::int64_t progress_before = last_progress;
    for (int c = 0; c < 2; ++c) {
      const ConnStream& conn = input.conns[c];
      while (next_line[c] < conn.line_global.size() &&
             conn.line_global[next_line[c]] < due) {
        ++next_line[c];
      }
      const std::uint64_t target =
          next_line[c] == 0 ? 0 : conn.line_end[next_line[c] - 1];
      while (sent[c] < target) {
        const std::int64_t begin = NowNs();
        const ssize_t n = ::send(
            data[c].fd(), conn.text.data() + sent[c],
            std::min<std::uint64_t>(target - sent[c], kMaxWrite),
            MSG_NOSIGNAL);
        if (n > 0) {
          const std::int64_t done = NowNs();
          sent[c] += static_cast<std::uint64_t>(n);
          result.writes[c].push_back(WriteMark{sent[c], done});
          if (config.spans != nullptr) {
            config.spans->Add("net", "send", begin, done,
                              static_cast<std::uint64_t>(n));
          }
          last_progress = done;
        } else if (n < 0 && errno == EINTR) {
          continue;
        } else if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
          blocked[c] = true;
          break;
        } else {
          result.error = std::string("data send: ") + std::strerror(errno);
          return result;
        }
      }
    }
    if (last_progress != progress_before && stall_ns > 0) {
      result.stall_ms.push_back(static_cast<double>(stall_ns) / 1e6);
      stall_ns = 0;
    }
    if (sent[0] == total_bytes[0] && sent[1] == total_bytes[1]) break;
    if (!scraper.Start(now, &error)) {
      result.error = error;
      return result;
    }

    // Wait: for a full socket to drain, for the next due line, or for a
    // scrape reply.
    fds.clear();
    for (int c = 0; c < 2; ++c) {
      if (blocked[c]) fds.push_back(pollfd{data[c].fd(), POLLOUT, 0});
    }
    const bool any_blocked = !fds.empty();
    scraper.AddPollFds(&fds);
    std::int64_t timeout_ns = 50'000'000;
    if (open_loop) {
      const auto next_due = result.start_ns + static_cast<std::int64_t>(
                                                  static_cast<double>(due) *
                                                  ns_per_line);
      timeout_ns = std::max(kTickNs, next_due - NowNs());
    }
    const timespec timeout{static_cast<time_t>(timeout_ns / 1'000'000'000),
                           static_cast<long>(timeout_ns % 1'000'000'000)};
    const std::int64_t wait_start = NowNs();
    ::ppoll(fds.data(), fds.size(), &timeout, nullptr);
    const std::int64_t wait_end = NowNs();
    if (any_blocked) {
      result.send_wait_ns += wait_end - wait_start;
      stall_ns += wait_end - wait_start;
    }
    if (!scraper.Service(&error)) {
      result.error = error;
      return result;
    }
    if (wait_end - last_progress > kStallTimeoutNs) {
      result.error = "no send progress for 60 s (server stalled or died)";
      return result;
    }
  }
  result.all_sent_ns = NowNs();
  result.bytes_sent = total_bytes[0] + total_bytes[1];
  result.lines_sent = input.conns[0].line_end.size() +
                      input.conns[1].line_end.size();
  for (Socket& socket : data) ::shutdown(socket.fd(), SHUT_WR);

  // Let outstanding scrapes finish so QUIESCE is the only admin request
  // in flight.
  const std::int64_t drain_deadline = NowNs() + kReplyTimeoutMs * 1'000'000;
  while (!scraper.idle()) {
    fds.clear();
    scraper.AddPollFds(&fds);
    ::poll(fds.data(), fds.size(), 100);
    if (!scraper.Service(&error) || NowNs() > drain_deadline) {
      result.error = error.empty() ? "scrape reply timed out" : error;
      return result;
    }
  }

  result.quiesce_sent_ns = NowNs();
  if (!SendAll(admin.fd(), "QUIESCE\n")) {
    result.error = "QUIESCE send failed";
    return result;
  }
  std::string reply;
  while (reply.find('\n') == std::string::npos) {
    pollfd pfd{admin.fd(), POLLIN, 0};
    if (::poll(&pfd, 1, static_cast<int>(kReplyTimeoutMs)) <= 0) {
      result.error = "QUIESCE reply timed out";
      return result;
    }
    const long n = ReadSome(admin.fd(), &reply);
    if (n == 0 || n == -2) {
      result.error = "admin connection closed before the QUIESCE reply";
      return result;
    }
  }
  result.quiesce_reply_ns = NowNs();
  reply.resize(reply.find('\n'));
  if (config.spans != nullptr) {
    config.spans->Add("net", "quiesce_round_trip", result.quiesce_sent_ns,
                      result.quiesce_reply_ns);
  }
  if (reply.compare(0, 2, "OK") != 0) {
    result.error = "QUIESCE reply: " + reply;
    return result;
  }
  result.cpu_ns = ThreadCpuNs() - cpu_start;
  result.ok = true;
  return result;
}

std::int64_t LineSentNs(const Input& input, const GenResult& gen, int conn,
                        std::uint32_t line) {
  const std::uint64_t end = input.conns[conn].line_end[line];
  const std::vector<WriteMark>& writes = gen.writes[conn];
  const auto it = std::lower_bound(
      writes.begin(), writes.end(), end,
      [](const WriteMark& mark, std::uint64_t value) {
        return mark.end < value;
      });
  return it == writes.end() ? gen.all_sent_ns : it->t_ns;
}

}  // namespace servebench
