// Client-side helpers the net tests share (what websra_logclient does,
// in-process). Every read has a deadline, so a server that never
// answers fails the test instead of hanging it.

#ifndef WUM_TESTS_NET_TEST_CLIENT_H_
#define WUM_TESTS_NET_TEST_CLIENT_H_

#include <poll.h>

#include <cerrno>
#include <chrono>
#include <cstdint>
#include <string>

#include "wum/common/result.h"
#include "wum/net/socket.h"

namespace wum::net {

/// How long ReadLine waits for a full line by default: far above any
/// reply the tests expect, far below ctest's timeout.
inline constexpr std::chrono::milliseconds kReadLineDeadline{30000};

/// Reads one '\n'-terminated line from `socket`, without the '\n'.
/// IoError when the peer closes mid-line; DeadlineExceeded when no full
/// line arrives within `deadline`.
inline Result<std::string> ReadLine(
    const Fd& socket, std::chrono::milliseconds deadline = kReadLineDeadline) {
  const auto until = std::chrono::steady_clock::now() + deadline;
  std::string line;
  char byte = 0;
  while (true) {
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
        until - std::chrono::steady_clock::now());
    if (left.count() <= 0) {
      return Status::DeadlineExceeded("no full line within the deadline: " +
                                      line);
    }
    pollfd readable{socket.get(), POLLIN, 0};
    const int ready = ::poll(&readable, 1, static_cast<int>(left.count()));
    if (ready < 0 && errno != EINTR) return Status::IoError("poll failed");
    if (ready <= 0) continue;
    WUM_ASSIGN_OR_RETURN(const ReadResult read, ReadSome(socket, &byte, 1));
    if (read.eof) {
      return Status::IoError("connection closed mid-line: " + line);
    }
    if (read.bytes == 0) continue;
    if (byte == '\n') return line;
    line.push_back(byte);
  }
}

/// Sends one admin command and returns the first reply line.
inline Result<std::string> AdminCommand(std::uint16_t admin_port,
                                        const std::string& command) {
  WUM_ASSIGN_OR_RETURN(Fd socket, ConnectTcp("127.0.0.1", admin_port));
  WUM_RETURN_NOT_OK(WriteAll(socket, command + "\n"));
  return ReadLine(socket);
}

}  // namespace wum::net

#endif  // WUM_TESTS_NET_TEST_CLIENT_H_
