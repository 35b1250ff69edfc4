// ScanAhead: the one scan thread behind a LogServer's poll loop.
//
// On a bulk stream, parsing CLF lines is about half of the poll loop's
// work. ScanAhead runs that half (ClfParser::Scan) on its own thread,
// one chunk at a time in submission order, while the poll loop reads
// sockets and offers the chunk before. The poll loop keeps everything
// stateful: it commits each chunk on the connection's parser (stats,
// line numbers, reject reports) and offers its records, so the engine
// still has exactly one producer. A finished chunk makes wake_fd()
// readable, which the poll loop watches next to its sockets.

#ifndef WUM_NET_SCAN_AHEAD_H_
#define WUM_NET_SCAN_AHEAD_H_

#include <condition_variable>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "wum/clf/clf_parser.h"
#include "wum/clf/log_record.h"
#include "wum/common/result.h"
#include "wum/net/socket.h"

namespace wum::net {

/// One chunk on its way through the scan thread: the owned bytes, and
/// the refs (viewing into them) and rejects ClfParser::Scan found. The
/// poll loop owns a job except between Submit and the Wait (or Done)
/// that sees it scanned; its buffers are reused chunk after chunk.
struct ScanJob {
  std::string bytes;
  std::vector<LogRecordRef> refs;
  ClfParser::ChunkScan scan;

 private:
  friend class ScanAhead;
  bool scanned = false;  // guarded by ScanAhead::mu_
};

class LogServerTestPeer;

class ScanAhead {
 public:
  ScanAhead() = default;
  ~ScanAhead() { Stop(); }
  ScanAhead(const ScanAhead&) = delete;
  ScanAhead& operator=(const ScanAhead&) = delete;

  /// Creates the wake pipe and starts the scan thread; a no-op once it
  /// succeeded. Call before taking a chunk's bytes, so a failure leaves
  /// them where they were.
  Status Start();

  /// Queues `job` (its bytes filled) for the scan thread. Start() must
  /// have succeeded.
  void Submit(ScanJob* job);

  /// True once the scan thread finished `job`.
  bool Done(const ScanJob* job);

  /// Blocks until the scan thread finished `job`.
  void Wait(const ScanJob* job);

  /// Readable once a job finished since the last DrainWake(); -1 until
  /// Start().
  int wake_fd() const { return wake_read_.valid() ? wake_read_.get() : -1; }
  void DrainWake();

  /// Joins the thread once it has finished the job at hand; jobs still
  /// queued are never scanned. Idempotent.
  void Stop();

 private:
  friend class LogServerTestPeer;  // sets before_scan_ in tests

  void Run();

  /// Runs on the scan thread before each chunk (tests hold a chunk in
  /// flight with it); null in production.
  std::function<void()> before_scan_;
  Fd wake_read_;
  Fd wake_write_;
  std::mutex mu_;
  std::condition_variable work_cv_;
  std::condition_variable done_cv_;
  std::vector<ScanJob*> queue_;  // guarded by mu_
  bool stop_ = false;            // guarded by mu_
  std::thread thread_;           // last: it uses every member above
};

}  // namespace wum::net

#endif  // WUM_NET_SCAN_AHEAD_H_
