// Dead-letter channel for the fault-tolerant streaming layer: a bounded,
// thread-safe quarantine for the bad data a degraded engine refuses to
// die for — malformed CLF lines, records the sessionizer rejected,
// sessions the sink refused with a data error, the open session state a
// failed flush lost, and records shed under overload. An infrastructure
// error stops the engine instead (see IsShardFatal).
//
// The queue keeps the *earliest* letters when it overflows (the first
// failures are the diagnostic ones) and counts what it had to drop, so
// accounting stays exact even under a quarantine storm. See
// docs/robustness.md for the schema and the accounting invariant.

#ifndef WUM_STREAM_DEAD_LETTER_H_
#define WUM_STREAM_DEAD_LETTER_H_

#include <cstdint>
#include <deque>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "wum/clf/log_record.h"
#include "wum/common/status.h"

namespace wum {

/// One quarantined input plus the context needed to triage or replay it.
struct DeadLetter {
  /// Which stage of the processing chain refused the input.
  enum class Stage {
    kParse,      // malformed CLF line (record absent, `detail` = raw line)
    kRecord,     // the sessionizer rejected the record in-shard
    kEmit,       // sink refused a completed session with a data error
    kShardDead,  // open session state lost when a shard's flush failed
                 // (older checkpoints also hold it for records a failed
                 // shard dropped)
  };

  Stage stage = Stage::kRecord;
  /// Shard that quarantined the input; 0 for pre-engine (parse) letters.
  std::size_t shard = 0;
  /// The failure that caused the quarantine (never OK).
  Status reason;
  /// The offending record, for record-granularity stages.
  std::optional<LogRecord> record;
  /// Stage-specific context: the raw line (kParse), or the user key of
  /// the lost session (kEmit).
  std::string detail;
  /// How many accepted records this letter accounts for: 1 for
  /// record-granularity letters, the session length for kEmit. Summing
  /// this across letters keeps per-record accounting exact even when a
  /// whole session is lost at once.
  std::uint64_t records_covered = 1;
};

/// "kParse" / "kRecord" / "kEmit" / "kShardDead", for reports and logs.
std::string_view DeadLetterStageName(DeadLetter::Stage stage);

/// Point-in-time copy of a DeadLetterQueue, as captured by Snapshot and
/// persisted by the checkpoint layer (wum/ckpt). Restore() reinstates
/// it wholesale so resumed accounting matches the checkpointed run.
struct DeadLetterQueueSnapshot {
  std::vector<DeadLetter> letters;
  std::uint64_t total_offered = 0;
  std::uint64_t records_covered = 0;
  std::uint64_t overflow_dropped = 0;
};

/// Bounded, thread-safe FIFO of DeadLetters. Producers (shard workers,
/// the parser, the emit path) call Offer concurrently; the caller drains
/// from any thread, during or after the run. When full, the newest
/// letter is dropped (the earliest failures are kept) and counted in
/// overflow_dropped() — total_offered()/records_covered() still include
/// it, so accounting never depends on the retention capacity.
class DeadLetterQueue {
 public:
  explicit DeadLetterQueue(std::size_t capacity = 1024);

  DeadLetterQueue(const DeadLetterQueue&) = delete;
  DeadLetterQueue& operator=(const DeadLetterQueue&) = delete;

  /// Quarantines one letter. Returns false (counting the drop) when the
  /// queue is at capacity.
  bool Offer(DeadLetter letter);

  /// Removes and returns every retained letter in arrival order.
  std::vector<DeadLetter> Drain();

  /// Letters currently retained.
  std::size_t size() const;

  /// Every Offer ever made, including overflow-dropped ones.
  std::uint64_t total_offered() const;

  /// Sum of `records_covered` across every Offer ever made.
  std::uint64_t records_covered() const;

  /// Offers refused because the queue was full.
  std::uint64_t overflow_dropped() const;

  /// Copies the retained letters and every counter, without draining.
  /// Taken by StreamEngine::Checkpoint while the engine is quiescent.
  DeadLetterQueueSnapshot Snapshot() const;

  /// Replaces the queue's contents and counters with `snapshot`. The
  /// letters were accepted once already, so capacity is not re-applied.
  void Restore(DeadLetterQueueSnapshot snapshot);

 private:
  const std::size_t capacity_;
  mutable std::mutex mutex_;
  std::deque<DeadLetter> letters_;
  std::uint64_t total_offered_ = 0;
  std::uint64_t records_covered_ = 0;
  std::uint64_t overflow_dropped_ = 0;
};

}  // namespace wum

#endif  // WUM_STREAM_DEAD_LETTER_H_
