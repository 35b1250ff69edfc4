// IngestDriver: the one parse→batch→offer→checkpoint loop.
//
// Both front ends — websra_sessionize reading a file and websra_serve
// reading sockets — feed a sharded StreamEngine through this driver, so
// batching and checkpoint cadence behave identically no matter how the
// bytes arrived. The cadence logic is deliberately exact: offers are
// chopped at every checkpoint_every_records boundary so a checkpoint's
// records_seen always lands on a cadence multiple, keeping resume
// offsets stable across front ends and batch sizes.

#ifndef WUM_INGEST_DRIVER_H_
#define WUM_INGEST_DRIVER_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "wum/clf/clf_parser.h"
#include "wum/common/result.h"
#include "wum/ingest/byte_source.h"
#include "wum/stream/engine.h"

namespace wum::ingest {

/// Takes one chunk's parsed refs; they are valid only during the call.
using RefConsumer = std::function<Status(std::span<const LogRecordRef>)>;

/// One pass over the file at `path` that never holds the log: parses
/// each line-aligned chunk with `parser` and hands its refs to `consume`
/// before reading the next (IngestDriver::Pump's loop, over a file).
Status ParseFile(const std::string& path, ClfParser* parser,
                 const RefConsumer& consume);

struct IngestOptions {
  /// Max records per StreamEngine::OfferBatch call. The engine copies a
  /// batch per shard per call, so bigger batches amortize the hand-off;
  /// 2048 is the tuned default from the zero-copy ingest work.
  std::size_t batch_records = 2048;

  /// Durable checkpoint directory; empty disables checkpointing.
  std::string checkpoint_dir;

  /// Take a checkpoint every N offered records (0 = only on explicit
  /// CheckpointNow). Requires checkpoint_dir.
  std::uint64_t checkpoint_every_records = 0;

  /// Captures caller sink state (e.g. committed journal length) at each
  /// checkpoint barrier; stored in the manifest.
  StreamEngine::SinkStateFn sink_state;

  Status Validate() const;
};

/// Owns the offer loop in front of a StreamEngine. Producer-thread only,
/// like the engine itself.
class IngestDriver {
 public:
  /// `engine` must outlive the driver.
  static Result<IngestDriver> Create(StreamEngine* engine,
                                     IngestOptions options);

  /// Drains `source` as far as it will go right now: pulls chunks,
  /// parses each with `parser`, offers the records. Returns once the
  /// source has no chunk available (end of file, or a socket buffer
  /// waiting on more bytes). Checkpoint cadence applies throughout.
  Status Pump(ByteSource* source, ClfParser* parser);

  /// Offers already-parsed records with batch chopping and checkpoint
  /// cadence. The refs need only stay valid for the duration of the
  /// call.
  Status OfferRefs(std::span<const LogRecordRef> refs);

  /// Takes a checkpoint immediately (admin CHECKPOINT command, shutdown
  /// paths). Fails when no checkpoint_dir is configured.
  Status CheckpointNow();

  bool checkpointing() const { return !options_.checkpoint_dir.empty(); }

  /// Records passed to the engine by this driver (replay-skipped records
  /// included — this mirrors StreamEngine::records_seen growth).
  std::uint64_t records_offered() const { return records_offered_; }

 private:
  IngestDriver(StreamEngine* engine, IngestOptions options)
      : engine_(engine), options_(std::move(options)) {}

  StreamEngine* engine_;
  IngestOptions options_;
  std::uint64_t records_offered_ = 0;
  std::vector<LogRecordRef> refs_;  // Pump's reusable parse buffer.
};

}  // namespace wum::ingest

#endif  // WUM_INGEST_DRIVER_H_
