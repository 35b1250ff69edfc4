#include "wum/ingest/driver.h"

#include <algorithm>
#include <utility>

namespace wum::ingest {

namespace {

/// The one read loop of every front end: parses each chunk `source` has
/// right now into `*refs` and hands them to `consume`.
Status ParseEachChunk(ByteSource* source, ClfParser* parser,
                      std::vector<LogRecordRef>* refs,
                      const RefConsumer& consume) {
  while (true) {
    WUM_ASSIGN_OR_RETURN(std::optional<std::string_view> chunk,
                         source->Next());
    if (!chunk.has_value()) return Status::OK();
    refs->clear();
    WUM_RETURN_NOT_OK(parser->ParseChunk(*chunk, refs));
    WUM_RETURN_NOT_OK(consume(*refs));
  }
}

}  // namespace

Status ParseFile(const std::string& path, ClfParser* parser,
                 const RefConsumer& consume) {
  WUM_ASSIGN_OR_RETURN(FileSource source, FileSource::Open(path));
  std::vector<LogRecordRef> refs;
  return ParseEachChunk(&source, parser, &refs, consume);
}

Status IngestOptions::Validate() const {
  if (batch_records == 0) {
    return Status::InvalidArgument("IngestOptions: batch_records must be >= 1");
  }
  if (checkpoint_every_records > 0 && checkpoint_dir.empty()) {
    return Status::InvalidArgument(
        "IngestOptions: checkpoint_every_records requires checkpoint_dir");
  }
  return Status::OK();
}

Result<IngestDriver> IngestDriver::Create(StreamEngine* engine,
                                          IngestOptions options) {
  if (engine == nullptr) {
    return Status::InvalidArgument("IngestDriver: engine must not be null");
  }
  WUM_RETURN_NOT_OK(options.Validate());
  return IngestDriver(engine, std::move(options));
}

Status IngestDriver::Pump(ByteSource* source, ClfParser* parser) {
  return ParseEachChunk(source, parser, &refs_,
                        [this](std::span<const LogRecordRef> refs) {
                          return OfferRefs(refs);
                        });
}

Status IngestDriver::OfferRefs(std::span<const LogRecordRef> refs) {
  const std::uint64_t cadence = options_.checkpoint_every_records;
  std::size_t offset = 0;
  while (offset < refs.size()) {
    std::size_t n = std::min(options_.batch_records, refs.size() - offset);
    if (cadence > 0) {
      // Chop at the cadence boundary so the checkpoint lands exactly on
      // a multiple of the cadence.
      n = std::min<std::size_t>(n, cadence - (records_offered_ % cadence));
    }
    WUM_RETURN_NOT_OK(engine_->OfferBatch(refs.subspan(offset, n)));
    offset += n;
    records_offered_ += n;
    if (cadence > 0 && records_offered_ % cadence == 0) {
      WUM_RETURN_NOT_OK(CheckpointNow());
    }
  }
  return Status::OK();
}

Status IngestDriver::CheckpointNow() {
  if (!checkpointing()) {
    return Status::FailedPrecondition(
        "IngestDriver: no checkpoint_dir configured");
  }
  WUM_RETURN_NOT_OK(
      engine_->Checkpoint(options_.checkpoint_dir, options_.sink_state));
  return Status::OK();
}

}  // namespace wum::ingest
