#include "wum/net/scan_ahead.h"

#if defined(__unix__) || defined(__APPLE__)
#include <pthread.h>
#include <unistd.h>
#endif

#include <utility>

namespace wum::net {

namespace {
// No line ParseClfLineRef accepts is this short: the timestamp alone
// takes 28 bytes and the quoted request 16.
constexpr std::size_t kMinRecordBytes = 32;
}  // namespace

Status ScanAhead::Start() {
  if (thread_.joinable()) return Status::OK();
  WUM_ASSIGN_OR_RETURN(auto pipe, MakePipe());
  // A full pipe already wakes the poll loop, so a wake write that would
  // block is simply dropped.
  WUM_RETURN_NOT_OK(SetNonBlocking(pipe.first, true));
  WUM_RETURN_NOT_OK(SetNonBlocking(pipe.second, true));
  wake_read_ = std::move(pipe.first);
  wake_write_ = std::move(pipe.second);
  thread_ = std::thread([this] { Run(); });
  return Status::OK();
}

void ScanAhead::Submit(ScanJob* job) {
  // Room for every record the chunk can hold, reserved here on the poll
  // thread, so the scan thread allocates only to report a reject.
  job->refs.reserve(job->bytes.size() / kMinRecordBytes + 1);
  {
    std::lock_guard<std::mutex> lock(mu_);
    job->scanned = false;
    queue_.push_back(job);
  }
  work_cv_.notify_one();
}

bool ScanAhead::Done(const ScanJob* job) {
  std::lock_guard<std::mutex> lock(mu_);
  return job->scanned;
}

void ScanAhead::Wait(const ScanJob* job) {
  std::unique_lock<std::mutex> lock(mu_);
  done_cv_.wait(lock, [job] { return job->scanned; });
}

void ScanAhead::DrainWake() {
  char drain[64];
  while (true) {
    const Result<ReadResult> read = ReadSome(wake_read_, drain, sizeof(drain));
    if (!read.ok() || read->bytes < sizeof(drain)) return;
  }
}

void ScanAhead::Stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  work_cv_.notify_one();
  if (thread_.joinable()) thread_.join();
}

void ScanAhead::Run() {
#if defined(__linux__)
  pthread_setname_np(pthread_self(), "websra-scan");
#endif
  // Jobs are taken in batches by swapping vectors, so a steady stream
  // of chunks allocates nothing here.
  std::vector<ScanJob*> batch;
  while (true) {
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (stop_) return;
      batch.swap(queue_);
    }
    for (ScanJob* job : batch) {
      if (before_scan_ != nullptr) before_scan_();
      job->refs.clear();
      ClfParser::Scan(job->bytes, &job->refs, &job->scan);
      {
        std::lock_guard<std::mutex> lock(mu_);
        job->scanned = true;
        if (stop_) return;
      }
      done_cv_.notify_all();
#if defined(__unix__) || defined(__APPLE__)
      const char byte = 1;
      [[maybe_unused]] const ssize_t n = ::write(wake_write_.get(), &byte, 1);
#endif
    }
    batch.clear();
  }
}

}  // namespace wum::net
