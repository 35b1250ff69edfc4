#include "wum/stream/engine.h"

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "wum/ckpt/checkpoint.h"
#include "wum/mine/path_miner.h"
#include "wum/obs/log.h"
#include "wum/stream/fault.h"
#include "wum/stream/heuristic_registry.h"
#include "wum/topology/web_graph.h"

namespace wum {

std::string EngineStatsToString(const EngineStats& stats) {
  return "records_in=" + std::to_string(stats.records_in) +
         " dropped=" + std::to_string(stats.records_dropped) +
         " sessions=" + std::to_string(stats.sessions_emitted) +
         " blocked_enqueues=" + std::to_string(stats.blocked_enqueues) +
         " queue_high_watermark=" +
         std::to_string(stats.queue_high_watermark) +
         " dead_letters=" + std::to_string(stats.dead_letters) +
         " shed=" + std::to_string(stats.records_shed);
}

namespace {

/// The engine's failure rule (see IsShardFatal): does `status`, from a
/// sessionizer, the sink or a flush, stop the engine under `policy`?
/// When it does not, it becomes a dead letter.
bool StopsEngine(ErrorPolicy policy, const Status& status) {
  return policy == ErrorPolicy::kFailFast || IsShardFatal(status);
}

/// A run holds at most this many requests (unless one session alone is
/// larger): a batch that closes many sessions reaches the sink in runs
/// of this size rather than all at its end.
constexpr std::size_t kRunMaxRequests = 1024;

/// The sessions one shard closed since its last delivery, flat: user
/// keys in one byte arena, requests in one vector, and one span of each
/// per session. A run holds no heap object per session and keeps its
/// capacity from one run to the next.
struct SessionRun {
  struct Entry {
    std::uint32_t key_offset = 0;
    std::uint32_t key_length = 0;
    std::uint32_t request_offset = 0;
    std::uint32_t request_length = 0;
  };

  std::string keys;
  std::vector<PageRequest> requests;
  std::vector<Entry> sessions;

  void Append(std::string_view user_key, const Session& session) {
    sessions.push_back({static_cast<std::uint32_t>(keys.size()),
                        static_cast<std::uint32_t>(user_key.size()),
                        static_cast<std::uint32_t>(requests.size()),
                        static_cast<std::uint32_t>(session.size())});
    keys.append(user_key);
    requests.insert(requests.end(), session.requests.begin(),
                    session.requests.end());
  }
  std::string_view KeyOf(const Entry& entry) const {
    return std::string_view(keys).substr(entry.key_offset, entry.key_length);
  }
  std::span<const PageRequest> RequestsOf(const Entry& entry) const {
    return std::span<const PageRequest>(requests).subspan(
        entry.request_offset, entry.request_length);
  }
  bool empty() const { return sessions.empty(); }
  void clear() {
    keys.clear();
    requests.clear();
    sessions.clear();
  }
};

/// A session of a run that the sink refused without stopping the engine.
struct Refusal {
  std::size_t index = 0;  // into SessionRun::sessions
  Status status;
};

}  // namespace

/// Funnels every shard's runs into the caller's sink one run at a time,
/// and holds the engine's sticky error: the first sink failure that
/// stops the engine, or the first record-path failure a shard reports
/// through Stop. Once it is set no later session reaches the sink, and
/// OfferBatch, Checkpoint and Finish return it. A sink failure that
/// does not stop the engine (a data error under kDegrade) sticks
/// nowhere: ShardEmit dead-letters that session.
class StreamEngine::EmitHub {
 public:
  EmitHub(SessionSink* sink, ErrorPolicy policy)
      : sink_(sink), policy_(policy) {}

  /// Hands `run`'s sessions to the sink in order under one lock. A
  /// refusal that does not stop the engine is appended to `*refused`
  /// and delivery goes on. Stops at the first session that meets the
  /// sticky error, or sets it, and returns it; `*reached` counts the
  /// sessions before that one (all of them on OK).
  Status DeliverRun(const SessionRun& run, std::size_t* reached,
                    std::vector<Refusal>* refused) {
    std::lock_guard<std::mutex> lock(mutex_);
    for (std::size_t i = 0; i < run.sessions.size(); ++i) {
      *reached = i;
      if (!first_error_.ok()) return first_error_;
      const SessionRun::Entry& entry = run.sessions[i];
      const std::span<const PageRequest> requests = run.RequestsOf(entry);
      key_.assign(run.KeyOf(entry));
      Session session;
      session.requests.assign(requests.begin(), requests.end());
      Status status = sink_->Accept(key_, std::move(session));
      if (status.ok()) continue;
      if (StopsEngine(policy_, status)) {
        first_error_ = status;
        return status;
      }
      refused->push_back({i, std::move(status)});
    }
    *reached = run.sessions.size();
    return Status::OK();
  }

  /// Makes `status` the sticky error unless one is already set.
  void Stop(const Status& status) {
    std::lock_guard<std::mutex> lock(mutex_);
    if (first_error_.ok()) first_error_ = status;
  }

  Status first_error() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return first_error_;
  }

 private:
  mutable std::mutex mutex_;
  SessionSink* sink_;
  ErrorPolicy policy_;
  Status first_error_;
  /// The key of the session in delivery: SessionSink::Accept takes a
  /// std::string. Guarded by mutex_.
  std::string key_;
};

/// Per-shard emission front: collects the shard's closed sessions into
/// its run and delivers the run through the hub — at the end of every
/// drained batch, when the run would pass kRunMaxRequests, and after
/// the Finish flush. After each delivery, outside the hub lock, it
/// keeps the delivery counters that back EngineStats::sessions_emitted,
/// observes ingest-to-emit latency, mines each delivered session into
/// the shard's miner when mining is on, and — under kDegrade — turns a
/// session the sink refused with a data error into a dead letter, so
/// the record path above only sees the failures that stop the engine.
/// Draining thread only, apart from the counter accessors.
class StreamEngine::ShardEmit : public SessionSink {
 public:
  ShardEmit(StreamEngine* engine, Shard* shard, obs::Counter delivered_mirror)
      : engine_(engine), shard_(shard), delivered_mirror_(delivered_mirror) {}

  Status Accept(const std::string& user_key, Session session) override {
    return AcceptView(user_key, std::move(session));
  }
  /// Appends the session to the run (delivering the run first when it
  /// would pass kRunMaxRequests) and frees it. Returns only a status
  /// that stops the engine.
  Status AcceptView(std::string_view user_key, Session session) override;

  /// Delivers the run, if any, and empties it. Returns only a status
  /// that stops the engine.
  Status Deliver();

  /// Sessions successfully delivered to the caller's sink.
  std::uint64_t delivered_sessions() const {
    return delivered_sessions_.load(std::memory_order_relaxed);
  }
  /// Records inside those delivered sessions.
  std::uint64_t delivered_records() const {
    return delivered_records_.load(std::memory_order_relaxed);
  }
  /// Records inside sessions dead-lettered at this stage (kEmit).
  std::uint64_t quarantined_records() const {
    return quarantined_records_.load(std::memory_order_relaxed);
  }

  /// Reinstates checkpointed delivery counters (resume path; runs before
  /// the shard's worker exists).
  void RestoreCounters(std::uint64_t sessions, std::uint64_t records,
                       std::uint64_t quarantined) {
    delivered_sessions_.store(sessions, std::memory_order_relaxed);
    delivered_records_.store(records, std::memory_order_relaxed);
    quarantined_records_.store(quarantined, std::memory_order_relaxed);
  }

 private:
  StreamEngine* engine_;
  Shard* shard_;
  obs::Counter delivered_mirror_;
  SessionRun run_;
  std::vector<Refusal> refused_;  // of the run in delivery
  std::vector<PageId> pages_;     // one delivered session's, for mining
  std::atomic<std::uint64_t> delivered_sessions_{0};
  std::atomic<std::uint64_t> delivered_records_{0};
  std::atomic<std::uint64_t> quarantined_records_{0};
};

/// One worker shard. Members are declared upstream-last so destruction
/// joins the driver before tearing down the chain it feeds.
struct StreamEngine::Shard {
  std::size_t index = 0;

  std::atomic<std::uint64_t> offered{0};   // accepted by Offer
  std::atomic<std::uint64_t> filtered{0};  // of those, dropped by a filter
  std::atomic<std::uint64_t> dead_letters{0};  // records quarantined
  std::atomic<std::uint64_t> shed{0};          // records shed by Offer

  obs::Counter records_in;  // mirrors `offered` when metrics are enabled
  obs::Counter filtered_mirror;
  obs::Counter dead_letter_mirror;
  obs::Counter shed_mirror;

  // Offer-time stamp (NowMicros) of the batch being drained; 0 between
  // batches and during the Finish flush, so stale stamps never pollute
  // the latency histogram. Written by the driver's on_batch_start/
  // on_batch_drained hooks and read by ShardEmit::Deliver, both on the
  // draining thread: the worker, or the producer for an inline drain
  // and the Finish flush — hence the atomic.
  std::atomic<double> batch_accept_stamp_us{0.0};
  // Ingest-to-emit latency: batch accept at the engine's front door to
  // delivery of the session's run at the emit hub.
  obs::Histogram ingest_to_emit_latency_us;

  // Flush/finish failure of this shard, for ShardHealth.
  std::mutex health_mutex;
  Status finish_error;

  std::unique_ptr<ShardEmit> emit;             // -> hub -> sink
  std::unique_ptr<SessionizeSink> sessionize;  // -> emit
  std::unique_ptr<ThreadedDriver> driver;      // -> sessionize
};

Status StreamEngine::ShardEmit::AcceptView(std::string_view user_key,
                                           Session session) {
  if (!run_.empty() &&
      run_.requests.size() + session.size() > kRunMaxRequests) {
    WUM_RETURN_NOT_OK(Deliver());
  }
  run_.Append(user_key, session);
  return Status::OK();
}

Status StreamEngine::ShardEmit::Deliver() {
  if (run_.empty()) return Status::OK();
  std::size_t reached = 0;
  refused_.clear();
  const Status status = engine_->emit_->DeliverRun(run_, &reached, &refused_);
  // Outside the hub lock: time, mine and count what the sink took, and
  // quarantine what it refused. The clock is read before mining, so the
  // latency never includes it.
  const std::uint64_t sessions = reached - refused_.size();
  if (sessions > 0 && shard_->ingest_to_emit_latency_us.enabled()) {
    const double stamp =
        shard_->batch_accept_stamp_us.load(std::memory_order_relaxed);
    if (stamp > 0.0) {
      const double latency = obs::internal::NowMicros() - stamp;
      for (std::uint64_t i = 0; i < sessions; ++i) {
        shard_->ingest_to_emit_latency_us.Observe(latency);
      }
    }
  }
  mine::MiningSink* mining = engine_->mining_.get();
  std::uint64_t records = 0;
  std::vector<Refusal>::iterator refusal = refused_.begin();
  for (std::size_t i = 0; i < reached; ++i) {
    const SessionRun::Entry& entry = run_.sessions[i];
    if (refusal != refused_.end() && refusal->index == i) {
      // kDegrade, data error: the session is lost to the sink but not to
      // accounting — quarantine a letter covering its records.
      quarantined_records_.fetch_add(entry.request_length,
                                     std::memory_order_relaxed);
      DeadLetter letter;
      letter.stage = DeadLetter::Stage::kEmit;
      letter.shard = shard_->index;
      letter.reason = std::move(refusal->status);
      letter.detail = std::string(run_.KeyOf(entry));
      letter.records_covered = entry.request_length;
      engine_->Quarantine(*shard_, std::move(letter));
      ++refusal;
      continue;
    }
    records += entry.request_length;
    if (mining != nullptr) {
      pages_.clear();
      for (const PageRequest& request : run_.RequestsOf(entry)) {
        pages_.push_back(request.page);
      }
      mining->AddSession(shard_->index, pages_);
    }
  }
  run_.clear();
  if (sessions > 0) {
    delivered_sessions_.fetch_add(sessions, std::memory_order_relaxed);
    delivered_records_.fetch_add(records, std::memory_order_relaxed);
    delivered_mirror_.Increment(sessions);
  }
  return status;
}

Status EngineOptions::Validate() const {
  if (num_shards_ == 0) {
    return Status::InvalidArgument("num_shards must be >= 1");
  }
  if (queue_capacity_ == 0) {
    return Status::InvalidArgument("queue_capacity must be >= 1");
  }
  switch (selection_) {
    case Selection::kUnset:
      return Status::InvalidArgument(
          "choose a heuristic: use_heuristic(name) / use_duration / "
          "use_page_stay / use_navigation / use_smart_sra / use_custom");
    case Selection::kNamed: {
      const HeuristicRegistry::Entry* entry =
          HeuristicRegistry::Default().Find(heuristic_name_);
      if (entry == nullptr) {
        return Status::NotFound(
            "unknown heuristic '" + heuristic_name_ + "' (expected " +
            HeuristicRegistry::Default().NamesForUsage() + ")");
      }
      if (entry->needs_graph && graph_ == nullptr) {
        return Status::InvalidArgument("heuristic '" + heuristic_name_ +
                                       "' needs a web graph: call use_graph");
      }
      break;
    }
    case Selection::kCustom:
      if (custom_factory_ == nullptr) {
        return Status::InvalidArgument(
            "use_custom requires a sessionizer factory");
      }
      break;
  }
  if (num_pages_ == 0 && graph_ == nullptr) {
    return Status::InvalidArgument(
        "set_num_pages is required (no graph to derive it from)");
  }
  // Shedding without a dead-letter channel silently destroys records —
  // the conservation invariant (emitted + dead-lettered == accepted)
  // cannot hold, so refuse the configuration outright.
  if (offer_policy_ == OfferPolicy::kShed && dead_letters_ == nullptr) {
    return Status::InvalidArgument(
        "OfferPolicy::kShed requires a dead-letter budget: attach a "
        "DeadLetterQueue via set_dead_letters so shed records stay "
        "accounted for");
  }
  if (resume_external_replay_ && resume_dir_.empty()) {
    return Status::InvalidArgument(
        "resume_with_external_replay requires resume_from");
  }
  if (mining_.has_value()) {
    WUM_RETURN_NOT_OK(mine::ValidateMinerOptions(*mining_));
  }
  return Status::OK();
}

Result<std::unique_ptr<StreamEngine>> StreamEngine::Create(
    EngineOptions options, SessionSink* sink) {
  if (sink == nullptr) {
    return Status::InvalidArgument("StreamEngine requires a SessionSink");
  }
  WUM_RETURN_NOT_OK(options.Validate());
  // Resolve the heuristic up front (the constructor cannot fail). A
  // custom factory is invoked concurrently from shard workers.
  SessionizeSinkFactory make_sink;
  switch (options.selection_) {
    case EngineOptions::Selection::kUnset:
      return Status::Internal("unreachable: Validate rejects kUnset");
    case EngineOptions::Selection::kNamed: {
      HeuristicContext context;
      context.graph = options.graph_;
      context.thresholds = options.thresholds_;
      WUM_ASSIGN_OR_RETURN(make_sink,
                           HeuristicRegistry::Default().CreateSinkFactory(
                               options.heuristic_name_, context));
      break;
    }
    case EngineOptions::Selection::kCustom:
      make_sink =
          SessionizeSinkFactoryFor(CustomRule(options.custom_factory_));
      break;
  }
  if (options.num_pages_ == 0 && options.graph_ != nullptr) {
    options.num_pages_ = options.graph_->num_pages();
  }
  std::unique_ptr<mine::MiningSink> mining;
  if (options.mining_.has_value()) {
    mining = std::make_unique<mine::MiningSink>(
        options.num_shards_, *options.mining_, options.graph_,
        options.metrics_);
  }
  // Two-phase construction: build the shard chains without workers so a
  // checkpoint restore never races a live thread, then start them.
  std::unique_ptr<StreamEngine> engine(
      new StreamEngine(std::move(options), std::move(make_sink), sink));
  engine->mining_ = std::move(mining);
  if (!engine->resume_dir_.empty()) {
    WUM_RETURN_NOT_OK(engine->RestoreFrom(engine->resume_dir_));
  }
  engine->StartWorkers();
  engine->RegisterScrapeProbe();
  return engine;
}

void StreamEngine::RegisterScrapeProbe() {
  if (registry_ == nullptr) return;
  // Every handle the probe writes is acquired here, up front — the
  // probe body must never touch the registry (AddProbe contract). The
  // raw shard pointers are safe: the destructor removes the probe
  // before any member dies.
  struct ShardProbe {
    Shard* shard;
    obs::Gauge watermark;
    obs::Gauge queue_depth;
    obs::Gauge users;
    obs::Gauge user_table_bytes;
  };
  std::vector<ShardProbe> shard_probes;
  shard_probes.reserve(shards_.size());
  for (const std::unique_ptr<Shard>& shard : shards_) {
    const std::string prefix =
        "engine.shard" + std::to_string(shard->index) + ".";
    shard_probes.push_back(
        {shard.get(), registry_->GetGauge(prefix + "watermark_seconds"),
         registry_->GetGauge(prefix + "queue_depth"),
         registry_->GetGauge(prefix + "users"),
         registry_->GetGauge(prefix + "user_table_bytes")});
  }
  mine::MiningSink* mining = mining_.get();
  obs::Gauge mining_tracked = mining != nullptr
                                  ? registry_->GetGauge("mining.tracked")
                                  : obs::Gauge();
  obs::Gauge lag = registry_->GetGauge("engine.watermark_lag_seconds");
  obs::Gauge skew = registry_->GetGauge("engine.watermark_skew_seconds");
  refresh_gauges_ = [shard_probes = std::move(shard_probes), mining,
                     mining_tracked, lag, skew]() mutable {
    std::uint64_t min_watermark = 0;
    std::uint64_t max_watermark = 0;
    for (ShardProbe& probe : shard_probes) {
      const std::uint64_t watermark =
          probe.shard->sessionize->watermark_seconds();
      probe.watermark.Set(watermark);
      probe.queue_depth.Set(probe.shard->driver != nullptr
                                ? probe.shard->driver->queue_depth()
                                : 0);
      probe.users.Set(probe.shard->sessionize->users());
      probe.user_table_bytes.Set(probe.shard->sessionize->user_table_bytes());
      if (watermark == 0) continue;  // shard has absorbed nothing yet
      if (min_watermark == 0 || watermark < min_watermark) {
        min_watermark = watermark;
      }
      if (watermark > max_watermark) max_watermark = watermark;
    }
    if (mining != nullptr) mining_tracked.Set(mining->tracked());
    // Lag is measured against the *slowest* shard (min watermark) so it
    // never understates how far behind the pipeline is; skew is the
    // fastest-to-slowest spread. Both undefined until event time exists.
    if (min_watermark == 0) return;
    const std::uint64_t now = obs::internal::NowEpochSeconds();
    lag.Set(now > min_watermark ? now - min_watermark : 0);
    skew.Set(max_watermark - min_watermark);
  };
  scrape_probe_id_ = registry_->AddProbe(refresh_gauges_);
}

StreamEngine::StreamEngine(EngineOptions options,
                           SessionizeSinkFactory make_sink, SessionSink* sink)
    : identity_(options.identity_),
      error_policy_(options.error_policy_),
      offer_policy_(options.offer_policy_),
      dead_letters_(options.dead_letters_),
      emit_(std::make_unique<EmitHub>(sink, options.error_policy_)),
      queue_capacity_(options.queue_capacity_),
      registry_(options.metrics_),
      heuristic_name_(options.selection_ ==
                              EngineOptions::Selection::kNamed
                          ? options.heuristic_name_
                          : "custom"),
      thresholds_(options.thresholds_),
      resume_dir_(options.resume_dir_),
      resume_external_replay_(options.resume_external_replay_),
      ckpt_written_(obs::CounterIn(options.metrics_,
                                   "ckpt.checkpoints_written")),
      ckpt_bytes_(obs::CounterIn(options.metrics_, "ckpt.bytes_written")),
      ckpt_resume_skipped_(
          obs::CounterIn(options.metrics_, "ckpt.records_resume_skipped")),
      ckpt_latency_us_(
          obs::HistogramIn(options.metrics_, "ckpt.write_latency_us")) {
  // With a null registry every handle below is disabled: updates are a
  // predictable branch and the latency timers never read the clock, so
  // an uninstrumented engine does the same atomic work as before the
  // observability layer existed.
  obs::MetricRegistry* registry = options.metrics_;
  for (const EngineOptions::FilterFactory& make_filter :
       options.filter_factories_) {
    filters_.Add(make_filter());
  }
  staging_.resize(options.num_shards_);
  staging_filtered_.resize(options.num_shards_, 0);
  shards_.reserve(options.num_shards_);
  for (std::size_t i = 0; i < options.num_shards_; ++i) {
    const std::string prefix = "engine.shard" + std::to_string(i) + ".";
    auto shard = std::make_unique<Shard>();
    shard->index = i;
    shard->records_in = obs::CounterIn(registry, prefix + "records_in");
    shard->filtered_mirror =
        obs::CounterIn(registry, prefix + "records_filtered");
    shard->dead_letter_mirror =
        obs::CounterIn(registry, prefix + "dead_letter");
    shard->shed_mirror = obs::CounterIn(registry, prefix + "shed");
    shard->ingest_to_emit_latency_us =
        obs::HistogramIn(registry, prefix + "ingest_to_emit_latency_us");
    shard->emit = std::make_unique<ShardEmit>(
        this, shard.get(),
        obs::CounterIn(registry, prefix + "sessions_emitted"));
    SessionizeMetrics sessionize_metrics;
    sessionize_metrics.skipped_non_page_urls =
        obs::CounterIn(registry, prefix + "skipped_non_page_urls");
    shard->sessionize = make_sink(shard->emit.get(), options.num_pages_,
                                  std::move(sessionize_metrics));
    shards_.push_back(std::move(shard));
  }
}

void StreamEngine::StartWorkers() {
  for (std::unique_ptr<Shard>& shard : shards_) {
    const std::string prefix =
        "engine.shard" + std::to_string(shard->index) + ".";
    DriverMetrics driver_metrics;
    driver_metrics.blocked_enqueues =
        obs::CounterIn(registry_, prefix + "blocked_enqueues");
    driver_metrics.queue_high_watermark =
        obs::GaugeIn(registry_, prefix + "queue_high_watermark");
    driver_metrics.drain_latency_us =
        obs::HistogramIn(registry_, prefix + "drain_latency_us");
    driver_metrics.blocked_wait_us =
        obs::CounterIn(registry_, prefix + "blocked_wait_us");
    driver_metrics.inline_batches =
        obs::CounterIn(registry_, prefix + "inline_batches");
    driver_metrics.shard = shard->index;
    DriverHooks hooks;
    Shard* shard_ptr = shard.get();
    hooks.on_batch_drained = [shard_ptr] {
      // The batch's closed sessions reach the sink as one run, before
      // WaitIdle can see the batch drained.
      Status status = shard_ptr->emit->Deliver();
      // The end-of-batch mark for latency stamping: deliveries from here
      // on (the next batch not yet started, or the Finish flush) have no
      // meaningful accept time.
      shard_ptr->batch_accept_stamp_us.store(0.0, std::memory_order_relaxed);
      return status;
    };
    if (registry_ != nullptr) {
      // Installing the hook is what switches on offer-time stamping in
      // the driver, so an uninstrumented engine never reads the clock
      // per batch.
      hooks.on_batch_start = [shard_ptr](double accept_stamp_us) {
        shard_ptr->batch_accept_stamp_us.store(accept_stamp_us,
                                               std::memory_order_relaxed);
      };
    }
    // The failure rule on the record path: a failure that stops the
    // engine becomes the sticky error (and the driver's); a data error
    // under kDegrade quarantines only its record.
    hooks.on_record_error = [this, shard_ptr](std::string_view user_key,
                                              const ShardRecord& record,
                                              const Status& status) {
      if (StopsEngine(error_policy_, status)) {
        emit_->Stop(status);
        return false;
      }
      QuarantineRecord(*shard_ptr, DeadLetter::Stage::kRecord, status,
                       user_key, record);
      return true;
    };
    shard->driver = std::make_unique<ThreadedDriver>(
        shard->sessionize.get(), queue_capacity_, std::move(driver_metrics),
        std::move(hooks));
  }
}

StreamEngine::~StreamEngine() {
  // The scrape probe holds raw pointers into this engine; detach it
  // before anything it reads starts dying (the registry, caller-owned,
  // usually outlives the engine). One last refresh first, so a snapshot
  // taken after the engine is gone (a tool's exit-time --metrics-out)
  // reads the final gauges rather than never-set ones.
  if (scrape_probe_id_ != 0) {
    refresh_gauges_();
    registry_->RemoveProbe(scrape_probe_id_);
  }
  if (!finished_) (void)Finish();
}

void StreamEngine::Quarantine(Shard& shard, DeadLetter letter) {
  shard.dead_letters.fetch_add(letter.records_covered,
                               std::memory_order_relaxed);
  shard.dead_letter_mirror.Increment(letter.records_covered);
  // Rate limiting keeps a stream of bad records from flooding the log
  // with one warning each.
  obs::LogWarn("engine.quarantine")("shard", shard.index)(
      "stage", DeadLetterStageName(letter.stage))(
      "records", letter.records_covered)("error", letter.reason.ToString());
  if (dead_letters_ != nullptr) dead_letters_->Offer(std::move(letter));
}

void StreamEngine::QuarantineRecord(Shard& shard, DeadLetter::Stage stage,
                                    const Status& reason,
                                    std::string_view user_key,
                                    const ShardRecord& record) {
  DeadLetter letter;
  letter.stage = stage;
  letter.shard = shard.index;
  letter.reason = reason;
  LogRecord& payload = letter.record.emplace();
  const auto [client_ip, user_agent] = SplitUserKey(user_key, identity_);
  payload.client_ip = client_ip;
  payload.user_agent = user_agent;
  // A non-page record keeps an empty url: it replays as a non-page too.
  if (record.page != kNotAPage) {
    payload.url = PageUrl(static_cast<std::uint32_t>(record.page));
  }
  payload.timestamp = record.timestamp;
  Quarantine(shard, std::move(letter));
}

Status StreamEngine::OfferBatch(std::span<const LogRecordRef> batch) {
  if (finished_) {
    return Status::FailedPrecondition("engine already finished");
  }
  while (!batch.empty() && records_seen_ < resume_skip_) {
    // Resume replay: the checkpoint this engine restored from already
    // covers this record — count it consumed and move on. The skip is
    // per record, so a batch straddling the resume offset replays only
    // its uncovered suffix.
    ++records_seen_;
    ckpt_resume_skipped_.Increment();
    batch = batch.subspan(1);
  }
  if (batch.empty()) return Status::OK();
  // A stopped engine takes no more input, whichever shard stopped it.
  WUM_RETURN_NOT_OK(emit_->first_error());
  // Filter and partition pass: route every ref to the shard its user
  // hashes to, drop it there if a filter rejects it, otherwise resolve it
  // into that shard's staging batch, hash included.
  for (const LogRecordRef& ref : batch) {
    const std::uint64_t hash =
        UserHashFor(ref.client_ip, ref.user_agent, identity_);
    const std::size_t index = ShardIndexFor(hash);
    if (!filters_.Keep(ref)) {
      ++staging_filtered_[index];
      continue;
    }
    staging_[index].Append(ref, identity_, hash);
  }
  // One queue hand-off per shard that received records this batch.
  for (const std::unique_ptr<Shard>& shard_ptr : shards_) {
    Shard& shard = *shard_ptr;
    // Filter drops are settled on the producer: accepted and dropped in
    // one step, whatever becomes of the shard's queue hand-off.
    if (const std::uint64_t dropped =
            std::exchange(staging_filtered_[shard.index], 0);
        dropped > 0) {
      shard.offered.fetch_add(dropped, std::memory_order_relaxed);
      shard.filtered.fetch_add(dropped, std::memory_order_relaxed);
      shard.records_in.Increment(dropped);
      shard.filtered_mirror.Increment(dropped);
      records_seen_ += dropped;
    }
    ShardBatch& staged = staging_[shard.index];
    if (staged.records.empty()) continue;
    // The driver drains a small batch for an idle shard in place, or
    // queues an exact-size copy; either way `staged` keeps its buffers
    // for the next call.
    const std::uint64_t count = staged.records.size();
    bool accepted = true;
    const Status status =
        offer_policy_ == OfferPolicy::kShed
            ? shard.driver->TryOfferBatch(&staged, &accepted)
            : shard.driver->OfferBatch(&staged);
    if (!status.ok()) {
      // The shard stopped the engine. The failing sub-batch's records
      // are not counted consumed — same as the historical Offer
      // returning before ++records_seen_. Staged records of untried
      // shards are dropped with the error.
      for (ShardBatch& pending : staging_) pending.clear();
      std::fill(staging_filtered_.begin(), staging_filtered_.end(), 0);
      return status;
    }
    if (!accepted) {
      // Shedding is per hand-off: the whole sub-batch is dropped when
      // the shard queue is full (at batch size 1 this is exactly the
      // historical per-record shed).
      shard.shed.fetch_add(count, std::memory_order_relaxed);
      shard.shed_mirror.Increment(count);
    } else {
      shard.offered.fetch_add(count, std::memory_order_relaxed);
      shard.records_in.Increment(count);
    }
    staged.clear();
    records_seen_ += count;
  }
  return Status::OK();
}

Status StreamEngine::Offer(const LogRecord& record) {
  const LogRecordRef ref = ViewOf(record);
  return OfferBatch(std::span<const LogRecordRef>(&ref, 1));
}

Status StreamEngine::Finish() {
  if (finished_) {
    return Status::FailedPrecondition("engine already finished");
  }
  finished_ = true;
  Status first_stop;  // the first flush failure that stops the engine
  for (std::unique_ptr<Shard>& shard : shards_) {
    // Null drivers only exist when Create bailed out mid-restore and is
    // tearing the half-built engine down again.
    if (shard->driver == nullptr) continue;
    Status status = shard->driver->Finish();
    // The flush filled the shard's run; deliver it, also after a flush
    // that failed on one user's data error (the other users' sessions
    // are in it).
    Status delivered = shard->emit->Deliver();
    if (status.ok()) status = std::move(delivered);
    if (status.ok()) continue;
    {
      std::lock_guard<std::mutex> lock(shard->health_mutex);
      shard->finish_error = status;
    }
    if (first_stop.ok() && StopsEngine(error_policy_, status)) {
      first_stop = std::move(status);
    }
  }
  // The sticky error first: it is the root cause when shards failed
  // because the engine had already stopped.
  WUM_RETURN_NOT_OK(emit_->first_error());
  WUM_RETURN_NOT_OK(first_stop);
  // kDegrade: a user whose flush failed on a data error left its
  // absorbed records neither delivered nor quarantined (the shard's
  // other users still flushed). Cover them with one letter per shard so
  // the accounting invariant (delivered + dead-lettered == absorbed)
  // holds.
  for (std::unique_ptr<Shard>& shard : shards_) {
    const std::uint64_t absorbed = shard->sessionize->records_absorbed();
    const std::uint64_t settled = shard->emit->delivered_records() +
                                  shard->emit->quarantined_records();
    if (absorbed > settled) {
      DeadLetter letter;
      letter.stage = DeadLetter::Stage::kShardDead;
      letter.shard = shard->index;
      letter.reason = shard->finish_error.ok()
                          ? Status::Internal("open session state lost")
                          : shard->finish_error;
      letter.detail = "open session state lost";
      letter.records_covered = absorbed - settled;
      Quarantine(*shard, std::move(letter));
    }
  }
  // Data errors are reported through the dead-letter channel and the
  // stats — not as an engine-wide error.
  return Status::OK();
}

EngineStats StreamEngine::SnapshotShard(const Shard& shard) const {
  EngineStats stats;
  stats.records_in = shard.offered.load(std::memory_order_relaxed);
  stats.records_dropped = shard.filtered.load(std::memory_order_relaxed) +
                          shard.sessionize->skipped_non_page_urls();
  stats.sessions_emitted = shard.emit->delivered_sessions();
  if (shard.driver != nullptr) {
    stats.blocked_enqueues = shard.driver->blocked_enqueues();
    stats.queue_high_watermark = shard.driver->queue_high_watermark();
  }
  stats.dead_letters = shard.dead_letters.load(std::memory_order_relaxed);
  stats.records_shed = shard.shed.load(std::memory_order_relaxed);
  return stats;
}

std::vector<EngineStats> StreamEngine::ShardStats() const {
  std::vector<EngineStats> stats;
  stats.reserve(shards_.size());
  for (const std::unique_ptr<Shard>& shard : shards_) {
    stats.push_back(SnapshotShard(*shard));
  }
  return stats;
}

EngineStats StreamEngine::TotalStats() const {
  EngineStats total;
  for (const std::unique_ptr<Shard>& shard : shards_) {
    total += SnapshotShard(*shard);
  }
  return total;
}

namespace {

/// Manifest rendering of UserIdentity (part of the resume fingerprint).
std::string IdentityName(UserIdentity identity) {
  return identity == UserIdentity::kClientIpAndUserAgent ? "ip-ua" : "ip";
}

}  // namespace

Status StreamEngine::Checkpoint(const std::string& dir,
                                const SinkStateFn& sink_state_fn) {
  namespace fs = std::filesystem;
  if (finished_) {
    return Status::FailedPrecondition("engine already finished");
  }
  // A stopped engine has nothing consistent left to snapshot; the
  // previous committed checkpoint stays the resume point.
  WUM_RETURN_NOT_OK(emit_->first_error());
  obs::ScopedTimer timer(ckpt_latency_us_);
  // Quiescence barrier: every record ever offered must be fully settled
  // (processed or quarantined) before any state is read. A shard that
  // stops the engine meanwhile fails the barrier.
  for (std::unique_ptr<Shard>& shard : shards_) {
    WUM_RETURN_NOT_OK(shard->driver->WaitIdle());
  }
  std::string sink_state;
  if (sink_state_fn != nullptr) {
    WUM_ASSIGN_OR_RETURN(sink_state, sink_state_fn());
  }
  const std::uint64_t epoch = next_epoch_;
  const fs::path epoch_dir = fs::path(dir) / ckpt::EpochDirName(epoch);
  std::error_code ec;
  fs::remove_all(epoch_dir, ec);  // leftovers from an aborted attempt
  ec.clear();
  fs::create_directories(epoch_dir, ec);
  if (ec) {
    return Status::IoError("cannot create " + epoch_dir.string() + ": " +
                           ec.message());
  }
  std::uint64_t bytes = 0;
  const auto add_file_size = [&bytes](const std::string& path) {
    std::error_code size_ec;
    const std::uintmax_t size = fs::file_size(path, size_ec);
    if (!size_ec) bytes += static_cast<std::uint64_t>(size);
  };
  for (const std::unique_ptr<Shard>& shard : shards_) {
    std::vector<std::string> frames;
    ckpt::Encoder header;
    // The frame keeps its historical offered / processed / delivered
    // layout: every offered record is processed by the filters, and
    // the ones that pass are delivered to the shard, so processed -
    // delivered carries the filter-drop count.
    const std::uint64_t offered =
        shard->offered.load(std::memory_order_relaxed);
    header.PutUvarint(shard->index);
    header.PutUvarint(offered);
    header.PutUvarint(offered);
    header.PutUvarint(offered -
                      shard->filtered.load(std::memory_order_relaxed));
    header.PutUvarint(shard->dead_letters.load(std::memory_order_relaxed));
    header.PutUvarint(shard->shed.load(std::memory_order_relaxed));
    header.PutUvarint(shard->emit->delivered_sessions());
    header.PutUvarint(shard->emit->delivered_records());
    header.PutUvarint(shard->emit->quarantined_records());
    frames.push_back(header.Release());
    WUM_RETURN_NOT_OK(shard->sessionize->SerializeState(&frames));
    const std::string path =
        (epoch_dir / ("shard-" + std::to_string(shard->index) + ".state"))
            .string();
    WUM_RETURN_NOT_OK(ckpt::WriteFramedFile(path, ckpt::kShardMagic, frames));
    add_file_size(path);
  }
  DeadLetterQueueSnapshot dlq;
  if (dead_letters_ != nullptr) dlq = dead_letters_->Snapshot();
  std::vector<std::string> dlq_frames;
  ckpt::Encoder dlq_header;
  dlq_header.PutUvarint(dlq.total_offered);
  dlq_header.PutUvarint(dlq.records_covered);
  dlq_header.PutUvarint(dlq.overflow_dropped);
  dlq_header.PutUvarint(dlq.letters.size());
  dlq_frames.push_back(dlq_header.Release());
  for (const DeadLetter& letter : dlq.letters) {
    ckpt::Encoder encoder;
    ckpt::EncodeDeadLetter(letter, &encoder);
    dlq_frames.push_back(encoder.Release());
  }
  const std::string dlq_path = (epoch_dir / "dead_letters.state").string();
  WUM_RETURN_NOT_OK(
      ckpt::WriteFramedFile(dlq_path, ckpt::kDeadLetterMagic, dlq_frames));
  add_file_size(dlq_path);
  if (mining_ != nullptr) {
    // The shard barrier already ran and sessions are mined on delivery,
    // so the mining state is exactly as wide as the shard states. One
    // file: each shard's miner frames, concatenated in shard order.
    std::vector<std::string> mining_frames;
    WUM_RETURN_NOT_OK(mining_->SerializeState(&mining_frames));
    const std::string mining_path = (epoch_dir / "mining.state").string();
    WUM_RETURN_NOT_OK(ckpt::WriteFramedFile(mining_path, ckpt::kMiningMagic,
                                            mining_frames));
    add_file_size(mining_path);
  }
  if (registry_ != nullptr) {
    const std::string metrics_path = (epoch_dir / "metrics.json").string();
    WUM_RETURN_NOT_OK(
        obs::WriteMetricsFile(registry_->Snapshot(), metrics_path));
    add_file_size(metrics_path);
  }
  ckpt::CheckpointManifest manifest;
  manifest.epoch = epoch;
  manifest.num_shards = static_cast<std::uint32_t>(shards_.size());
  // On a resumed engine records_seen_ restarts at zero while the
  // restored state already covers resume_skip_ records; a checkpoint
  // taken mid-replay must keep the larger offset or the next resume
  // would replay already-absorbed records into the restored
  // sessionizers and emit duplicate sessions. Under external replay the
  // skip is zero and the restored coverage is carried in resume_base_
  // instead, so offsets stay monotonic across restarts either way.
  manifest.records_seen = resume_base_ + std::max(records_seen_, resume_skip_);
  manifest.heuristic = heuristic_name_;
  manifest.identity = IdentityName(identity_);
  manifest.max_session_duration = thresholds_.max_session_duration;
  manifest.max_page_stay = thresholds_.max_page_stay;
  manifest.sink_state = std::move(sink_state);
  ckpt::Encoder manifest_encoder;
  ckpt::EncodeManifest(manifest, &manifest_encoder);
  const std::string manifest_path = (epoch_dir / "MANIFEST").string();
  WUM_RETURN_NOT_OK(ckpt::WriteFramedFile(manifest_path, ckpt::kManifestMagic,
                                          {manifest_encoder.Release()}));
  add_file_size(manifest_path);
  WUM_RETURN_NOT_OK(ckpt::CommitCurrent(dir, epoch));
  next_epoch_ = epoch + 1;
  ckpt::RemoveStaleEpochs(dir, epoch);
  ckpt_written_.Increment();
  ckpt_bytes_.Increment(bytes);
  obs::LogInfo("ckpt.commit")("epoch", epoch)(
      "records_seen", manifest.records_seen)("bytes", bytes);
  return Status::OK();
}

Status StreamEngine::RestoreFrom(const std::string& dir) {
  namespace fs = std::filesystem;
  WUM_ASSIGN_OR_RETURN(const std::uint64_t epoch, ckpt::ReadCurrent(dir));
  const fs::path epoch_dir = fs::path(dir) / ckpt::EpochDirName(epoch);
  WUM_ASSIGN_OR_RETURN(
      const std::vector<std::string> manifest_frames,
      ckpt::ReadFramedFile((epoch_dir / "MANIFEST").string(),
                           ckpt::kManifestMagic));
  if (manifest_frames.size() != 1) {
    return Status::ParseError("MANIFEST holds " +
                              std::to_string(manifest_frames.size()) +
                              " frames (expected 1)");
  }
  ckpt::Decoder manifest_decoder(manifest_frames[0]);
  ckpt::CheckpointManifest manifest;
  WUM_RETURN_NOT_OK(ckpt::DecodeManifest(&manifest_decoder, &manifest));
  WUM_RETURN_NOT_OK(manifest_decoder.ExpectEnd());
  // Compatibility fingerprint: resuming under a different configuration
  // would silently produce different sessions, so refuse loudly.
  if (manifest.num_shards != shards_.size()) {
    return Status::InvalidArgument(
        "checkpoint was taken with " + std::to_string(manifest.num_shards) +
        " shards but the engine is configured with " +
        std::to_string(shards_.size()));
  }
  if (manifest.heuristic != heuristic_name_) {
    return Status::InvalidArgument("checkpoint heuristic '" +
                                   manifest.heuristic +
                                   "' does not match the engine's '" +
                                   heuristic_name_ + "'");
  }
  if (manifest.identity != IdentityName(identity_)) {
    return Status::InvalidArgument("checkpoint identity '" +
                                   manifest.identity +
                                   "' does not match the engine's '" +
                                   IdentityName(identity_) + "'");
  }
  if (manifest.max_session_duration != thresholds_.max_session_duration ||
      manifest.max_page_stay != thresholds_.max_page_stay) {
    return Status::InvalidArgument(
        "checkpoint thresholds (duration=" +
        std::to_string(manifest.max_session_duration) +
        ", stay=" + std::to_string(manifest.max_page_stay) +
        ") do not match the engine's (duration=" +
        std::to_string(thresholds_.max_session_duration) +
        ", stay=" + std::to_string(thresholds_.max_page_stay) + ")");
  }
  for (std::unique_ptr<Shard>& shard : shards_) {
    const std::string path =
        (epoch_dir / ("shard-" + std::to_string(shard->index) + ".state"))
            .string();
    WUM_ASSIGN_OR_RETURN(const std::vector<std::string> frames,
                         ckpt::ReadFramedFile(path, ckpt::kShardMagic));
    if (frames.empty()) {
      return Status::ParseError(path + ": missing shard header frame");
    }
    ckpt::Decoder header(frames[0]);
    WUM_ASSIGN_OR_RETURN(const std::uint64_t index, header.GetUvarint());
    WUM_ASSIGN_OR_RETURN(const std::uint64_t offered, header.GetUvarint());
    WUM_ASSIGN_OR_RETURN(const std::uint64_t processed, header.GetUvarint());
    WUM_ASSIGN_OR_RETURN(const std::uint64_t delivered, header.GetUvarint());
    WUM_ASSIGN_OR_RETURN(const std::uint64_t dead, header.GetUvarint());
    WUM_ASSIGN_OR_RETURN(const std::uint64_t shed, header.GetUvarint());
    WUM_ASSIGN_OR_RETURN(const std::uint64_t sessions, header.GetUvarint());
    WUM_ASSIGN_OR_RETURN(const std::uint64_t session_records,
                         header.GetUvarint());
    WUM_ASSIGN_OR_RETURN(const std::uint64_t quarantined,
                         header.GetUvarint());
    WUM_RETURN_NOT_OK(header.ExpectEnd());
    if (index != shard->index) {
      return Status::ParseError(path + ": holds state for shard " +
                                std::to_string(index));
    }
    if (delivered > processed) {
      return Status::ParseError(path + ": delivers more records than it "
                                       "processed");
    }
    shard->offered.store(offered, std::memory_order_relaxed);
    shard->filtered.store(processed - delivered, std::memory_order_relaxed);
    shard->dead_letters.store(dead, std::memory_order_relaxed);
    shard->shed.store(shed, std::memory_order_relaxed);
    shard->emit->RestoreCounters(sessions, session_records, quarantined);
    WUM_RETURN_NOT_OK(shard->sessionize->RestoreState(
        std::span<const std::string>(frames).subspan(1)));
  }
  const std::string dlq_path = (epoch_dir / "dead_letters.state").string();
  WUM_ASSIGN_OR_RETURN(const std::vector<std::string> dlq_frames,
                       ckpt::ReadFramedFile(dlq_path, ckpt::kDeadLetterMagic));
  if (dlq_frames.empty()) {
    return Status::ParseError(dlq_path + ": missing counters frame");
  }
  ckpt::Decoder dlq_header(dlq_frames[0]);
  DeadLetterQueueSnapshot dlq;
  WUM_ASSIGN_OR_RETURN(dlq.total_offered, dlq_header.GetUvarint());
  WUM_ASSIGN_OR_RETURN(dlq.records_covered, dlq_header.GetUvarint());
  WUM_ASSIGN_OR_RETURN(dlq.overflow_dropped, dlq_header.GetUvarint());
  WUM_ASSIGN_OR_RETURN(const std::uint64_t retained, dlq_header.GetUvarint());
  WUM_RETURN_NOT_OK(dlq_header.ExpectEnd());
  if (retained != dlq_frames.size() - 1) {
    return Status::ParseError(
        dlq_path + ": declares " + std::to_string(retained) +
        " letters but carries " + std::to_string(dlq_frames.size() - 1));
  }
  dlq.letters.reserve(retained);
  for (std::size_t i = 1; i < dlq_frames.size(); ++i) {
    ckpt::Decoder decoder(dlq_frames[i]);
    DeadLetter letter;
    WUM_RETURN_NOT_OK(ckpt::DecodeDeadLetter(&decoder, &letter));
    WUM_RETURN_NOT_OK(decoder.ExpectEnd());
    dlq.letters.push_back(std::move(letter));
  }
  if (dead_letters_ != nullptr) dead_letters_->Restore(std::move(dlq));
  if (mining_ != nullptr) {
    const std::string mining_path = (epoch_dir / "mining.state").string();
    if (fs::exists(mining_path)) {
      WUM_ASSIGN_OR_RETURN(
          const std::vector<std::string> mining_frames,
          ckpt::ReadFramedFile(mining_path, ckpt::kMiningMagic));
      WUM_RETURN_NOT_OK(mining_->RestoreState(mining_frames));
    } else {
      // Checkpoint taken before mining was enabled: the miner starts
      // empty and converges on traffic from here on.
      obs::LogWarn("ckpt.resume")("mining_state", "absent");
    }
  }
  if (resume_external_replay_) {
    // The front end replays each producer from its own durable offset
    // (decoded out of sink_state), so every record offered from here on
    // is genuinely new: no replay skip, but the restored coverage still
    // counts toward future manifests.
    resume_base_ = manifest.records_seen;
    resume_skip_ = 0;
  } else {
    resume_skip_ = manifest.records_seen;
  }
  records_seen_ = 0;
  next_epoch_ = epoch + 1;
  resumed_sink_state_ = std::move(manifest.sink_state);
  resumed_ = true;
  obs::LogInfo("ckpt.resume")("epoch", epoch)(
      "records_seen", manifest.records_seen);
  return Status::OK();
}

std::uint64_t StreamEngine::ShardWatermarkSeconds(std::size_t shard) const {
  return shards_[shard]->sessionize->watermark_seconds();
}

std::size_t StreamEngine::ShardQueueDepth(std::size_t shard) const {
  const Shard& s = *shards_[shard];
  return s.driver != nullptr ? s.driver->queue_depth() : 0;
}

std::vector<Status> StreamEngine::ShardHealth() const {
  std::vector<Status> health;
  health.reserve(shards_.size());
  for (const std::unique_ptr<Shard>& shard : shards_) {
    Status status = shard->driver != nullptr ? shard->driver->first_error()
                                             : Status::OK();
    if (status.ok()) {
      std::lock_guard<std::mutex> lock(shard->health_mutex);
      status = shard->finish_error;
    }
    health.push_back(std::move(status));
  }
  return health;
}

}  // namespace wum
