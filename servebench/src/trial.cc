#include "trial.h"

#include <algorithm>
#include <filesystem>
#include <memory>
#include <thread>

#include "wum/ckpt/checkpoint.h"
#include "wum/clf/log_filter.h"
#include "wum/mine/path_miner.h"
#include "wum/net/server.h"
#include "wum/stream/incremental_sessionizer.h"

namespace servebench {
namespace {

/// The engine's SessionSink: stamps the clock and copies the session's
/// requests into a pre-reserved, pre-touched arena, so the engine's own
/// allocation is freed at once and the sink holds no memory the run's
/// RSS reading could count. Nothing else happens here, so the sink adds
/// no checking cost to the measured window. Emission is serialized by
/// the engine, so no locking is needed.
class BufferSink : public wum::SessionSink {
 public:
  /// Sized from the reference: its session count and the requests of
  /// all its sessions (a correct run needs no more).
  BufferSink(std::size_t sessions, std::size_t requests)
      : slots_(sessions), arena_(requests) {}

  wum::Status Accept(const std::string& user, wum::Session session) override {
    const std::int64_t now = NowNs();
    const std::size_t n = session.requests.size();
    if (used_ < slots_.size() && arena_used_ + n <= arena_.size()) {
      Slot& slot = slots_[used_++];
      slot.user.assign(user);
      slot.begin = arena_used_;
      slot.size = n;
      slot.recv_ns = now;
      std::copy(session.requests.begin(), session.requests.end(),
                arena_.begin() + static_cast<std::ptrdiff_t>(arena_used_));
      arena_used_ += n;
    } else {
      overflow_.push_back(Received{user, std::move(session), now});
    }
    return wum::Status::OK();
  }

  /// Everything received (after the timed window).
  std::vector<Received> Take() {
    std::vector<Received> received;
    received.reserve(used_ + overflow_.size());
    for (std::size_t i = 0; i < used_; ++i) {
      const Slot& slot = slots_[i];
      const auto begin = arena_.begin() + static_cast<std::ptrdiff_t>(slot.begin);
      received.push_back(Received{
          slot.user,
          wum::Session{{begin, begin + static_cast<std::ptrdiff_t>(slot.size)}},
          slot.recv_ns});
    }
    for (Received& entry : overflow_) received.push_back(std::move(entry));
    return received;
  }

 private:
  struct Slot {
    std::string user;  // an IPv4 address: fits the small-string buffer
    std::size_t begin = 0;
    std::size_t size = 0;
    std::int64_t recv_ns = 0;
  };
  std::vector<Slot> slots_;
  std::size_t used_ = 0;
  std::vector<wum::PageRequest> arena_;
  std::size_t arena_used_ = 0;
  std::vector<Received> overflow_;
};

void InjectFault(TrialOptions::Fault fault, std::vector<Received>* received) {
  if (received->empty()) return;
  const std::size_t victim = received->size() / 2;
  switch (fault) {
    case TrialOptions::Fault::kNone:
      return;
    case TrialOptions::Fault::kDropSession:
      received->erase(received->begin() + static_cast<std::ptrdiff_t>(victim));
      return;
    case TrialOptions::Fault::kDuplicateSession:
      received->push_back((*received)[victim]);
      return;
    case TrialOptions::Fault::kAlterTimestamp:
      (*received)[victim].session.requests.front().timestamp += 1;
      return;
  }
}

/// Latency of every received session: from the due time of the line
/// that closed its phase-1 candidate, or from the QUIESCE request when
/// only the end of the stream closed it. The quantiles are over the
/// sessions with a closing line when the workload has any; user_churn
/// has none.
void EmitLatencies(const WorkloadSpec& spec, const Input& input,
                   const Reference& reference, const GenResult& gen,
                   const std::vector<Received>& received, TrialResult* r) {
  const double ns_per_line = spec.rate_lps > 0 ? 1e9 / spec.rate_lps : 0.0;
  std::vector<double> closing;
  std::vector<double> flush;
  closing.reserve(received.size());
  for (const Received& entry : received) {
    const std::int64_t user = UserFromIp(entry.user);
    if (user < 0 || user >= input.num_users || entry.session.empty()) continue;
    const wum::TimeSeconds first = entry.session.requests.front().timestamp;
    const auto begin = reference.candidates.begin() +
                       static_cast<std::ptrdiff_t>(reference.cand_begin[user]);
    const auto end = reference.candidates.begin() +
                     static_cast<std::ptrdiff_t>(reference.cand_begin[user + 1]);
    auto it = std::upper_bound(begin, end, first,
                               [](wum::TimeSeconds ts, const Candidate& c) {
                                 return ts < c.first_ts;
                               });
    if (it == begin) continue;
    const Candidate& candidate = *(it - 1);
    if (candidate.closing_line < 0) {
      flush.push_back(
          static_cast<double>(entry.recv_ns - gen.quiesce_sent_ns) / 1e6);
      continue;
    }
    const std::int64_t due =
        spec.rate_lps > 0
            ? gen.start_ns + static_cast<std::int64_t>(
                                 static_cast<double>(candidate.closing_line) *
                                 ns_per_line)
            : LineSentNs(input, gen, input.user_conn[user],
                         candidate.closing_conn_line);
    closing.push_back(static_cast<double>(entry.recv_ns - due) / 1e6);
  }
  r->closing_sessions = closing.size();
  r->flush_sessions = flush.size();
  const std::vector<double>& samples = closing.empty() ? flush : closing;
  r->latency_p50_ms = Quantile(samples, 0.50);
  r->latency_p99_ms = Quantile(samples, 0.99);
}

/// Open loop: how late each line left against its due time. As fast as
/// possible: how long each wait on a full socket took.
void GeneratorLag(const WorkloadSpec& spec, const Input& input,
                  const GenResult& gen, TrialResult* r) {
  std::vector<double> lag_ms;
  if (spec.rate_lps > 0) {
    const double ns_per_line = 1e9 / spec.rate_lps;
    lag_ms.reserve(input.num_lines);
    for (int c = 0; c < 2; ++c) {
      const ConnStream& conn = input.conns[c];
      std::size_t mark = 0;
      for (std::size_t k = 0; k < conn.line_end.size(); ++k) {
        while (mark < gen.writes[c].size() &&
               gen.writes[c][mark].end < conn.line_end[k]) {
          ++mark;
        }
        const std::int64_t sent = mark < gen.writes[c].size()
                                      ? gen.writes[c][mark].t_ns
                                      : gen.all_sent_ns;
        const double due = static_cast<double>(gen.start_ns) +
                           static_cast<double>(conn.line_global[k]) *
                               ns_per_line;
        lag_ms.push_back((static_cast<double>(sent) - due) / 1e6);
      }
    }
  } else {
    lag_ms = gen.stall_ms;
  }
  r->gen_lag_p99_ms = Quantile(lag_ms, 0.99);
  r->gen_valid = spec.rate_lps <= 0 || r->gen_lag_p99_ms <= kMaxGeneratorLagP99Ms;
}

/// Absorbs records and emits nothing: the engine's cost without a
/// sessionization algorithm.
class NoopSessionizer : public wum::IncrementalUserSessionizer {
 public:
  wum::Status OnRequest(const wum::PageRequest&, const EmitFn&) override {
    return wum::Status::OK();
  }
  wum::Status Flush(const EmitFn&) override { return wum::Status::OK(); }
};

}  // namespace

wum::EngineOptions MakeEngineOptions(const Input& input,
                                     const EngineConfig& config) {
  wum::EngineOptions options;
  options.set_num_shards(config.shards)
      .set_identity(wum::UserIdentity::kClientIp)
      .set_thresholds(wum::TimeThresholds())
      .set_num_pages(input.graph.num_pages())
      .set_offer_policy(wum::OfferPolicy::kBlock);
  if (config.smart_sra) {
    options.use_graph(&input.graph).use_heuristic("smart-sra");
  } else {
    options.use_custom([] { return std::make_unique<NoopSessionizer>(); });
  }
  if (config.filters) {
    options.add_filter([] { return std::make_unique<wum::MethodFilter>(); });
    options.add_filter([] { return std::make_unique<wum::StatusFilter>(); });
    options.add_filter([] { return std::make_unique<wum::ExtensionFilter>(); });
  }
  if (config.mining) options.set_mining(MiningOptions());
  if (config.metrics != nullptr) options.set_metrics(config.metrics);
  if (config.dead_letters != nullptr) {
    options.set_dead_letters(config.dead_letters);
  }
  return options;
}

std::uint64_t CommittedEpochBytes(const std::string& dir) {
  const wum::Result<std::uint64_t> epoch = wum::ckpt::ReadCurrent(dir);
  if (!epoch.ok()) return 0;
  std::uint64_t bytes = 0;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(
           dir + "/" + wum::ckpt::EpochDirName(*epoch), ec)) {
    if (entry.is_regular_file()) bytes += entry.file_size();
  }
  return bytes;
}

TrialResult RunTrial(const WorkloadSpec& spec, const Input& input,
                     const Reference& reference, const TrialOptions& options) {
  TrialResult r;
  SpanRecorder untraced(false);
  SpanRecorder* spans = options.spans != nullptr ? options.spans : &untraced;
  std::string checkpoint_dir;
  if (spec.checkpoint_every > 0) {
    checkpoint_dir = options.work_dir + "/checkpoint";
    std::filesystem::remove_all(checkpoint_dir);
  }

  TrimHeap();
  wum::DeadLetterQueue dead_letters;
  std::unique_ptr<wum::obs::MetricRegistry> registry;
  if (spec.live) registry = std::make_unique<wum::obs::MetricRegistry>();
  BufferSink sink(reference.total_sessions + 64,
                  reference.total_requests + 1024);

  // Set-up: the same engine configuration websra_serve builds by default,
  // at 2 shards.
  const std::int64_t setup_start = NowNs();
  EngineConfig config;
  config.dead_letters = &dead_letters;
  if (spec.live) {
    config.metrics = registry.get();
    config.mining = true;
  }
  const wum::EngineOptions engine_options = MakeEngineOptions(input, config);
  std::unique_ptr<wum::StreamEngine> engine;
  {
    ScopedSpan span(spans, "stream", "engine_create");
    wum::Result<std::unique_ptr<wum::StreamEngine>> created =
        wum::StreamEngine::Create(engine_options, &sink);
    if (!created.ok()) {
      r.error = "engine: " + created.status().ToString();
      return r;
    }
    engine = std::move(*created);
  }

  wum::net::ServerOptions server_options;
  server_options.ingest.batch_records = kBatchRecords;
  server_options.deadlines.write_timeout_ms = 10000;
  if (spec.live) {
    server_options.http_port = 0;
    server_options.metrics = registry.get();
  }
  if (!checkpoint_dir.empty()) {
    server_options.ingest.checkpoint_dir = checkpoint_dir;
    server_options.ingest.checkpoint_every_records = spec.checkpoint_every;
  }
  std::unique_ptr<wum::net::LogServer> server;
  {
    ScopedSpan span(spans, "net", "server_start");
    wum::Result<std::unique_ptr<wum::net::LogServer>> started =
        wum::net::LogServer::Start(server_options, engine.get(), &dead_letters);
    if (!started.ok()) {
      r.error = "server: " + started.status().ToString();
      return r;
    }
    server = std::move(*started);
  }
  wum::Status served = wum::Status::OK();
  std::thread serve_thread([&] {
    const std::int64_t start = NowNs();
    served = server->Serve();
    spans->Add("net", "serve", start, NowNs(), 0, 0, /*thread=*/1);
  });
  r.server_start_s = static_cast<double>(NowNs() - setup_start) / 1e9;
  const std::uint64_t rss_start = RssBytes();

  GenConfig gen_config;
  gen_config.data_port = server->port();
  gen_config.admin_port = server->admin_port();
  gen_config.http_port = spec.live ? server->http_port() : 0;
  gen_config.rate_lps = spec.rate_lps;
  gen_config.scrape = spec.live;
  gen_config.spans = spans->enabled() ? spans : nullptr;
  const CpuTicks ticks_start = ReadCpuTicks();
  const std::int64_t cpu_start = ProcessCpuNs();
  const GenResult gen = RunGenerator(input, gen_config);
  const std::int64_t cpu_end = ProcessCpuNs();
  r.steal_share = StealShare(ticks_start, ReadCpuTicks());
  if (!gen.ok) server->RequestStop();
  serve_thread.join();
  // RSS at QUIESCE: the engine has finished and still holds all its
  // state. Free heap pages go back to the kernel first (as before
  // rss_start), so the growth counts live memory, not allocator slack.
  TrimHeap();
  const std::uint64_t rss_at_quiesce = RssBytes();  // after the reply
  if (!served.ok() || !gen.ok) {
    r.error = !served.ok() ? "serve: " + served.ToString()
                           : "generator: " + gen.error;
    // A failed run fails the check too; the send plan may explain why.
    r.check.Fail(r.error);
    CheckSendPlan(input, &r.check);
    return r;
  }

  r.lines = gen.lines_sent;
  r.window_s = static_cast<double>(gen.quiesce_reply_ns - gen.start_ns) / 1e9;
  r.ingest_rps = static_cast<double>(r.lines) / r.window_s;
  r.cpu_ns_per_record = static_cast<double>(cpu_end - cpu_start - gen.cpu_ns) /
                        static_cast<double>(r.lines);
  r.rss_growth_mb =
      (static_cast<double>(rss_at_quiesce) - static_cast<double>(rss_start)) /
      (1024.0 * 1024.0);
  r.send_wait_share = static_cast<double>(gen.send_wait_ns) /
                      static_cast<double>(gen.all_sent_ns - gen.start_ns);
  r.quiesce_ms =
      static_cast<double>(gen.quiesce_reply_ns - gen.quiesce_sent_ns) / 1e6;
  r.patterns_ms = Median(gen.patterns_ms);
  r.scrape_ms = Median(gen.scrape_ms);
  r.scrape_bytes = Median(gen.scrape_bytes);
  r.total = engine->TotalStats();
  r.shards = engine->ShardStats();
  if (!checkpoint_dir.empty()) {
    r.checkpoint_bytes = CommittedEpochBytes(checkpoint_dir);
  }

  r.counts.bytes_sent = gen.bytes_sent;
  r.counts.bytes_read = server->stats().bytes_read;
  r.counts.lines_sent = gen.lines_sent;
  r.counts.records_offered = engine->records_seen();
  r.counts.records_in = r.total.records_in;
  r.counts.records_dropped = r.total.records_dropped;
  r.counts.records_shed = r.total.records_shed + server->stats().records_shed;
  r.counts.dead_letters = r.total.dead_letters;
  r.counts.dead_letter_records = dead_letters.records_covered();
  r.counts.sessions_emitted = r.total.sessions_emitted;
  r.ok = true;
  if (!options.check) {
    if (!checkpoint_dir.empty()) std::filesystem::remove_all(checkpoint_dir);
    return r;
  }

  // Everything below runs after the timed window.
  ScopedSpan check_span(spans, "check", "output_check");
  std::vector<Received> received = sink.Take();
  InjectFault(options.fault, &received);
  r.check = CheckRun(input, reference, received, r.counts);
  if (spec.live) {
    const wum::mine::MiningSink* mining = engine->mining();
    CheckPatterns(reference, mining->TopK(), mining->sessions_seen(), &r.check);
  }
  EmitLatencies(spec, input, reference, gen, received, &r);
  GeneratorLag(spec, input, gen, &r);
  if (!checkpoint_dir.empty()) std::filesystem::remove_all(checkpoint_dir);
  return r;
}

}  // namespace servebench
