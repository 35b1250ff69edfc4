#include "ledger.h"

#include <algorithm>
#include <filesystem>
#include <memory>
#include <span>
#include <sstream>

#include "wum/clf/clf_parser.h"
#include "wum/mine/path_miner.h"
#include "wum/obs/exposition.h"
#include "wum/obs/metrics.h"
#include "wum/stream/engine.h"
#include "trial.h"

namespace servebench {
namespace {

constexpr std::size_t kChunkBytes = 64u << 10;  // the server's read size
class CountingSink : public wum::SessionSink {
 public:
  wum::Status Accept(const std::string&, wum::Session) override {
    ++sessions_;
    return wum::Status::OK();
  }

 private:
  std::uint64_t sessions_ = 0;
};

struct RowConfig {
  const char* name;
  const char* extends;  // row this one adds to ("" for the first)
  bool engine = false;
  bool filters = false;
  bool smart_sra = false;
  bool mining = false;
  bool checkpoint = false;
  bool metrics = false;
};

const RowConfig kRows[] = {
    {"parse", "", false, false, false, false, false, false},
    {"offer", "parse", true, false, false, false, false, false},
    {"filter", "offer", true, true, false, false, false, false},
    {"smartsra", "filter", true, true, true, false, false, false},
    {"mine", "smartsra", true, true, true, true, false, false},
    {"ckpt", "smartsra", true, true, true, false, true, false},
    {"metrics", "smartsra", true, true, true, false, false, true},
};

/// Line-aligned chunks of both connection streams (each user's lines
/// stay in order: a user lives on one connection).
std::vector<std::string_view> Chunks(const Input& input) {
  std::vector<std::string_view> chunks;
  for (const ConnStream& conn : input.conns) {
    std::string_view rest = conn.text;
    while (!rest.empty()) {
      std::size_t cut = std::min(kChunkBytes, rest.size());
      if (cut < rest.size()) {
        const std::size_t newline = rest.rfind('\n', cut - 1);
        cut = newline == std::string_view::npos ? rest.size() : newline + 1;
      }
      chunks.push_back(rest.substr(0, cut));
      rest.remove_prefix(cut);
    }
  }
  return chunks;
}

struct RowRun {
  double cpu_ns = 0.0;
  double wall_ns = 0.0;
  std::vector<double> checkpoint_ms;
  std::uint64_t checkpoint_bytes = 0;
  double patterns_ms = 0.0;
  double scrape_ms = 0.0;
  double scrape_bytes = 0.0;
};

wum::Status RunRow(const RowConfig& row, const WorkloadSpec& spec,
                   const Input& input,
                   const std::vector<std::string_view>& chunks,
                   const std::string& checkpoint_dir, SpanRecorder* spans,
                   RowRun* out) {
  CountingSink sink;
  wum::obs::MetricRegistry registry;
  std::unique_ptr<wum::StreamEngine> engine;
  if (row.engine) {
    EngineConfig config;
    config.shards = 1;
    config.filters = row.filters;
    config.smart_sra = row.smart_sra;
    config.mining = row.mining;
    if (row.metrics) config.metrics = &registry;
    const wum::EngineOptions options = MakeEngineOptions(input, config);
    WUM_ASSIGN_OR_RETURN(engine, wum::StreamEngine::Create(options, &sink));
  }
  // A workload without a checkpoint cadence checkpoints once, halfway.
  const std::uint64_t every = spec.checkpoint_every > 0
                                  ? spec.checkpoint_every
                                  : std::max<std::uint64_t>(1, input.num_lines / 2);
  std::uint64_t next_checkpoint = every;
  std::uint64_t offered = 0;
  if (row.checkpoint) std::filesystem::remove_all(checkpoint_dir);

  wum::ClfParser parser;
  std::vector<wum::LogRecordRef> refs;
  const std::uint32_t row_span = spans->Open("ledger", row.name);
  const std::int64_t cpu_start = ProcessCpuNs();
  const std::int64_t wall_start = NowNs();
  for (std::string_view chunk : chunks) {
    refs.clear();
    {
      ScopedSpan span(spans, "clf", "ParseChunk", row_span);
      span.set_count(chunk.size());
      WUM_RETURN_NOT_OK(parser.ParseChunk(chunk, &refs));
    }
    if (!engine) continue;
    for (std::size_t i = 0; i < refs.size(); i += kBatchRecords) {
      const std::size_t n = std::min(kBatchRecords, refs.size() - i);
      {
        ScopedSpan span(spans, "stream", "OfferBatch", row_span);
        span.set_count(n);
        WUM_RETURN_NOT_OK(engine->OfferBatch(
            std::span<const wum::LogRecordRef>(refs).subspan(i, n)));
      }
      offered += n;
      if (row.checkpoint && offered >= next_checkpoint) {
        next_checkpoint += every;
        const std::int64_t start = NowNs();
        WUM_RETURN_NOT_OK(engine->Checkpoint(checkpoint_dir));
        const std::int64_t end = NowNs();
        spans->Add("ckpt", "Checkpoint", start, end, offered, row_span);
        out->checkpoint_ms.push_back(static_cast<double>(end - start) / 1e6);
      }
    }
  }
  if (engine) {
    ScopedSpan span(spans, "stream", "Finish", row_span);
    WUM_RETURN_NOT_OK(engine->Finish());
  }
  const double lines = static_cast<double>(input.num_lines);
  out->cpu_ns = static_cast<double>(ProcessCpuNs() - cpu_start) / lines;
  out->wall_ns = static_cast<double>(NowNs() - wall_start) / lines;
  spans->Close(row_span, input.num_lines);

  // Layer extras, after the timed part of the row.
  if (row.mining) {
    const std::int64_t start = NowNs();
    const std::string json = engine->mining()->PatternsJson();
    const std::int64_t end = NowNs();
    spans->Add("mine", "PatternsJson", start, end, json.size(), row_span);
    out->patterns_ms = static_cast<double>(end - start) / 1e6;
  }
  if (row.metrics) {
    const std::int64_t start = NowNs();
    const std::string text = wum::obs::ToPrometheusText(registry.Snapshot());
    const std::int64_t end = NowNs();
    spans->Add("obs", "Snapshot+ToPrometheusText", start, end, text.size(),
               row_span);
    out->scrape_ms = static_cast<double>(end - start) / 1e6;
    out->scrape_bytes = static_cast<double>(text.size());
  }
  if (row.checkpoint) {
    out->checkpoint_bytes = CommittedEpochBytes(checkpoint_dir);
    std::filesystem::remove_all(checkpoint_dir);
  }
  return wum::Status::OK();
}

}  // namespace

double Ledger::Delta(const std::string& row) const {
  for (const LedgerRow& entry : rows) {
    if (entry.name == row) return entry.delta_ns_per_record;
  }
  return 0.0;
}

Ledger RunLedger(const WorkloadSpec& spec, const Input& input,
                 const std::string& work_dir, int repeats,
                 SpanRecorder* spans) {
  Ledger ledger;
  const std::vector<std::string_view> chunks = Chunks(input);
  const std::string checkpoint_dir = work_dir + "/ledger-checkpoint";
  double wall_smartsra = 0.0;
  for (const RowConfig& row : kRows) {
    std::vector<double> cpu;
    std::vector<double> wall;
    std::vector<double> checkpoint_ms;
    RowRun last;
    for (int rep = 0; rep < repeats; ++rep) {
      RowRun run;
      TrimHeap();
      const wum::Status status =
          RunRow(row, spec, input, chunks, checkpoint_dir, spans, &run);
      if (!status.ok()) {
        ledger.error = std::string("ledger row ") + row.name + ": " +
                       status.ToString();
        return ledger;
      }
      cpu.push_back(run.cpu_ns);
      wall.push_back(run.wall_ns);
      checkpoint_ms.insert(checkpoint_ms.end(), run.checkpoint_ms.begin(),
                           run.checkpoint_ms.end());
      last = run;
    }
    LedgerRow entry;
    entry.name = row.name;
    entry.cpu_ns_per_record = Median(cpu);
    entry.wall_ns_per_record = Median(wall);
    for (const LedgerRow& base : ledger.rows) {
      if (base.name == row.extends) {
        entry.delta_ns_per_record =
            entry.cpu_ns_per_record - base.cpu_ns_per_record;
      }
    }
    if (row.extends[0] == '\0') entry.delta_ns_per_record = entry.cpu_ns_per_record;
    if (std::string(row.name) == "smartsra") wall_smartsra = entry.wall_ns_per_record;
    if (row.mining) ledger.patterns_ms = last.patterns_ms;
    if (row.checkpoint) {
      ledger.checkpoint_ms = Median(checkpoint_ms);
      ledger.checkpoint_bytes = last.checkpoint_bytes;
    }
    if (row.metrics) {
      ledger.scrape_ms = last.scrape_ms;
      ledger.scrape_bytes = last.scrape_bytes;
      ledger.metrics_on_ratio = wall_smartsra / entry.wall_ns_per_record;
    }
    ledger.rows.push_back(entry);
  }
  ledger.composed_ns_per_record = ledger.rows[3].cpu_ns_per_record;  // smartsra
  if (spec.live) {
    ledger.composed_ns_per_record += ledger.Delta("mine") + ledger.Delta("metrics");
  }
  if (spec.checkpoint_every > 0) {
    ledger.composed_ns_per_record += ledger.Delta("ckpt");
  }
  ledger.ok = true;
  return ledger;
}

std::string Ledger::Table(double tcp_ns_per_record) const {
  std::ostringstream out;
  out.setf(std::ios::fixed);
  out.precision(1);
  out << "ledger  row        cpu_ns/rec  wall_ns/rec  layer_ns/rec\n";
  for (const LedgerRow& row : rows) {
    out << "ledger  " << row.name << std::string(11 - row.name.size(), ' ')
        << row.cpu_ns_per_record << "  " << row.wall_ns_per_record << "  "
        << row.delta_ns_per_record << "\n";
  }
  out << "ledger  composed   " << composed_ns_per_record << "\n";
  out << "ledger  tcp_run    " << tcp_ns_per_record << "\n";
  out.precision(3);
  out << "ledger  uncovered_share "
      << (tcp_ns_per_record - composed_ns_per_record) / tcp_ns_per_record
      << "\n";
  return out.str();
}

std::string Ledger::Json(double tcp_ns_per_record) const {
  std::ostringstream out;
  out << "{\"rows\": [";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    out << (i == 0 ? "" : ", ") << "{\"name\": \"" << rows[i].name
        << "\", \"cpu_ns_per_record\": " << rows[i].cpu_ns_per_record
        << ", \"wall_ns_per_record\": " << rows[i].wall_ns_per_record
        << ", \"layer_ns_per_record\": " << rows[i].delta_ns_per_record << "}";
  }
  out << "], \"composed_ns_per_record\": " << composed_ns_per_record
      << ", \"tcp_ns_per_record\": " << tcp_ns_per_record
      << ", \"uncovered_share\": "
      << (tcp_ns_per_record - composed_ns_per_record) / tcp_ns_per_record
      << "}";
  return out.str();
}

}  // namespace servebench
