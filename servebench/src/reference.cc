#include "reference.h"

#include <algorithm>
#include <span>
#include <sstream>

#include "host.h"
#include "wum/session/smart_sra.h"

namespace servebench {
namespace {

std::uint64_t Mix(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

std::span<const PageView> ViewsOf(const Input& input, std::uint32_t user) {
  return std::span<const PageView>(input.page_views)
      .subspan(input.user_begin[user],
               input.user_begin[user + 1] - input.user_begin[user]);
}

std::vector<wum::PageRequest> RequestsOf(const Input& input,
                                         std::uint32_t user) {
  std::vector<wum::PageRequest> requests;
  for (const PageView& view : ViewsOf(input, user)) {
    requests.push_back(view.request);
  }
  return requests;
}

wum::SmartSra MakeSmartSra(const Input& input) {
  wum::SmartSra::Options options;  // paper thresholds, as the engine's
  return wum::SmartSra(&input.graph, options);
}

void CountPaths(const wum::WebGraph& graph, const wum::Session& session,
                Reference* reference) {
  const wum::mine::MinerOptions options = MiningOptions();
  const std::vector<wum::PageId> pages = session.PageSequence();
  for (std::size_t len = options.min_length; len <= options.max_length;
       ++len) {
    for (std::size_t i = 0; i + len <= pages.size(); ++i) {
      bool valid = true;
      for (std::size_t h = i; h + 1 < i + len; ++h) {
        valid = valid && graph.HasLink(pages[h], pages[h + 1]);
      }
      if (!valid) continue;
      std::vector<wum::PageId> path(pages.begin() + i,
                                    pages.begin() + i + len);
      ++reference->path_counts[PathKey(path)];
      ++reference->total_paths;
    }
  }
}

std::string SessionsToString(std::vector<wum::Session> sessions) {
  std::sort(sessions.begin(), sessions.end(),
            [](const wum::Session& a, const wum::Session& b) {
              return a.requests < b.requests;
            });
  std::string out;
  for (std::size_t i = 0; i < sessions.size() && i < 12; ++i) {
    out += (i == 0 ? "" : " ") + wum::SessionToString(sessions[i]);
  }
  if (sessions.size() > 12) out += " ...";
  return out.empty() ? "(none)" : out;
}

}  // namespace

std::uint64_t SessionHash(const wum::Session& session) {
  std::uint64_t h = Mix(session.requests.size());
  for (const wum::PageRequest& request : session.requests) {
    h = Mix(h ^ request.page);
    h = Mix(h ^ static_cast<std::uint64_t>(request.timestamp));
  }
  return h;
}

std::uint64_t PathKey(const std::vector<wum::PageId>& path) {
  std::uint64_t key = Mix(path.size());
  for (wum::PageId page : path) key = Mix(key ^ page);
  return key;
}

wum::mine::MinerOptions MiningOptions() { return wum::mine::MinerOptions(); }

wum::Result<Reference> BuildReference(const Input& input, bool count_paths) {
  const wum::SmartSra smart_sra = MakeSmartSra(input);
  Reference reference;
  reference.user_hash.assign(input.num_users, 0);
  reference.user_sessions.assign(input.num_users, 0);

  // The algorithm floor: batch Reconstruct per user, one thread.
  std::vector<wum::PageRequest> requests;
  const std::int64_t start = NowNs();
  for (std::uint32_t u = 0; u < input.num_users; ++u) {
    requests.clear();
    for (const PageView& view : ViewsOf(input, u)) {
      requests.push_back(view.request);
    }
    WUM_ASSIGN_OR_RETURN(std::vector<wum::Session> sessions,
                         smart_sra.Reconstruct(requests));
    std::uint64_t hash = 0;
    for (const wum::Session& session : sessions) hash += SessionHash(session);
    reference.user_hash[u] = hash;
    reference.user_sessions[u] = static_cast<std::uint32_t>(sessions.size());
    reference.total_sessions += sessions.size();
    for (const wum::Session& session : sessions) {
      reference.total_requests += session.size();
    }
    if (count_paths) {
      for (const wum::Session& session : sessions) {
        CountPaths(input.graph, session, &reference);
      }
    }
  }
  reference.batch_reconstruct_s = static_cast<double>(NowNs() - start) / 1e9;

  // Phase-1 candidates and the page view that closes each one.
  reference.cand_begin.assign(input.num_users + 1, 0);
  for (std::uint32_t u = 0; u < input.num_users; ++u) {
    const std::span<const PageView> views = ViewsOf(input, u);
    requests.clear();
    for (const PageView& view : views) requests.push_back(view.request);
    const std::vector<wum::Session> candidates = smart_sra.Phase1(requests);
    std::size_t next_view = 0;
    for (std::size_t c = 0; c < candidates.size(); ++c) {
      next_view += candidates[c].size();
      Candidate candidate;
      candidate.first_ts = candidates[c].requests.front().timestamp;
      if (c + 1 < candidates.size()) {
        candidate.closing_line = views[next_view].global_line;
        candidate.closing_conn_line = views[next_view].conn_line;
      }
      reference.candidates.push_back(candidate);
    }
    reference.cand_begin[u + 1] = reference.candidates.size();
  }
  return reference;
}

void CheckSendPlan(const Input& input, CheckResult* result) {
  std::vector<std::uint8_t> seen_on(input.num_users, 0);
  for (int c = 0; c < 2; ++c) {
    const ConnStream& conn = input.conns[c];
    std::uint64_t begin = 0;
    for (std::uint64_t end : conn.line_end) {
      const std::string_view line(conn.text.data() + begin, end - begin);
      begin = end;
      const std::string_view client = line.substr(0, line.find(' '));
      const std::int64_t user = UserFromIp(client);
      if (user < 0 || user >= input.num_users) {
        result->Fail("send plan: line with unknown client '" +
                     std::string(client) + "'");
        return;
      }
      seen_on[user] |= static_cast<std::uint8_t>(1u << c);
    }
  }
  for (std::uint32_t u = 0; u < input.num_users; ++u) {
    if (seen_on[u] == 3) {
      result->Fail("send plan: user " + UserIp(u) +
                   " has lines on both connections");
      return;
    }
  }
}

CheckResult CheckRun(const Input& input, const Reference& reference,
                     const std::vector<Received>& received,
                     const RunCounts& counts) {
  CheckResult result;

  CheckSendPlan(input, &result);

  // Conservation and accounting.
  const std::uint64_t page_views = input.page_views.size();
  const auto expect = [&](const char* what, std::uint64_t got,
                          std::uint64_t want) {
    if (got != want) {
      result.Fail(std::string(what) + ": got " + std::to_string(got) +
                  ", want " + std::to_string(want));
    }
  };
  expect("bytes read vs sent", counts.bytes_read, counts.bytes_sent);
  expect("lines parsed + rejected vs sent",
         counts.records_offered + counts.dead_letter_records,
         counts.lines_sent);
  expect("records shed", counts.records_shed, 0);
  expect("dead letters (engine)", counts.dead_letters, 0);
  expect("dead-lettered records (rejects)", counts.dead_letter_records, 0);
  expect("records accepted vs parsed", counts.records_in,
         counts.records_offered);
  expect("filter + non-page drops vs non-page-view lines",
         counts.records_dropped, counts.lines_sent - page_views);
  expect("sessions emitted (engine) vs received", counts.sessions_emitted,
         received.size());
  expect("sessions received vs reference", received.size(),
         reference.total_sessions);

  // Per-user session multisets.
  std::vector<std::uint64_t> got_hash(input.num_users, 0);
  std::vector<std::uint32_t> got_sessions(input.num_users, 0);
  std::uint64_t unknown = 0;
  for (const Received& entry : received) {
    const std::int64_t user = UserFromIp(entry.user);
    if (user < 0 || user >= input.num_users) {
      ++unknown;
      continue;
    }
    got_hash[user] += SessionHash(entry.session);
    ++got_sessions[user];
  }
  if (unknown > 0) {
    result.Fail(std::to_string(unknown) + " sessions for unknown users");
  }
  std::int64_t first_bad = -1;
  for (std::uint32_t u = 0; u < input.num_users; ++u) {
    if (got_hash[u] == reference.user_hash[u] &&
        got_sessions[u] == reference.user_sessions[u]) {
      continue;
    }
    ++result.mismatched_users;
    result.failed_records += input.user_begin[u + 1] - input.user_begin[u];
    if (first_bad < 0) first_bad = u;
  }
  result.failed_records += counts.records_shed + counts.dead_letter_records;
  if (first_bad >= 0) {
    const auto user = static_cast<std::uint32_t>(first_bad);
    std::vector<wum::Session> got;
    const std::string ip = UserIp(user);
    for (const Received& entry : received) {
      if (entry.user == ip) got.push_back(entry.session);
    }
    const wum::Result<std::vector<wum::Session>> want =
        MakeSmartSra(input).Reconstruct(RequestsOf(input, user));
    result.first_difference =
        "user " + ip + ": reference " +
        (want.ok() ? SessionsToString(*want) : want.status().ToString()) +
        " | received " + SessionsToString(std::move(got));
    result.Fail(std::to_string(result.mismatched_users) +
                " users with missing or wrong sessions; first: " +
                result.first_difference);
  }
  return result;
}

void CheckPatterns(const Reference& reference,
                   const std::vector<wum::mine::PatternEstimate>& top,
                   std::uint64_t sessions_seen, CheckResult* result) {
  if (sessions_seen != reference.total_sessions) {
    result->Fail("miner saw " + std::to_string(sessions_seen) +
                 " sessions, reference has " +
                 std::to_string(reference.total_sessions));
  }
  if (top.empty() && reference.total_paths > 0) {
    result->Fail("PATTERNS reported no paths");
  }
  for (const wum::mine::PatternEstimate& estimate : top) {
    const auto it = reference.path_counts.find(PathKey(estimate.path));
    const std::uint64_t exact = it == reference.path_counts.end() ? 0 : it->second;
    if (estimate.count < exact || estimate.count - estimate.error > exact) {
      std::ostringstream why;
      why << "PATTERNS bound violated for path of " << estimate.path.size()
          << " pages: count=" << estimate.count << " error=" << estimate.error
          << " exact=" << exact;
      result->Fail(why.str());
    }
  }
}

}  // namespace servebench
