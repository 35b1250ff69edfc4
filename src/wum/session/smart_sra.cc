#include "wum/session/smart_sra.h"

#include <algorithm>
#include <limits>
#include <utility>

namespace wum {
namespace {

template <typename T>
void Release(std::vector<T>* buffer) {
  std::vector<T>().swap(*buffer);
}

}  // namespace

SmartSra::SmartSra(const WebGraph* graph) : SmartSra(graph, Options()) {}

SmartSra::SmartSra(const WebGraph* graph, Options options)
    : graph_(graph), options_(std::move(options)) {}

std::size_t SmartSra::Workspace::retained_entries() const {
  return successor_begin_.capacity() + successors_.capacity() +
         in_degree_.capacity() + starts_.capacity() +
         next_starts_.capacity() + arena_.capacity() + sessions_.capacity() +
         next_arena_.capacity() + next_sessions_.capacity() +
         extended_.capacity() + requests_.capacity() + paths_.capacity();
}

void SmartSra::Workspace::Trim(bool keep_output) {
  if (retained_entries() <= kWorkspaceRetainedEntries) return;
  Release(&successor_begin_);
  Release(&successors_);
  Release(&in_degree_);
  Release(&starts_);
  Release(&next_starts_);
  Release(&arena_);
  Release(&sessions_);
  Release(&next_arena_);
  Release(&next_sessions_);
  Release(&extended_);
  if (keep_output) return;
  Release(&requests_);
  Release(&paths_);
}

std::string SmartSra::name() const { return SmartSraRule::kName; }

std::vector<Session> SmartSra::Phase1(
    std::span<const PageRequest> requests) const {
  std::vector<Session> candidates;
  for (const PageRequest& request : requests) {
    if (candidates.empty() || ClosesCandidate(candidates.back(), request)) {
      candidates.emplace_back();
    }
    candidates.back().requests.push_back(request);
  }
  return candidates;
}

Status SmartSra::Phase2(std::span<const PageRequest> candidate,
                        Workspace* workspace) const {
  workspace->Trim(/*keep_output=*/false);
  workspace->requests_.clear();
  workspace->paths_.clear();
  Status status = BuildPaths(candidate, workspace);
  if (!status.ok()) workspace->paths_.clear();
  workspace->Trim(/*keep_output=*/status.ok());
  return status;
}

Result<std::vector<Session>> SmartSra::Phase2(const Session& candidate) const {
  Workspace workspace;
  WUM_RETURN_NOT_OK(Phase2(candidate.requests, &workspace));
  std::vector<Session> result;
  result.reserve(workspace.num_paths());
  for (std::size_t k = 0; k < workspace.num_paths(); ++k) {
    const std::span<const PageRequest> path = workspace.path(k);
    result.push_back(Session{{path.begin(), path.end()}});
  }
  return result;
}

Status SmartSra::BuildPaths(std::span<const PageRequest> reqs,
                            Workspace* ws) const {
  using Span = Workspace::Span;
  const std::size_t n = reqs.size();
  if (n <= 1) {
    if (n == 1) {
      ws->requests_.push_back(reqs[0]);
      ws->paths_.push_back({0, 1});
    }
    return Status::OK();
  }
  if (n > std::numeric_limits<std::uint32_t>::max()) {
    return Status::OutOfRange("Smart-SRA phase 2 candidate of " +
                              std::to_string(n) + " requests");
  }
  const TimeSeconds rho = options_.thresholds.max_page_stay;

  // The candidate's link DAG, built once. The candidate is timestamp
  // sorted, so the scan for j's successors ends at the first gap past
  // rho: O(n * k) probes for k occurrences within rho.
  std::vector<std::size_t>& begin = ws->successor_begin_;
  std::vector<std::uint32_t>& successors = ws->successors_;
  std::vector<std::uint32_t>& referrers = ws->in_degree_;
  begin.clear();
  successors.clear();
  referrers.assign(n, 0);
  bool chains = true;
  for (std::size_t j = 0; j < n; ++j) {
    begin.push_back(successors.size());
    for (std::size_t i = j + 1; i < n; ++i) {
      const TimeSeconds gap = reqs[i].timestamp - reqs[j].timestamp;
      if (gap > rho) break;
      if (gap < 0 || !graph_->HasLink(reqs[j].page, reqs[i].page)) continue;
      successors.push_back(static_cast<std::uint32_t>(i));
      if (++referrers[i] > 1) chains = false;
    }
    if (successors.size() - begin[j] > 1) chains = false;
  }
  begin.push_back(successors.size());

  // Chain fast path. When every occurrence has at most one referrer and
  // at most one continuation, the DAG is a disjoint union of forward
  // chains and those chains are the maximal sessions. Real navigation is
  // overwhelmingly linear, so this covers most candidates. Guards: the
  // deduplicate sort canonicalizes session order (the round loop's output
  // order depends on removal rounds), and max_sessions_per_candidate >= n
  // makes the round loop's overflow check unreachable for chains.
  if (chains && options_.deduplicate &&
      options_.max_sessions_per_candidate >= n) {
    for (std::size_t head = 0; head < n; ++head) {
      if (referrers[head] != 0) continue;
      const std::size_t offset = ws->requests_.size();
      for (std::size_t i = head;; i = successors[begin[i]]) {
        ws->requests_.push_back(reqs[i]);
        if (begin[i + 1] == begin[i]) break;
      }
      ws->paths_.push_back({offset, ws->requests_.size() - offset});
    }
    SortAndDeduplicate(ws);
    return Status::OK();
  }

  // Does `from`, the last occurrence of a session, link to the start `to`
  // within rho? Removal order can make `from` the later occurrence when
  // both share a timestamp; the DAG holds forward edges only, so that
  // pair is probed directly.
  auto links = [&](std::uint32_t from, std::uint32_t to) {
    if (from < to) {
      return std::binary_search(successors.begin() + begin[from],
                                successors.begin() + begin[from + 1], to);
    }
    const TimeSeconds gap = reqs[to].timestamp - reqs[from].timestamp;
    return gap >= 0 && gap <= rho &&
           graph_->HasLink(reqs[from].page, reqs[to].page);
  };

  // Sessions are occurrence-index spans into a flat arena, so duplicate
  // page ids keep their distinct occurrences and timestamps.
  std::vector<std::uint32_t>* arena = &ws->arena_;
  std::vector<Span>* sessions = &ws->sessions_;
  std::vector<std::uint32_t>* next_arena = &ws->next_arena_;
  std::vector<Span>* next_sessions = &ws->next_sessions_;
  arena->clear();
  sessions->clear();
  auto last_of = [&](const Span& session) {
    return (*arena)[session.offset + session.length - 1];
  };

  // Step I's starts: the occurrences without a remaining referrer, in
  // index order. The first round's have none at all; each later round's
  // are the occurrences whose last referrer the previous round removed.
  std::vector<std::uint32_t>& starts = ws->starts_;
  std::vector<std::uint32_t>& next_starts = ws->next_starts_;
  starts.clear();
  for (std::size_t i = 0; i < n; ++i) {
    if (referrers[i] == 0) starts.push_back(static_cast<std::uint32_t>(i));
  }
  while (!starts.empty()) {
    // Step II: remove the starts from the candidate.
    next_starts.clear();
    for (std::uint32_t s : starts) {
      for (std::size_t k = begin[s]; k < begin[s + 1]; ++k) {
        if (--referrers[successors[k]] == 0) {
          next_starts.push_back(successors[k]);
        }
      }
    }
    std::sort(next_starts.begin(), next_starts.end());

    // Step III: extend the session set.
    if (sessions->empty()) {
      for (std::uint32_t i : starts) {
        sessions->push_back({arena->size(), 1});
        arena->push_back(i);
      }
    } else if (starts.size() == 1 && sessions->size() == 1 &&
               links(last_of((*sessions)[0]), starts[0])) {
      // Lone session extended by a lone start: the session is the whole
      // arena, so append in place instead of rebuilding the set.
      arena->push_back(starts[0]);
      ++(*sessions)[0].length;
    } else {
      next_arena->clear();
      next_sessions->clear();
      ws->extended_.assign(sessions->size(), 0);
      auto carry = [&](const Span& session) {
        next_sessions->push_back({next_arena->size(), session.length});
        next_arena->insert(next_arena->end(),
                           arena->begin() + session.offset,
                           arena->begin() + session.offset + session.length);
      };
      for (std::uint32_t i : starts) {
        bool placed = false;
        for (std::size_t s = 0; s < sessions->size(); ++s) {
          const Span session = (*sessions)[s];
          if (!links(last_of(session), i)) continue;
          carry(session);
          next_arena->push_back(i);
          ++next_sessions->back().length;
          ws->extended_[s] = 1;
          placed = true;
          if (next_sessions->size() > options_.max_sessions_per_candidate) {
            return Status::OutOfRange(
                "Smart-SRA phase 2 exceeded max_sessions_per_candidate (" +
                std::to_string(options_.max_sessions_per_candidate) +
                "); the topology induces exponentially many maximal paths");
          }
        }
        if (!placed) {
          // Unreachable for inputs produced by phase 1 (every late
          // start's freshest referrer is the tail of some session; see
          // the design doc), but kept so no occurrence is ever silently
          // dropped when Phase2 is driven directly with arbitrary
          // candidates.
          next_sessions->push_back({next_arena->size(), 1});
          next_arena->push_back(i);
        }
      }
      for (std::size_t s = 0; s < sessions->size(); ++s) {
        if (!ws->extended_[s]) carry((*sessions)[s]);
      }
      std::swap(arena, next_arena);
      std::swap(sessions, next_sessions);
    }
    starts.swap(next_starts);
  }

  for (const Span& session : *sessions) {
    ws->paths_.push_back({ws->requests_.size(), session.length});
    for (std::size_t k = 0; k < session.length; ++k) {
      ws->requests_.push_back(reqs[(*arena)[session.offset + k]]);
    }
  }
  if (options_.deduplicate) SortAndDeduplicate(ws);
  return Status::OK();
}

void SmartSra::SortAndDeduplicate(Workspace* ws) {
  const std::span<const PageRequest> requests(ws->requests_);
  auto contents = [requests](const Workspace::Span& path) {
    return requests.subspan(path.offset, path.length);
  };
  std::sort(ws->paths_.begin(), ws->paths_.end(),
            [&](const Workspace::Span& a, const Workspace::Span& b) {
              const std::span<const PageRequest> x = contents(a);
              const std::span<const PageRequest> y = contents(b);
              return std::lexicographical_compare(x.begin(), x.end(),
                                                  y.begin(), y.end());
            });
  ws->paths_.erase(
      std::unique(ws->paths_.begin(), ws->paths_.end(),
                  [&](const Workspace::Span& a, const Workspace::Span& b) {
                    return std::ranges::equal(contents(a), contents(b));
                  }),
      ws->paths_.end());
}

template class FoldSessionizer<SmartSraRule>;

Result<std::vector<Session>> SmartSra::Reconstruct(
    std::span<const PageRequest> requests) const {
  return FoldRule(SmartSraRule(graph_, options_), requests);
}

}  // namespace wum
