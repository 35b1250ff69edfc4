#include "workload.h"

#include <algorithm>
#include <charconv>
#include <cmath>

#include "wum/common/random.h"
#include "wum/common/time.h"
#include "wum/simulator/workload.h"
#include "wum/topology/site_generator.h"

namespace servebench {
namespace {

// Workload sizes at scale 1.0.
constexpr std::size_t kBulkAgents = 40000;   // ~750k page lines, ~64 MB
// ~310k lines: 1.25 s at the live rate, so a 10 s run holds 8 trials
// and the median trial's p99 is not one spoiled by a host noise episode.
constexpr std::size_t kLiveAgents = 4000;
constexpr std::size_t kChurnUsers = 1000000;
constexpr double kLiveRateLps = 250000.0;
constexpr std::uint64_t kChurnCheckpointEvery = 750000;
constexpr wum::TimeSeconds kEpoch = 1136214240;  // as the simulator's
constexpr wum::TimeSeconds kWindow = 7 * 24 * 3600;

enum LineKind : std::uint8_t {
  kPage200,   // page view
  kPage304,   // page view revalidated from cache (kept: still a view)
  kGif,       // embedded image
  kGif304,
  kJpg,
  kXbm,       // icon the extension filter keeps; not a canonical page
  kPage404,   // failed request for a page (status filter drops it)
  kPost,      // form post (method filter drops it)
  kHead,      // HEAD of a page (method filter drops it)
};

bool IsPageView(std::uint8_t kind) {
  return kind == kPage200 || kind == kPage304;
}

struct Event {
  wum::TimeSeconds timestamp = 0;
  std::uint32_t user = 0;
  std::uint32_t seq = 0;  // per-user order among equal timestamps
  std::uint32_t page = 0;
  std::uint8_t kind = kPage200;
  std::uint8_t variant = 0;  // which embedded image of the page
};

void AppendUint(std::string* out, std::uint64_t value) {
  char buffer[24];
  const auto result = std::to_chars(buffer, buffer + sizeof(buffer), value);
  out->append(buffer, result.ptr);
}

void AppendIp(std::string* out, std::uint32_t user) {
  out->append("10.");
  AppendUint(out, (user >> 16) & 255);
  out->push_back('.');
  AppendUint(out, (user >> 8) & 255);
  out->push_back('.');
  AppendUint(out, user & 255);
}

std::uint64_t BodyBytes(std::uint32_t page, std::uint8_t variant) {
  return 300 + (page * 2654435761u + variant * 40503u) % 9000;
}

/// Renders one CLF line (with its newline). `stamp` is the bracketed
/// timestamp text.
void RenderLine(const Event& event, const std::string& stamp,
                std::string* out) {
  AppendIp(out, event.user);
  out->append(" - - [");
  out->append(stamp);
  out->append("] \"");
  switch (event.kind) {
    case kPost:
      out->append("POST /cgi-bin/form");
      break;
    case kHead:
      out->append("HEAD /pages/p");
      AppendUint(out, event.page);
      out->append(".html");
      break;
    case kGif:
    case kGif304:
      out->append("GET /images/p");
      AppendUint(out, event.page);
      out->push_back('-');
      AppendUint(out, event.variant);
      out->append(".gif");
      break;
    case kJpg:
      out->append("GET /images/p");
      AppendUint(out, event.page);
      out->append(".jpg");
      break;
    case kXbm:
      out->append("GET /icons/p");
      AppendUint(out, event.page);
      out->append(".xbm");
      break;
    default:
      out->append("GET /pages/p");
      AppendUint(out, event.page);
      out->append(".html");
      break;
  }
  out->append(" HTTP/1.0\" ");
  switch (event.kind) {
    case kPage304:
    case kGif304:
      out->append("304 0\n");
      return;
    case kPage404:
      out->append("404 0\n");
      return;
    default:
      out->append("200 ");
      AppendUint(out, BodyBytes(event.page, event.variant));
      out->push_back('\n');
      return;
  }
}

/// NASA-shaped decoration of one page view: the page itself (sometimes a
/// 304), its embedded images (gif:html ~ 2.6:1, plus jpg and xbm), and
/// now and then a 404, a POST or a HEAD. Everything shares the view's
/// timestamp so each user's lines stay in timestamp order.
void DecoratePageView(std::uint32_t user, const wum::PageRequest& view,
                      wum::Rng* rng, std::uint32_t* seq,
                      std::vector<Event>* events) {
  const auto add = [&](std::uint8_t kind, std::uint8_t variant) {
    events->push_back(Event{view.timestamp, user, (*seq)++,
                            static_cast<std::uint32_t>(view.page), kind,
                            variant});
  };
  add(rng->Bernoulli(0.1) ? kPage304 : kPage200, 0);
  const int gifs = rng->Bernoulli(0.6) ? 3 : 2;
  for (int g = 0; g < gifs; ++g) {
    add(rng->Bernoulli(0.25) ? kGif304 : kGif, static_cast<std::uint8_t>(g));
  }
  if (rng->Bernoulli(0.3)) add(kJpg, 0);
  if (rng->Bernoulli(0.2)) add(kXbm, 0);
  if (rng->Bernoulli(0.03)) add(kPage404, 0);
  if (rng->Bernoulli(0.02)) add(kPost, 0);
  if (rng->Bernoulli(0.02)) add(kHead, 0);
}

wum::Result<wum::WebGraph> MakeSite(wum::Rng* rng) {
  wum::SiteGeneratorOptions site;  // Table 5: 300 pages, out-degree 15
  return wum::GenerateUniformSite(site, rng);
}

/// Simulated agents at the paper's Table 5 defaults; one user per agent.
wum::Status SimulatedEvents(const wum::WebGraph& graph, std::size_t agents,
                            bool decorate, wum::Rng* rng,
                            std::uint32_t* num_users,
                            std::vector<Event>* events) {
  wum::WorkloadOptions population;
  population.num_agents = agents;
  WUM_ASSIGN_OR_RETURN(
      wum::Workload workload,
      wum::SimulateWorkload(graph, wum::AgentProfile(), population, rng));
  wum::Rng decor = rng->Fork();
  *num_users = static_cast<std::uint32_t>(workload.agents.size());
  for (std::size_t u = 0; u < workload.agents.size(); ++u) {
    const auto user = static_cast<std::uint32_t>(u);
    std::uint32_t seq = 0;
    for (const wum::PageRequest& view :
         workload.agents[u].trace.server_requests) {
      if (decorate) {
        DecoratePageView(user, view, &decor, &seq, events);
      } else {
        events->push_back(Event{view.timestamp, user, seq++,
                                static_cast<std::uint32_t>(view.page),
                                kPage200, 0});
      }
    }
  }
  return wum::Status::OK();
}

/// One-visit clients: each arrives once in the window, reads 1-3 linked
/// pages a minute or three apart, and never returns.
void ChurnEvents(const wum::WebGraph& graph, std::size_t users, wum::Rng* rng,
                 std::vector<Event>* events) {
  const std::vector<wum::PageId>& starts = graph.start_pages();
  events->reserve(users * 2);
  for (std::size_t u = 0; u < users; ++u) {
    const auto user = static_cast<std::uint32_t>(u);
    wum::TimeSeconds t =
        kEpoch + static_cast<wum::TimeSeconds>(rng->NextBounded(kWindow));
    wum::PageId page = starts[rng->NextBounded(starts.size())];
    const std::uint64_t pages = 1 + rng->NextBounded(3);
    for (std::uint32_t i = 0; i < pages; ++i) {
      if (i > 0) {
        const std::vector<wum::PageId>& links = graph.OutLinks(page);
        if (links.empty()) break;
        page = links[rng->NextBounded(links.size())];
        t += 60 + static_cast<wum::TimeSeconds>(rng->NextBounded(120));
      }
      events->push_back(Event{t, user, i, static_cast<std::uint32_t>(page),
                              kPage200, 0});
    }
  }
}

}  // namespace

wum::Result<WorkloadSpec> FindWorkload(std::string_view name) {
  WorkloadSpec spec;
  spec.name = std::string(name);
  if (name == "bulk_replay") {
    spec.kind = WorkloadKind::kBulkReplay;
  } else if (name == "live_nasa_mix") {
    spec.kind = WorkloadKind::kLiveNasaMix;
    spec.rate_lps = kLiveRateLps;
    spec.live = true;
  } else if (name == "user_churn") {
    spec.kind = WorkloadKind::kUserChurn;
    spec.checkpoint_every = kChurnCheckpointEvery;
  } else {
    return wum::Status::NotFound("unknown workload '" + spec.name + "'");
  }
  return spec;
}

std::string UserIp(std::uint32_t user) {
  std::string ip;
  AppendIp(&ip, user);
  return ip;
}

std::int64_t UserFromIp(std::string_view ip) {
  if (ip.substr(0, 3) != "10.") return -1;
  ip.remove_prefix(3);
  std::int64_t user = 0;
  for (int part = 0; part < 3; ++part) {
    unsigned value = 0;
    const auto [end, ec] =
        std::from_chars(ip.data(), ip.data() + ip.size(), value);
    if (ec != std::errc() || value > 255) return -1;
    user = user * 256 + value;
    ip.remove_prefix(static_cast<std::size_t>(end - ip.data()));
    if (part < 2) {
      if (ip.empty() || ip.front() != '.') return -1;
      ip.remove_prefix(1);
    }
  }
  return ip.empty() ? user : -1;
}

wum::Result<Input> Generate(const WorkloadSpec& spec, std::uint64_t seed,
                            const GenerateOptions& options) {
  const auto scaled = [&](std::size_t n) {
    return std::max<std::size_t>(
        16, static_cast<std::size_t>(std::llround(n * options.scale)));
  };
  wum::Rng rng(seed * 0x9E3779B97F4A7C15ull + static_cast<int>(spec.kind));
  Input input;
  WUM_ASSIGN_OR_RETURN(input.graph, MakeSite(&rng));

  std::vector<Event> events;
  switch (spec.kind) {
    case WorkloadKind::kBulkReplay:
      WUM_RETURN_NOT_OK(SimulatedEvents(input.graph, scaled(kBulkAgents),
                                        /*decorate=*/false, &rng,
                                        &input.num_users, &events));
      break;
    case WorkloadKind::kLiveNasaMix:
      WUM_RETURN_NOT_OK(SimulatedEvents(input.graph, scaled(kLiveAgents),
                                        /*decorate=*/true, &rng,
                                        &input.num_users, &events));
      break;
    case WorkloadKind::kUserChurn:
      input.num_users = static_cast<std::uint32_t>(scaled(kChurnUsers));
      ChurnEvents(input.graph, input.num_users, &rng, &events);
      break;
  }
  std::sort(events.begin(), events.end(), [](const Event& a, const Event& b) {
    if (a.timestamp != b.timestamp) return a.timestamp < b.timestamp;
    if (a.user != b.user) return a.user < b.user;
    return a.seq < b.seq;
  });
  input.num_lines = events.size();

  // Route users to connections; the split fault moves every other line
  // of the busiest-in-the-middle user to the other connection.
  input.user_conn.resize(input.num_users);
  for (std::uint32_t u = 0; u < input.num_users; ++u) {
    input.user_conn[u] = static_cast<std::uint8_t>(u & 1);
  }
  std::int64_t split_user = -1;
  if (options.split_one_user && !events.empty()) {
    split_user = events[events.size() / 2].user;
  }

  // Count page views per user for the CSR layout.
  input.user_begin.assign(input.num_users + 1, 0);
  for (const Event& event : events) {
    if (IsPageView(event.kind)) ++input.user_begin[event.user + 1];
  }
  for (std::uint32_t u = 0; u < input.num_users; ++u) {
    input.user_begin[u + 1] += input.user_begin[u];
  }
  input.page_views.resize(input.user_begin[input.num_users]);
  std::vector<std::uint64_t> fill(input.user_begin.begin(),
                                  input.user_begin.end() - 1);

  for (ConnStream& conn : input.conns) {
    conn.text.reserve(events.size() * 80 / 2 + 4096);
    conn.line_end.reserve(events.size() / 2 + 16);
    conn.line_global.reserve(events.size() / 2 + 16);
  }
  std::uint32_t split_lines = 0;
  wum::TimeSeconds stamp_time = -1;
  std::string stamp;
  for (std::size_t i = 0; i < events.size(); ++i) {
    const Event& event = events[i];
    std::uint8_t conn_index = input.user_conn[event.user];
    if (static_cast<std::int64_t>(event.user) == split_user) {
      conn_index = static_cast<std::uint8_t>((split_lines++) & 1);
    }
    ConnStream& conn = input.conns[conn_index];
    if (event.timestamp != stamp_time) {
      stamp_time = event.timestamp;
      stamp = wum::FormatClfTimestamp(stamp_time);
    }
    if (IsPageView(event.kind)) {
      input.page_views[fill[event.user]++] = PageView{
          wum::PageRequest{static_cast<wum::PageId>(event.page),
                           event.timestamp},
          static_cast<std::uint32_t>(i),
          static_cast<std::uint32_t>(conn.line_end.size())};
    }
    RenderLine(event, stamp, &conn.text);
    conn.line_end.push_back(conn.text.size());
    conn.line_global.push_back(static_cast<std::uint32_t>(i));
  }
  return input;
}

}  // namespace servebench
