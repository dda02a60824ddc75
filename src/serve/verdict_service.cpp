#include "serve/verdict_service.h"

#include <algorithm>
#include <charconv>
#include <optional>
#include <vector>

#include "util/strings.h"

namespace cookiepicker::serve {

namespace {

// Minimal query-string lookup ("a=1&b=2").
std::string queryParam(const std::string& query, const std::string& key) {
  std::size_t pos = 0;
  while (pos <= query.size()) {
    std::size_t amp = query.find('&', pos);
    if (amp == std::string::npos) amp = query.size();
    const std::string_view pair(query.data() + pos, amp - pos);
    const std::size_t eq = pair.find('=');
    if (eq != std::string_view::npos && pair.substr(0, eq) == key) {
      return std::string(pair.substr(eq + 1));
    }
    pos = amp + 1;
  }
  return std::string();
}

// The `views` query value: a decimal integer in [1, kMaxVerdictViews],
// consumed whole; nullopt for anything else.
std::optional<int> parseViews(const std::string& text) {
  int views = 0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, views);
  if (ec != std::errc() || ptr != end || views < 1 ||
      views > kMaxVerdictViews) {
    return std::nullopt;
  }
  return views;
}

// Indexed by core::KnowledgeOutcome.
constexpr const char* kKnowledgeOutcomeNames[] = {"unconsulted", "warm",
                                                  "cold", "demoted"};

// Appends `,"field":["a","b"]`.
void appendNameArray(std::string& json, const char* field,
                     const std::vector<std::string>& names) {
  util::appendParts(json, {",\"", field, "\":["});
  for (std::size_t i = 0; i < names.size(); ++i) {
    if (i > 0) json += ',';
    util::appendJsonString(json, names[i]);
  }
  json += "]";
}

net::HttpResponse jsonResponse(int status, std::string body) {
  net::HttpResponse response;
  response.status = status;
  response.statusText = status == 200 ? "OK" : "Bad Request";
  response.headers.set("Content-Type", "application/json");
  response.body = std::move(body);
  return response;
}

}  // namespace

VerdictService::VerdictService(net::Transport& transport,
                               VerdictServiceConfig config)
    : transport_(transport), config_(std::move(config)) {}

void VerdictService::addHost(const std::string& host, int pageCount) {
  std::lock_guard<std::mutex> lock(mutex_);
  hostPages_[util::toLowerAscii(host)] = std::max(1, pageCount);
}

std::uint64_t VerdictService::sessionsRun() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return sessionsRun_;
}

std::string VerdictService::runVerdict(const std::string& requestedHost,
                                       int views) {
  const std::string host = util::toLowerAscii(requestedHost);
  int pages = 1;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = hostPages_.find(host);
    if (it == hostPages_.end()) return std::string();
    pages = it->second;
    ++sessionsRun_;
  }

  const int viewCount = std::clamp(views, 1, kMaxVerdictViews);
  const core::SessionResult session = core::runHostSession(
      transport_, host, pages, viewCount, config_, nullptr, false);
  const core::HostReport& r = session.report;

  std::string json = "{\"host\":";
  util::appendJsonString(json, host);
  util::appendParts(
      json, {",\"views\":", std::to_string(viewCount),
             ",\"persistentCookies\":", std::to_string(r.persistentCookies),
             ",\"markedUseful\":", std::to_string(r.markedUseful),
             ",\"pageViews\":", std::to_string(r.pageViews),
             ",\"hiddenRequests\":", std::to_string(r.hiddenRequests),
             ",\"trainingActive\":", r.trainingActive ? "true" : "false",
             ",\"enforced\":", r.enforced ? "true" : "false"});
  appendNameArray(json, "usefulCookies", session.usefulCookies);
  appendNameArray(json, "blockedCookies", session.blockedCookies);
  // Only present when a shared base is attached, so knowledge-free
  // deployments keep their historical verdict bytes.
  if (config_.knowledge != nullptr) {
    util::appendParts(json, {",\"knowledge\":\"",
                             kKnowledgeOutcomeNames[static_cast<int>(
                                 session.knowledgeOutcome)],
                             "\""});
  }
  json += "}";
  return json;
}

net::HttpResponse VerdictService::handle(const net::HttpRequest& request) {
  const std::string& path = request.url.path();
  if (path == "/healthz") {
    net::HttpResponse response;
    response.headers.set("Content-Type", "text/plain");
    response.body = "ok";
    return response;
  }
  if (path == "/stats") {
    return jsonResponse(
        200, "{\"sessionsRun\":" + std::to_string(sessionsRun()) + "}");
  }
  if (path == "/verdict") {
    const std::string host = queryParam(request.url.query(), "host");
    if (host.empty()) {
      return jsonResponse(400, "{\"error\":\"missing host parameter\"}");
    }
    const std::string viewsText = queryParam(request.url.query(), "views");
    const std::optional<int> views =
        viewsText.empty() ? config_.defaultViews : parseViews(viewsText);
    if (!views.has_value()) {
      return jsonResponse(400, "{\"error\":\"views must be an integer in [1, " +
                                   std::to_string(kMaxVerdictViews) + "]\"}");
    }
    std::string verdict = runVerdict(host, *views);
    if (verdict.empty()) {
      return jsonResponse(400, "{\"error\":\"unknown host\"}");
    }
    return jsonResponse(200, std::move(verdict));
  }
  net::HttpResponse response = net::HttpResponse::notFound(path);
  response.status = 404;
  return response;
}

}  // namespace cookiepicker::serve
