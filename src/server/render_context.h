// Per-request rendering context handed to site behaviors.
#pragma once

#include <functional>
#include <map>
#include <string>
#include <string_view>

#include "net/http.h"
#include "provenance/taint.h"
#include "util/clock.h"
#include "util/rng.h"

namespace cookiepicker::server {

struct RenderContext {
  const net::HttpRequest* request = nullptr;
  std::string path;  // request path, e.g. "/page3"
  // Cookies the client sent, name → value. The transparent comparator lets
  // lookups take a string_view without building a std::string.
  std::map<std::string, std::string, std::less<>> cookies;
  util::SimClock* clock = nullptr;
  // Fresh stream per fetch: noise sources draw from this, so two fetches of
  // the same page (e.g. the regular and the hidden copy) see different ads.
  util::Pcg32* fetchRng = nullptr;
  // Stable stream per (site, path): the page skeleton draws from this, so
  // the page's *structure* is identical across fetches unless a behavior
  // deliberately changes it.
  util::Pcg32* stableRng = nullptr;
  // Set only when the client asked for provenance: behaviors label the DOM
  // they emit with the taint of every cookie they *read* (present or absent
  // — the branch itself is the information flow). Null on ordinary requests,
  // so the baseline render path is untouched.
  provenance::TaintRecorder* taint = nullptr;

  // Taint label for a cookie read; 0 when no recorder is attached, so
  // behaviors can mark unconditionally.
  provenance::LabelSet taintFor(std::string_view name) const {
    return taint == nullptr ? 0 : taint->labelFor(name);
  }

  bool hasCookie(std::string_view name) const {
    return cookies.contains(name);
  }
  // Empty when absent; the view lives as long as the context.
  std::string_view cookieValue(std::string_view name) const {
    const auto it = cookies.find(name);
    return it == cookies.end() ? std::string_view() : it->second;
  }
};

}  // namespace cookiepicker::server
