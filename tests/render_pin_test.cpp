// Byte-level pin of the synthetic origin.
//
// The origin is the workload generator behind every determinism golden in
// the tree, so its output is pinned here directly: a fixed request sequence
// per site, hashed response by response. Each page path is requested with no
// cookies, with the full jar of a first visit, and with each persistent
// cookie stripped in turn — every request once plain and once asking for
// provenance. The hashed surface is the status, the body, every Set-Cookie
// value, Content-Type, X-Cookie-Provenance and serverProcessingMs.
//
// The constants are a property of the origin, not of its implementation: a
// renderer rewrite must reproduce them exactly, and they are never edited to
// make a rewrite pass.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "net/cookie_parse.h"
#include "provenance/taint.h"
#include "server/evasion.h"
#include "server/generator.h"
#include "server/site.h"
#include "util/rng.h"

namespace cookiepicker::server {
namespace {

using Jar = std::vector<std::pair<std::string, std::string>>;

// Folds responses into one digest; `requests` counts them so a changed
// sequence shows up as a count mismatch before a hash mismatch.
struct Digest {
  std::string folded;
  int requests = 0;

  void fold(const net::HttpResponse& response) {
    std::string record = std::to_string(response.status);
    record += '\n';
    record += response.headers.get("Content-Type").value_or("");
    record += '\n';
    for (const std::string& value : response.setCookieHeaders()) {
      record += value;
      record += '\n';
    }
    record += response.headers.get(provenance::kCookieProvenanceHeader)
                  .value_or("-");
    char ms[32];
    std::snprintf(ms, sizeof(ms), "\n%.17g\n", response.serverProcessingMs);
    record += ms;
    record += response.body;
    folded += std::to_string(util::fnv1a64(record));
    folded += ',';
    ++requests;
  }
  std::uint64_t value() const { return util::fnv1a64(folded); }
};

bool isPersistent(const std::string& setCookie) {
  return setCookie.find("Max-Age=") != std::string::npos ||
         setCookie.find("Expires=") != std::string::npos;
}

// Adds the Set-Cookie name=value pairs of `response` to `jar` (last value
// wins) and records the names of the persistent ones.
void collect(const net::HttpResponse& response, Jar& jar,
             std::vector<std::string>& persistent) {
  for (const std::string& header : response.setCookieHeaders()) {
    const auto parsed = net::parseSetCookie(header);
    if (!parsed.has_value()) continue;
    bool replaced = false;
    for (auto& [name, value] : jar) {
      if (name == parsed->name) {
        value = parsed->value;
        replaced = true;
      }
    }
    if (!replaced) jar.emplace_back(parsed->name, parsed->value);
    if (isPersistent(header) &&
        std::find(persistent.begin(), persistent.end(), parsed->name) ==
            persistent.end()) {
      persistent.push_back(parsed->name);
    }
  }
}

// Drives one site through the pinned sequence for each of `paths`.
void pinSite(WebSite& site, util::SimClock& clock,
             const std::vector<std::string>& paths, int pixelTrackers,
             Digest& digest) {
  const std::string origin = "http://" + site.config().domain;
  const auto fetch = [&](const std::string& path, const Jar& jar) {
    net::HttpResponse plain;
    for (const bool provenance : {false, true}) {
      clock.advanceMs(1500);
      net::HttpRequest request;
      request.url = *net::Url::parse(origin + path);
      if (!jar.empty()) {
        request.headers.set("Cookie", net::formatCookieHeader(jar));
      }
      if (provenance) {
        request.headers.set(provenance::kWantProvenanceHeader, "1");
      }
      net::HttpResponse response = site.handle(request);
      digest.fold(response);
      if (!provenance) plain = std::move(response);
    }
    return plain;
  };

  // Path-scoped pixel cookies only come from their own endpoints.
  Jar pixelJar;
  std::vector<std::string> pixelPersistent;
  for (int k = 0; k < pixelTrackers; ++k) {
    collect(fetch("/metrics/" + std::to_string(k) + "/pixel.gif", {}),
            pixelJar, pixelPersistent);
  }
  for (const std::string& path : paths) {
    Jar jar = pixelJar;
    std::vector<std::string> persistent = pixelPersistent;
    collect(fetch(path, {}), jar, persistent);
    fetch(path, jar);
    for (const std::string& stripped : persistent) {
      Jar partial;
      for (const auto& entry : jar) {
        if (entry.first != stripped) partial.push_back(entry);
      }
      fetch(path, partial);
    }
  }
}

Digest pinRoster(const std::vector<SiteSpec>& roster, std::size_t maxPaths,
                 bool withEvasion) {
  Digest digest;
  for (const SiteSpec& spec : roster) {
    util::SimClock clock;
    auto site = buildSite(spec, clock);
    if (withEvasion) {
      site->addBehavior(std::make_unique<EvasionBehavior>());
    }
    std::vector<std::string> paths = site->pagePaths();
    if (paths.size() > maxPaths) paths.resize(maxPaths);
    pinSite(*site, clock, paths, spec.pixelTrackers, digest);
  }
  return digest;
}

constexpr std::size_t kAllPaths = ~std::size_t{0};

TEST(RenderPin, Table1Roster) {
  const Digest digest = pinRoster(table1Roster(), kAllPaths, false);
  EXPECT_EQ(digest.requests, 9838);
  EXPECT_EQ(digest.value(), 13247372148022418862ull);
}

TEST(RenderPin, Table2Roster) {
  const Digest digest = pinRoster(table2Roster(), kAllPaths, false);
  EXPECT_EQ(digest.requests, 1800);
  EXPECT_EQ(digest.value(), 14129412698669727675ull);
}

TEST(RenderPin, MeasurementRoster) {
  const Digest digest = pinRoster(measurementRoster(64, 7), 6, false);
  EXPECT_EQ(digest.requests, 3544);
  EXPECT_EQ(digest.value(), 440069001705789559ull);
}

TEST(RenderPin, EvasiveSites) {
  // The probe detector fires on the stripped refetches, so these responses
  // carry the defaced pages.
  std::vector<SiteSpec> roster = table2Roster();
  roster.push_back(table1Roster()[0]);  // S1: layout shuffle under the deface
  const Digest digest = pinRoster(roster, 8, true);
  EXPECT_EQ(digest.requests, 544);
  EXPECT_EQ(digest.value(), 4526906691312287213ull);
}

// Library behaviors in orders and configurations no roster uses: noise
// before the layout shuffle, personalization at full intensity under a
// sign-up wall, a deface in the middle of the chain, no timestamp, several
// ad slots, and a title that needs escaping.
TEST(RenderPin, UnusualBehaviorOrders) {
  Digest digest;
  for (int variant = 0; variant < 2; ++variant) {
    util::SimClock clock;
    SiteConfig config;
    config.domain = "order" + std::to_string(variant) + ".example";
    config.title = variant == 0 ? "Fish & <Chips> \"Daily\"" : "Plain";
    config.category = "home";
    config.seed = 4242 + static_cast<std::uint64_t>(variant);
    config.pageCount = 6;
    config.adSlotsPerSection = 3;
    config.rotatingHeadlines = variant == 0;
    config.timestampInFooter = variant == 1;
    config.pixelTrackers = 2;
    config.plainImages = 3;
    WebSite site(config, clock);
    site.addBehavior(std::make_unique<HeadlineRotationNoise>());
    site.addBehavior(std::make_unique<AdRotationNoise>(true));
    site.addBehavior(std::make_unique<LayoutShuffleNoise>(1.0, 3));
    site.addBehavior(
        std::make_unique<PreferenceCookieBehavior>("prefstyle", 3));
    site.addBehavior(std::make_unique<SessionCartBehavior>());
    site.addBehavior(std::make_unique<PreferenceCookieBehavior>(
        "preflang", 2, 86400, variant == 0 ? "/page" : ""));
    if (variant == 1) site.addBehavior(std::make_unique<EvasionBehavior>());
    site.addBehavior(std::make_unique<SignUpWallBehavior>("acctid"));
    site.addBehavior(std::make_unique<QueryCacheBehavior>("qdir"));
    site.addBehavior(std::make_unique<TimestampNoise>());
    site.addBehavior(std::make_unique<AdRotationNoise>(false));
    site.addBehavior(std::make_unique<TimestampNoise>());
    site.addBehavior(std::make_unique<TrackingCookieBehavior>(
        "px0", 86400, "/metrics/0", "/metrics/0/"));
    site.addBehavior(std::make_unique<TrackingCookieBehavior>("trk0"));
    if (variant == 0) site.addBehavior(std::make_unique<EvasionBehavior>());
    pinSite(site, clock, site.pagePaths(), 1, digest);
  }
  EXPECT_EQ(digest.requests, 196);
  EXPECT_EQ(digest.value(), 8514981029223826242ull);
}

// The standalone large page of the detection-cost benches comes from the
// same section writer; its bytes are pinned across sizes that open and
// close the chapter and zone wrappers at every boundary.
TEST(RenderPin, LargePageHtml) {
  std::string folded;
  for (const int sections : {0, 1, 7, 8, 9, 63, 64, 65, 130}) {
    for (const std::uint64_t seed : {1u, 2u}) {
      folded += std::to_string(
          util::fnv1a64(generateLargePageHtml(sections, seed)));
      folded += ',';
    }
  }
  EXPECT_EQ(util::fnv1a64(folded), 4257812458374671504ull);
}

}  // namespace
}  // namespace cookiepicker::server
