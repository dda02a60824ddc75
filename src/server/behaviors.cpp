#include "server/behaviors.h"

#include <algorithm>
#include <cstdio>

#include "net/cookie_parse.h"
#include "server/words.h"

namespace cookiepicker::server {

namespace {

std::string randomHexId(util::Pcg32& rng) {
  char buffer[20];
  std::snprintf(buffer, sizeof(buffer), "%08x%08x", rng.next(), rng.next());
  return buffer;
}

std::string setCookieValue(const std::string& name, const std::string& value,
                           std::int64_t maxAgeSeconds,
                           const std::string& path) {
  std::string header = name + "=" + value;
  if (maxAgeSeconds > 0) {
    header += "; Max-Age=" + std::to_string(maxAgeSeconds);
  }
  header += "; Path=" + path;
  return header;
}

void insertFirst(std::vector<Block>& blocks, Block block) {
  blocks.insert(blocks.begin(), std::move(block));
}

}  // namespace

// --- TrackingCookieBehavior -------------------------------------------------

TrackingCookieBehavior::TrackingCookieBehavior(std::string cookieName,
                                               std::int64_t maxAgeSeconds,
                                               std::string cookiePath,
                                               std::string setOnPathPrefix)
    : cookieName_(std::move(cookieName)),
      maxAgeSeconds_(maxAgeSeconds),
      cookiePath_(std::move(cookiePath)),
      setOnPathPrefix_(std::move(setOnPathPrefix)) {}

void TrackingCookieBehavior::onRequest(const RenderContext& context,
                                       net::HttpResponse& response) {
  if (!setOnPathPrefix_.empty() &&
      context.path.compare(0, setOnPathPrefix_.size(), setOnPathPrefix_) !=
          0) {
    return;
  }
  if (context.hasCookie(cookieName_)) return;
  // Half the trackers (stable per name) use the older Expires=<RFC 1123>
  // attribute instead of Max-Age, as real 2007 servers did — both formats
  // flow through the full parsing pipeline.
  if (util::fnv1a64(cookieName_) % 2 == 0) {
    // Round the current time up to whole seconds so the declared lifetime
    // is never a fraction short of the intended Max-Age equivalent.
    const std::int64_t expiresEpochSeconds =
        (context.clock->nowMs() + 999) / 1000 + maxAgeSeconds_;
    response.headers.add(
        "Set-Cookie",
        cookieName_ + "=" + randomHexId(*context.fetchRng) +
            "; Expires=" + net::formatHttpDate(expiresEpochSeconds) +
            "; Path=" + cookiePath_);
    return;
  }
  response.headers.add(
      "Set-Cookie", setCookieValue(cookieName_, randomHexId(*context.fetchRng),
                                   maxAgeSeconds_, cookiePath_));
}

// --- SessionCartBehavior ----------------------------------------------------

SessionCartBehavior::SessionCartBehavior(std::string cookieName)
    : cookieName_(std::move(cookieName)) {}

void SessionCartBehavior::onRequest(const RenderContext& context,
                                    net::HttpResponse& response) {
  if (context.hasCookie(cookieName_)) return;
  // Session cookie: no Max-Age / Expires.
  response.headers.add("Set-Cookie", cookieName_ + "=0; Path=/");
}

void SessionCartBehavior::render(const RenderContext& context,
                                 PagePlan& page) {
  const std::string_view count =
      context.hasCookie(cookieName_) ? context.cookieValue(cookieName_) : "0";
  Block cart{"<span class=\"cart-status\">Cart items: "};
  appendText(cart.html, count);
  cart.html += "</span>";
  // The cart widget renders either way, but its content is a function of the
  // cookie read — taint it in both branches.
  cart.taint = context.taintFor(cookieName_);
  page.header.push_back(std::move(cart));
}

// --- PreferenceCookieBehavior -----------------------------------------------

PreferenceCookieBehavior::PreferenceCookieBehavior(
    std::string cookieName, int intensity, std::int64_t maxAgeSeconds,
    std::string affectedPathPrefix)
    : cookieName_(std::move(cookieName)),
      intensity_(intensity),
      maxAgeSeconds_(maxAgeSeconds),
      affectedPathPrefix_(std::move(affectedPathPrefix)) {}

bool PreferenceCookieBehavior::affectsPath(const std::string& path) const {
  return affectedPathPrefix_.empty() ||
         path.compare(0, affectedPathPrefix_.size(), affectedPathPrefix_) ==
             0;
}

void PreferenceCookieBehavior::onRequest(const RenderContext& context,
                                         net::HttpResponse& response) {
  if (context.hasCookie(cookieName_)) return;
  response.headers.add(
      "Set-Cookie",
      setCookieValue(cookieName_, "default", maxAgeSeconds_, "/"));
}

void PreferenceCookieBehavior::render(const RenderContext& context,
                                      PagePlan& page) {
  // Both branches below are conditioned on reading this cookie, so both
  // taint what they emit — the absence branch's banner is as much a
  // consequence of the read as the personalized content.
  const provenance::LabelSet taint = context.taintFor(cookieName_);
  if (!context.hasCookie(cookieName_) || !affectsPath(context.path)) {
    // Without the preference cookie the generic page carries a hint banner.
    if (affectsPath(context.path)) {
      insertFirst(page.main,
                  {"<div class=\"pref-hint\">Set your preferences to "
                   "personalize this page.</div>",
                   taint});
    }
    return;
  }

  util::Pcg32& stable = *context.stableRng;
  // 1. Personalized greeting replaces the generic site title text.
  page.heading = "Welcome back — your " + randomWord(stable) + " edition";
  page.headingTaint |= taint;
  // 2. Sidebar with saved links, just before <main>.
  page.beforeMain.push_back(
      {makeSidebar(stable, "Your saved topics", 5), taint});
  // 3. Recommendation sections at the top of <main>.
  for (int i = 0; i < intensity_; ++i) {
    Block recommended{"<section class=\"recommended\">", taint};
    std::string& out = recommended.html;
    appendTextElement(out, "h2",
                      "Recommended for you: " + randomTitle(stable));
    appendTextElement(out, "p", randomParagraph(stable, 2));
    out += "<ul>";
    for (int j = 0; j < 4; ++j) {
      appendTextElement(out, "li", randomPhrase(stable, 4));
    }
    out += "</ul></section>";
    insertFirst(page.main, std::move(recommended));
  }
  // 4. High intensity: personalization dominates — generic sections are
  // replaced outright (drives P4-style similarity scores near 0.2). The
  // walk runs back to front, so the feeds draw in reverse document order.
  if (intensity_ >= 3) {
    for (auto it = page.main.rbegin(); it != page.main.rend(); ++it) {
      if (!it->contentSection) continue;
      Block feed{"<article class=\"personal-feed\">", taint};
      std::string& out = feed.html;
      appendTextElement(out, "h2", "From your feed: " + randomTitle(stable));
      out += "<dl>";
      for (int j = 0; j < 3; ++j) {
        appendTextElement(out, "dt", randomTitle(stable));
        appendTextElement(out, "dd", randomParagraph(stable, 1));
      }
      out += "</dl></article>";
      *it = std::move(feed);
    }
  }
}

// --- SignUpWallBehavior -----------------------------------------------------

SignUpWallBehavior::SignUpWallBehavior(std::string cookieName,
                                       std::int64_t maxAgeSeconds)
    : cookieName_(std::move(cookieName)), maxAgeSeconds_(maxAgeSeconds) {}

void SignUpWallBehavior::onRequest(const RenderContext& context,
                                   net::HttpResponse& response) {
  if (context.hasCookie(cookieName_)) return;
  response.headers.add(
      "Set-Cookie", setCookieValue(cookieName_, randomHexId(*context.fetchRng),
                                   maxAgeSeconds_, "/"));
}

void SignUpWallBehavior::render(const RenderContext& context,
                                PagePlan& page) {
  const provenance::LabelSet taint = context.taintFor(cookieName_);
  if (context.hasCookie(cookieName_)) {
    // Members get a small account toolbar.
    page.header.push_back(
        {"<div class=\"account-bar\">Signed in — account menu</div>",
         taint});
    return;
  }
  // No account cookie: the entire content area becomes the sign-up wall.
  // The wall replaces <main> wholesale, so the whole emptied container is
  // a consequence of the cookie read.
  page.main.clear();
  page.main.push_back({makeSignUpForm(*context.stableRng)});
  page.mainTaint |= taint;
}

// --- QueryCacheBehavior -----------------------------------------------------

QueryCacheBehavior::QueryCacheBehavior(std::string cookieName,
                                       std::int64_t maxAgeSeconds)
    : cookieName_(std::move(cookieName)), maxAgeSeconds_(maxAgeSeconds) {}

void QueryCacheBehavior::onRequest(const RenderContext& context,
                                   net::HttpResponse& response) {
  // The performance effect (the paper's P2): with the cookie, the server
  // reuses the user's cached query results; without it, results must be
  // recomputed and the response takes far longer.
  if (context.hasCookie(cookieName_)) {
    response.serverProcessingMs += 40.0;
    return;
  }
  response.serverProcessingMs += 1200.0 + 600.0 * context.fetchRng->uniform01();
  response.headers.add(
      "Set-Cookie", setCookieValue(cookieName_, randomHexId(*context.fetchRng),
                                   maxAgeSeconds_, "/"));
}

void QueryCacheBehavior::render(const RenderContext& context,
                                PagePlan& page) {
  const provenance::LabelSet taint = context.taintFor(cookieName_);
  if (context.hasCookie(cookieName_)) {
    // The cookie names the user's server-side result directory; the page
    // embeds the cached results instantly.
    Block cached{"<section class=\"query-cache\">", taint};
    appendTextElement(cached.html, "h2", "Your recent query results");
    cached.html += makeResultList(*context.stableRng, 8);
    appendTextElement(cached.html, "p",
                      "Served from your result cache for instant reuse.");
    cached.html += "</section>";
    insertFirst(page.main, std::move(cached));
  } else {
    insertFirst(page.main,
                {"<div class=\"query-pending\"><h2>Recomputing your "
                 "results</h2><p>No result cache found; queries must be "
                 "executed again.</p></div>",
                 taint});
  }
}

// --- AdRotationNoise --------------------------------------------------------

AdRotationNoise::AdRotationNoise(bool structuralVariation)
    : structuralVariation_(structuralVariation) {}

void AdRotationNoise::render(const RenderContext& context, PagePlan& page) {
  util::Pcg32& rng = *context.fetchRng;
  page.forEachSlot(SlotKind::Ad, [&](std::string& slot) {
    const int shape =
        structuralVariation_ ? static_cast<int>(rng.uniform(0, 2)) : 0;
    std::string anchor = "<a href=\"/ad/redirect";
    anchor += std::to_string(rng.uniform(1, 999));
    anchor += "\">";
    appendText(anchor, randomAdCopy(rng));
    anchor += "</a>";
    switch (shape) {
      case 0:
        slot = std::move(anchor);
        break;
      case 1:
        slot = std::move(anchor);
        slot += "<span class=\"sponsor-tag\">Sponsored</span>";
        break;
      default:
        slot = "<div class=\"ad-wrap\"><img src=\"/assets/ad";
        slot += std::to_string(rng.uniform(1, 9));
        slot += ".png\">";
        slot += anchor;
        slot += "</div>";
        break;
    }
  });
}

// --- HeadlineRotationNoise --------------------------------------------------

void HeadlineRotationNoise::render(const RenderContext& context,
                                   PagePlan& page) {
  util::Pcg32& rng = *context.fetchRng;
  page.forEachSlot(SlotKind::Headline, [&](std::string& headline) {
    headline.clear();
    appendText(headline, randomPhrase(rng, 5));
  });
}

// --- TimestampNoise ---------------------------------------------------------

void TimestampNoise::render(const RenderContext& context, PagePlan& page) {
  if (!page.timestamp.has_value()) return;
  const auto totalSeconds = context.clock->nowMs() / 1000;
  char buffer[16];
  std::snprintf(buffer, sizeof(buffer), "%02d:%02d:%02d",
                static_cast<int>((totalSeconds / 3600) % 24),
                static_cast<int>((totalSeconds / 60) % 60),
                static_cast<int>(totalSeconds % 60));
  *page.timestamp = buffer;
}

// --- LayoutShuffleNoise -----------------------------------------------------

LayoutShuffleNoise::LayoutShuffleNoise(double probability, int variants)
    : probability_(probability), variants_(std::max(1, variants)) {}

void LayoutShuffleNoise::render(const RenderContext& context,
                                PagePlan& page) {
  util::Pcg32& rng = *context.fetchRng;
  if (!rng.chance(probability_)) return;
  std::vector<Block>& main = page.main;
  if (main.empty()) return;

  // A structurally distinctive promo block lands at the top of <main>...
  const int variant = static_cast<int>(
      rng.uniform(0, static_cast<std::uint32_t>(variants_ - 1)));
  insertFirst(main, {makePromoBlock(rng, variant)});

  // ...and the remaining sections rotate (order matters to STM): the promo
  // stays first, the rest shift left by `shift`.
  const std::size_t count = main.size();
  if (count > 2) {
    const std::size_t shift =
        1 + rng.uniform(0, static_cast<std::uint32_t>(count - 2));
    std::rotate(main.begin() + 1,
                main.begin() + 1 +
                    static_cast<std::ptrdiff_t>(shift % (count - 1)),
                main.end());
  }
  // Occasionally a whole section disappears for this fetch.
  if (main.size() > 2 && rng.chance(0.5)) {
    main.pop_back();
  }
}

}  // namespace cookiepicker::server
