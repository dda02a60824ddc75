#include <gtest/gtest.h>

#include "dom/snapshot.h"
#include "html/parser.h"
#include "html/stream_snapshot.h"
#include "net/cookie_parse.h"
#include "util/stats.h"
#include "server/generator.h"
#include "test_support.h"

namespace cookiepicker::browser {
namespace {

using testsupport::SimWorld;

TEST(Browser, VisitBuildsStreamingSnapshot) {
  SimWorld world;
  const auto spec = world.addGenericSite("shop.example");
  const PageView view = world.browser.visit(world.urlFor(spec));
  EXPECT_EQ(view.status, 200);
  ASSERT_NE(view.snapshot, nullptr);
  EXPECT_GT(view.snapshot->nodeCount(), 0u);
  EXPECT_GT(view.snapshot->comparisonRootIndex(), 0u);  // found <body>
  EXPECT_EQ(view.url.host(), "shop.example");
}

// Asserts `streamed` is row-for-row the snapshot the reference pipeline —
// a full parseHtml into a dom::Node tree, then TreeSnapshot(Node) — builds
// from the same bytes.
void expectReferenceSnapshot(const dom::TreeSnapshot& streamed,
                             const dom::Node& document) {
  const dom::TreeSnapshot reference(document);
  ASSERT_EQ(streamed.nodeCount(), reference.nodeCount());
  for (std::uint32_t i = 0; i < reference.nodeCount(); ++i) {
    EXPECT_EQ(streamed.symbol(i), reference.symbol(i)) << "row " << i;
    EXPECT_EQ(streamed.subtreeEnd(i), reference.subtreeEnd(i)) << "row " << i;
    EXPECT_EQ(streamed.level(i), reference.level(i)) << "row " << i;
    EXPECT_EQ(streamed.rawFlags(i), reference.rawFlags(i)) << "row " << i;
    EXPECT_EQ(streamed.textHash(i), reference.textHash(i)) << "row " << i;
    EXPECT_EQ(streamed.text(i), reference.text(i)) << "row " << i;
  }
  EXPECT_EQ(streamed.comparisonRootIndex(), reference.comparisonRootIndex());
}

// Regular and hidden copies of the generic site and of every Table 1 page:
// the browser's single streaming pass must reproduce the reference tree
// pipeline's snapshot and, for visits, its resolved subresource list.
TEST(Browser, VisitAndHiddenFetchMatchReferencePipeline) {
  SimWorld world;
  std::vector<server::SiteSpec> specs = {
      server::makeGenericSpec("T", "shop.example", 7)};
  for (const server::SiteSpec& spec : server::table1Roster()) {
    specs.push_back(spec);
  }
  int pages = 0;
  for (const server::SiteSpec& spec : specs) {
    const auto site = server::buildSite(spec, world.clock);
    world.network.registerHost(spec.domain, site, spec.latencyProfile());
    for (const std::string& path : site->pagePaths()) {
      SCOPED_TRACE(spec.domain + path);
      const PageView view = world.browser.visit(world.urlFor(spec, path));
      ASSERT_EQ(view.status, 200);
      ASSERT_NE(view.snapshot, nullptr);
      const auto document = html::parseHtml(view.containerHtml);
      expectReferenceSnapshot(*view.snapshot, *document);

      const html::StreamPageInfo page = html::collectPageInfo(*document);
      const net::Url base =
          page.baseHref.empty() ? view.url : view.url.resolve(page.baseHref);
      ASSERT_EQ(view.subresources.size(), page.subresourceRefs.size());
      for (std::size_t i = 0; i < view.subresources.size(); ++i) {
        EXPECT_EQ(view.subresources[i].toString(),
                  base.resolve(page.subresourceRefs[i]).toString());
      }

      const HiddenFetchResult hidden = world.browser.hiddenFetch(
          view, [](const cookies::CookieRecord& record) {
            return record.persistent;
          });
      ASSERT_TRUE(hidden.usable());
      ASSERT_NE(hidden.snapshot, nullptr);
      expectReferenceSnapshot(*hidden.snapshot, *html::parseHtml(hidden.html));
      if (::testing::Test::HasFailure()) return;
      ++pages;
    }
  }
  EXPECT_GT(pages, static_cast<int>(specs.size()));
}

TEST(Browser, VisitFetchesSubresources) {
  SimWorld world;
  const auto spec = world.addGenericSite("shop.example");
  const PageView view = world.browser.visit(world.urlFor(spec));
  // Skeleton embeds a stylesheet, a script, and banner images.
  EXPECT_GE(view.timing.subresourceCount, 3);
  EXPECT_GT(world.browser.objectRequestCount(), 0u);
}

TEST(Browser, VisitAdvancesSimClock) {
  SimWorld world;
  const auto spec = world.addGenericSite("shop.example");
  const util::SimTimeMs before = world.clock.nowMs();
  const PageView view = world.browser.visit(world.urlFor(spec));
  EXPECT_GT(world.clock.nowMs(), before);
  EXPECT_GT(view.timing.totalLoadMs, 0.0);
}

TEST(Browser, StoresFirstPartyCookies) {
  SimWorld world;
  const auto spec = world.addGenericSite("shop.example");
  world.browser.visit(world.urlFor(spec));
  // Generic site: 1 preference + 2 trackers, all first-party persistent.
  EXPECT_EQ(
      world.browser.jar().persistentCookiesForHost(spec.domain).size(), 3u);
}

TEST(Browser, SendsStoredCookiesBack) {
  SimWorld world;
  const auto spec = world.addGenericSite("shop.example");
  world.browser.visit(world.urlFor(spec));
  const PageView second = world.browser.visit(world.urlFor(spec));
  const std::string cookieHeader =
      second.containerRequest.headers.get("Cookie").value_or("");
  EXPECT_NE(cookieHeader.find("prefstyle="), std::string::npos);
  EXPECT_NE(cookieHeader.find("trk0="), std::string::npos);
}

TEST(Browser, FollowsRedirectsToRealContainer) {
  SimWorld world;
  auto spec = server::makeGenericSpec("R", "redir.example", 5);
  spec.redirectEntry = true;
  world.addSite(spec);
  const PageView view = world.browser.visit("http://redir.example/");
  EXPECT_EQ(view.status, 200);
  EXPECT_EQ(view.url.path(), "/home");  // step one found the real page
  EXPECT_EQ(view.timing.redirectCount, 1);
  EXPECT_EQ(view.containerRequest.url.path(), "/home");
}

TEST(Browser, UnknownHostYields404View) {
  SimWorld world;
  const PageView view = world.browser.visit("http://nowhere.example/");
  EXPECT_EQ(view.status, 404);
}

TEST(Browser, UnparseableUrlYieldsEmptyView) {
  SimWorld world;
  const PageView view = world.browser.visit("not a url");
  EXPECT_EQ(view.status, 0);
  ASSERT_NE(view.snapshot, nullptr);  // empty-document skeleton, flattened
}

TEST(Browser, ThirdPartyCookiesBlockedByDefaultPolicy) {
  SimWorld world;
  // A site whose pages embed an image from another registrable domain.
  world.addGenericSite("main.example");
  world.addGenericSite("tracker.other");
  // Craft a page view against tracker.other as a third-party subresource:
  // directly exercise storeResponseCookies through a full visit where the
  // document is main.example but a subresource is tracker.other. The
  // generic site doesn't embed cross-domain images, so test the policy
  // check directly instead.
  EXPECT_FALSE(world.browser.policy().acceptThirdParty);
  EXPECT_TRUE(world.browser.policy().shouldAccept(true, true));
  EXPECT_FALSE(world.browser.policy().shouldAccept(false, true));
}

TEST(Browser, HiddenFetchStripsSelectedPersistentCookies) {
  SimWorld world;
  const auto spec = world.addGenericSite("shop.example");
  world.browser.visit(world.urlFor(spec));
  const PageView view = world.browser.visit(world.urlFor(spec));

  // Strip everything persistent and check the stripped list.
  const HiddenFetchResult hidden = world.browser.hiddenFetch(
      view,
      [](const cookies::CookieRecord& record) { return record.persistent; });
  EXPECT_EQ(hidden.status, 200);
  ASSERT_NE(hidden.snapshot, nullptr);
  EXPECT_EQ(hidden.strippedCookies.size(), 3u);
}

TEST(Browser, HiddenFetchKeepsSessionCookies) {
  SimWorld world;
  auto spec = server::makeGenericSpec("C", "cart.example", 6);
  spec.sessionCart = true;
  world.addSite(spec);
  world.browser.visit("http://cart.example/");
  const PageView view = world.browser.visit("http://cart.example/");
  const HiddenFetchResult hidden = world.browser.hiddenFetch(
      view,
      [](const cookies::CookieRecord& record) { return record.persistent; });
  // The rendered hidden page still shows the session cart.
  ASSERT_NE(hidden.snapshot, nullptr);
  bool sawCart = false;
  for (std::uint32_t i = 0; i < hidden.snapshot->nodeCount(); ++i) {
    if (hidden.snapshot->text(i).find("Cart items") != std::string_view::npos) {
      sawCart = true;
    }
  }
  EXPECT_TRUE(sawCart);
  for (const auto& key : hidden.strippedCookies) {
    EXPECT_NE(key.name, "cart");
  }
}

TEST(Browser, HiddenFetchDoesNotFetchObjectsOrStoreCookies) {
  SimWorld world;
  const auto spec = world.addGenericSite("shop.example");
  const PageView view = world.browser.visit(world.urlFor(spec));
  world.browser.jar().clear();  // forget everything the visit stored

  world.network.resetCounters();
  const std::uint64_t objectsBefore = world.browser.objectRequestCount();
  world.browser.hiddenFetch(view, [](const cookies::CookieRecord&) {
    return true;
  });
  // Exactly one network request (the container), no object loads.
  EXPECT_EQ(world.network.totalRequests(), 1u);
  EXPECT_EQ(world.browser.objectRequestCount(), objectsBefore);
  // Set-Cookie headers on the hidden response were ignored.
  EXPECT_EQ(world.browser.jar().size(), 0u);
}

TEST(Browser, PersistentSendFilterSuppressesCookies) {
  SimWorld world;
  const auto spec = world.addGenericSite("shop.example");
  world.browser.visit(world.urlFor(spec));
  world.browser.setPersistentSendFilter(
      [](const cookies::CookieRecord& record) {
        return record.key.name.starts_with("trk");
      });
  const PageView view = world.browser.visit(world.urlFor(spec));
  const std::string cookieHeader =
      view.containerRequest.headers.get("Cookie").value_or("");
  EXPECT_EQ(cookieHeader.find("trk"), std::string::npos);
  EXPECT_NE(cookieHeader.find("prefstyle="), std::string::npos);
  world.browser.clearPersistentSendFilter();
  const PageView after = world.browser.visit(world.urlFor(spec));
  EXPECT_NE(after.containerRequest.headers.get("Cookie").value_or("").find(
                "trk0="),
            std::string::npos);
}

TEST(ThinkTime, SamplesAboveFloorAndHeavyTailed) {
  ThinkTimeModel model(/*medianSeconds=*/12.0, /*sigma=*/0.9,
                       /*floorSeconds=*/1.0);
  util::Pcg32 rng(77);
  util::RunningStats stats;
  for (int i = 0; i < 5000; ++i) {
    const double ms = model.sampleMs(rng);
    EXPECT_GE(ms, 1000.0);
    stats.add(ms);
  }
  // Log-normal with median 12 s: mean exceeds 10 s (Mah's model).
  EXPECT_GT(stats.mean(), 10'000.0);
  EXPECT_LT(stats.mean(), 40'000.0);
}

TEST(Browser, ThinkAdvancesClock) {
  SimWorld world;
  const util::SimTimeMs before = world.clock.nowMs();
  const double thinkMs = world.browser.think();
  EXPECT_GE(thinkMs, 1000.0);
  EXPECT_EQ(world.clock.nowMs(), before + static_cast<util::SimTimeMs>(
                                              thinkMs));
}

TEST(Browser, BlockAllPolicyStoresNothing) {
  SimWorld world;
  const auto spec = world.addGenericSite("shop.example");
  world.browser.setPolicy(cookies::CookiePolicy::blockAll());
  world.browser.visit(world.urlFor(spec));
  EXPECT_EQ(world.browser.jar().size(), 0u);
}

}  // namespace
}  // namespace cookiepicker::browser
