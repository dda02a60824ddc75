// Unit tests for the synthetic-web building blocks: word generation, DOM
// fragments, render-context plumbing, lifetime distribution, and behavior
// ordering inside WebSite.
#include <gtest/gtest.h>

#include <cctype>
#include <set>
#include <vector>

#include "dom/serialize.h"
#include "html/parser.h"
#include "server/fragments.h"
#include "server/generator.h"
#include "server/site.h"
#include "server/words.h"
#include "util/strings.h"

namespace cookiepicker::server {
namespace {

// --- words -----------------------------------------------------------------

TEST(Words, Deterministic) {
  util::Pcg32 a(5, 1);
  util::Pcg32 b(5, 1);
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(randomWord(a), randomWord(b));
  }
}

TEST(Words, PhraseHasRequestedWordCount) {
  util::Pcg32 rng(5, 1);
  const std::string phrase = randomPhrase(rng, 4);
  EXPECT_EQ(util::splitWhitespace(phrase).size(), 4u);
  EXPECT_TRUE(std::isupper(static_cast<unsigned char>(phrase[0])));
}

TEST(Words, SentenceEndsWithPeriod) {
  util::Pcg32 rng(5, 1);
  const std::string sentence = randomPhrase(rng, 3, /*sentence=*/true);
  EXPECT_EQ(sentence.back(), '.');
}

TEST(Words, ParagraphHasSentences) {
  util::Pcg32 rng(5, 1);
  const std::string paragraph = randomParagraph(rng, 3);
  int periods = 0;
  for (const char ch : paragraph) {
    if (ch == '.') ++periods;
  }
  EXPECT_EQ(periods, 3);
}

TEST(Words, TitleIsTitleCase) {
  util::Pcg32 rng(9, 1);
  const std::string title = randomTitle(rng);
  for (const std::string& word : util::splitWhitespace(title)) {
    EXPECT_TRUE(std::isupper(static_cast<unsigned char>(word[0]))) << title;
  }
}

TEST(Words, AdCopyLooksLikeAdCopy) {
  util::Pcg32 rng(11, 1);
  const std::string copy = randomAdCopy(rng);
  EXPECT_NE(copy.find("SAVE "), std::string::npos);
  EXPECT_NE(copy.find('%'), std::string::npos);
}

// --- fragments --------------------------------------------------------------

// Fragments are bytes; the assertions below read them back through the
// parser and walk the resulting tree.

bool hasClass(const dom::Node& node, const std::string& token) {
  for (const std::string& existing :
       util::splitWhitespace(node.attribute("class").value_or(""))) {
    if (existing == token) return true;
  }
  return false;
}

// Descendants of `root` named `tag` whose `name` attribute equals `value`
// (any value when `name` is empty).
std::vector<const dom::Node*> findAllWith(const dom::Node& root,
                                          const std::string& tag,
                                          const std::string& name = "",
                                          const std::string& value = "") {
  std::vector<const dom::Node*> found;
  for (const dom::Node* node : root.findAll(tag)) {
    if (name.empty() || node->attribute(name) == value) found.push_back(node);
  }
  return found;
}

// Element children of `parent` named `tag`.
std::vector<const dom::Node*> childElements(const dom::Node& parent,
                                            const std::string& tag) {
  std::vector<const dom::Node*> found;
  for (const auto& child : parent.children()) {
    if (child->isElement() && child->name() == tag) found.push_back(child.get());
  }
  return found;
}

std::string sectionHtml(const Block& section) {
  std::string html;
  section.appendTo(html, nullptr);
  return html;
}

TEST(Fragments, ContentSectionShape) {
  util::Pcg32 rng(3, 1);
  const Block block = makeContentSection(rng, /*paragraphs=*/2,
                                         /*adSlots=*/2,
                                         /*rotatingHeadline=*/true);
  EXPECT_TRUE(block.contentSection);
  auto document = html::parseHtml(sectionHtml(block));
  const dom::Node* section = document->findFirst("section");
  ASSERT_NE(section, nullptr);
  EXPECT_EQ(section->name(), "section");
  EXPECT_EQ(section->findAll("h2").size(), 1u);
  int headlines = 0;
  for (const dom::Node* heading : section->findAll("h3")) {
    if (hasClass(*heading, "rotating-headline")) ++headlines;
  }
  EXPECT_EQ(headlines, 1);
  EXPECT_EQ(section->findAll("p").size(), 2u);
  std::vector<const dom::Node*> slots;
  for (const dom::Node* div : section->findAll("div")) {
    if (!hasClass(*div, "inner")) continue;
    for (const dom::Node* child : childElements(*div, "div")) {
      if (hasClass(*child, "adslot")) slots.push_back(child);
    }
  }
  EXPECT_EQ(slots.size(), 2u);
  // Ad slots start empty (noise behaviors fill them per fetch).
  for (const dom::Node* slot : slots) {
    EXPECT_EQ(slot->childCount(), 0u);
  }
}

TEST(Fragments, AdSlotDepthIsBelowDefaultLevelCut) {
  // The slot must sit deeper than RSTM's l=5 window when mounted at the
  // standard body>div#page>main chain (design decision 1).
  util::Pcg32 rng(3, 1);
  auto document =
      html::parseHtml(sectionHtml(makeContentSection(rng, 1, 1, false)));
  const dom::Node* section = document->findFirst("section");
  ASSERT_NE(section, nullptr);
  const dom::Node* slot = nullptr;
  for (const dom::Node* div : section->findAll("div")) {
    if (hasClass(*div, "adslot")) {
      slot = div;
      break;
    }
  }
  ASSERT_NE(slot, nullptr);
  // Depth of adslot inside the section subtree:
  int depth = 0;
  for (const dom::Node* node = slot; node != section;
       node = node->parent()) {
    ++depth;
  }
  // section(+3 from body) + depth >= 6 → below the l=5 cut.
  EXPECT_GE(depth + 3, 6);
}

TEST(Fragments, SidebarAndResultListShapes) {
  util::Pcg32 rng(4, 1);
  auto sidebar = html::parseHtml(makeSidebar(rng, "Topics", 5));
  const dom::Node* list = sidebar->findFirst("ul");
  ASSERT_NE(list, nullptr);
  EXPECT_EQ(childElements(*list, "li").size(), 5u);
  EXPECT_NE(sidebar->textContent().find("Topics"), std::string::npos);

  auto results = html::parseHtml(makeResultList(rng, 7));
  const dom::Node* ordered = results->findFirst("ol");
  ASSERT_NE(ordered, nullptr);
  EXPECT_EQ(childElements(*ordered, "li").size(), 7u);
}

TEST(Fragments, SignUpFormHasFields) {
  util::Pcg32 rng(6, 1);
  auto form = html::parseHtml(makeSignUpForm(rng));
  EXPECT_EQ(findAllWith(*form, "input", "name", "username").size(), 1u);
  EXPECT_EQ(findAllWith(*form, "input", "type", "password").size(), 1u);
  EXPECT_EQ(findAllWith(*form, "input", "type", "submit").size(), 1u);
  EXPECT_NE(form->textContent().find("Create your account"),
            std::string::npos);
}

TEST(Fragments, PromoVariantsStructurallyDistinct) {
  util::Pcg32 rng(8, 1);
  auto variant0 = html::parseHtml(makePromoBlock(rng, 0));
  auto variant1 = html::parseHtml(makePromoBlock(rng, 1));
  auto variant2 = html::parseHtml(makePromoBlock(rng, 2));
  const dom::Node* promo0 = variant0->findFirst("div");
  const dom::Node* promo1 = variant1->findFirst("div");
  const dom::Node* promo2 = variant2->findFirst("div");
  ASSERT_NE(promo0, nullptr);
  ASSERT_NE(promo1, nullptr);
  ASSERT_NE(promo2, nullptr);
  EXPECT_NE(dom::structureSignature(*promo0),
            dom::structureSignature(*promo1));
  EXPECT_NE(dom::structureSignature(*promo1),
            dom::structureSignature(*promo2));
  // None of them carries an ad-filter-triggering class.
  for (const dom::Node* promo : {promo0, promo1, promo2}) {
    EXPECT_EQ(promo->attribute("class").value_or("").find("promo"),
              std::string::npos);
  }
}

TEST(Fragments, EscapingMatchesTheSerializer) {
  // Text escapes & < > and attribute values & " < — byte for byte what
  // dom::toHtml writes for the same tree.
  const std::string raw = "a&b<c>d\"e";
  std::string text;
  appendText(text, raw);
  std::string attribute;
  appendAttributeValue(attribute, raw);
  auto element = dom::Node::makeElement("p");
  element->setAttribute("title", raw);
  element->appendChild(dom::Node::makeText(raw));
  EXPECT_EQ("<p title=\"" + attribute + "\">" + text + "</p>",
            dom::toHtml(*element));
  EXPECT_EQ(text, "a&amp;b&lt;c&gt;d\"e");
  EXPECT_EQ(attribute, "a&amp;b&lt;c>d&quot;e");
}

// --- lifetimes ----------------------------------------------------------------

TEST(TrackerLifetimes, DeterministicPerSeedAndIndex) {
  EXPECT_EQ(trackerLifetimeSeconds(5, 0), trackerLifetimeSeconds(5, 0));
  // Different indices usually differ (bucketed distribution).
  std::set<std::int64_t> values;
  for (int i = 0; i < 14; ++i) values.insert(trackerLifetimeSeconds(5, i));
  EXPECT_GT(values.size(), 3u);
}

TEST(TrackerLifetimes, MajorityLiveAYearOrMore) {
  int total = 0;
  int yearPlus = 0;
  for (std::uint64_t seed = 0; seed < 40; ++seed) {
    for (int index = 0; index < 5; ++index) {
      ++total;
      if (trackerLifetimeSeconds(seed, index) >= 365LL * 86400) ++yearPlus;
    }
  }
  EXPECT_GT(static_cast<double>(yearPlus) / total, 0.6);
}

// --- WebSite internals -----------------------------------------------------------

TEST(WebSiteInternals, BehaviorsRunInRegistrationOrder) {
  util::SimClock clock;
  SiteConfig config;
  config.domain = "order.example";
  config.title = "Order";
  config.category = "games";
  config.seed = 12;
  WebSite site(config, clock);

  struct Stamper : SiteBehavior {
    explicit Stamper(std::string tag) : tag_(std::move(tag)) {}
    void render(const RenderContext&, PagePlan& page) override {
      page.header.push_back({"<span class=\"stamp-" + tag_ + "\"></span>"});
    }
    std::string tag_;
  };
  site.addBehavior(std::make_unique<Stamper>("first"));
  site.addBehavior(std::make_unique<Stamper>("second"));

  net::HttpRequest request;
  request.url = *net::Url::parse("http://order.example/");
  auto document = html::parseHtml(site.handle(request).body);
  const dom::Node* header = document->findFirst("header");
  ASSERT_NE(header, nullptr);
  ASSERT_GE(header->childCount(), 2u);
  EXPECT_EQ(header->child(header->childCount() - 2)
                .attribute("class")
                .value_or(""),
            "stamp-first");
  EXPECT_EQ(header->child(header->childCount() - 1)
                .attribute("class")
                .value_or(""),
            "stamp-second");
}

TEST(WebSiteInternals, FetchCounterAdvances) {
  util::SimClock clock;
  SiteConfig config;
  config.domain = "count.example";
  config.title = "Count";
  config.category = "games";
  config.seed = 13;
  WebSite site(config, clock);
  net::HttpRequest request;
  request.url = *net::Url::parse("http://count.example/");
  site.handle(request);
  site.handle(request);
  EXPECT_EQ(site.fetchCount(), 2u);
}

TEST(WebSiteInternals, PixelImagesMatchConfiguredTrackerCount) {
  util::SimClock clock;
  SiteConfig config;
  config.domain = "px.example";
  config.title = "Px";
  config.category = "news";
  config.seed = 14;
  config.pixelTrackers = 3;
  WebSite site(config, clock);
  net::HttpRequest request;
  request.url = *net::Url::parse("http://px.example/");
  auto document = html::parseHtml(site.handle(request).body);
  EXPECT_EQ(findAllWith(*document, "img", "width", "1").size(), 3u);
}

TEST(WebSiteInternals, HeadHasStylesheetAndScript) {
  util::SimClock clock;
  SiteConfig config;
  config.domain = "head.example";
  config.title = "Head";
  config.category = "arts";
  config.seed = 15;
  WebSite site(config, clock);
  net::HttpRequest request;
  request.url = *net::Url::parse("http://head.example/");
  auto document = html::parseHtml(site.handle(request).body);
  const dom::Node* head = document->findFirst("head");
  ASSERT_NE(head, nullptr);
  int stylesheets = 0;
  for (const dom::Node* link : childElements(*head, "link")) {
    if (link->attribute("rel") == "stylesheet") ++stylesheets;
  }
  EXPECT_EQ(stylesheets, 1);
  int scripts = 0;
  for (const dom::Node* script : childElements(*head, "script")) {
    if (script->hasAttribute("src")) ++scripts;
  }
  EXPECT_EQ(scripts, 1);
  EXPECT_NE(document->findFirst("title"), nullptr);
}

}  // namespace
}  // namespace cookiepicker::server
