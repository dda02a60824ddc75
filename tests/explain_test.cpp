#include <gtest/gtest.h>

#include "core/explain.h"
#include "html/stream_snapshot.h"

namespace cookiepicker::core {
namespace {

std::shared_ptr<const dom::TreeSnapshot> page(const std::string& body) {
  return html::buildSnapshotStreaming("<html><head></head><body>" + body +
                                      "</body></html>")
      .snapshot;
}

TEST(Explain, IdenticalPagesHaveEmptyEvidence) {
  auto regular = page("<main><section><p>x</p></section></main>");
  auto hidden = page("<main><section><p>x</p></section></main>");
  const DifferenceExplanation explanation =
      explainDifference(*regular, *hidden);
  EXPECT_FALSE(explanation.decision.causedByCookies);
  EXPECT_TRUE(explanation.structureOnlyInRegular.empty());
  EXPECT_TRUE(explanation.structureOnlyInHidden.empty());
  EXPECT_TRUE(explanation.textOnlyInRegular.empty());
  EXPECT_TRUE(explanation.textOnlyInHidden.empty());
  EXPECT_NE(explanation.summary().find("no cookie-caused difference"),
            std::string::npos);
}

TEST(Explain, MissingSidebarShowsUpAsStructure) {
  auto regular = page(
      "<div><aside><ul><li>saved</li></ul></aside>"
      "<main><section><p>x</p></section></main></div>");
  auto hidden = page("<div><main><section><p>x</p></section></main></div>");
  const DifferenceExplanation explanation =
      explainDifference(*regular, *hidden);
  ASSERT_FALSE(explanation.structureOnlyInRegular.empty());
  // The aside chain is the evidence.
  bool sawAside = false;
  for (const std::string& path : explanation.structureOnlyInRegular) {
    if (path.find("aside") != std::string::npos) sawAside = true;
  }
  EXPECT_TRUE(sawAside);
  EXPECT_TRUE(explanation.structureOnlyInHidden.empty());
}

TEST(Explain, TextEvidenceCarriesContext) {
  auto regular = page("<main><p>welcome back member</p></main>");
  auto hidden = page("<main><p>please sign in</p></main>");
  const DifferenceExplanation explanation =
      explainDifference(*regular, *hidden);
  ASSERT_EQ(explanation.textOnlyInRegular.size(), 1u);
  EXPECT_NE(explanation.textOnlyInRegular[0].find("welcome back member"),
            std::string::npos);
  EXPECT_NE(explanation.textOnlyInRegular[0].find("body:main:p"),
            std::string::npos);
  ASSERT_EQ(explanation.textOnlyInHidden.size(), 1u);
}

TEST(Explain, MultiplicityRendered) {
  auto regular = page(
      "<main><section><p>a</p></section><section><p>b</p></section>"
      "<section><p>c</p></section></main>");
  auto hidden = page("<main><section><p>a</p></section></main>");
  const DifferenceExplanation explanation =
      explainDifference(*regular, *hidden);
  bool sawMultiplicity = false;
  for (const std::string& path : explanation.structureOnlyInRegular) {
    if (path.find("(x2)") != std::string::npos) sawMultiplicity = true;
  }
  EXPECT_TRUE(sawMultiplicity);
}

TEST(Explain, MaxItemsCapsEvidence) {
  std::string many;
  for (int i = 0; i < 12; ++i) {
    many += "<p>unique text " + std::to_string(i) + "</p>";
  }
  auto regular = page("<main>" + many + "</main>");
  auto hidden = page("<main></main>");
  ExplainOptions options;
  options.maxItems = 3;
  const DifferenceExplanation explanation =
      explainDifference(*regular, *hidden, options);
  EXPECT_LE(explanation.textOnlyInRegular.size(), 3u);
  EXPECT_LE(explanation.structureOnlyInRegular.size(), 3u);
}

TEST(Explain, SummaryMentionsBothMetrics) {
  auto regular = page("<main><section><p>x</p></section></main>");
  auto hidden = page("<main><div><form><input></form></div></main>");
  const std::string summary =
      explainDifference(*regular, *hidden).summary();
  EXPECT_NE(summary.find("NTreeSim="), std::string::npos);
  EXPECT_NE(summary.find("NTextSim="), std::string::npos);
}

TEST(Explain, RespectsLevelRestriction) {
  // Difference below the level cut produces no structural evidence.
  auto regular = page(
      "<main><div><div><div><div><div><span><b>deep</b></span></div>"
      "</div></div></div></div></main>");
  auto hidden = page(
      "<main><div><div><div><div><div><em><i>deep</i></em></div></div>"
      "</div></div></div></main>");
  ExplainOptions options;
  options.decision.maxLevel = 3;
  const DifferenceExplanation explanation =
      explainDifference(*regular, *hidden, options);
  EXPECT_TRUE(explanation.structureOnlyInRegular.empty());
  EXPECT_TRUE(explanation.structureOnlyInHidden.empty());
}

}  // namespace
}  // namespace cookiepicker::core
