#include "core/explain.h"

#include <algorithm>
#include <iterator>
#include <map>
#include <set>

#include "core/cvce.h"
#include "core/rstm.h"
#include "core/stm.h"
#include "util/stats.h"

namespace cookiepicker::core {

namespace {

using dom::Node;

// Collects, for every countable (visible, non-leaf, within-level) node, its
// element path from the comparison root, with a multiplicity count.
void collectPaths(const Node& node, const std::string& prefix, int level,
                  int maxLevel, std::map<std::string, int>& paths) {
  const int currentLevel = level + 1;
  if (node.childCount() == 0 || !isVisibleStructuralNode(node) ||
      currentLevel > maxLevel) {
    return;
  }
  const std::string path =
      prefix.empty() ? node.name() : prefix + ">" + node.name();
  ++paths[path];
  for (const auto& child : node.children()) {
    collectPaths(*child, path, currentLevel, maxLevel, paths);
  }
}

// (excess multiplicity, path) entries rendered as "path (xN)", largest
// excess first, ties by path.
using PathExcess = std::vector<std::pair<int, std::string>>;

std::vector<std::string> renderExcess(PathExcess excess,
                                      std::size_t maxItems) {
  std::sort(excess.begin(), excess.end(), [](const auto& a, const auto& b) {
    if (a.first != b.first) return a.first > b.first;
    return a.second < b.second;
  });
  std::vector<std::string> rendered;
  for (std::size_t i = 0; i < excess.size() && i < maxItems; ++i) {
    rendered.push_back(excess[i].second +
                       (excess[i].first > 1
                            ? " (x" + std::to_string(excess[i].first) + ")"
                            : ""));
  }
  return rendered;
}

// Paths with higher multiplicity on `left` than on `right`.
std::vector<std::string> pathExcess(const std::map<std::string, int>& left,
                                    const std::map<std::string, int>& right,
                                    std::size_t maxItems) {
  PathExcess excess;
  for (const auto& [path, count] : left) {
    const auto it = right.find(path);
    const int delta = count - (it == right.end() ? 0 : it->second);
    if (delta > 0) excess.emplace_back(delta, path);
  }
  return renderExcess(std::move(excess), maxItems);
}

std::vector<std::string> setOnly(const std::set<std::string>& left,
                                 const std::set<std::string>& right,
                                 std::size_t maxItems) {
  std::vector<std::string> only;
  for (const std::string& entry : left) {
    if (!right.contains(entry)) {
      only.push_back(entry);
      if (only.size() >= maxItems) break;
    }
  }
  return only;
}

// --- snapshot evidence -----------------------------------------------------

// Multiplicity per interned ancestor chain, sorted by chain id.
using ChainCounts = std::vector<std::pair<dom::ContextId, int>>;

// Snapshot twin of collectPaths: a preorder scan with subtree skips (the
// descent rule of countRestrictedNodes) that counts each countable row by
// its chain of tag names from the comparison root, interned through the
// global ContextInterner instead of spelled out as a string.
ChainCounts countChains(const dom::TreeSnapshot& snapshot, int maxLevel,
                        CvceScratch& scratch) {
  dom::ContextInterner& interner = dom::globalContextInterner();
  auto& stack = scratch.stack;  // open counted rows: (subtreeEnd, chain)
  stack.clear();
  std::vector<dom::ContextId> chains;
  const std::uint32_t root = snapshot.comparisonRootIndex();
  const std::int32_t rootLevel = snapshot.level(root);
  const std::uint32_t end = snapshot.subtreeEnd(root);
  for (std::uint32_t i = root; i < end;) {
    const int currentLevel =
        static_cast<int>(snapshot.level(i) - rootLevel) + 1;
    if (snapshot.childCount(i) == 0 || !snapshot.visibleStructural(i) ||
        currentLevel > maxLevel) {
      i = snapshot.subtreeEnd(i);
      continue;
    }
    while (!stack.empty() && stack.back().first <= i) stack.pop_back();
    // Every visited row below the root has its counted parent on top.
    const dom::ContextId chain =
        stack.empty() ? interner.seed(snapshot.symbol(i))
                      : interner.extend(stack.back().second,
                                        snapshot.symbol(i));
    chains.push_back(chain);
    stack.emplace_back(snapshot.subtreeEnd(i), chain);
    ++i;
  }
  std::sort(chains.begin(), chains.end());
  ChainCounts counts;
  for (const dom::ContextId chain : chains) {
    if (!counts.empty() && counts.back().first == chain) {
      ++counts.back().second;
    } else {
      counts.emplace_back(chain, 1);
    }
  }
  return counts;
}

// Merge-walks two chain multisets; each chain counted more often on one
// side is rendered (only then) as a collectPaths path on that side.
void chainExcess(const ChainCounts& regular, const ChainCounts& hidden,
                 PathExcess& regularExcess, PathExcess& hiddenExcess) {
  const dom::ContextInterner& interner = dom::globalContextInterner();
  const auto add = [&interner](PathExcess& excess, int delta,
                               dom::ContextId chain) {
    if (delta > 0) excess.emplace_back(delta, interner.render(chain, ">"));
  };
  std::size_t a = 0;
  std::size_t b = 0;
  while (a < regular.size() || b < hidden.size()) {
    if (b == hidden.size() ||
        (a < regular.size() && regular[a].first < hidden[b].first)) {
      add(regularExcess, regular[a].second, regular[a].first);
      ++a;
    } else if (a == regular.size() || hidden[b].first < regular[a].first) {
      add(hiddenExcess, hidden[b].second, hidden[b].first);
      ++b;
    } else {
      const int delta = regular[a].second - hidden[b].second;
      add(regularExcess, delta, regular[a].first);
      add(hiddenExcess, -delta, hidden[b].first);
      ++a;
      ++b;
    }
  }
}

// Features of `left` absent from `right`, rendered as the reference
// context-content strings ("context|>text"), sorted, first `maxItems` —
// what setOnly returns for the corresponding string sets.
std::vector<std::string> featuresOnly(const CvceFeatureSet& left,
                                      const CvceFeatureSet& right,
                                      const dom::TreeSnapshot& snapshot,
                                      std::size_t maxItems) {
  CvceFeatureSet only;
  std::set_difference(left.begin(), left.end(), right.begin(), right.end(),
                      std::back_inserter(only));
  if (only.empty()) return {};

  // A feature names its text by hash only: one scan of the text rows under
  // the comparison root finds the bytes behind each wanted hash.
  std::vector<std::pair<std::uint64_t, std::string_view>> texts;
  texts.reserve(only.size());
  for (const CvceFeature& feature : only) {
    texts.emplace_back(feature.textHash, std::string_view());
  }
  std::sort(texts.begin(), texts.end());
  texts.erase(std::unique(texts.begin(), texts.end()), texts.end());
  const auto textFor = [&texts](std::uint64_t hash) {
    return std::lower_bound(
        texts.begin(), texts.end(), hash,
        [](const auto& entry, std::uint64_t key) { return entry.first < key; });
  };
  const std::uint32_t root = snapshot.comparisonRootIndex();
  for (std::uint32_t i = root; i < snapshot.subtreeEnd(root); ++i) {
    if (!snapshot.textNonEmpty(i)) continue;
    const auto it = textFor(snapshot.textHash(i));
    if (it != texts.end() && it->first == snapshot.textHash(i)) {
      it->second = snapshot.text(i);
    }
  }

  const dom::ContextInterner& interner = dom::globalContextInterner();
  std::vector<std::string> rendered;
  rendered.reserve(only.size());
  for (const CvceFeature& feature : only) {
    std::string entry = interner.render(feature.contextId, ":");
    entry += kContextSeparator;
    entry += textFor(feature.textHash)->second;
    rendered.push_back(std::move(entry));
  }
  std::sort(rendered.begin(), rendered.end());
  // setOnly tests its cap after appending, so a cap of 0 still keeps one.
  const std::size_t cap = std::max<std::size_t>(maxItems, 1);
  if (rendered.size() > cap) rendered.resize(cap);
  return rendered;
}

void appendList(std::string& out, const char* heading,
                const std::vector<std::string>& items) {
  if (items.empty()) return;
  out += heading;
  for (const std::string& item : items) {
    out += "\n    " + item;
  }
  out += "\n";
}

}  // namespace

std::string DifferenceExplanation::summary() const {
  std::string out;
  out += "NTreeSim=" + util::TextTable::formatDouble(decision.treeSim, 3) +
         " NTextSim=" + util::TextTable::formatDouble(decision.textSim, 3) +
         " -> " +
         (decision.causedByCookies ? "difference attributed to cookies"
                                   : "no cookie-caused difference") +
         "\n";
  appendList(out, "  structure only with cookies:", structureOnlyInRegular);
  appendList(out, "  structure only without cookies:",
             structureOnlyInHidden);
  appendList(out, "  text only with cookies:", textOnlyInRegular);
  appendList(out, "  text only without cookies:", textOnlyInHidden);
  return out;
}

DifferenceExplanation explainDifference(
    const dom::TreeSnapshot& regularSnapshot,
    const dom::TreeSnapshot& hiddenSnapshot,
    const ExplainOptions& options) {
  DetectionScratch scratch;
  DifferenceExplanation explanation;
  explanation.decision = decideCookieUsefulness(
      regularSnapshot, hiddenSnapshot, scratch, options.decision);
  collectDifferenceEvidence(regularSnapshot, hiddenSnapshot, options, scratch,
                            explanation);
  return explanation;
}

void collectDifferenceEvidence(const dom::Node& regularDocument,
                               const dom::Node& hiddenDocument,
                               const ExplainOptions& options,
                               DifferenceExplanation& explanation) {
  const Node& regularRoot = comparisonRoot(regularDocument);
  const Node& hiddenRoot = comparisonRoot(hiddenDocument);

  std::map<std::string, int> regularPaths;
  std::map<std::string, int> hiddenPaths;
  collectPaths(regularRoot, "", 0, options.decision.maxLevel, regularPaths);
  collectPaths(hiddenRoot, "", 0, options.decision.maxLevel, hiddenPaths);
  explanation.structureOnlyInRegular =
      pathExcess(regularPaths, hiddenPaths, options.maxItems);
  explanation.structureOnlyInHidden =
      pathExcess(hiddenPaths, regularPaths, options.maxItems);

  const auto regularText =
      extractContextContent(regularRoot, options.decision.cvce);
  const auto hiddenText =
      extractContextContent(hiddenRoot, options.decision.cvce);
  explanation.textOnlyInRegular =
      setOnly(regularText, hiddenText, options.maxItems);
  explanation.textOnlyInHidden =
      setOnly(hiddenText, regularText, options.maxItems);
}

void collectDifferenceEvidence(const dom::TreeSnapshot& regularSnapshot,
                               const dom::TreeSnapshot& hiddenSnapshot,
                               const ExplainOptions& options,
                               DetectionScratch& scratch,
                               DifferenceExplanation& explanation) {
  const int maxLevel = options.decision.maxLevel;
  const ChainCounts regularChains =
      countChains(regularSnapshot, maxLevel, scratch.cvce);
  const ChainCounts hiddenChains =
      countChains(hiddenSnapshot, maxLevel, scratch.cvce);
  PathExcess regularExcess;
  PathExcess hiddenExcess;
  chainExcess(regularChains, hiddenChains, regularExcess, hiddenExcess);
  explanation.structureOnlyInRegular =
      renderExcess(std::move(regularExcess), options.maxItems);
  explanation.structureOnlyInHidden =
      renderExcess(std::move(hiddenExcess), options.maxItems);

  extractContextContentFeatures(
      regularSnapshot, regularSnapshot.comparisonRootIndex(),
      options.decision.cvce, scratch.cvce, scratch.regularFeatures);
  extractContextContentFeatures(
      hiddenSnapshot, hiddenSnapshot.comparisonRootIndex(),
      options.decision.cvce, scratch.cvce, scratch.hiddenFeatures);
  explanation.textOnlyInRegular =
      featuresOnly(scratch.regularFeatures, scratch.hiddenFeatures,
                   regularSnapshot, options.maxItems);
  explanation.textOnlyInHidden =
      featuresOnly(scratch.hiddenFeatures, scratch.regularFeatures,
                   hiddenSnapshot, options.maxItems);
}

}  // namespace cookiepicker::core
