// Seeded random dom::Node trees for the differential suites.
//
// The generator behind the detection fast-path differential: trees rich
// enough to hit every snapshot predicate and CVCE noise rule, plus the
// localized edits a stripped cookie (or page dynamics) produces between
// two copies. Same code and RNG draw order as that suite's generator, so a
// (seed, stream) pair names the same tree pairs in every suite using it.
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

#include "dom/node.h"
#include "util/rng.h"

namespace cookiepicker::testsupport {

using dom::Node;

// Tags chosen to hit every snapshot predicate: visible structure, the
// script/style/noscript filter, <option> text, and plain containers.
inline constexpr const char* kTreeTags[] = {
    "div", "p",  "span", "table",  "tr",     "td",     "ul",    "li",
    "a",   "b",  "form", "h1",     "select", "option", "script", "style"};

// Attribute values that straddle the ad-token boundary: some trip the
// class/id heuristic ("ad", "ads banner"), some only look like they might
// ("download", "shadow", "radar").
inline constexpr const char* kTreeClassValues[] = {
    "content", "header",   "ad",     "ads banner", "sidebar promo",
    "main",    "download", "shadow", "radar",      "top-ad"};

// Text spanning the CVCE noise rules: plain words, date/time-like strings,
// pure punctuation, whitespace-only, and strings needing collapsing.
inline constexpr const char* kTreeTexts[] = {
    "breaking news",   "hello world", "2007-01-17", "12:30:05",
    "***",             "   ",         "a  b\t c",   "Weather: sunny",
    "01/17/2007",      "- - -",       "x",          "today 12:30:05 update",
};

// One uniformly drawn entry of `pool` (a single RNG draw).
template <std::size_t N>
const char* pickFrom(util::Pcg32& rng, const char* const (&pool)[N]) {
  return pool[rng.uniform(0, N - 1)];
}

inline std::unique_ptr<Node> richRandomTree(util::Pcg32& rng, int maxDepth,
                                            int maxChildren) {
  auto node = Node::makeElement(pickFrom(rng, kTreeTags));
  if (rng.uniform(0, 4) == 0) {
    node->setAttribute(rng.uniform(0, 1) == 0 ? "class" : "id",
                       pickFrom(rng, kTreeClassValues));
  }
  if (maxDepth > 0) {
    const int children = static_cast<int>(
        rng.uniform(0, static_cast<std::uint32_t>(maxChildren)));
    for (int i = 0; i < children; ++i) {
      switch (rng.uniform(0, 5)) {
        case 0:
          node->appendChild(Node::makeText(pickFrom(rng, kTreeTexts)));
          break;
        case 1:
          node->appendChild(Node::makeComment("c"));
          break;
        default:
          node->appendChild(richRandomTree(rng, maxDepth - 1, maxChildren));
          break;
      }
    }
  }
  return node;
}

inline void collectMutable(Node& node, std::vector<Node*>& out) {
  out.push_back(&node);
  for (std::size_t i = 0; i < node.childCount(); ++i) {
    collectMutable(node.child(i), out);
  }
}

// A handful of random structural/textual edits — the kind of difference a
// stripped cookie (or page dynamics) produces between two copies.
inline void mutateTree(Node& root, util::Pcg32& rng) {
  const int edits = 1 + static_cast<int>(rng.uniform(0, 3));
  for (int e = 0; e < edits; ++e) {
    std::vector<Node*> nodes;
    collectMutable(root, nodes);
    Node* victim = nodes[rng.uniform(
        0, static_cast<std::uint32_t>(nodes.size() - 1))];
    switch (rng.uniform(0, 3)) {
      case 0:  // drop a child subtree
        if (victim->childCount() > 0) {
          victim->removeChild(rng.uniform(
              0, static_cast<std::uint32_t>(victim->childCount() - 1)));
        }
        break;
      case 1:  // graft a fresh subtree
        victim->appendChild(richRandomTree(rng, 2, 3));
        break;
      case 2:  // rewrite a text node (same context, new content)
        if (victim->isText()) {
          victim->setValue(pickFrom(rng, kTreeTexts));
        } else {
          victim->appendChild(Node::makeText(pickFrom(rng, kTreeTexts)));
        }
        break;
      default:  // swap two children
        if (victim->childCount() >= 2) {
          auto first = victim->removeChild(0);
          victim->appendChild(std::move(first));
        }
        break;
    }
  }
}

}  // namespace cookiepicker::testsupport
