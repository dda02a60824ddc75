// Human-readable explanations for usefulness decisions.
//
// The paper's recovery button exists because users only see *that* a page
// broke; a production extension additionally wants to show *why* a cookie
// was kept or blocked. This module diffs the regular and hidden page
// versions at the level the detection algorithms work on and renders the
// evidence: which structural regions only exist in one version, and which
// text content appeared or disappeared.
#pragma once

#include <string>
#include <vector>

#include "core/decision.h"
#include "dom/node.h"
#include "dom/snapshot.h"

namespace cookiepicker::core {

struct DifferenceExplanation {
  DecisionResult decision;

  // Structural regions (element paths like "body>div>main>section") present
  // in only one version, largest first, capped at `maxItems`.
  std::vector<std::string> structureOnlyInRegular;
  std::vector<std::string> structureOnlyInHidden;

  // Context-content strings unique to each version (same cap).
  std::vector<std::string> textOnlyInRegular;
  std::vector<std::string> textOnlyInHidden;

  // One-paragraph rendering for logs / the recovery dialog.
  std::string summary() const;
};

struct ExplainOptions {
  DecisionConfig decision;
  std::size_t maxItems = 5;
};

// Runs the snapshot decision and gathers the supporting evidence from the
// snapshots a PageView / HiddenFetchResult already carries.
DifferenceExplanation explainDifference(
    const dom::TreeSnapshot& regularSnapshot,
    const dom::TreeSnapshot& hiddenSnapshot,
    const ExplainOptions& options = {});

// Evidence-gathering half of explainDifference over node trees: fills the
// four structure/text lists without running the decision (the caller
// supplies `explanation.decision` itself). The reference implementation the
// snapshot overload below is pinned against.
void collectDifferenceEvidence(const dom::Node& regularDocument,
                               const dom::Node& hiddenDocument,
                               const ExplainOptions& options,
                               DifferenceExplanation& explanation);

// The same four lists, byte for byte, gathered from the snapshots a view
// already carries — what the audit trail attaches to cookie-caused verdicts
// without a second detection pass: structure paths from the visible rows' interned
// ancestor chains, text from the CVCE features plus the snapshot text
// arena. Strings are rendered only for entries that end up as evidence.
// Byte-identical to the node-tree overload while tag names contain no ':'
// (the ContextInterner caveat). Reuses `scratch` for the CVCE extraction
// (its feature sets are overwritten).
void collectDifferenceEvidence(const dom::TreeSnapshot& regularSnapshot,
                               const dom::TreeSnapshot& hiddenSnapshot,
                               const ExplainOptions& options,
                               DetectionScratch& scratch,
                               DifferenceExplanation& explanation);

}  // namespace cookiepicker::core
