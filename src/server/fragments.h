// Byte-level HTML writers and the page plan of a synthetic container page.
//
// Pages are rendered straight to bytes: no tree is built and none is
// serialized. Every writer appends finished HTML, escaping text and
// attribute values exactly as the DOM serializer does, so what a parser
// reads back is the same document a tree-built page would have produced.
//
// Every fragment builder takes an RNG so content is deterministic per
// stream: page skeletons pass the per-(site,path) stable stream, noise
// sources pass the per-fetch stream.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "provenance/taint.h"
#include "util/rng.h"

namespace cookiepicker::server {

// --- escaping writers --------------------------------------------------------

// Appends `text` as element content: '&', '<' and '>' become entities.
void appendText(std::string& out, std::string_view text);

// Appends `value` for use inside a double-quoted attribute: '&', '"' and
// '<' become entities.
void appendAttributeValue(std::string& out, std::string_view value);

// <tag>escaped text</tag>
void appendTextElement(std::string& out, std::string_view tag,
                       std::string_view text);

// --- page plan ---------------------------------------------------------------

// A splice point inside a block where per-fetch content goes: the text of a
// rotating headline, or the inner HTML of an ad slot.
enum class SlotKind : std::uint8_t { Headline, Ad };

struct Slot {
  SlotKind kind;
  std::uint32_t offset;  // into Block::html
  std::string content;   // finished (escaped) bytes spliced at `offset`
};

// One rendered element: its bytes, the taint of its root, and — for the
// generic content sections — the slots noise behaviors fill per fetch.
struct Block {
  Block() = default;
  Block(std::string bytes, provenance::LabelSet labels = 0)
      : html(std::move(bytes)), taint(labels) {}

  std::string html;
  provenance::LabelSet taint = 0;
  bool contentSection = false;  // a <section class="content"> skeleton
  std::vector<Slot> slots;      // in document order

  // Appends the bytes with every slot spliced in; when `map` is set and the
  // block is tainted, records the range it occupies.
  void appendTo(std::string& out, provenance::ProvenanceMap* map) const;
};

// A container page held as the pieces behaviors edit:
//
//   head · <h1>heading</h1> · nav · header… · </header> · beforeMain…
//   · <main>main…</main> · footer · [<span class="timestamp">…</span>]
//   · </footer></div></body></html>
//
// `head` runs from the doctype through the opening <header>; `footer` from
// <footer> up to the timestamp span. Behaviors insert, rotate and drop
// `main` children, append to the header and before <main>, and override the
// heading and timestamp text; taint lands on a block, the heading or <main>
// itself. render() emits the bytes in one pass and records provenance
// ranges as the tainted pieces are appended.
struct PagePlan {
  std::string head;
  std::string heading;  // unescaped <h1> text
  provenance::LabelSet headingTaint = 0;
  std::string nav;
  std::vector<Block> header;      // appended inside <header>, after <nav>
  std::vector<Block> beforeMain;  // between </header> and <main>
  std::vector<Block> main;        // children of <main>
  provenance::LabelSet mainTaint = 0;
  std::string footer;
  // Unescaped text of the footer's timestamp span; nullopt when the page
  // has no such span.
  std::optional<std::string> timestamp;

  // Calls fn(content) for every slot of `kind` in <main>, document order.
  template <typename Fn>
  void forEachSlot(SlotKind kind, Fn&& fn) {
    for (Block& block : main) {
      for (Slot& slot : block.slots) {
        if (slot.kind == kind) fn(slot.content);
      }
    }
  }

  // Appends the finished page to `out`. With `map` set, records the byte
  // range of every tainted piece (the caller normalizes).
  void render(std::string& out, provenance::ProvenanceMap* map) const;
};

// --- fragments -----------------------------------------------------------------

// <section class="content"> with <h2>Title</h2><p>...</p>..., an optional
// rotating headline, and a nested widget block deep enough that its ad
// slots sit below RSTM's default level cut. Headline and ad slots are slots
// of the returned block; the ad slots start empty.
Block makeContentSection(util::Pcg32& rng, int paragraphs, int adSlots,
                         bool rotatingHeadline);

// <div class="sidebar"><h3>title</h3><ul><li><a>..</a></li>...</ul></div>
std::string makeSidebar(util::Pcg32& rng, std::string_view title,
                        int itemCount);

// <nav> linking to the site's first pages.
std::string makeNav(int pageCount);

// A sign-up form (labels, inputs, submit) — the content of a sign-up wall.
std::string makeSignUpForm(util::Pcg32& rng);

// <div class="results"><ol><li>result</li> x count</ol></div>
std::string makeResultList(util::Pcg32& rng, int count);

// A promo/hero block; `variant` selects between structurally different
// layouts (used by LayoutShuffleNoise to create upper-level dynamics).
std::string makePromoBlock(util::Pcg32& rng, int variant);

}  // namespace cookiepicker::server
