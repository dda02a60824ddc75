#include "server/fragments.h"

#include <algorithm>

#include "server/words.h"

namespace cookiepicker::server {

namespace {

// Appends `text`, replacing each character in `special` by its entity.
void appendEscaped(std::string& out, std::string_view text,
                   std::string_view special) {
  std::size_t start = 0;
  for (std::size_t at = text.find_first_of(special);
       at != std::string_view::npos;
       at = text.find_first_of(special, start)) {
    out.append(text, start, at - start);
    switch (text[at]) {
      case '&':
        out += "&amp;";
        break;
      case '<':
        out += "&lt;";
        break;
      case '>':
        out += "&gt;";
        break;
      default:  // '"', special only inside attribute values
        out += "&quot;";
        break;
    }
    start = at + 1;
  }
  out.append(text, start);
}

// Records [begin, out.size()) under `labels` when a map is attached.
void recordRange(provenance::ProvenanceMap* map, std::size_t begin,
                 const std::string& out, provenance::LabelSet labels) {
  if (map == nullptr) return;
  map->add(static_cast<std::uint32_t>(begin),
           static_cast<std::uint32_t>(out.size()), labels);
}

void appendLinkItem(std::string& out, std::string_view href,
                    std::string_view text) {
  out += "<li><a href=\"";
  appendAttributeValue(out, href);
  out += "\">";
  appendText(out, text);
  out += "</a></li>";
}

}  // namespace

void appendText(std::string& out, std::string_view text) {
  appendEscaped(out, text, "&<>");
}

void appendAttributeValue(std::string& out, std::string_view value) {
  appendEscaped(out, value, "&\"<");
}

void appendTextElement(std::string& out, std::string_view tag,
                       std::string_view text) {
  out += '<';
  out += tag;
  out += '>';
  appendText(out, text);
  out += "</";
  out += tag;
  out += '>';
}

// --- page plan ---------------------------------------------------------------

void Block::appendTo(std::string& out, provenance::ProvenanceMap* map) const {
  const std::size_t begin = out.size();
  std::size_t copied = 0;
  for (const Slot& slot : slots) {
    out.append(html, copied, slot.offset - copied);
    out += slot.content;
    copied = slot.offset;
  }
  out.append(html, copied);
  if (taint != 0) recordRange(map, begin, out, taint);
}

void PagePlan::render(std::string& out,
                      provenance::ProvenanceMap* map) const {
  std::size_t estimate = head.size() + heading.size() + nav.size() +
                         footer.size() + 96;
  for (const auto* blocks : {&header, &beforeMain, &main}) {
    for (const Block& block : *blocks) {
      estimate += block.html.size();
      for (const Slot& slot : block.slots) estimate += slot.content.size();
    }
  }
  if (timestamp.has_value()) estimate += timestamp->size();
  out.reserve(out.size() + estimate);

  out += head;
  const std::size_t headingBegin = out.size();
  appendTextElement(out, "h1", heading);
  if (headingTaint != 0) recordRange(map, headingBegin, out, headingTaint);
  out += nav;
  for (const Block& block : header) block.appendTo(out, map);
  out += "</header>";
  for (const Block& block : beforeMain) block.appendTo(out, map);
  const std::size_t mainBegin = out.size();
  out += "<main>";
  for (const Block& block : main) block.appendTo(out, map);
  out += "</main>";
  if (mainTaint != 0) recordRange(map, mainBegin, out, mainTaint);
  out += footer;
  if (timestamp.has_value()) {
    out += "<span class=\"timestamp\">";
    appendText(out, *timestamp);
    out += "</span>";
  }
  out += "</footer></div></body></html>";
}

// --- fragments -----------------------------------------------------------------

Block makeContentSection(util::Pcg32& rng, int paragraphs, int adSlots,
                         bool rotatingHeadline) {
  Block section;
  section.contentSection = true;
  std::string& out = section.html;
  out.reserve(768);
  out += "<section class=\"content\">";
  appendTextElement(out, "h2", randomTitle(rng));
  if (rotatingHeadline) {
    out += "<h3 class=\"rotating-headline\">";
    Slot headline{SlotKind::Headline, static_cast<std::uint32_t>(out.size()),
                  {}};
    appendText(headline.content, randomPhrase(rng, 5));
    section.slots.push_back(std::move(headline));
    out += "</h3>";
  }
  for (int p = 0; p < paragraphs; ++p) {
    appendTextElement(
        out, "p",
        randomParagraph(rng, static_cast<int>(rng.uniform(1, 3))));
  }

  // Widget block: section(3) > div.widget(4) > div.inner(5) > adslot(6)
  // counting depth from <body>=0, <div id=page>=1, <main>=2 — the slot and
  // its contents sit below the paper's l=5 comparison window.
  out += "<div class=\"widget\"><ul>";
  const int items = static_cast<int>(rng.uniform(3, 6));
  for (int i = 0; i < items; ++i) {
    const std::string href = "/" + randomWord(rng);
    appendLinkItem(out, href, randomPhrase(rng, 2));
  }
  out += "</ul><div class=\"inner\">";
  for (int a = 0; a < adSlots; ++a) {
    out += "<div class=\"adslot\">";
    section.slots.push_back(
        {SlotKind::Ad, static_cast<std::uint32_t>(out.size()), {}});
    out += "</div>";
  }
  out += "</div></div></section>";
  return section;
}

std::string makeSidebar(util::Pcg32& rng, std::string_view title,
                        int itemCount) {
  std::string out = "<div class=\"sidebar\">";
  appendTextElement(out, "h3", title);
  out += "<ul>";
  for (int i = 0; i < itemCount; ++i) {
    const std::string href = "/" + randomWord(rng);
    appendLinkItem(out, href, randomPhrase(rng, 3));
  }
  out += "</ul></div>";
  return out;
}

std::string makeNav(int pageCount) {
  std::string out = "<nav><ul>";
  const int links = std::min(pageCount, 6);
  for (int i = 0; i < links; ++i) {
    if (i == 0) {
      appendLinkItem(out, "/", "Home");
    } else {
      appendLinkItem(out, "/page" + std::to_string(i),
                     "Section " + std::to_string(i));
    }
  }
  out += "</ul></nav>";
  return out;
}

std::string makeSignUpForm(util::Pcg32& rng) {
  std::string out = "<div class=\"signup-wall\">";
  appendTextElement(out, "h2", "Create your account");
  appendTextElement(
      out, "p", "Please sign up to access " + randomPhrase(rng, 3) + ".");
  out += "<form action=\"/signup\" method=\"post\">";
  for (const std::string_view field : {"username", "email", "password"}) {
    out += "<div class=\"form-row\"><label for=\"";
    out += field;
    out += "\">";
    out += field;
    out += "</label><input name=\"";
    out += field;
    out += field == "password" ? "\" type=\"password\">"
                               : "\" type=\"text\">";
    out += "</div>";
  }
  out += "<input type=\"submit\" value=\"Sign up\"></form>";
  appendTextElement(out, "p",
                    "Membership includes " + randomPhrase(rng, 4) + ".");
  out += "</div>";
  return out;
}

std::string makeResultList(util::Pcg32& rng, int count) {
  std::string out = "<div class=\"results\"><ol>";
  for (int i = 0; i < count; ++i) {
    out += "<li><a href=\"/result";
    out += std::to_string(i);
    out += "\">";
    appendText(out, randomTitle(rng));
    out += "</a>";
    appendText(out, " — " + randomPhrase(rng, 6, true));
    out += "</li>";
  }
  out += "</ol></div>";
  return out;
}

std::string makePromoBlock(util::Pcg32& rng, int variant) {
  // Each variant has a genuinely different element structure so that when a
  // site swaps variants between fetches, the change registers high in the
  // tree (the page dynamics that cause the paper's false positives).
  // NB: class must not trip CVCE's ad-token filter ("promo" would).
  std::string out = "<div class=\"hero variant";
  out += std::to_string(variant);
  out += "\">";
  switch (variant % 3) {
    case 0: {
      appendTextElement(out, "h2", randomTitle(rng));
      out += "<table>";
      for (int r = 0; r < 3; ++r) {
        out += "<tr>";
        for (int c = 0; c < 3; ++c) {
          appendTextElement(out, "td", randomPhrase(rng, 2));
        }
        out += "</tr>";
      }
      out += "</table>";
      break;
    }
    case 1: {
      out += "<figure><img src=\"/assets/promo";
      out += std::to_string(rng.uniform(1, 5));
      out += ".png\">";
      appendTextElement(out, "figcaption", randomPhrase(rng, 4));
      out += "</figure><ul>";
      for (int i = 0; i < 4; ++i) {
        appendTextElement(out, "li", randomPhrase(rng, 3));
      }
      out += "</ul>";
      break;
    }
    default: {
      appendTextElement(out, "h2", randomTitle(rng));
      for (int i = 0; i < 3; ++i) {
        out += "<blockquote>";
        appendTextElement(out, "p", randomParagraph(rng, 1));
        appendTextElement(out, "cite", randomPhrase(rng, 2));
        out += "</blockquote>";
      }
      break;
    }
  }
  out += "</div>";
  return out;
}

}  // namespace cookiepicker::server
