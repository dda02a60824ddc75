#include "obs/audit.h"

#include <charconv>

#include "util/strings.h"

namespace cookiepicker::obs {

namespace {

// Shortest round-trip rendering: strtod(to_chars(x)) == x exactly, and the
// bytes are a pure function of the double — the determinism anchor.
void appendDouble(std::string& out, double value) {
  char buffer[64];
  const auto [ptr, ec] =
      std::to_chars(buffer, buffer + sizeof(buffer), value);
  out.append(buffer, ptr);
  (void)ec;
}

void appendKey(std::string& out, const char* key) {
  if (out.back() != '{') out += ',';
  out += '"';
  out += key;
  out += "\":";
}

void appendStringField(std::string& out, const char* key,
                       std::string_view value) {
  appendKey(out, key);
  util::appendJsonString(out, value);
}

void appendDoubleField(std::string& out, const char* key, double value) {
  appendKey(out, key);
  appendDouble(out, value);
}

void appendIntField(std::string& out, const char* key, std::int64_t value) {
  appendKey(out, key);
  char buffer[24];
  const auto [ptr, ec] =
      std::to_chars(buffer, buffer + sizeof(buffer), value);
  out.append(buffer, ptr);
  (void)ec;
}

void appendUintField(std::string& out, const char* key, std::uint64_t value) {
  appendKey(out, key);
  char buffer[24];
  const auto [ptr, ec] =
      std::to_chars(buffer, buffer + sizeof(buffer), value);
  out.append(buffer, ptr);
  (void)ec;
}

void appendBoolField(std::string& out, const char* key, bool value) {
  appendKey(out, key);
  out += value ? "true" : "false";
}

void appendArrayField(std::string& out, const char* key,
                      const std::vector<std::string>& values) {
  appendKey(out, key);
  out += '[';
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i != 0) out += ',';
    util::appendJsonString(out, values[i]);
  }
  out += ']';
}

// --- parsing --------------------------------------------------------------

struct Cursor {
  std::string_view text;
  std::size_t pos = 0;

  bool done() const { return pos >= text.size(); }
  char peek() const { return text[pos]; }
  bool consume(char expected) {
    if (done() || text[pos] != expected) return false;
    ++pos;
    return true;
  }
};

int hexValue(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  return -1;
}

bool parseString(Cursor& cursor, std::string& out) {
  out.clear();
  if (!cursor.consume('"')) return false;
  while (!cursor.done()) {
    const char c = cursor.text[cursor.pos++];
    if (c == '"') return true;
    if (c != '\\') {
      out += c;
      continue;
    }
    if (cursor.done()) return false;
    const char escape = cursor.text[cursor.pos++];
    switch (escape) {
      case '"': out += '"'; break;
      case '\\': out += '\\'; break;
      case '/': out += '/'; break;
      case 'n': out += '\n'; break;
      case 'r': out += '\r'; break;
      case 't': out += '\t'; break;
      case 'u': {
        if (cursor.pos + 4 > cursor.text.size()) return false;
        int value = 0;
        for (int i = 0; i < 4; ++i) {
          const int digit = hexValue(cursor.text[cursor.pos + i]);
          if (digit < 0) return false;
          value = value * 16 + digit;
        }
        cursor.pos += 4;
        if (value > 0xFF) return false;  // we only emit control bytes
        out += static_cast<char>(value);
        break;
      }
      default:
        return false;
    }
  }
  return false;
}

std::string_view numberToken(Cursor& cursor) {
  const std::size_t start = cursor.pos;
  while (!cursor.done()) {
    const char c = cursor.peek();
    if ((c >= '0' && c <= '9') || c == '-' || c == '+' || c == '.' ||
        c == 'e' || c == 'E') {
      ++cursor.pos;
    } else {
      break;
    }
  }
  return cursor.text.substr(start, cursor.pos - start);
}

bool parseDouble(Cursor& cursor, double& out) {
  const std::string_view token = numberToken(cursor);
  if (token.empty()) return false;
  const auto [ptr, ec] =
      std::from_chars(token.data(), token.data() + token.size(), out);
  return ec == std::errc() && ptr == token.data() + token.size();
}

bool parseInt(Cursor& cursor, std::int64_t& out) {
  const std::string_view token = numberToken(cursor);
  if (token.empty()) return false;
  const auto [ptr, ec] =
      std::from_chars(token.data(), token.data() + token.size(), out);
  return ec == std::errc() && ptr == token.data() + token.size();
}

bool parseUint(Cursor& cursor, std::uint64_t& out) {
  const std::string_view token = numberToken(cursor);
  if (token.empty()) return false;
  const auto [ptr, ec] =
      std::from_chars(token.data(), token.data() + token.size(), out);
  return ec == std::errc() && ptr == token.data() + token.size();
}

bool parseBool(Cursor& cursor, bool& out) {
  if (cursor.text.substr(cursor.pos, 4) == "true") {
    cursor.pos += 4;
    out = true;
    return true;
  }
  if (cursor.text.substr(cursor.pos, 5) == "false") {
    cursor.pos += 5;
    out = false;
    return true;
  }
  return false;
}

bool parseStringArray(Cursor& cursor, std::vector<std::string>& out) {
  out.clear();
  if (!cursor.consume('[')) return false;
  if (cursor.consume(']')) return true;
  while (true) {
    std::string value;
    if (!parseString(cursor, value)) return false;
    out.push_back(std::move(value));
    if (cursor.consume(']')) return true;
    if (!cursor.consume(',')) return false;
  }
}

}  // namespace

std::string AuditRecord::toJsonLine() const {
  std::string out = "{";
  appendUintField(out, "seq", seq);
  appendStringField(out, "host", host);
  appendStringField(out, "url", url);
  appendIntField(out, "view", view);
  appendArrayField(out, "tested", testedGroup);
  appendDoubleField(out, "tree_sim", treeSim);
  appendDoubleField(out, "text_sim", textSim);
  appendDoubleField(out, "tree_threshold", treeThreshold);
  appendDoubleField(out, "text_threshold", textThreshold);
  appendIntField(out, "level", level);
  appendStringField(out, "mode", mode);
  appendStringField(out, "branch", branch);
  appendStringField(out, "skipped_reason", skippedReason);
  appendBoolField(out, "caused_by_cookies", causedByCookies);
  appendBoolField(out, "reprobe_ran", reprobeRan);
  appendBoolField(out, "reprobe_vetoed", reprobeVetoed);
  appendDoubleField(out, "reprobe_tree_sim", reprobeTreeSim);
  appendDoubleField(out, "reprobe_text_sim", reprobeTextSim);
  appendDoubleField(out, "hidden_latency_ms", hiddenLatencyMs);
  appendIntField(out, "hidden_attempts", hiddenAttempts);
  appendIntField(out, "views_total", viewsTotal);
  appendIntField(out, "hidden_requests", hiddenRequests);
  appendIntField(out, "quiet_before", quietBefore);
  appendIntField(out, "quiet_after", quietAfter);
  appendBoolField(out, "training_active_after", trainingActiveAfter);
  appendArrayField(out, "marked", marked);
  if (hasAttribution) {
    appendStringField(out, "attributed_cookie", attributedCookie);
    appendBoolField(out, "attribution_confirmed", attributionConfirmed);
    appendIntField(out, "attribution_confirm_strips",
                   attributionConfirmStrips);
  }
  appendArrayField(out, "evidence_structure_regular",
                   evidenceStructureRegular);
  appendArrayField(out, "evidence_structure_hidden", evidenceStructureHidden);
  appendArrayField(out, "evidence_text_regular", evidenceTextRegular);
  appendArrayField(out, "evidence_text_hidden", evidenceTextHidden);
  out += '}';
  return out;
}

std::optional<AuditRecord> parseAuditRecordLine(std::string_view line) {
  AuditRecord record;
  Cursor cursor{line};
  if (!cursor.consume('{')) return std::nullopt;
  std::string key;
  while (true) {
    if (!parseString(cursor, key)) return std::nullopt;
    if (!cursor.consume(':')) return std::nullopt;
    bool ok;
    if (key == "seq") {
      ok = parseUint(cursor, record.seq);
    } else if (key == "host") {
      ok = parseString(cursor, record.host);
    } else if (key == "url") {
      ok = parseString(cursor, record.url);
    } else if (key == "view") {
      ok = parseInt(cursor, record.view);
    } else if (key == "tested") {
      ok = parseStringArray(cursor, record.testedGroup);
    } else if (key == "tree_sim") {
      ok = parseDouble(cursor, record.treeSim);
    } else if (key == "text_sim") {
      ok = parseDouble(cursor, record.textSim);
    } else if (key == "tree_threshold") {
      ok = parseDouble(cursor, record.treeThreshold);
    } else if (key == "text_threshold") {
      ok = parseDouble(cursor, record.textThreshold);
    } else if (key == "level") {
      ok = parseInt(cursor, record.level);
    } else if (key == "mode") {
      ok = parseString(cursor, record.mode);
    } else if (key == "branch") {
      ok = parseString(cursor, record.branch);
    } else if (key == "skipped_reason") {
      ok = parseString(cursor, record.skippedReason);
    } else if (key == "caused_by_cookies") {
      ok = parseBool(cursor, record.causedByCookies);
    } else if (key == "reprobe_ran") {
      ok = parseBool(cursor, record.reprobeRan);
    } else if (key == "reprobe_vetoed") {
      ok = parseBool(cursor, record.reprobeVetoed);
    } else if (key == "reprobe_tree_sim") {
      ok = parseDouble(cursor, record.reprobeTreeSim);
    } else if (key == "reprobe_text_sim") {
      ok = parseDouble(cursor, record.reprobeTextSim);
    } else if (key == "hidden_latency_ms") {
      ok = parseDouble(cursor, record.hiddenLatencyMs);
    } else if (key == "hidden_attempts") {
      ok = parseInt(cursor, record.hiddenAttempts);
    } else if (key == "views_total") {
      ok = parseInt(cursor, record.viewsTotal);
    } else if (key == "hidden_requests") {
      ok = parseInt(cursor, record.hiddenRequests);
    } else if (key == "quiet_before") {
      ok = parseInt(cursor, record.quietBefore);
    } else if (key == "quiet_after") {
      ok = parseInt(cursor, record.quietAfter);
    } else if (key == "training_active_after") {
      ok = parseBool(cursor, record.trainingActiveAfter);
    } else if (key == "marked") {
      ok = parseStringArray(cursor, record.marked);
    } else if (key == "attributed_cookie") {
      ok = parseString(cursor, record.attributedCookie);
      record.hasAttribution = true;
    } else if (key == "attribution_confirmed") {
      ok = parseBool(cursor, record.attributionConfirmed);
      record.hasAttribution = true;
    } else if (key == "attribution_confirm_strips") {
      ok = parseInt(cursor, record.attributionConfirmStrips);
      record.hasAttribution = true;
    } else if (key == "evidence_structure_regular") {
      ok = parseStringArray(cursor, record.evidenceStructureRegular);
    } else if (key == "evidence_structure_hidden") {
      ok = parseStringArray(cursor, record.evidenceStructureHidden);
    } else if (key == "evidence_text_regular") {
      ok = parseStringArray(cursor, record.evidenceTextRegular);
    } else if (key == "evidence_text_hidden") {
      ok = parseStringArray(cursor, record.evidenceTextHidden);
    } else {
      return std::nullopt;  // closed format: unknown keys are corruption
    }
    if (!ok) return std::nullopt;
    if (cursor.consume('}')) break;
    if (!cursor.consume(',')) return std::nullopt;
  }
  // Trailing bytes after the closing brace are corruption too.
  if (!cursor.done()) return std::nullopt;
  return record;
}

const char* figure5Branch(bool treeDiffers, bool textDiffers) {
  if (treeDiffers && textDiffers) return "both-differ";
  if (treeDiffers) return "tree-only-differs";
  if (textDiffers) return "text-only-differs";
  return "neither-differs";
}

bool figure5Verdict(std::string_view mode, bool treeDiffers,
                    bool textDiffers) {
  if (mode == "both") return treeDiffers && textDiffers;
  if (mode == "tree-only") return treeDiffers;
  if (mode == "text-only") return textDiffers;
  if (mode == "either") return treeDiffers || textDiffers;
  return false;
}

void AuditTrail::append(AuditRecord& record) {
  std::lock_guard lock(mutex_);
  record.seq = ++seq_;
  lines_ += record.toJsonLine();
  lines_ += '\n';
}

std::string AuditTrail::jsonl() const {
  std::lock_guard lock(mutex_);
  return lines_;
}

std::uint64_t AuditTrail::recordCount() const {
  std::lock_guard lock(mutex_);
  return seq_;
}

}  // namespace cookiepicker::obs
