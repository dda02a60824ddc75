// Incremental HTTP/1.1 framing.
//
// The parsers are push-style state machines built for an edge-triggered
// loop: feed() whatever bytes arrived, then poll() for complete messages —
// zero, one, or several per feed (pipelining). A message may arrive one
// byte per wakeup or ten messages in one read; the state machine does not
// care. Framing covered: Content-Length bodies, chunked transfer coding
// (with trailers, which are parsed and dropped), read-to-EOF responses,
// premature close (delivered as a partial body with the declared
// Content-Length intact, so net::bodyTruncated() sees exactly what a
// mid-transfer cut looks like), and oversized-header rejection.
//
// The serializers are the write side: whole requests, whole responses with
// an optionally *lying* Content-Length (the TruncateBody fault declares the
// full size and sends less), and chunk-at-a-time encoding for slow-drip
// responses that trickle out on wheel timers.
//
// RequestKind and the retry ordinal — simulator-side metadata with no wire
// representation — cross the socket as X-CookiePicker-Kind and
// X-CookiePicker-Attempt headers, added by serializeRequest() and stripped
// by toHttpRequest(), so origin-side fault plans can scope rules per kind
// exactly as the sim Network does while handlers see pristine headers.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "net/http.h"

namespace cookiepicker::serve {

inline constexpr char kKindHeader[] = "X-CookiePicker-Kind";
inline constexpr char kAttemptHeader[] = "X-CookiePicker-Attempt";

const char* requestKindName(net::RequestKind kind);
std::optional<net::RequestKind> parseRequestKind(std::string_view text);

struct Http1Limits {
  std::size_t maxHeaderBytes = 32 * 1024;
  std::size_t maxBodyBytes = 64 * 1024 * 1024;
};

enum class ParseStatus : std::uint8_t {
  NeedMore,  // incomplete message buffered; feed more bytes
  Ready,     // one complete message extracted into `out`
  Error,     // protocol violation or limit breach; connection must die
};

struct ParsedRequest {
  std::string method;
  std::string target;  // origin-form: path plus optional ?query
  net::HeaderMap headers;
  std::string body;
  bool keepAlive = true;
};

struct ParsedResponse {
  int status = 0;
  std::string statusText;
  net::HeaderMap headers;
  std::string body;
  bool keepAlive = true;
  // The peer closed mid-body. For Content-Length framing the declared
  // header is preserved and `body` holds what arrived, so downstream
  // truncation detection fires; for chunked framing the partial decode is
  // delivered as-is.
  bool prematureClose = false;
};

// Shared incremental chunked-body decoder (used by both parsers).
class ChunkDecoder {
 public:
  // Consumes from `buffer` starting at `pos`, appending decoded bytes to
  // `body`. Advances `pos`. Returns Ready when the terminating 0-chunk and
  // its trailer section have been consumed.
  ParseStatus consume(const std::string& buffer, std::size_t& pos,
                      std::string& body, std::size_t maxBodyBytes,
                      std::string& error);
  bool started() const { return state_ != State::Size || sawChunk_; }
  void reset() { *this = ChunkDecoder(); }

 private:
  enum class State : std::uint8_t { Size, Data, DataCrlf, Trailers };
  State state_ = State::Size;
  std::uint64_t remaining_ = 0;
  bool sawChunk_ = false;
};

class RequestParser {
 public:
  explicit RequestParser(Http1Limits limits = {}) : limits_(limits) {}

  void feed(std::string_view bytes) { buffer_.append(bytes); }
  // Extracts the next pipelined request, if a complete one is buffered.
  ParseStatus poll(ParsedRequest* out);

  const std::string& error() const { return error_; }
  // Bytes sitting in the buffer (trailing garbage detection in tests).
  std::size_t buffered() const { return buffer_.size(); }

 private:
  Http1Limits limits_;
  std::string buffer_;
  std::string error_;
};

class ResponseParser {
 public:
  explicit ResponseParser(Http1Limits limits = {}) : limits_(limits) {}

  void feed(std::string_view bytes) { buffer_.append(bytes); }
  ParseStatus poll(ParsedResponse* out);

  // The peer closed its write side. Completes a read-to-EOF body, converts
  // a short Content-Length or chunked body into a prematureClose delivery;
  // returns NeedMore only when no message was in flight at all.
  ParseStatus finishAtEof(ParsedResponse* out);

  const std::string& error() const { return error_; }

 private:
  // Parses the head (status line + headers) at the front of buffer_ into
  // out; returns header section length via headLen.
  ParseStatus parseHead(ParsedResponse* out, std::size_t* headLen);

  Http1Limits limits_;
  std::string buffer_;
  std::string error_;
  ChunkDecoder chunks_;
};

// ---- serializers ----

std::string serializeRequest(const net::HttpRequest& request);

struct ResponseWireOptions {
  bool keepAlive = true;
  // Send the body chunked instead of Content-Length framed.
  bool chunked = false;
  // Lie in the Content-Length header (TruncateBody: declare the uncut
  // size). Ignored when chunked.
  std::optional<std::uint64_t> declaredContentLength;
};

std::string serializeResponse(const net::HttpResponse& response,
                              const ResponseWireOptions& options = {});
// Head only (through the blank line), Transfer-Encoding: chunked — the
// slow-drip path writes this, then encodeChunk()s on wheel timers.
std::string serializeChunkedHead(const net::HttpResponse& response,
                                 bool keepAlive);
std::string encodeChunk(std::string_view data);
std::string encodeLastChunk();

// ---- bridges to the sim-side message types ----

// Strips the kind/attempt metadata headers into the typed fields and
// rebuilds the request the origin handler should see. `host` comes from the
// Host header (the tier routes on it before calling this).
net::HttpRequest toHttpRequest(const ParsedRequest& parsed,
                               const std::string& host);
net::HttpResponse toHttpResponse(ParsedResponse parsed);

}  // namespace cookiepicker::serve
