// Wire protocol of the long-lived analysis server (DESIGN.md §15).
//
// Framing is newline-delimited JSON: one request object per line, one
// response object per line, UTF-8, no embedded raw newlines (strings
// carry them escaped). The format was chosen over a length-prefixed
// binary frame because every side of it is debuggable with nc/socat
// and a captured session replays verbatim (`hp_cli query --script`).
//
// Request object:
//   {"id": 7,                   optional echo token, integer >= 0
//    "cmd": "stats",            required, [a-z0-9_-], <= 64 chars
//    "path": "data.hyper",      dataset path for query commands
//    "args": {"k": 3,           optional flag map; values are strings,
//             "paths": true},   integers or booleans
//    "timeout_ms": 250}         optional per-request deadline override
//
// Response object:
//   {"id": 7, "ok": true, "cache": "hit", "micros": 184,
//    "output": "..."}                                   -- success
//   {"id": 7, "ok": false, "error": "..."}              -- failure
//
// Trust model: requests arrive from an untrusted socket. parse_request
// is the hardened entry point -- it either returns a fully validated
// Request or throws hp::ParseError; it never aborts, never allocates
// proportionally more than the (size-capped) frame, and never recurses
// deeper than the JSON reader's 256-level bound. The protocol fuzz
// oracle (src/check/protocol_fuzz.cpp) hammers exactly this contract.
//
// This header is deliberately free of any server/socket dependency: it
// is its own small library (hp_proto) so the fuzzing harness (hp_check)
// can link the parser without pulling in the server, which sits above
// the CLI command layer.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace hp::serve::proto {

/// Hard cap on one frame (request or response line) in bytes, newline
/// excluded. Oversized frames are a protocol error; the server replies
/// with an error and drops the connection (it cannot resynchronize
/// reliably mid-frame).
inline constexpr std::size_t kMaxFrameBytes = 1u << 20;

/// Field-level limits enforced by parse_request.
inline constexpr std::size_t kMaxCommandLength = 64;
inline constexpr std::size_t kMaxPathLength = 4096;
inline constexpr std::size_t kMaxArgs = 64;
inline constexpr std::size_t kMaxArgKeyLength = 64;
inline constexpr std::size_t kMaxArgValueLength = 4096;
/// Largest accepted integer field (id, timeout_ms, numeric args):
/// 2^53 - 1, the exactly-representable range of the JSON double model.
inline constexpr std::uint64_t kMaxIntegerField = (1ull << 53) - 1;

/// Sentinel for "request carried no id" (responses echo it as null).
inline constexpr std::uint64_t kNoRequestId = ~std::uint64_t{0};

/// A validated request. `args` preserves the order the keys appeared
/// on the wire; values are normalized to strings (booleans become
/// "true"/"false", integers their decimal rendering) so they can be
/// handed to hp::Args unchanged.
struct Request {
  std::uint64_t id = kNoRequestId;
  std::string command;
  std::string path;
  std::vector<std::pair<std::string, std::string>> args;
  std::uint64_t timeout_ms = 0;  ///< 0 = use the server default

  bool has_id() const { return id != kNoRequestId; }
};

struct Response {
  std::uint64_t id = kNoRequestId;
  bool ok = false;
  std::string output;  ///< command output (success only)
  std::string error;   ///< failure message (failure only)
  std::string cache;   ///< "hit" / "miss" for pooled queries, else ""
  std::uint64_t micros = 0;  ///< server-side handling time

  bool has_id() const { return id != kNoRequestId; }
};

/// Parse one request frame (without its trailing newline). Throws
/// hp::ParseError on any violation: not a JSON object, unknown or
/// duplicated keys, wrong types, out-of-range integers, over-long or
/// malformed strings, oversized frames. Never throws anything else.
Request parse_request(const std::string& frame);

/// Serialize a request to one frame (no trailing newline). The inverse
/// of parse_request for every valid Request; used by the client and by
/// the fuzz oracle's round-trip check. Throws hp::InvalidInputError on
/// a Request that violates the field limits above.
std::string format_request(const Request& request);

/// Parse one response frame. Same hardening contract as parse_request
/// (the client also reads from an untrusted byte stream).
Response parse_response(const std::string& frame);

/// Serialize a response to one frame (no trailing newline). `output`
/// and `error` may contain arbitrary bytes; they are escaped by
/// obs::json::append_quoted, which the reader decodes exactly.
std::string format_response(const Response& response);

}  // namespace hp::serve::proto
