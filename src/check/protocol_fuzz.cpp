#include "check/protocol_fuzz.hpp"

#include <optional>

#include "check/generator.hpp"
#include "serve/protocol.hpp"
#include "util/common.hpp"

namespace hp::check {

namespace proto = hp::serve::proto;

namespace {

void fail(std::vector<CheckFailure>& failures, const std::string& detail) {
  failures.push_back(CheckFailure{"protocol", detail});
}

/// Clip a frame for a failure message.
std::string excerpt(const std::string& frame) {
  if (frame.size() <= 96) return frame;
  return frame.substr(0, 96) + "...(" + std::to_string(frame.size()) +
         " bytes)";
}

std::string random_name(Rng& rng, std::size_t max_len) {
  static const char kAlphabet[] = "abcdefghijklmnopqrstuvwxyz0123456789_-";
  const std::size_t len = 1 + rng.pick(max_len);
  std::string out;
  out.reserve(len);
  for (std::size_t i = 0; i < len; ++i) {
    out += kAlphabet[rng.pick(sizeof kAlphabet - 1)];
  }
  return out;
}

/// Text of any bytes but NUL, the one byte a protocol string may not
/// hold. Control bytes go out as named or \u00XX escapes and the
/// reader decodes them back, so every draw must round-trip exactly.
std::string random_text(Rng& rng, std::size_t max_len) {
  std::string out;
  const std::size_t len = rng.pick(max_len + 1);
  out.reserve(len);
  for (std::size_t i = 0; i < len; ++i) {
    out += static_cast<char>(1 + rng.pick(255));
  }
  return out;
}

proto::Request random_request(Rng& rng) {
  proto::Request request;
  if (rng.bernoulli(0.7)) request.id = rng.uniform(proto::kMaxIntegerField);
  request.command = random_name(rng, proto::kMaxCommandLength);
  if (rng.bernoulli(0.8)) {
    // Paths may hold anything except newlines (the frame delimiter);
    // parse_request rejects decoded newlines outright.
    std::string path = random_text(rng, 64);
    for (char& c : path) {
      if (c == '\n' || c == '\r') c = '_';
    }
    request.path = path;
  }
  const std::size_t args = rng.pick(5);
  for (std::size_t i = 0; i < args; ++i) {
    std::string key;
    do {
      key = random_name(rng, proto::kMaxArgKeyLength);
    } while ([&] {
      for (const auto& [existing, value] : request.args) {
        if (existing == key) return true;
      }
      return false;
    }());
    request.args.emplace_back(key, random_text(rng, 32));
  }
  if (rng.bernoulli(0.4)) {
    request.timeout_ms = rng.uniform(1u << 20);
  }
  return request;
}

proto::Response random_response(Rng& rng) {
  proto::Response response;
  if (rng.bernoulli(0.7)) response.id = rng.uniform(proto::kMaxIntegerField);
  response.ok = rng.bernoulli(0.7);
  if (response.ok) {
    response.output = random_text(rng, 256);
    if (rng.bernoulli(0.5)) {
      response.cache = rng.bernoulli(0.5) ? "hit" : "miss";
    }
  } else {
    response.error = random_text(rng, 64);
    if (response.error.empty()) response.error = "e";
  }
  response.micros = rng.uniform(proto::kMaxIntegerField);
  return response;
}

bool requests_equal(const proto::Request& a, const proto::Request& b) {
  return a.id == b.id && a.command == b.command && a.path == b.path &&
         a.args == b.args && a.timeout_ms == b.timeout_ms;
}

bool responses_equal(const proto::Response& a, const proto::Response& b) {
  return a.id == b.id && a.ok == b.ok && a.output == b.output &&
         a.error == b.error && a.cache == b.cache && a.micros == b.micros;
}

enum class Outcome { kParsed, kRejected, kBadException };

template <typename Parse>
Outcome try_parse(Parse&& parse, const std::string& frame,
                  std::string& error_out) {
  try {
    parse(frame);
    return Outcome::kParsed;
  } catch (const ParseError&) {
    return Outcome::kRejected;  // the contract
  } catch (const std::exception& e) {
    error_out = e.what();
    return Outcome::kBadException;
  }
}

/// Frames that must be rejected no matter what: anything a validating
/// parser could accept here would be a hole in the trust boundary.
std::vector<std::string> hostile_request_frames(Rng& rng) {
  std::vector<std::string> frames = {
      "",
      "   ",
      "null",
      "true",
      "42",
      "\"cmd\"",
      "[]",
      "[{\"cmd\": \"stats\"}]",
      "{",
      "{}",
      "{\"cmd\": \"\"}",
      "{\"cmd\": 3}",
      "{\"cmd\": null}",
      "{\"cmd\": \"STATS\"}",               // uppercase outside [a-z0-9_-]
      "{\"cmd\": \"st ats\"}",              // embedded space
      "{\"cmd\": \"stats\", \"cmd\": \"core\"}",  // duplicate key
      "{\"cmd\": \"stats\", \"bogus\": 1}",       // unknown key
      "{\"cmd\": \"stats\", \"id\": -1}",
      "{\"cmd\": \"stats\", \"id\": 1.5}",
      "{\"cmd\": \"stats\", \"id\": 1e300}",
      "{\"cmd\": \"stats\", \"id\": \"7\"}",
      "{\"cmd\": \"stats\", \"timeout_ms\": true}",
      "{\"cmd\": \"stats\", \"args\": []}",
      "{\"cmd\": \"stats\", \"args\": {\"\": 1}}",
      "{\"cmd\": \"stats\", \"args\": {\"k\": 1.5}}",
      "{\"cmd\": \"stats\", \"args\": {\"k\": null}}",
      "{\"cmd\": \"stats\", \"args\": {\"k\": {}}}",
      "{\"cmd\": \"stats\", \"args\": {\"k!\": 1}}",
      "{\"cmd\": \"stats\", \"path\": 7}",
      "{\"cmd\": \"stats\",",               // truncated object
      "{\"cmd\": \"stats\"} trailing",      // trailing garbage
      std::string{"{\"cmd\": \"stats\", \"path\": \"a"} +
          std::string(1, '\0') + "b\"}",    // raw NUL inside the frame
      "{\"cmd\": \"stats\", \"path\": \"a\x01" "b\"}",  // raw control byte
  };

  // Deep nesting: the JSON reader's 256-level cap must convert stack
  // exhaustion into ParseError.
  std::string deep = "{\"args\": ";
  deep.append(4096, '[');
  frames.push_back(deep);
  std::string deep_closed = "{\"cmd\": \"a\", \"args\": ";
  deep_closed.append(500, '[');
  deep_closed.append(500, ']');
  deep_closed += "}";
  frames.push_back(deep_closed);

  // Over-long fields: command/key/value/path one byte past the cap.
  frames.push_back("{\"cmd\": \"" +
                   std::string(proto::kMaxCommandLength + 1, 'a') + "\"}");
  frames.push_back("{\"cmd\": \"a\", \"path\": \"" +
                   std::string(proto::kMaxPathLength + 1, 'p') + "\"}");
  frames.push_back("{\"cmd\": \"a\", \"args\": {\"" +
                   std::string(proto::kMaxArgKeyLength + 1, 'k') +
                   "\": 1}}");

  // Too many args keys.
  std::string many = "{\"cmd\": \"a\", \"args\": {";
  for (std::size_t i = 0; i <= proto::kMaxArgs; ++i) {
    if (i > 0) many += ", ";
    many += "\"k" + std::to_string(i) + "\": 1";
  }
  many += "}}";
  frames.push_back(many);

  // An oversized frame (cap + 1 bytes of valid-looking JSON).
  std::string oversized = "{\"cmd\": \"a\", \"path\": \"";
  oversized.append(proto::kMaxFrameBytes - oversized.size(), 'x');
  oversized += "\"}";
  frames.push_back(oversized);

  // A random mid-frame raw newline (the framing delimiter).
  std::string newline_frame = "{\"cmd\": \"stats\"}";
  newline_frame.insert(rng.pick(newline_frame.size()), 1, '\n');
  frames.push_back(newline_frame);

  return frames;
}

}  // namespace

std::vector<proto::Request> out_of_range_query_requests() {
  std::vector<proto::Request> requests;
  const auto add = [&](const char* command, const char* flag,
                       const char* value) {
    proto::Request request;
    request.command = command;
    request.args = {{flag, value}};
    requests.push_back(std::move(request));
  };
  for (const char* r : {"-1", "0", "4294967296", "4294967298",
                        "-9007199254740991"}) {
    add("cover", "multicover", r);
  }
  for (const char* k : {"-1", "4294967296", "9007199254740991"}) {
    add("core", "k", k);
  }
  return requests;
}

std::string random_request_frame(Rng& rng) {
  return proto::format_request(random_request(rng));
}

std::string random_response_frame(Rng& rng) {
  return proto::format_response(random_response(rng));
}

std::vector<CheckFailure> check_protocol(Rng& rng, int trials) {
  std::vector<CheckFailure> failures;
  std::string error;

  // 1. Known-hostile frames: every one must raise ParseError.
  for (const std::string& frame : hostile_request_frames(rng)) {
    switch (try_parse([](const std::string& f) { proto::parse_request(f); },
                      frame, error)) {
      case Outcome::kParsed:
        fail(failures, "parse_request accepted hostile frame: " +
                           excerpt(frame));
        break;
      case Outcome::kBadException:
        fail(failures, "parse_request threw a non-ParseError (" + error +
                           ") on: " + excerpt(frame));
        break;
      case Outcome::kRejected:
        break;
    }
  }
  // Range checks on query flags belong to the query layer: a frame that
  // only carries an out-of-range value must parse, unchanged.
  for (const proto::Request& request : out_of_range_query_requests()) {
    const std::string frame = proto::format_request(request);
    try {
      if (!requests_equal(proto::parse_request(frame), request)) {
        fail(failures, "out-of-range query changed in a round trip: " +
                           excerpt(frame));
      }
    } catch (const std::exception& e) {
      fail(failures, std::string{"out-of-range query frame rejected by "
                                 "the protocol ("} +
                         e.what() + "): " + excerpt(frame));
    }
  }
  // Response-side spot checks of response-only rules.
  const std::vector<std::string> hostile_responses = {
      "{\"ok\": true, \"error\": \"boom\"}",  // ok with error text
      "{\"ok\": false}",                      // failure without error
      "{\"id\": 1}",                          // missing ok
      "{\"ok\": \"true\"}",
      "{\"ok\": true, \"micros\": -4}",
      "{\"ok\": true, \"cache\": \"" +
          std::string(proto::kMaxCommandLength + 1, 'h') + "\"}",
  };
  for (const std::string& frame : hostile_responses) {
    switch (try_parse([](const std::string& f) { proto::parse_response(f); },
                      frame, error)) {
      case Outcome::kParsed:
        fail(failures, "parse_response accepted: " + frame);
        break;
      case Outcome::kBadException:
        fail(failures, "parse_response threw a non-ParseError (" + error +
                           ") on: " + frame);
        break;
      case Outcome::kRejected:
        break;
    }
  }

  for (int trial = 0; trial < trials; ++trial) {
    // 2. Round-trip identity on valid frames.
    const proto::Request request = random_request(rng);
    try {
      const proto::Request reparsed =
          proto::parse_request(proto::format_request(request));
      if (!requests_equal(request, reparsed)) {
        fail(failures, "request round-trip changed the payload: " +
                           excerpt(proto::format_request(request)));
      }
    } catch (const std::exception& e) {
      fail(failures, std::string{"valid request failed to round-trip: "} +
                         e.what());
    }
    const proto::Response response = random_response(rng);
    try {
      const proto::Response reparsed =
          proto::parse_response(proto::format_response(response));
      if (!responses_equal(response, reparsed)) {
        fail(failures, "response round-trip changed the payload: " +
                           excerpt(proto::format_response(response)));
      }
    } catch (const std::exception& e) {
      fail(failures, std::string{"valid response failed to round-trip: "} +
                         e.what());
    }

    // 3. Structured corruption: parse-or-throw, and anything accepted
    // must itself re-serialize and re-parse to the same value (the
    // parser may only accept *valid* data).
    const std::string corrupted = mutate_text(
        rng, proto::format_request(random_request(rng)),
        1 + static_cast<int>(rng.uniform(6)));
    std::optional<proto::Request> accepted;
    try {
      accepted = proto::parse_request(corrupted);
    } catch (const ParseError&) {
    } catch (const std::exception& e) {
      fail(failures, std::string{"corrupted request raised non-ParseError ("} +
                         e.what() + "): " + excerpt(corrupted));
    }
    if (accepted.has_value()) {
      try {
        const proto::Request again =
            proto::parse_request(proto::format_request(*accepted));
        if (!requests_equal(*accepted, again)) {
          fail(failures,
               "accepted-after-corruption request is not stable: " +
                   excerpt(corrupted));
        }
      } catch (const std::exception& e) {
        fail(failures,
             std::string{"accepted-after-corruption request does not "
                         "re-serialize: "} +
                 e.what());
      }
    }

    const std::string corrupted_response = mutate_text(
        rng, proto::format_response(random_response(rng)),
        1 + static_cast<int>(rng.uniform(6)));
    try {
      (void)proto::parse_response(corrupted_response);
    } catch (const ParseError&) {
    } catch (const std::exception& e) {
      fail(failures,
           std::string{"corrupted response raised non-ParseError ("} +
               e.what() + "): " + excerpt(corrupted_response));
    }
  }
  return failures;
}

}  // namespace hp::check
