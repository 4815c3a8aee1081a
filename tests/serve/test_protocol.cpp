// Wire-protocol unit tests (serve/protocol.hpp): parse/format round
// trips, field validation, and the fuzz oracle's own battery on fixed
// seeds. The hostile-input sweep runs continuously in fuzz_smoke; this
// file pins the named rules.
#include <gtest/gtest.h>

#include "check/protocol_fuzz.hpp"
#include "serve/protocol.hpp"
#include "util/common.hpp"
#include "util/rng.hpp"

namespace hp::serve::proto {
namespace {

TEST(Protocol, ParsesFullRequest) {
  const Request r = parse_request(
      "{\"id\": 7, \"cmd\": \"core\", \"path\": \"d.hyper\", "
      "\"args\": {\"k\": 3, \"peel-stats\": true, \"out\": \"x.hyper\"}, "
      "\"timeout_ms\": 250}");
  EXPECT_EQ(r.id, 7u);
  EXPECT_TRUE(r.has_id());
  EXPECT_EQ(r.command, "core");
  EXPECT_EQ(r.path, "d.hyper");
  ASSERT_EQ(r.args.size(), 3u);
  // Wire order preserved; scalar values normalized to strings.
  EXPECT_EQ(r.args[0], (std::pair<std::string, std::string>{"k", "3"}));
  EXPECT_EQ(r.args[1],
            (std::pair<std::string, std::string>{"peel-stats", "true"}));
  EXPECT_EQ(r.args[2],
            (std::pair<std::string, std::string>{"out", "x.hyper"}));
  EXPECT_EQ(r.timeout_ms, 250u);
}

TEST(Protocol, MinimalRequestHasNoId) {
  const Request r = parse_request("{\"cmd\": \"ping\"}");
  EXPECT_FALSE(r.has_id());
  EXPECT_TRUE(r.path.empty());
  EXPECT_TRUE(r.args.empty());
  EXPECT_EQ(r.timeout_ms, 0u);
}

TEST(Protocol, RequestRoundTripPreservesEverything) {
  Request r;
  r.id = 42;
  r.command = "cover";
  r.path = "data with spaces \"quoted\".hyper";
  r.args = {{"weights", "deg2"}, {"multicover", "2"}, {"limit", "5"}};
  r.timeout_ms = 1000;
  const Request again = parse_request(format_request(r));
  EXPECT_EQ(again.id, r.id);
  EXPECT_EQ(again.command, r.command);
  EXPECT_EQ(again.path, r.path);
  EXPECT_EQ(again.args, r.args);
  EXPECT_EQ(again.timeout_ms, r.timeout_ms);
}

TEST(Protocol, ResponseRoundTripBothOutcomes) {
  Response ok;
  ok.id = 9;
  ok.ok = true;
  ok.output = "line one\nline two\ttabbed\n";
  ok.cache = "hit";
  ok.micros = 184;
  const Response ok2 = parse_response(format_response(ok));
  EXPECT_TRUE(ok2.ok);
  EXPECT_EQ(ok2.output, ok.output);
  EXPECT_EQ(ok2.cache, "hit");
  EXPECT_EQ(ok2.micros, 184u);

  Response err;
  err.ok = false;
  err.error = "no such file";
  const Response err2 = parse_response(format_response(err));
  EXPECT_FALSE(err2.ok);
  EXPECT_FALSE(err2.has_id());  // id serialized as null, parsed back as none
  EXPECT_EQ(err2.error, "no such file");
}

TEST(Protocol, EveryByteButNulRoundTrips) {
  // NUL is the one byte a protocol string may not hold (parse rejects
  // it); every other byte, control bytes included, must come back.
  std::string bytes;
  for (int b = 1; b < 256; ++b) bytes += static_cast<char>(b);
  Response response;
  response.ok = true;
  response.output = bytes;
  EXPECT_EQ(parse_response(format_response(response)).output, bytes);
  response.output = "a\x01" "b\x1b" "c";
  EXPECT_EQ(parse_response(format_response(response)).output,
            response.output);

  Request request;
  request.command = "stats";
  request.path = "d\x02.hyper";
  request.args = {{"k", bytes}};
  const Request again = parse_request(format_request(request));
  EXPECT_EQ(again.path, request.path);
  EXPECT_EQ(again.args, request.args);
}

TEST(Protocol, FramesNeverContainRawNewlines) {
  Response r;
  r.ok = true;
  r.output = "a\nb\nc\n";
  EXPECT_EQ(format_response(r).find('\n'), std::string::npos);
}

TEST(Protocol, RejectsProtocolViolations) {
  EXPECT_THROW(parse_request(""), ParseError);
  EXPECT_THROW(parse_request("{}"), ParseError);
  EXPECT_THROW(parse_request("[\"cmd\"]"), ParseError);
  EXPECT_THROW(parse_request("{\"cmd\": \"Core\"}"), ParseError);
  EXPECT_THROW(parse_request("{\"cmd\": \"core\", \"id\": 1.5}"), ParseError);
  EXPECT_THROW(parse_request("{\"cmd\": \"core\", \"cmd\": \"core\"}"),
               ParseError);
  EXPECT_THROW(parse_request("{\"cmd\": \"core\", \"nope\": 1}"), ParseError);
  EXPECT_THROW(parse_response("{\"ok\": true, \"error\": \"x\"}"),
               ParseError);
  EXPECT_THROW(parse_response("{\"ok\": false}"), ParseError);
}

TEST(Protocol, RejectsRawControlBytesInStrings) {
  // Strings carry control bytes only as escapes (RFC 8259 section 7).
  EXPECT_THROW(
      parse_request("{\"cmd\": \"stats\", \"path\": \"a\x01" "b\"}"),
      ParseError);
  EXPECT_EQ(parse_request("{\"cmd\": \"stats\", \"path\": \"a\\u0001b\"}")
                .path,
            "a\x01" "b");
}

TEST(Protocol, RejectsHostileNestingWithoutCrashing) {
  std::string deep = "{\"cmd\": \"a\", \"args\": ";
  deep.append(100000, '[');
  EXPECT_THROW(parse_request(deep), ParseError);
}

TEST(Protocol, FormatRequestValidatesFields) {
  Request r;
  r.command = "BAD CMD";
  EXPECT_THROW(format_request(r), InvalidInputError);
  r.command = std::string(kMaxCommandLength + 1, 'a');
  EXPECT_THROW(format_request(r), InvalidInputError);
}

TEST(Protocol, FuzzOracleIsCleanOnFixedSeeds) {
  for (std::uint64_t seed : {1ull, 7ull, 99ull, 123456789ull}) {
    Rng rng{seed};
    const auto failures = check::check_protocol(rng, 64);
    for (const auto& failure : failures) {
      ADD_FAILURE() << "seed " << seed << ": " << failure.detail;
    }
  }
}

TEST(Protocol, GeneratedFramesAreValid) {
  Rng rng{2024};
  for (int i = 0; i < 200; ++i) {
    EXPECT_NO_THROW(parse_request(check::random_request_frame(rng)));
    EXPECT_NO_THROW(parse_response(check::random_response_frame(rng)));
  }
}

}  // namespace
}  // namespace hp::serve::proto
