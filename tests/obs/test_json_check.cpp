#include "obs/json_check.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <string>

#include "util/common.hpp"

namespace hp::obs {
namespace {

TEST(JsonCheck, ParsesScalars) {
  EXPECT_EQ(json::parse("null").type, json::Value::Type::kNull);
  EXPECT_TRUE(json::parse("true").boolean);
  EXPECT_FALSE(json::parse("false").boolean);
  EXPECT_EQ(json::parse("42").number, 42.0);
  EXPECT_EQ(json::parse("-1.5e2").number, -150.0);
  EXPECT_EQ(json::parse("\"hi\"").string, "hi");
}

TEST(JsonCheck, ParsesNestedStructures) {
  const json::Value root =
      json::parse(R"({"a": [1, 2, {"b": "c"}], "d": {"e": null}})");
  ASSERT_EQ(root.type, json::Value::Type::kObject);
  const json::Value* a = root.find("a");
  ASSERT_NE(a, nullptr);
  ASSERT_EQ(a->array.size(), 3u);
  EXPECT_EQ(a->array[1].number, 2.0);
  EXPECT_EQ(a->array[2].find("b")->string, "c");
  EXPECT_EQ(root.find("d")->find("e")->type, json::Value::Type::kNull);
  EXPECT_EQ(root.find("missing"), nullptr);
}

TEST(JsonCheck, DecodesEscapes) {
  EXPECT_EQ(json::parse(R"("a\"b\\c\nd\te")").string, "a\"b\\c\nd\te");
}

TEST(JsonCheck, DecodesUnicodeEscapesToUtf8) {
  EXPECT_EQ(json::parse(R"("\u0041\u0001\u001B")").string, "A\x01\x1b");
  EXPECT_EQ(json::parse(R"("\u00e9")").string, "\xC3\xA9");
  EXPECT_EQ(json::parse(R"("\u20AC")").string, "\xE2\x82\xAC");
  // A surrogate pair combines into one four-byte code point (U+1F600).
  EXPECT_EQ(json::parse(R"("\uD83D\uDE00")").string, "\xF0\x9F\x98\x80");
  EXPECT_EQ(json::parse(R"("\u0000")").string, std::string(1, '\0'));
}

TEST(JsonCheck, RejectsBadUnicodeEscapes) {
  EXPECT_THROW(json::parse(R"("\u00g1")"), ParseError);   // non-hex digit
  EXPECT_THROW(json::parse(R"("\u12")"), ParseError);     // truncated
  EXPECT_THROW(json::parse(R"("\uD83D")"), ParseError);   // lone high
  EXPECT_THROW(json::parse(R"("\uD83Dx")"), ParseError);  // lone high
  EXPECT_THROW(json::parse(R"("\uD83D\u0041")"), ParseError);
  EXPECT_THROW(json::parse(R"("\uDE00")"), ParseError);   // lone low
}

TEST(JsonCheck, EveryByteRoundTripsThroughWriterAndReader) {
  std::string all;
  for (int b = 0; b < 256; ++b) {
    const std::string one(1, static_cast<char>(b));
    std::string quoted;
    json::append_quoted(quoted, one);
    EXPECT_EQ(json::parse(quoted).string, one) << "byte " << b;
    all += one;
  }
  std::string quoted;
  json::append_quoted(quoted, all);
  EXPECT_EQ(json::parse(quoted).string, all);
}

TEST(JsonCheck, ObjectWritesMembersInOrder) {
  json::Object inner;
  inner.integer("n", 3);
  const std::string text =
      json::Object{}
          .string("s", "a\"b")
          .number("x", 0.5)
          .integer("i", 18446744073709551615ull)
          .boolean("t", true)
          .integers("v", {1, 2})
          .object("o", inner)
          .objects("rows", {inner, json::Object{}})
          .text();
  EXPECT_EQ(text,
            R"({"s": "a\"b", "x": 0.5, "i": 18446744073709551615, "t": true, )"
            R"("v": [1, 2], "o": {"n": 3}, "rows": [{"n": 3}, {}]})");
  EXPECT_EQ(json::Object{}.text(), "{}");
}

TEST(JsonCheck, NonFiniteNumbersAreWrittenAsNull) {
  const json::Value root = json::parse(
      json::Object{}
          .number("inf", std::numeric_limits<double>::infinity())
          .number("nan", std::numeric_limits<double>::quiet_NaN())
          .number("tiny", 1e-300)
          .text());
  EXPECT_EQ(root.find("inf")->type, json::Value::Type::kNull);
  EXPECT_EQ(root.find("nan")->type, json::Value::Type::kNull);
  EXPECT_EQ(root.find("tiny")->number, 1e-300);
}

TEST(JsonCheck, RejectsMalformedInput) {
  EXPECT_THROW(json::parse(""), ParseError);
  EXPECT_THROW(json::parse("{"), ParseError);
  EXPECT_THROW(json::parse("[1, 2,]"), ParseError);
  EXPECT_THROW(json::parse("{\"a\": 1} trailing"), ParseError);
  EXPECT_THROW(json::parse("'single'"), ParseError);
  EXPECT_THROW(json::parse("{\"unterminated): 1}"), ParseError);
}

TEST(JsonCheck, SummarizesWellFormedTrace) {
  const json::Value root = json::parse(R"({"traceEvents": [
    {"name": "a", "ph": "B", "pid": 1, "tid": 0, "ts": 1.0},
    {"name": "b", "ph": "B", "pid": 1, "tid": 0, "ts": 2.0},
    {"name": "b", "ph": "E", "pid": 1, "tid": 0, "ts": 3.0},
    {"name": "c", "ph": "C", "pid": 1, "tid": 0, "ts": 3.5,
     "args": {"value": 7}},
    {"name": "a", "ph": "E", "pid": 1, "tid": 0, "ts": 4.0},
    {"name": "w", "ph": "B", "pid": 1, "tid": 1, "ts": 0.5},
    {"name": "w", "ph": "E", "pid": 1, "tid": 1, "ts": 0.75}
  ]})");
  const TraceSummary summary = summarize_trace(root);
  EXPECT_EQ(summary.events, 7u);
  ASSERT_EQ(summary.threads.size(), 2u);
  EXPECT_TRUE(summary.all_balanced());
  EXPECT_TRUE(summary.all_monotonic());
  const TraceThreadSummary* main_thread = summary.thread(0);
  ASSERT_NE(main_thread, nullptr);
  EXPECT_EQ(main_thread->begin_events, 2u);
  EXPECT_EQ(main_thread->end_events, 2u);
  EXPECT_EQ(main_thread->counter_events, 1u);
  EXPECT_EQ(summary.thread(7), nullptr);
}

TEST(JsonCheck, FlagsOutOfOrderTimestamps) {
  const json::Value root = json::parse(R"({"traceEvents": [
    {"name": "a", "ph": "B", "pid": 1, "tid": 0, "ts": 5.0},
    {"name": "a", "ph": "E", "pid": 1, "tid": 0, "ts": 1.0}
  ]})");
  const TraceSummary summary = summarize_trace(root);
  EXPECT_FALSE(summary.all_monotonic());
  EXPECT_TRUE(summary.all_balanced());
}

TEST(JsonCheck, FlagsUnbalancedSpans) {
  const json::Value root = json::parse(R"({"traceEvents": [
    {"name": "a", "ph": "E", "pid": 1, "tid": 0, "ts": 1.0},
    {"name": "a", "ph": "B", "pid": 1, "tid": 0, "ts": 2.0}
  ]})");
  const TraceSummary summary = summarize_trace(root);
  EXPECT_FALSE(summary.all_balanced());
}

TEST(JsonCheck, SummarizesCausalTrees) {
  const json::Value root = json::parse(R"({"traceEvents": [
    {"name": "root", "ph": "B", "pid": 1, "tid": 0, "ts": 1.0,
     "args": {"trace": 7, "span": 1, "parent": 0}},
    {"name": "child", "ph": "B", "pid": 1, "tid": 3, "ts": 2.0,
     "args": {"trace": 7, "span": 2, "parent": 1}},
    {"name": "spawn", "ph": "s", "pid": 1, "tid": 0, "ts": 2.1,
     "cat": "par", "id": 9},
    {"name": "spawn", "ph": "f", "pid": 1, "tid": 3, "ts": 2.2,
     "cat": "par", "id": 9, "bp": "e"},
    {"name": "child", "ph": "E", "pid": 1, "tid": 3, "ts": 3.0},
    {"name": "root", "ph": "E", "pid": 1, "tid": 0, "ts": 4.0}
  ]})");
  const TraceSummary summary = summarize_trace(root);
  EXPECT_TRUE(summary.parent_integrity);
  EXPECT_TRUE(summary.all_single_rooted());
  ASSERT_EQ(summary.trees.size(), 1u);
  const TraceTreeSummary* tree = summary.tree(7);
  ASSERT_NE(tree, nullptr);
  EXPECT_EQ(tree->spans, 2u);
  EXPECT_EQ(tree->roots, 1u);
  EXPECT_EQ(tree->threads, 2u);
  EXPECT_TRUE(tree->connected);
  EXPECT_EQ(summary.tree(8), nullptr);
  EXPECT_EQ(summary.thread(0)->flow_events, 1u);
  EXPECT_EQ(summary.thread(3)->flow_events, 1u);
}

TEST(JsonCheck, FlagsDanglingParentReference) {
  const json::Value root = json::parse(R"({"traceEvents": [
    {"name": "root", "ph": "B", "pid": 1, "tid": 0, "ts": 1.0,
     "args": {"trace": 1, "span": 1, "parent": 0}},
    {"name": "orphan", "ph": "B", "pid": 1, "tid": 0, "ts": 2.0,
     "args": {"trace": 1, "span": 2, "parent": 99}},
    {"name": "orphan", "ph": "E", "pid": 1, "tid": 0, "ts": 3.0},
    {"name": "root", "ph": "E", "pid": 1, "tid": 0, "ts": 4.0}
  ]})");
  const TraceSummary summary = summarize_trace(root);
  EXPECT_FALSE(summary.parent_integrity);
  EXPECT_FALSE(summary.all_single_rooted());
  ASSERT_NE(summary.tree(1), nullptr);
  EXPECT_FALSE(summary.tree(1)->connected);
}

TEST(JsonCheck, FlagsCrossTraceParent) {
  const json::Value root = json::parse(R"({"traceEvents": [
    {"name": "a", "ph": "B", "pid": 1, "tid": 0, "ts": 1.0,
     "args": {"trace": 1, "span": 1, "parent": 0}},
    {"name": "a", "ph": "E", "pid": 1, "tid": 0, "ts": 2.0},
    {"name": "b", "ph": "B", "pid": 1, "tid": 0, "ts": 3.0,
     "args": {"trace": 2, "span": 2, "parent": 1}},
    {"name": "b", "ph": "E", "pid": 1, "tid": 0, "ts": 4.0}
  ]})");
  const TraceSummary summary = summarize_trace(root);
  EXPECT_FALSE(summary.parent_integrity);
  ASSERT_NE(summary.tree(2), nullptr);
  EXPECT_FALSE(summary.tree(2)->connected);
}

TEST(JsonCheck, FlagsTwoRootsInOneTrace) {
  const json::Value root = json::parse(R"({"traceEvents": [
    {"name": "a", "ph": "B", "pid": 1, "tid": 0, "ts": 1.0,
     "args": {"trace": 4, "span": 1, "parent": 0}},
    {"name": "a", "ph": "E", "pid": 1, "tid": 0, "ts": 2.0},
    {"name": "b", "ph": "B", "pid": 1, "tid": 0, "ts": 3.0,
     "args": {"trace": 4, "span": 2, "parent": 0}},
    {"name": "b", "ph": "E", "pid": 1, "tid": 0, "ts": 4.0}
  ]})");
  const TraceSummary summary = summarize_trace(root);
  EXPECT_TRUE(summary.parent_integrity);  // nothing dangles...
  EXPECT_FALSE(summary.all_single_rooted());  // ...but the tree forked
  ASSERT_NE(summary.tree(4), nullptr);
  EXPECT_EQ(summary.tree(4)->roots, 2u);
}

TEST(JsonCheck, FlagsDuplicateSpanIds) {
  const json::Value root = json::parse(R"({"traceEvents": [
    {"name": "a", "ph": "B", "pid": 1, "tid": 0, "ts": 1.0,
     "args": {"trace": 1, "span": 5, "parent": 0}},
    {"name": "a", "ph": "E", "pid": 1, "tid": 0, "ts": 2.0},
    {"name": "b", "ph": "B", "pid": 1, "tid": 0, "ts": 3.0,
     "args": {"trace": 1, "span": 5, "parent": 0}},
    {"name": "b", "ph": "E", "pid": 1, "tid": 0, "ts": 4.0}
  ]})");
  EXPECT_FALSE(summarize_trace(root).parent_integrity);
}

TEST(JsonCheck, SpansWithoutIdsStayOutsideTreeBookkeeping) {
  const json::Value root = json::parse(R"({"traceEvents": [
    {"name": "legacy", "ph": "B", "pid": 1, "tid": 0, "ts": 1.0},
    {"name": "legacy", "ph": "E", "pid": 1, "tid": 0, "ts": 2.0}
  ]})");
  const TraceSummary summary = summarize_trace(root);
  EXPECT_TRUE(summary.parent_integrity);
  EXPECT_TRUE(summary.trees.empty());
  EXPECT_TRUE(summary.all_single_rooted());  // vacuously
}

TEST(JsonCheck, RejectsStructurallyInvalidTrace) {
  EXPECT_THROW(summarize_trace(json::parse("[]")), ParseError);
  EXPECT_THROW(summarize_trace(json::parse("{\"traceEvents\": 3}")),
               ParseError);
  EXPECT_THROW(
      summarize_trace(json::parse(
          R"({"traceEvents": [{"ph": "B", "tid": 0, "ts": 1.0}]})")),
      ParseError);
  EXPECT_THROW(
      summarize_trace(json::parse(
          R"({"traceEvents": [{"name": "a", "ph": "B", "tid": 0}]})")),
      ParseError);
}

}  // namespace
}  // namespace hp::obs
