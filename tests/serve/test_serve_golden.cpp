// Golden parity: a warm server answer must be byte-identical to the
// one-shot CLI for every query command. The server reuses cached
// AnalysisContexts across requests, so any hidden state leaking between
// queries -- or any drift between cli::run and the serve dispatch path
// -- shows up here as a byte diff on a realistic surrogate dataset.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "cli/commands.hpp"
#include "scratch_dir.hpp"
#include "serve/server.hpp"
#include "util/common.hpp"

namespace hp::serve {
namespace {

int run_cli(const std::vector<std::string>& argv, std::string* output) {
  std::vector<const char*> raw;
  raw.reserve(argv.size() + 1);
  raw.push_back("hyperproteome");
  for (const std::string& arg : argv) raw.push_back(arg.c_str());
  const Args args{static_cast<int>(raw.size()), raw.data()};
  std::ostringstream out;
  const int code = cli::run(args, out);
  *output = out.str();
  return code;
}

/// Drop the wall-clock lines ("core decomposition in 1.2ms", "core
/// decomposition time: ...") that legitimately differ between runs.
std::string strip_timing(const std::string& text) {
  std::istringstream in{text};
  std::string result, line;
  while (std::getline(in, line)) {
    if (line.find("core decomposition") != std::string::npos) continue;
    result += line;
    result += '\n';
  }
  return result;
}

class ServeGoldenTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // One calibrated surrogate per test process, in that process's own
    // scratch directory; generation is deterministic in --seed, so every
    // test run sees the same dataset.
    static const testutil::ScratchDir scratch;
    static const std::string* dataset = [] {
      const std::string path = scratch.file("golden.hyper");
      std::string output;
      const int code = run_cli(
          {"generate", path, "--seed=99", "--proteins=300"}, &output);
      HP_REQUIRE(code == 0, "surrogate generation failed");
      return new std::string{path};
    }();
    path_ = *dataset;
  }

  /// One-shot CLI vs warm server answer for one command; both outputs
  /// returned through the filter (identity for deterministic commands).
  void expect_parity(Server& server, const std::string& command,
                     const std::vector<std::string>& flags,
                     std::string (*filter)(const std::string&) = nullptr) {
    std::vector<std::string> argv{command, path_};
    argv.insert(argv.end(), flags.begin(), flags.end());
    std::string one_shot;
    ASSERT_EQ(run_cli(argv, &one_shot), 0) << command;

    proto::Request request;
    request.command = command;
    request.path = path_;
    for (const std::string& flag : flags) {
      // "--key=value" / "--key" wire form.
      const std::size_t eq = flag.find('=');
      const std::string key = flag.substr(2, eq - 2);
      request.args.emplace_back(
          key, eq == std::string::npos ? "true" : flag.substr(eq + 1));
    }
    const proto::Response response = server.handle(request);
    ASSERT_TRUE(response.ok) << command << ": " << response.error;

    const std::string expected =
        filter != nullptr ? filter(one_shot) : one_shot;
    const std::string actual =
        filter != nullptr ? filter(response.output) : response.output;
    EXPECT_EQ(actual, expected) << command << " drifted from one-shot CLI";
  }

  std::string path_;
};

TEST_F(ServeGoldenTest, WarmServerMatchesOneShotCliByteForByte) {
  ServerOptions opts;
  opts.endpoint = parse_endpoint(::testing::TempDir() + "/golden.sock");
  Server server{std::move(opts)};  // handle() in-process; never started

  // Run everything twice: the first pass answers from a cold context,
  // the second from a context warmed by *all* previous commands --
  // cached artifacts must not change any answer.
  for (int pass = 0; pass < 2; ++pass) {
    expect_parity(server, "stats", {"--paths"});
    expect_parity(server, "core", {"--k=2", "--peel-stats"},
                  &strip_timing);
    expect_parity(server, "cover", {"--weights=deg2", "--multicover=2"});
    expect_parity(server, "match", {"--limit=10"});
    expect_parity(server, "soverlap", {});
    expect_parity(server, "smallworld", {"--seed=7"});
    expect_parity(server, "report", {}, &strip_timing);
  }
  // Everything above shared one cached context.
  EXPECT_EQ(server.pool().stats().entries, 1u);
  EXPECT_EQ(server.pool().stats().misses, 1u);
}

TEST_F(ServeGoldenTest, ContextStatsFlagWorksThroughTheServer) {
  ServerOptions opts;
  opts.endpoint = parse_endpoint(::testing::TempDir() + "/golden_cs.sock");
  Server server{std::move(opts)};
  proto::Request request;
  request.command = "stats";
  request.path = path_;
  request.args = {{"context-stats", "true"}};
  const proto::Response response = server.handle(request);
  ASSERT_TRUE(response.ok) << response.error;
  EXPECT_NE(response.output.find("context artifact counters"),
            std::string::npos)
      << response.output;
}

}  // namespace
}  // namespace hp::serve
