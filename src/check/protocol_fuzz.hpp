// Fuzz oracle for the analysis-server wire protocol
// (serve/protocol.hpp): the parsers face untrusted sockets, so their
// contract -- return a validated value or throw hp::ParseError, never
// crash, never accept garbage, never return anything that fails to
// re-serialize -- is hammered with generated hostile frames.
//
// Three attack families per seed:
//   * structured corruption -- format a valid random request/response,
//     then corrupt it with text edits (byte flips, truncation,
//     duplication, deletions) and parse the wreckage;
//   * hostile construction  -- adversarial frames built directly:
//     deep nesting ("[[[["), huge tokens, wrong types, duplicate keys,
//     surrogate escapes, NUL bytes, oversized frames, empty input;
//   * round-trip            -- parse(format(x)) must reproduce x
//     exactly for every valid request/response, including args order;
//     this includes the out-of-range query requests, which only the
//     query layer may refuse.
//
// Wired into run_fuzz alongside the loader-corruption trials, so the
// 1000-seed CI smoke (ASan) covers the protocol with zero extra
// plumbing.
#pragma once

#include <string>
#include <vector>

#include "check/oracles.hpp"
#include "serve/protocol.hpp"
#include "util/rng.hpp"

namespace hp::check {

/// Run `trials` hostile-frame parses plus one round-trip battery, all
/// deterministic from `rng`. Appends a CheckFailure (oracle "protocol")
/// per violation; a clean parser appends nothing.
std::vector<CheckFailure> check_protocol(Rng& rng, int trials);

/// Query requests that are valid frames but carry out-of-range flag
/// values: `cover --multicover` outside [1, 2^32 - 1] and `core --k`
/// outside [0, 2^32 - 1], which a plain cast once wrapped (-1 to
/// 2^32 - 1, 2^32 + 2 to 2). The protocol does not know a command's
/// flags, so parse_request must accept them (check_protocol checks
/// that); the query layer must refuse each with an error reply. They
/// carry no path: a caller points them at a dataset.
std::vector<serve::proto::Request> out_of_range_query_requests();

/// Build one syntactically valid random request frame (the corruption
/// seed material). Exposed for tests.
std::string random_request_frame(Rng& rng);

/// Build one syntactically valid random response frame.
std::string random_response_frame(Rng& rng);

}  // namespace hp::check
