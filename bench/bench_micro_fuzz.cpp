// Microbenchmark for the differential-fuzzing harness: cases per
// second by pipeline stage, so a slow oracle (or a generator that
// quietly started emitting huge instances) shows up as a throughput
// regression rather than a mysteriously slower CI fuzz stage.
//
// Stages measured over the same seed range:
//   * generate      -- instance generation only;
//   * oracle-lite   -- cheap oracle battery (naive reference, path
//                      cross-check, loaders, context comparison off);
//   * oracle-full   -- the complete battery hp_fuzz runs in CI;
//   * mutations     -- loader-corruption trials only (parse-or-throw).
//
// The budget check keeps the CI smoke stage honest: the full battery
// must sustain >= 25 cases/s (release build; the observed rate is two
// orders of magnitude above, so tripping this means something real).
//
// Usage: bench_micro_fuzz [--seed N] [--cases N] [--quick] [--json PATH]
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "check/generator.hpp"
#include "check/oracles.hpp"
#include "obs/json_check.hpp"
#include "util/args.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

namespace {

using hp::obs::json::Object;

volatile std::uint64_t g_sink = 0;

struct StageTiming {
  std::string name;
  double seconds = 0.0;
  double cases_per_second = 0.0;
};

StageTiming time_stage(const char* name, std::uint64_t cases,
                       const std::function<void(std::uint64_t)>& body) {
  StageTiming t;
  t.name = name;
  hp::Timer timer;
  for (std::uint64_t seed = 0; seed < cases; ++seed) body(seed);
  t.seconds = timer.seconds();
  t.cases_per_second =
      t.seconds > 0.0 ? static_cast<double>(cases) / t.seconds : 0.0;
  return t;
}

}  // namespace

int main(int argc, char** argv) {
  const hp::Args args{argc, argv};
  const std::uint64_t base_seed =
      static_cast<std::uint64_t>(args.get_int("seed", 20040426));
  const bool quick = args.get_bool("quick", false);
  const std::uint64_t cases = static_cast<std::uint64_t>(
      args.get_int("cases", quick ? 250 : 2000));
  const std::string json_path = args.get("json", "");

  using hp::check::CheckOptions;
  hp::check::GenOptions gen;

  std::printf("=== hp_fuzz pipeline throughput (%llu cases) ===\n",
              static_cast<unsigned long long>(cases));

  std::vector<StageTiming> stages;
  stages.push_back(time_stage("generate", cases, [&](std::uint64_t s) {
    g_sink = g_sink + hp::check::generate(base_seed + s, gen).num_pins();
  }));

  CheckOptions lite;
  lite.with_naive = false;
  lite.with_paths = false;
  lite.with_loaders = false;
  lite.with_context = false;
  stages.push_back(time_stage("oracle-lite", cases, [&](std::uint64_t s) {
    const auto h = hp::check::generate(base_seed + s, gen);
    g_sink = g_sink + hp::check::run_all_oracles(h, lite).size();
  }));

  stages.push_back(time_stage("oracle-full", cases, [&](std::uint64_t s) {
    const auto h = hp::check::generate(base_seed + s, gen);
    g_sink = g_sink + hp::check::run_all_oracles(h, CheckOptions{}).size();
  }));

  stages.push_back(time_stage("mutations", cases, [&](std::uint64_t s) {
    const auto h = hp::check::generate(base_seed + s, gen);
    hp::Rng rng{base_seed + s};
    g_sink = g_sink + hp::check::check_mutated_loads(h, rng, 4).size();
  }));

  hp::Table t{{"stage", "total", "cases/s"}};
  for (const StageTiming& s : stages) {
    char rate[32];
    std::snprintf(rate, sizeof rate, "%.0f", s.cases_per_second);
    t.row().cell(s.name).cell(hp::format_duration(s.seconds)).cell(rate);
  }
  t.print();

  if (!json_path.empty()) {
    std::vector<Object> rows;
    for (const StageTiming& s : stages) {
      rows.emplace_back()
          .string("name", s.name)
          .number("seconds", s.seconds)
          .number("cases_per_second", s.cases_per_second);
    }
    Object{}
        .string("benchmark", "bench_micro_fuzz")
        .integer("cases", cases)
        .objects("stages", rows)
        .write_file(json_path);
  }

  const double full_rate = stages[2].cases_per_second;
  std::printf("\noracle-full throughput: %.0f cases/s (budget: >= 25)\n",
              full_rate);
  return full_rate >= 25.0 ? 0 : 1;
}
