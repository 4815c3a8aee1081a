// Shared pieces of the end-to-end benchmark harness: the measured-phase
// record, the timed op loop, answer masking, /proc readers and a small
// JSON writer for the results file that perfbench/run.py reads.
#pragma once

#include <cstdint>
#include <string>
#include <sys/types.h>
#include <utility>
#include <vector>

#include "util/args.hpp"

namespace hp::perfbench {

/// Flags every workload receives from run.py.
struct Options {
  std::string workload;
  std::string dir;          ///< work directory of this run
  std::string out;          ///< results JSON path
  std::uint64_t seed = 0;
  double seconds = 1.0;     ///< wall budget of the measured loop
  bool trace = false;
};

/// One measured loop: per-op latencies and outcome counts. A failed op
/// (it threw, or its answer differed from the reference) still records
/// its latency; run.py counts it against fail_ratio.
struct Phase {
  std::vector<double> op_ms;
  double wall_s = 0.0;  ///< wall clock from the first op to the last
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<double> failed_at;      ///< indices into op_ms
  std::vector<std::string> failures;  ///< first few messages

  void record(double ms, const std::string& failure);
};

/// Run `op(i)` for i = 0, 1, ... until `seconds` of wall clock have
/// passed or `max_ops` ops are done, whichever comes first; at least one
/// op always runs. `op` returns an empty string on a correct answer and
/// a description of the mismatch otherwise; an exception is a failure.
/// `after(i)`, when given, runs after each op outside its latency.
template <typename Op, typename After = void (*)(std::size_t)>
void run_phase(Phase& phase, double seconds, std::size_t max_ops, Op&& op,
               After&& after = [](std::size_t) {});

/// Replace the wall-clock lines of command output ("core decomposition
/// in ...", "core decomposition time: ...") so answers compare exactly.
std::string mask_clock_lines(const std::string& text);

/// Describe the first differing line of two texts (for failure logs).
std::string first_difference(const std::string& got,
                             const std::string& want);

std::string read_file(const std::string& path);

/// A numeric field of /proc/<pid>/status (e.g. "VmHWM" in kB,
/// "Threads"); pid 0 reads the calling process. Throws when missing.
double proc_status(pid_t pid, const std::string& field);

/// Wall clock since an arbitrary fixed point, in seconds.
double now_s();

/// Minimal JSON object builder for the results file.
class Json {
 public:
  Json& number(const std::string& key, double value);
  Json& integer(const std::string& key, std::uint64_t value);
  Json& string(const std::string& key, const std::string& value);
  Json& numbers(const std::string& key, const std::vector<double>& values);
  Json& strings(const std::string& key,
                const std::vector<std::string>& values);
  Json& object(const std::string& key, const Json& value);

  std::string text() const { return "{" + body_ + "}"; }

 private:
  void key(const std::string& name);
  std::string body_;
};

/// The phase's latencies, outcome counts and failure messages.
Json phase_json(const Phase& phase);

void write_file(const std::string& path, const std::string& text);

int run_report(const Options& options, const Args& args);
int run_mutate(const Options& options, const Args& args);
int run_serve(const Options& options, const Args& args);

// --- template definition -------------------------------------------------

template <typename Op, typename After>
void run_phase(Phase& phase, double seconds, std::size_t max_ops, Op&& op,
               After&& after) {
  const double start = now_s();
  for (std::size_t i = 0; i < max_ops; ++i) {
    if (i > 0 && now_s() - start >= seconds) break;
    std::string failure;
    const double t0 = now_s();
    try {
      failure = op(i);
    } catch (const std::exception& error) {
      failure = std::string{"exception: "} + error.what();
    }
    phase.record((now_s() - t0) * 1e3, failure);
    after(i);
  }
  phase.wall_s = now_s() - start;
}

}  // namespace hp::perfbench
