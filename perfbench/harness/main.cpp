// perfbench_harness: the in-process half of the end-to-end benchmark.
// perfbench/run.py builds it, prepares each workload's inputs and
// references with the program's own binaries, and calls
//
//   perfbench_harness <workload> --dir D --out R.json --seed N
//                     --seconds S --trace 0|1 [workload flags]
//
// The harness runs the measured loop and writes raw samples and layer
// counters to R.json; run.py turns them into metrics.
#include <iostream>

#include "common.hpp"

int main(int argc, char** argv) {
  using namespace hp::perfbench;
  try {
    const hp::Args args{argc, argv};
    if (args.positional().size() != 1) {
      std::cerr << "usage: perfbench_harness <report|mutate|serve> "
                   "--dir D --out R.json --seed N --seconds S --trace 0|1\n";
      return 2;
    }
    Options options;
    options.workload = args.positional()[0];
    options.dir = args.get("dir", ".");
    options.out = args.get("out", "");
    options.seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
    options.seconds = args.get_double("seconds", 1.0);
    options.trace = args.get_int("trace", 0) != 0;
    if (options.workload == "report") return run_report(options, args);
    if (options.workload == "mutate") return run_mutate(options, args);
    if (options.workload == "serve") return run_serve(options, args);
    std::cerr << "unknown workload '" << options.workload << "'\n";
    return 2;
  } catch (const std::exception& error) {
    std::cerr << "perfbench_harness: " << error.what() << '\n';
    return 1;
  }
}
