#!/usr/bin/env python3
"""End-to-end benchmark of hyperproteome (see perfbench/README.md).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The first run builds the program and the
harness from source into .bench_build/ (or $CARGO_TARGET_DIR); every run
makes its inputs from --seed with the program's own generator, measures
for --seconds, checks every answer, and prints one line per metric, then
one JSON object as the last line of standard output. --trace 0 reports
the end-to-end metrics; --trace 1 runs the workload with tracing on and
reports the per-layer metrics. Exit code 0 only when every answer was
right.
"""

import argparse
import json
import math
import os
import selectors
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.dont_write_bytecode = True  # leave nothing behind in the checkout
sys.path.insert(0, str(Path(__file__).resolve().parent))
import trace_agg  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
CHILD_TIMEOUT_S = 150
BUILD_JOBS = max(1, min(4, os.cpu_count() or 1))

# Surrogate sizes (proteins) per workload.
REPORT_PROTEINS = 10_000
SERVE_PROTEINS = 100_000
SERVE_DATASETS = 4
# Lanes of the server's pool. One: requests then run on their
# connection's thread. Handing each to a pool lane and back added ~25% to
# a warm hit and widened its run-to-run spread on a shared host (see
# perfbench/README.md, Steadiness).
SERVE_LANES = 1
MUTATE_PROTEINS = 100_000
# Times the cheap workloads repeat their set-up; setup_s is the median.
SETUP_REPEATS = 3


class BenchError(Exception):
    """A failure that leaves no result to print."""


# --- processes ---------------------------------------------------------------

def child_env():
    """The environment without HP_* overrides, so HP_THREADS, HP_TRACE
    and friends from the caller's shell cannot change what is measured."""
    return {k: v for k, v in os.environ.items() if not k.startswith("HP_")}


def pinned(cpu):
    """A preexec_fn that runs the child on CPU `cpu` only (None: as is)."""
    if cpu is None:
        return None
    return lambda: os.sched_setaffinity(0, {cpu})


def run(cmd, cwd=None, stdout_path=None, cpu=None):
    """Run a child to completion; its stdout goes to stdout_path when
    given. Raises BenchError on a nonzero exit."""
    out = open(stdout_path, "wb") if stdout_path else subprocess.PIPE
    try:
        proc = subprocess.run([str(c) for c in cmd], cwd=cwd, stdout=out,
                              stderr=subprocess.PIPE, env=child_env(),
                              timeout=CHILD_TIMEOUT_S,
                              preexec_fn=pinned(cpu))
    finally:
        if stdout_path:
            out.close()
    if proc.returncode != 0:
        raise BenchError(f"{' '.join(map(str, cmd))} exited "
                         f"{proc.returncode}: {proc.stderr.decode()[-2000:]}")
    return proc


def run_parallel(cmds):
    """Run independent children concurrently; (cmd, stdout_path) pairs."""
    procs = []
    try:
        for cmd, stdout_path in cmds:
            out = open(stdout_path, "wb") if stdout_path else subprocess.DEVNULL
            procs.append((cmd, out, subprocess.Popen(
                [str(c) for c in cmd], stdout=out, stderr=subprocess.PIPE,
                env=child_env())))
        for cmd, _, proc in procs:
            _, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
            if proc.returncode != 0:
                raise BenchError(f"{' '.join(map(str, cmd))} exited "
                                 f"{proc.returncode}: {err.decode()[-2000:]}")
    finally:
        for _, out, proc in procs:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
            if out is not subprocess.DEVNULL:
                out.close()


def read_line(pipe, timeout_s):
    """One line from a child's stdout, or "" when none comes in time."""
    with selectors.DefaultSelector() as selector:
        selector.register(pipe, selectors.EVENT_READ)
        if not selector.select(timeout_s):
            return ""
    return pipe.readline().decode()


# --- build -------------------------------------------------------------------

class Binaries:
    def __init__(self, build_dir):
        self.harness = build_dir / "perfbench_harness"
        self.cli = build_dir / "repo" / "src" / "cli" / "hyperproteome"
        self.server = build_dir / "repo" / "src" / "serve" / "hp_serve"


def build():
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        raise BenchError(f"no program sources under {ROOT}: run from the "
                         "root of a hyperproteome checkout")
    build_dir = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    steps = []
    if not (build_dir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", BENCH_DIR, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", str(BUILD_JOBS),
                  "--target", "perfbench_harness", "hyperproteome",
                  "hp_serve_daemon"])
    for step in steps:
        proc = subprocess.run([str(s) for s in step], stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, env=child_env())
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout.decode()[-6000:])
            raise BenchError("build failed")
    return Binaries(build_dir)


# --- statistics --------------------------------------------------------------

def percentile(values, q):
    """Nearest-rank percentile (q in (0, 1]) of a non-empty list."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def latencies(phase):
    """Op latencies with failed ops as infinitely slow: a failed op
    misses any latency limit."""
    failed = {int(i) for i in phase["failed_at"]}
    return [math.inf if i in failed else ms
            for i, ms in enumerate(phase["op_ms"])]


def finite(value, fallback):
    return value if math.isfinite(value) else fallback


# --- workloads ---------------------------------------------------------------

def timed_setup(prepare, repeats):
    """Run prepare() `repeats` times; return the median wall time."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        prepare()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def harness(bins, workload, work, args, extra, cwd=None, cpu=None):
    out = work / f"{workload}.json"
    cmd = [bins.harness, workload, "--dir", work, "--out", out,
           "--seed", args.seed, "--seconds", args.seconds / 1.0,
           "--trace", args.trace] + extra
    run(cmd, cwd=cwd, cpu=cpu)
    with open(out) as handle:
        return json.load(handle)


def generate(bins, path, proteins, seed):
    return [bins.cli, "generate", path, "--proteins", proteins, "--seed", seed]


def report_10k(bins, work, args):
    """In-process `report` on a 10^4-protein surrogate read from text;
    reference: the CLI's report on the snapshot of the same instance."""
    hyper, hps, ref = work / "r.hyper", work / "r.hps", work / "r.ref"

    def prepare():
        run(generate(bins, hyper, REPORT_PROTEINS, args.seed))
        run([bins.cli, "snapshot", "convert", hyper, hps])
        run([bins.cli, "report", hps], stdout_path=ref)

    setup_s = timed_setup(prepare, SETUP_REPEATS)
    res = harness(bins, "report", work, args,
                  ["--input", hyper, "--snapshot", hps, "--reference", ref])
    return in_process_result(res, setup_s, tail_q=1.0)


def mutate_100k(bins, work, args):
    """In-process mutation replay on the 10^5-protein surrogate."""
    hyper = work / "m.hyper"

    def prepare():
        run(generate(bins, hyper, MUTATE_PROTEINS, args.seed))

    setup_s = timed_setup(prepare, SETUP_REPEATS)
    res = harness(bins, "mutate", work, args, ["--input", hyper])
    if res["final_check"]["failed"]:
        # The state every measured op built on is wrong: fail them all.
        for key in ("timed", "traced"):
            if key in res:
                res[key]["failed"] = res[key]["attempted"]
                res[key]["failed_at"] = list(range(res[key]["attempted"]))
    return in_process_result(res, setup_s, tail_q=0.9)


def run_result(phases, timed, tail_q, **measured):
    """Outcome counts over every phase plus the latency metrics of the
    timed one. A failed op counts as infinitely slow; should a percentile
    land on one, the slowest correct op stands in (the run is reported
    incorrect anyway)."""
    ops = latencies(timed)
    slowest = max((ms for ms in ops if math.isfinite(ms)), default=0.0)
    return {
        "attempted": sum(p["attempted"] for p in phases),
        "failed": sum(p["failed"] for p in phases),
        "failures": [f for p in phases for f in p["failures"]],
        "samples": len(ops),
        "tail_q": tail_q,
        "op_ms_p50": finite(statistics.median(ops), slowest),
        "op_ms_tail": finite(percentile(ops, tail_q), slowest),
        **measured,
    }


def in_process_result(res, setup_s, tail_q):
    phases = [res[k] for k in ("warmup", "timed", "traced",
                               "all_lanes_warmup", "all_lanes",
                               "final_check") if k in res]
    timed = res["timed"]
    result = run_result(
        phases, timed, tail_q,
        setup_s=setup_s + res["setup_s"],
        ops_per_s=len(timed["op_ms"]) / (sum(timed["op_ms"]) / 1e3),
        peak_rss_mb=res["peak_rss_kb"] / 1024)
    if "traced" in res:
        result["layers"] = in_process_layers(res)
        result["traced_op_ms"] = statistics.mean(res["traced"]["op_ms"])
    return result


def serve_mix(bins, work, args):
    """hp_serve on four warm 10^5-protein snapshots, driven closed-loop.
    A traced run serves twice: untraced, then with --trace, each for
    half the time."""
    if not args.trace:
        return serve_once(bins, work, args, traced=False)
    half = argparse.Namespace(**{**vars(args), "seconds": args.seconds / 2})
    plain = serve_once(bins, work, half, traced=False)
    traced = serve_once(bins, work, half, traced=True)
    traced["layers"]["obs.trace_overhead_pct"] = overhead_pct(
        traced["op_ms_p50"], plain["op_ms_p50"])
    for key in ("attempted", "failed"):
        traced[key] += plain[key]
    traced["failures"] += plain["failures"]
    return traced


def serve_once(bins, work, args, traced):
    paths = [work / f"d{i}.hps" for i in range(SERVE_DATASETS)]
    trace_file = work / "server_trace.json"

    def prepare():
        texts = [work / f"d{i}.hyper" for i in range(SERVE_DATASETS)]
        run_parallel([(generate(bins, text, SERVE_PROTEINS,
                                args.seed * SERVE_DATASETS + i), None)
                      for i, text in enumerate(texts)])
        run_parallel([([bins.cli, "snapshot", "convert", text, path], None)
                      for text, path in zip(texts, paths)])

    generate_s = timed_setup(prepare, SETUP_REPEATS)
    socket = "unix:serve.sock"  # relative: socket paths are short-limited
    if traced:
        cmd = [bins.cli, "serve", "--socket", socket, "--trace", trace_file]
    else:
        cmd = [bins.server, "--socket", socket]
    # The server and the load generator share one CPU, the last one this
    # process may use: a request's hand-offs between the client and server
    # threads are then switches on that CPU rather than cross-CPU
    # wake-ups, whose cost followed the host's load (see Steadiness in
    # perfbench/README.md).
    cpu = max(os.sched_getaffinity(0))
    start = time.perf_counter()
    server = subprocess.Popen([str(c) for c in cmd], cwd=work,
                              stdout=subprocess.PIPE,
                              env={**child_env(),
                                   "HP_THREADS": str(SERVE_LANES)},
                              preexec_fn=pinned(cpu))
    try:
        line = read_line(server.stdout, CHILD_TIMEOUT_S)
        if not line.startswith("listening on"):
            raise BenchError(f"hp_serve did not start: {line!r}")
        setup_s = generate_s + time.perf_counter() - start
        res = harness(bins, "serve", work, args,
                      ["--socket", socket, "--server-pid", str(server.pid),
                       "--datasets", ",".join(str(p) for p in paths)],
                      cwd=work, cpu=cpu)
        tail, _ = server.communicate(timeout=CHILD_TIMEOUT_S)
    finally:
        if server.poll() is None:
            server.kill()
        server.wait()
    return serve_result(res, setup_s, server.returncode, tail.decode(),
                        trace_file if traced else None)


def server_account(res, exit_code, tail):
    """One more checked op: the server exits 0 and its own account
    matches what was sent -- every query request is exactly one cache
    hit or miss."""
    counted = None
    for line in tail.splitlines():
        if line.startswith("server stopped"):
            words = line.replace(",", " ").split()
            counted = int(words[words.index("hits") + 1]) + \
                int(words[words.index("misses") + 1])
    ok = exit_code == 0 and counted == res["query_requests"]
    failure = (f"server exit {exit_code}, cache hits+misses {counted} for "
               f"{res['query_requests']} queries")
    return {"attempted": 1, "failed": 0 if ok else 1,
            "failures": [] if ok else [failure]}


def serve_result(res, setup_s, exit_code, tail, trace_file):
    timed = res["timed"]
    result = run_result(
        [res["warmup"], timed, server_account(res, exit_code, tail)],
        timed, 0.99,
        setup_s=setup_s + res["setup_s"],
        ops_per_s=len(timed["op_ms"]) / timed["wall_s"],
        peak_rss_mb=res["server"]["vmhwm_kb"] / 1024)
    if trace_file is not None:
        result["layers"] = serve_layers(res, trace_file)
        result["traced_op_ms"] = result["op_ms_p50"]
    return result


WORKLOADS = {
    "report_10k": report_10k,
    "serve_mix": serve_mix,
    "mutate_100k": mutate_100k,
}


# --- per-layer metrics -------------------------------------------------------

# Span-derived layer times: metric -> (mode, span names). "self" sums the
# spans' self time (trace_agg.py), so nested spans of the same layer are
# not counted twice; "inclusive" sums whole durations of spans the
# benchmark opens around one call into a layer (or, for context builds,
# the artifact together with the inputs it builds on the way).
SPAN_LAYERS = {
    "load.dataset_ms": ("self", ["cli.load_dataset"]),
    "load.open_ms": ("inclusive", ["bench.load.open"]),
    "load.validate_ms": ("self", ["cli.validate"]),
    "context.summary_ms": ("inclusive", ["context.build.summary"]),
    "context.overlaps_ms": ("inclusive", ["context.build.overlap_table"]),
    "context.components_ms": ("inclusive", ["context.build.components"]),
    "context.projections_ms": ("inclusive", [
        "context.build.clique_projection", "context.build.star_projection",
        "context.build.intersection_projection", "context.build.dual"]),
    "peel.ms": ("self", [
        "context.build.core_decomposition",
        "context.build.reduced_hypergraph", "kcore.decomposition",
        "kcore.decomposition_parallel", "kcore.initial_reduction",
        "kcore.peel_level", "peel.frontier", "reduce.find_non_maximal"]),
    "paths.ms": ("self", ["context.build.path_summary",
                          "traversal.path_summary"]),
    "bio.analyze_ms": ("inclusive", ["bench.bio.analyze"]),
    "bio.render_ms": ("inclusive", ["bench.bio.render"]),
    "mutate.apply_ms": ("inclusive", ["bench.mutate.apply"]),
    "mutate.cores_ms": ("inclusive", ["bench.mutate.cores"]),
}

PEEL_COUNTS = ["rounds", "vertex_deletions", "edge_deletions",
               "overlap_decrements", "containment_probes", "frontier_pushes",
               "frontier_wasted"]

# name -> unit, in the order BENCHMARK.json lists them.
LAYER_UNITS = {
    **{name: "ms/op" for name in list(SPAN_LAYERS)[:7]},
    "context.bytes": "B",
    "peel.ms": "ms/op",
    **{f"peel.{c}": "count/op" for c in PEEL_COUNTS},
    "peel.frontier_useful_ratio": "1",
    "paths.ms": "ms/op",
    "par.tasks": "count/op",
    "par.steals": "count/op",
    "par.idle_ms": "ms/op",
    "par.busy_ratio": "1",
    "par.report_speedup": "x",
    "bio.analyze_ms": "ms/op",
    "bio.render_ms": "ms/op",
    "serve.server_ms_p50": "ms",
    "serve.server_ms_p99": "ms",
    "serve.wire_ms_p50": "ms",
    "serve.hit_ratio": "1",
    "serve.connections_opened": "count",
    "serve.threads_end": "count",
    "serve.queue_depth": "count",
    "mutate.apply_ms": "ms/op",
    "mutate.cores_ms": "ms/op",
    "mutate.repairs": "count/op",
    "mutate.repair_fallbacks": "count/op",
    "mutate.repair_ratio": "1",
    "obs.trace_overhead_pct": "%",
}


def span_layers(table, ops):
    layers = {}
    for metric, (mode, names) in SPAN_LAYERS.items():
        key = "self_ms" if mode == "self" else "inclusive_ms"
        total = sum(table[n][key] for n in names if n in table)
        layers[metric] = total / ops
    return layers


def worker_busy_ms(events, window=None):
    """Time pool workers spent running tasks: top-level pool spans (a
    helping caller's tasks nest inside its own spans)."""
    return sum((s["end"] - s["start"]) / 1e3
               for s in trace_agg.spans(events)
               if s["depth"] == 0 and s["name"].startswith("par.")
               and (window is None or (s["start"] >= window[0]
                                       and s["end"] <= window[1])))


def peel_layers(peel, ops):
    layers = {f"peel.{c}": peel[c] / ops for c in PEEL_COUNTS}
    pushes = peel["frontier_pushes"]
    layers["peel.frontier_useful_ratio"] = \
        1 - peel["frontier_wasted"] / pushes if pushes else 0.0
    decided = peel["repairs"] + peel["repair_fallbacks"]
    layers["mutate.repairs"] = peel["repairs"] / ops
    layers["mutate.repair_fallbacks"] = peel["repair_fallbacks"] / ops
    layers["mutate.repair_ratio"] = \
        peel["repairs"] / decided if decided else 0.0
    return layers


def overhead_pct(traced_ms, untraced_ms):
    return 100 * (traced_ms / untraced_ms - 1)


def in_process_layers(res):
    traced = res["traced"]
    ops = traced["attempted"]
    events = trace_agg.load_events(res["trace_file"])
    layers = dict.fromkeys(LAYER_UNITS, 0.0)
    layers.update(span_layers(trace_agg.aggregate(events), ops))
    layers.update(peel_layers(res["layers"]["peel"], ops))
    layers.update(pool_layers(res["layers"]["pool"], ops, traced["wall_s"],
                              events))
    layers.update({
        "context.bytes": res["layers"]["context_bytes"],
        "obs.trace_overhead_pct": overhead_pct(
            statistics.median(traced["op_ms"]),
            statistics.median(res["timed"]["op_ms"])),
    })
    if res["layers"].get("open_ms"):
        layers["load.open_ms"] = statistics.mean(res["layers"]["open_ms"])
    if "all_lanes" in res:
        # The measured ops ran at one lane; the pool's layer comes from
        # the one op the harness ran and traced at all lanes.
        all_lanes = res["all_lanes"]
        layers.update(pool_layers(
            res["all_lanes_pool"], 1, all_lanes["wall_s"],
            trace_agg.load_events(res["all_lanes_trace_file"])))
        layers["par.report_speedup"] = \
            statistics.median(res["timed"]["op_ms"]) / all_lanes["op_ms"][0]
    return layers


def pool_layers(pool, ops, wall_s, events):
    capacity_ms = pool["workers"] * wall_s * 1e3
    return {
        "par.tasks": pool["tasks"] / ops,
        "par.steals": pool["steals"] / ops,
        "par.idle_ms": pool["idle_ms"] / ops,
        "par.busy_ratio": worker_busy_ms(events) / capacity_ms
        if capacity_ms else 0.0,
    }


def serve_layers(res, trace_file):
    """Server-side layers: reply timings from the client, pool and cache
    counters from the protocol, span times from the server's trace over
    the timed window (between the set-up requests and the final
    cache/metrics/shutdown requests)."""
    events = trace_agg.load_events(trace_file)
    requests = sorted(s["start"] for s in trace_agg.spans(events)
                      if s["name"] == "serve.request")
    window = (requests[res["pre_requests"]], requests[-3])
    table = trace_agg.aggregate(events, window)
    ops = max(1, res["timed"]["attempted"])
    server = res["server"]
    workers = SERVE_LANES - 1
    capacity_ms = workers * (window[1] - window[0]) / 1e3
    layers = dict.fromkeys(LAYER_UNITS, 0.0)
    layers.update(span_layers(table, ops))
    layers.update({
        "context.bytes": server["charged_bytes"],
        "par.tasks": server["par_tasks"] / ops,
        "par.steals": server["par_steals"] / ops,
        "par.idle_ms": server["par_idle_ns"] / 1e6 / ops,
        "par.busy_ratio": worker_busy_ms(events, window) / capacity_ms
        if capacity_ms else 0.0,
        "serve.server_ms_p50": statistics.median(res["server_ms"]),
        "serve.server_ms_p99": percentile(res["server_ms"], 0.99),
        "serve.wire_ms_p50": statistics.median(res["wire_ms"]),
        "serve.hit_ratio": res["reply_hits"] / ops,
        "serve.connections_opened": server["connections"],
        "serve.threads_end": server["threads"],
        "serve.queue_depth": statistics.mean(res["queue_depth"])
        if res["queue_depth"] else 0.0,
    })
    return layers


# --- reporting ---------------------------------------------------------------

E2E_UNITS = {"setup_s": "s", "op_ms_p50": "ms", "op_ms_tail": "ms",
             "ops_per_s": "1/s", "peak_rss_mb": "MiB"}


def print_lines(workload, result, trace):
    n = result["samples"]
    q = result["tail_q"]
    beyond = n - math.ceil(q * n)
    print(f"# {workload}: {n} timed ops, {result['attempted']} attempted "
          f"in all, {result['failed']} failed")
    if not trace:
        notes = {
            "op_ms_p50": f"(median of {n} ops)",
            "op_ms_tail": f"(p{q * 100:g} of {n} ops, {beyond} beyond it)",
            "ops_per_s": f"({n} ops)",
        }
        for name, unit in E2E_UNITS.items():
            print(f"{name:28} {result[name]:14.4f} {unit:9} "
                  f"{notes.get(name, '')}")
        ratio = result["failed"] / result["attempted"]
        print(f"{'fail_ratio':28} {ratio:14.4f} {'1':9} "
              f"({result['failed']} of {result['attempted']})")
    else:
        layers = result["layers"]
        for name, unit in LAYER_UNITS.items():
            print(f"{name:28} {layers[name]:14.4f} {unit}")
        # Where the traced op's time went (per-op layer times over the
        # mean traced op; for serve_mix, reply medians over the op median).
        op_ms = result["traced_op_ms"]
        if workload == "serve_mix":
            parts = {"serve.server_ms_p50": layers["serve.server_ms_p50"],
                     "serve.wire_ms_p50": layers["serve.wire_ms_p50"]}
        else:
            parts = {name: layers[name] for name in SPAN_LAYERS
                     if layers[name] > 0}
        for name, ms in parts.items():
            print(f"# share of traced op ({op_ms:.3f} ms): {name} "
                  f"{100 * ms / op_ms:.1f}%")
    for failure in result["failures"]:
        print(f"# FAILED: {failure}")


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        bins = build()
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        result = WORKLOADS[args.workload](bins, work, args)
    except (BenchError, subprocess.TimeoutExpired, OSError) as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print_lines(args.workload, result, args.trace)
    if args.trace:
        metrics = {name: {"value": result["layers"][name], "unit": unit}
                   for name, unit in LAYER_UNITS.items()}
    else:
        metrics = {name: {"value": result[name], "unit": unit}
                   for name, unit in E2E_UNITS.items()}
    correct = result["failed"] == 0
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
