#!/usr/bin/env sh
# Tier-1 build pipeline: plain Release build + full ctest, then the same
# suite under AddressSanitizer + UBSan (HP_SANITIZE) to guard the raw
# flat-array indexing in the peeling substrate (src/core/peel/).
#
# Usage: scripts/ci.sh [build-dir-prefix]   (default: build)
set -eu

prefix="${1:-build}"
root="$(cd "$(dirname "$0")/.." && pwd)"

echo "=== tier-1: release build + ctest (default HP_THREADS) ==="
cmake -B "${prefix}" -S "${root}"
cmake --build "${prefix}" -j
ctest --test-dir "${prefix}" --output-on-failure

echo "=== tier-1: ctest again with the pool forced serial (HP_THREADS=1) ==="
# The determinism contract (DESIGN.md section 11): every parallel
# algorithm must produce identical results with no worker threads.
HP_THREADS=1 ctest --test-dir "${prefix}" --output-on-failure

echo "=== parallel runtime ablation bench (quick) ==="
"${prefix}/bench/bench_micro_par" --quick --json "${root}/BENCH_par.json"
python3 - "${root}/BENCH_par.json" <<'EOF'
import json, sys

bench = json.load(open(sys.argv[1]))
hw = bench["hardware_threads"]
speedup = bench["bfs_speedup"]
for inst in bench["instances"]:
    for w in inst["workloads"]:
        assert w["deterministic"], \
            f"{inst['name']}/{w['name']}: serial and pool outputs differ"
# The speedup gate only means something with real parallelism under it;
# on the 1-2 core CI fallback we record the number but do not gate.
if hw >= 8:
    assert speedup >= 3.0, \
        f"all-sources BFS speedup {speedup:.2f}x < 3x on {hw} threads"
    print(f"par bench ok: {speedup:.2f}x BFS speedup on {hw} threads (gate: >= 3x)")
else:
    print(f"par bench ok: {speedup:.2f}x BFS speedup on {hw} threads "
          f"(< 8 threads, 3x gate skipped)")
EOF

echo "=== all-pairs paths: one lane vs four on the 10^4 surrogate ==="
# 256 source classes run per batch, so the calibrated surrogate is only
# three batches; the 10^4 one is ~19, enough for lanes to split.
paths_dir="${prefix}/paths-check"
mkdir -p "${paths_dir}"
"${prefix}/src/cli/hyperproteome" generate "${paths_dir}/s10k.hyper" \
  --proteins 10000 > /dev/null
HP_THREADS=1 "${prefix}/src/cli/hyperproteome" stats \
  "${paths_dir}/s10k.hyper" --paths > "${paths_dir}/paths_1.txt"
HP_THREADS=4 "${prefix}/src/cli/hyperproteome" stats \
  "${paths_dir}/s10k.hyper" --paths > "${paths_dir}/paths_4.txt"
grep -q "average path length" "${paths_dir}/paths_1.txt"
cmp "${paths_dir}/paths_1.txt" "${paths_dir}/paths_4.txt"
echo "paths ok: HP_THREADS=1 and =4 print the same 10^4 path summary"

echo "=== k-core lane ablation bench (quick) ==="
HP_THREADS=16 "${prefix}/bench/bench_micro_kcore" --quick --proteins 1000000 \
  --json "${root}/BENCH_kcore.json"
python3 - "${root}/BENCH_kcore.json" <<'EOF'
import json, sys

bench = json.load(open(sys.argv[1]))
# The binary exits nonzero before timing if the engine disagrees with
# the naive reference or across lane counts; the flag is recorded so a
# stale JSON can never pass.
assert bench["self_check"], "k-core self-check failed before timing"
assert bench["num_vertices"] >= 1000000, "surrogate below gate scale"
print(f"kcore bench ok: one lane {bench['one_lane_seconds']:.3f}s, "
      f"all {bench['pool_lanes']} lanes {bench['all_lanes_seconds']:.3f}s "
      f"on {bench['hardware_threads']} hardware threads")
EOF

echo "=== mutable pipeline ablation bench (quick) ==="
"${prefix}/bench/bench_micro_mutate" --quick --json "${root}/BENCH_mutate.json"
python3 - "${root}/BENCH_mutate.json" <<'EOF'
import json, sys

bench = json.load(open(sys.argv[1]))
speedup = bench["gate_speedup"]
scaled = next(i for i in bench["instances"] if i["name"] == "cellzome scaled")
assert scaled["rebuild_seconds"] > 0, "rebuild baseline did not run"
assert speedup >= 20.0, \
    f"incremental single-edge update speedup {speedup:.1f}x < 20x " \
    f"vs full context rebuild on the scaled surrogate"
print(f"mutate bench ok: {speedup:.1f}x single-update speedup vs rebuild "
      f"(gate: >= 20x)")
EOF
# A core read after every op must leave the ladder that a cold peel of
# the written result reports.
mut_dir="${prefix}/mutate-check"
mkdir -p "${mut_dir}"
"${prefix}/src/cli/hyperproteome" generate "${mut_dir}/calibrated.hyper"
"${prefix}/src/cli/hyperproteome" mutate "${mut_dir}/calibrated.hyper" \
  --ops 500 --batch 1 --out "${mut_dir}/m.hyper" > "${mut_dir}/mutate.txt"
"${prefix}/src/cli/hyperproteome" core "${mut_dir}/m.hyper" \
  > "${mut_dir}/core.txt"
sed -n '/k-core ladder/,/^$/p' "${mut_dir}/mutate.txt" \
  > "${mut_dir}/ladder_mutate.txt"
sed -n '/k-core ladder/,/^$/p' "${mut_dir}/core.txt" \
  > "${mut_dir}/ladder_core.txt"
test -s "${mut_dir}/ladder_mutate.txt"
diff "${mut_dir}/ladder_mutate.txt" "${mut_dir}/ladder_core.txt"
echo "mutate ladder ok: 500 ops, a core read after each, match a cold peel"

echo "=== snapshot format: round-trip + corruption + open-speed gate ==="
snap_dir="${prefix}/snap-check"
mkdir -p "${snap_dir}"
"${prefix}/src/cli/hyperproteome" generate "${snap_dir}/surrogate.hyper" \
  --proteins 20000
"${prefix}/src/cli/hyperproteome" snapshot convert \
  "${snap_dir}/surrogate.hyper" "${snap_dir}/surrogate.hps"
"${prefix}/src/cli/hyperproteome" snapshot convert \
  "${snap_dir}/surrogate.hyper" "${snap_dir}/surrogate_varint.hps" \
  --codec varint
"${prefix}/src/cli/hyperproteome" snapshot verify "${snap_dir}/surrogate.hps"
"${prefix}/src/cli/hyperproteome" snapshot verify \
  "${snap_dir}/surrogate_varint.hps"
# Analysis over the mmap'd snapshot must print exactly what the text
# path prints (the zero-copy storage is an implementation detail).
"${prefix}/src/cli/hyperproteome" stats "${snap_dir}/surrogate.hyper" \
  > "${snap_dir}/stats_text.txt"
"${prefix}/src/cli/hyperproteome" stats "${snap_dir}/surrogate.hps" \
  > "${snap_dir}/stats_snap.txt"
"${prefix}/src/cli/hyperproteome" stats "${snap_dir}/surrogate_varint.hps" \
  > "${snap_dir}/stats_varint.txt"
diff "${snap_dir}/stats_text.txt" "${snap_dir}/stats_snap.txt"
diff "${snap_dir}/stats_text.txt" "${snap_dir}/stats_varint.txt"
# Byte-flip corruption of snapshots is oracle-checked inside hp_fuzz
# (check_mutated_loads), which the sanitizer stage below re-runs.
"${prefix}/bench/bench_micro_snapshot" --quick \
  --json "${root}/BENCH_snapshot.json"
python3 - "${root}/BENCH_snapshot.json" <<'EOF'
import json, sys

bench = json.load(open(sys.argv[1]))
speedup = bench["gate_speedup"]
scaled = next(i for i in bench["instances"] if i["name"] == "cellzome scaled")
text = next(w for w in scaled["workloads"] if w["name"] == "text parse")
assert text["seconds"] > 0, "text-parse baseline did not run"
assert speedup >= 50.0, \
    f"warm mmap open speedup {speedup:.1f}x < 50x vs text parse " \
    f"on the scaled surrogate"
print(f"snapshot bench ok: {speedup:.1f}x warm open speedup vs text parse "
      f"(gate: >= 50x)")
EOF

echo "=== fuzz pipeline throughput bench (quick) ==="
"${prefix}/bench/bench_micro_fuzz" --quick --json "${root}/BENCH_fuzz.json"
python3 - "${root}/BENCH_fuzz.json" <<'EOF'
import json, sys

bench = json.load(open(sys.argv[1]))
assert set(bench) == {"benchmark", "cases", "stages"}, sorted(bench)
assert bench["cases"] > 0, "fuzz bench ran no cases"
stages = {s["name"]: s for s in bench["stages"]}
assert set(stages) == {"generate", "oracle-lite", "oracle-full", "mutations"}, \
    sorted(stages)
rate = stages["oracle-full"]["cases_per_second"]
print(f"fuzz bench ok: oracle-full {rate:.0f} cases/s over {bench['cases']} cases")
EOF

echo "=== context memoization bench (quick) ==="
"${prefix}/bench/bench_micro_context" --quick --json "${root}/BENCH_context.json"
python3 - "${root}/BENCH_context.json" <<'EOF'
import json, sys

bench = json.load(open(sys.argv[1]))
assert set(bench) == {"benchmark", "instances"}, sorted(bench)
assert bench["instances"], "context bench timed no instance"
for inst in bench["instances"]:
    assert {"name", "num_vertices", "num_edges", "artifacts"} <= set(inst)
    assert len(inst["artifacts"]) == 9, \
        f"{inst['name']}: {len(inst['artifacts'])} artifacts, expected 9"
worst = min(a["speedup"] for i in bench["instances"] for a in i["artifacts"])
print(f"context bench ok: {len(bench['instances'])} instances, "
      f"worst cached-vs-rebuild speedup {worst:.0f}x")
EOF

echo "=== tracing overhead bench (quick) ==="
"${prefix}/bench/bench_micro_obs" --quick --json "${root}/BENCH_obs.json"
python3 - "${root}/BENCH_obs.json" <<'EOF'
import json, sys

bench = json.load(open(sys.argv[1]))
disabled = bench["derived_disabled_overhead_percent"]
enabled = bench["measured_enabled_overhead_percent"]
assert bench["disabled_within_0_1_percent"], \
    f"tracing-disabled overhead {disabled:.5f}% exceeds the 0.1% budget"
assert bench["enabled_within_5_percent"], \
    f"tracing-enabled overhead {enabled:.2f}% exceeds the 5% budget"
assert bench["profiler_samples"] > 0, "profiler collected no samples"
print(f"obs bench ok: disabled {disabled:.5f}% (gate: <= 0.1%), "
      f"enabled {enabled:.2f}% (gate: <= 5%), "
      f"profiler {bench['profiler_overhead_percent']:.2f}% (recorded)")
EOF

echo "=== traced + profiled report on the Cellzome surrogate ==="
obs_dir="${prefix}/obs-check"
mkdir -p "${obs_dir}"
"${prefix}/src/cli/hyperproteome" generate "${obs_dir}/cellzome.tsv" \
  --proteins 20000
# HP_THREADS=16 oversubscribes the pool so the span tree really crosses
# lanes; the validator below requires every task span to reattach to the
# single cli.report root via parent links and s/f flow events.
HP_THREADS=16 "${prefix}/src/cli/hyperproteome" report \
  "${obs_dir}/cellzome.tsv" \
  --trace "${obs_dir}/report_trace.json" \
  --metrics "${obs_dir}/report_metrics.json" \
  --profile "${obs_dir}/report_profile.folded" \
  --metrics-interval 50ms \
  --metrics-jsonl "${obs_dir}/report_metrics.jsonl" \
  --metrics-prom "${obs_dir}/report_metrics.prom"
python3 - "${obs_dir}/report_trace.json" "${obs_dir}/report_metrics.json" \
  "${obs_dir}/report_profile.folded" "${obs_dir}/report_metrics.jsonl" \
  "${obs_dir}/report_metrics.prom" <<'EOF'
import json, sys

trace = json.load(open(sys.argv[1]))
events = trace["traceEvents"]
assert events, "trace has no events"

# Balanced B/E per thread, with at least one span per context artifact
# and per peel level.
depth = {}
for e in events:
    tid = e["tid"]
    if e["ph"] == "B":
        depth[tid] = depth.get(tid, 0) + 1
    elif e["ph"] == "E":
        depth[tid] = depth.get(tid, 0) - 1
        assert depth[tid] >= 0, f"unbalanced E on tid {tid}"
assert all(d == 0 for d in depth.values()), f"unclosed spans: {depth}"

names = {e["name"] for e in events}
builds = {n for n in names if n.startswith("context.build.")}
# The report builds exactly the context slots it reads: seven, plus its
# three covers (three context.build.cover spans); the matching stays cold.
read = {f"context.build.{a}" for a in (
    "components", "vertex_degree_histogram", "edge_size_histogram",
    "overlap_table", "core_decomposition", "summary", "path_summary",
    "cover")}
assert builds == read, f"context build spans {sorted(builds)} != {sorted(read)}"
cover_builds = sum(
    1 for e in events
    if e["name"] == "context.build.cover" and e["ph"] == "B")
assert cover_builds == 3, f"{cover_builds} cover builds, expected 3"
peel_levels = sum(
    1 for e in events
    if e["name"] == "kcore.peel_level" and e["ph"] == "B")
assert peel_levels >= 1, "no per-level peel spans"
assert "cli.report" in names and "cli.load_dataset" in names

# Causal-tree integrity: every B event carries trace/span/parent ids,
# they form ONE tree rooted at cli.report, and no parent dangles.
spans = {}
traces = set()
for e in events:
    if e["ph"] != "B":
        continue
    args = e.get("args", {})
    assert {"trace", "span", "parent"} <= args.keys(), \
        f"span {e['name']} missing causal ids"
    assert args["span"] not in spans, f"duplicate span id {args['span']}"
    spans[args["span"]] = args
    traces.add(args["trace"])
assert len(traces) == 1, f"expected one trace tree, got {len(traces)}"
roots = [s for s in spans.values() if s["parent"] == 0]
assert len(roots) == 1, f"expected one root span, got {len(roots)}"
dangling = [s for s in spans.values()
            if s["parent"] != 0 and s["parent"] not in spans]
assert not dangling, f"{len(dangling)} spans reference missing parents"
threads = {e["tid"] for e in events if e["ph"] == "B"}
flows = sum(1 for e in events if e["ph"] in ("s", "f"))

metrics = json.load(open(sys.argv[2]))
assert metrics["counters"].get("peel.rounds", 0) > 0
assert any(k.startswith("context.") and k.endswith(".builds")
           for k in metrics["counters"])
assert "context.build_ns" in metrics["histograms"]

# Folded profile: non-empty, every line is "frame;frame;... count".
folded = [l for l in open(sys.argv[3]) if l.strip()]
assert folded, "profiler wrote an empty folded file"
for line in folded:
    stack, _, count = line.rstrip("\n").rpartition(" ")
    assert stack and count.isdigit() and int(count) > 0, \
        f"malformed folded line: {line!r}"

# Continuous export: the JSONL series parses per line and the final
# flush carries process gauges; the Prometheus snapshot is typed.
series = [json.loads(l) for l in open(sys.argv[4]) if l.strip()]
assert series, "metrics JSONL series is empty"
last = series[-1]
assert last["gauges"].get("process.rss_bytes", 0) > 0
assert "par.queue_depth" in last["gauges"]
prom = open(sys.argv[5]).read()
assert "# TYPE hp_process_rss_bytes gauge" in prom
assert "hp_peel_rounds" in prom

print(f"trace ok: {len(events)} events, one tree of {len(spans)} spans "
      f"across {len(threads)} threads ({flows} flow events), "
      f"{len(builds)} artifact build spans, {peel_levels} peel-level "
      f"spans; profile ok: {len(folded)} folded stacks; "
      f"metrics ok: {len(series)} flushes")
EOF

echo "=== analysis server: scripted session + replay + cache gate ==="
serve_dir="${prefix}/serve-check"
rm -rf "${serve_dir}"
mkdir -p "${serve_dir}"
"${prefix}/src/cli/hyperproteome" generate "${serve_dir}/surrogate.hyper" \
  --proteins 20000
sock="unix:${serve_dir}/hp.sock"
# The daemon under --trace: every request lands as a serve.request span
# in the Chrome trace, validated by hp_trace_check after shutdown.
"${prefix}/src/cli/hyperproteome" serve --socket "${sock}" \
  --record "${serve_dir}/session.jsonl" \
  --trace "${serve_dir}/serve_trace.json" \
  > "${serve_dir}/server.log" 2>&1 &
server_pid=$!
for _ in $(seq 1 100); do
  [ -S "${serve_dir}/hp.sock" ] && break
  sleep 0.1
done
[ -S "${serve_dir}/hp.sock" ]
# Parity: server answers (cold, then cached) must be byte-identical to
# the one-shot CLI on the same dataset.
"${prefix}/src/cli/hyperproteome" stats "${serve_dir}/surrogate.hyper" \
  > "${serve_dir}/stats_oneshot.txt"
"${prefix}/src/cli/hyperproteome" query --socket "${sock}" \
  stats "${serve_dir}/surrogate.hyper" > "${serve_dir}/stats_cold.txt"
"${prefix}/src/cli/hyperproteome" query --socket "${sock}" \
  stats "${serve_dir}/surrogate.hyper" > "${serve_dir}/stats_warm.txt"
diff "${serve_dir}/stats_oneshot.txt" "${serve_dir}/stats_cold.txt"
diff "${serve_dir}/stats_oneshot.txt" "${serve_dir}/stats_warm.txt"
# The memoized compute queries: the first request builds the cover or
# matching slot, the second reads it; both must equal the one-shot CLI.
# Usage: serve_parity NAME COMMAND [--flag=value ...]
serve_parity() {
  name="$1"
  shift
  "${prefix}/src/cli/hyperproteome" "$@" "${serve_dir}/surrogate.hyper" \
    > "${serve_dir}/${name}_oneshot.txt"
  for pass in cold warm; do
    "${prefix}/src/cli/hyperproteome" query --socket "${sock}" \
      "$@" "${serve_dir}/surrogate.hyper" > "${serve_dir}/${name}_${pass}.txt"
    diff "${serve_dir}/${name}_oneshot.txt" "${serve_dir}/${name}_${pass}.txt"
  done
}
serve_parity cover cover
serve_parity cover_deg2_r2 cover --weights=deg2 --multicover=2
serve_parity match match
"${prefix}/src/cli/hyperproteome" query --socket "${sock}" \
  stats "${serve_dir}/surrogate.hyper" --verbose \
  | grep -q "cache=hit"
"${prefix}/src/cli/hyperproteome" query --socket "${sock}" \
  soverlap "${serve_dir}/surrogate.hyper" > /dev/null
# Snapshot the record now: the replay below re-appends to the live
# file, and the timeout request after this would replay as a failure.
cp "${serve_dir}/session.jsonl" "${serve_dir}/replay_input.jsonl"
# A request that blows its deadline must come back as a timeout error,
# not hang the session.
if "${prefix}/src/cli/hyperproteome" query --socket "${sock}" \
  sleep --ms=5000 --timeout-ms=50 > "${serve_dir}/timeout.txt" 2>&1; then
  echo "serve: expected the timed-out request to fail" >&2
  exit 1
fi
grep -q "timeout after 50ms" "${serve_dir}/timeout.txt"
"${prefix}/src/cli/hyperproteome" query --socket "${sock}" \
  --script "${serve_dir}/replay_input.jsonl" > "${serve_dir}/replay.txt"
"${prefix}/src/cli/hyperproteome" query --socket "${sock}" shutdown \
  > /dev/null
wait "${server_pid}"
grep -q "server stopped" "${serve_dir}/server.log"
"${prefix}/src/obs/hp_trace_check" "${serve_dir}/serve_trace.json" \
  --require-span serve.request --min-spans 5
# The standalone daemon binary answers the same protocol.
"${prefix}/src/serve/hp_serve" --socket "unix:${serve_dir}/hpd.sock" \
  > "${serve_dir}/daemon.log" 2>&1 &
daemon_pid=$!
for _ in $(seq 1 100); do
  [ -S "${serve_dir}/hpd.sock" ] && break
  sleep 0.1
done
"${prefix}/src/cli/hyperproteome" query \
  --socket "unix:${serve_dir}/hpd.sock" ping | grep -q "pong"
"${prefix}/src/cli/hyperproteome" query \
  --socket "unix:${serve_dir}/hpd.sock" shutdown > /dev/null
wait "${daemon_pid}"

echo "=== analysis server ablation bench (quick) ==="
"${prefix}/bench/bench_micro_serve" --quick --json "${root}/BENCH_serve.json"
python3 - "${root}/BENCH_serve.json" <<'EOF'
import json, sys

bench = json.load(open(sys.argv[1]))
speedup = bench["gate_speedup"]
assert bench["cold_seconds"] > 0, "cold one-shot baseline did not run"
assert speedup >= 100.0, \
    f"warm server query speedup {speedup:.1f}x < 100x vs cold one-shot " \
    f"on the scaled surrogate"
loop = bench["open_loop"]
assert loop["errors"] == 0, f"open-loop load run saw {loop['errors']} errors"
assert loop["requests"] > 0, "open-loop load run sent no requests"
print(f"serve bench ok: {speedup:.0f}x warm-query speedup (gate: >= 100x), "
      f"open-loop p99 {loop['p99_us']:.0f}us at "
      f"{loop['achieved_rps']:.0f} rps")
EOF

echo "=== tier-1: sanitized build + ctest (HP_SANITIZE=address;undefined) ==="
cmake -B "${prefix}-asan" -S "${root}" \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo "-DHP_SANITIZE=address;undefined"
cmake --build "${prefix}-asan" -j
# The deep fuzz sweep (label: slow) runs in the release pass above;
# under sanitizers the 1000-seed smoke below covers the same oracles.
ctest --test-dir "${prefix}-asan" --output-on-failure -LE slow

echo "=== differential fuzz smoke under sanitizers (1000 seeds) ==="
# Deterministic fixed budget: generated instances through the full
# oracle battery -- including the incremental-vs-rebuild mutation
# differential (a random mutation trace per instance, so 1000 mutation
# sequences per run) -- plus loader-corruption trials, then the
# checked-in reproducer corpus. Zero mismatches required.
"${prefix}-asan/src/cli/hp_fuzz" --seed-range 0:1000 \
  --corpus "${prefix}-asan/fuzz-corpus"
"${prefix}-asan/src/cli/hp_fuzz" --replay "${root}/tests/corpus"

echo "=== work-stealing pool under ThreadSanitizer (HP_SANITIZE=thread) ==="
cmake -B "${prefix}-tsan" -S "${root}" \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo "-DHP_SANITIZE=thread"
cmake --build "${prefix}-tsan" -j
# HP_THREADS=4 forces a real multi-worker pool even on 1-2 core CI
# machines, so TSan sees genuine cross-thread interleavings in the
# deques, the parallel kcore/BFS/fuzz paths, and the prefetch fan-out.
HP_THREADS=4 "${prefix}-tsan/tests/unit_tests" --gtest_filter='*Par*:*par*:TaskGroup*:ThreadPool*:LaneLimit*:Oversubscription*:Determinism*:ParallelKCore*:KCoreEquivalence*:FrontierPeel*:Seeds/FrontierPeel*:Invariants*:Mutate*:ServeTest*:ContextPool*:ContextTest*:*TraversalProperties*:TwinQuotient*'
# The fuzz smoke again runs the 1000-sequence mutation differential,
# here with a real multi-worker pool under the rebuild tier's builds.
HP_THREADS=4 "${prefix}-tsan/src/cli/hp_fuzz" --seed-range 0:1000 \
  --corpus "${prefix}-tsan/fuzz-corpus"

echo "ci: all green"
