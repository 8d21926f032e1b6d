#!/usr/bin/env bash
# End-to-end smoke of the `tarr` driver, registered with CTest as cli_smoke.
#
# usage: cli_smoke.sh TARR SOURCE_DIR
#
# Asserts, in a temporary directory: every example_* demo beside TARR runs
# to completion; same-seed runs are byte-identical (cmp; --metrics CSVs once
# their wall-clock rows are dropped); live and --from-tlog renders are
# byte-identical; JSON artifacts parse; a .tlog stays within 25 % of the
# equivalent Chrome-trace JSON; a v4 capture stores no counter, permute or
# copy kind, a stage window keeps exactly its stages' loads and skips blocks;
# truncated and bit-flipped .tlog files are
# rejected; the committed baselines pass `report compare` against
# themselves and fail it with one gated metric 10 % worse; certify-all
# prints the committed listing and every schedule mutation is rejected;
# every --mapper value maps the same across same-seed runs, and a SLURM
# --layout spelling maps as its library name does; campaign and probe
# traces carry the mapping decision counters; `map --insight` alone writes
# the diagnosis `--out-dir` derives; the expected strings appear;
# a bad --layout or --procs prints its plain error text; exit codes are 2
# for usage errors, 1 for errors (every artifact flag pointed at /dev/full
# included) and 3 for the insight gate.
set -euo pipefail

TARR=$(cd "$(dirname "$1")" && pwd)/$(basename "$1")
SRC=$(cd "$2" && pwd)
WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT
cd "$WORK"

fail() {
  echo "cli_smoke: $*" >&2
  exit 1
}

# expect_rc CODE ARGS...: run `tarr ARGS...` quietly; its exit code must be
# CODE.
expect_rc() {
  local want=$1 rc=0
  shift
  "$TARR" "$@" > /dev/null 2>&1 || rc=$?
  [ "$rc" -eq "$want" ] || fail "tarr $* exited $rc, expected $want"
}

# cmp_metrics A B: two --metrics CSVs agree byte for byte once their real
# wall-clock rows are dropped.
cmp_metrics() {
  cmp <(grep -v '^counter,wall\.' "$1") <(grep -v '^counter,wall\.' "$2")
}

# window_loads_only JSON STAGE: a timeline replayed through the one-stage
# window STAGE:STAGE holds only that stage's spans, and load samples only
# at the start and end of its real (not repeat-compressed) executions.
window_loads_only() {
  python3 - "$1" "$2" << 'EOF'
import json, sys
events = json.load(open(sys.argv[1]))["traceEvents"]
stage = int(sys.argv[2])
stages = [e for e in events if e["ph"] == "X" and e["tid"] == 1]
ends = {t for e in stages if "repeats" not in e["args"]
        for t in (e["ts"], e["ts"] + e["dur"])}
loads = [e["ts"] for e in events if e["ph"] == "C"]
sys.exit(0 if stages and loads and set(loads) <= ends and
         all(e["args"]["stage"] == stage for e in stages) else 1)
EOF
}

RUN=(--nodes 4 --procs 32 --layout cyclic-bunch --pattern ring --seed 3)

# Demos: the example programs built beside the driver.
for demo in "$(dirname "$TARR")"/example_*; do
  "$demo" > /dev/null || fail "$(basename "$demo") failed"
done

# Fault campaign: link failures, then node failures with transient drops
# whose retransmissions survive capture and replay.  Same-seed captures
# replay to the same metrics, the heuristic runs behind the stale and remap
# mappings included.
for run in a b; do
  "$TARR" campaign --smoke --tlog campaign-$run.tlog > /dev/null
  "$TARR" log cat campaign-$run.tlog --metrics campaign-$run.csv 2> /dev/null
  grep -q '^counter,mapping\.placements,' campaign-$run.csv
  grep -q '^counter,campaign\.rows,' campaign-$run.csv
done
cmp_metrics campaign-a.csv campaign-b.csv
"$TARR" campaign --smoke --kind nodes --drop 0.05 --tlog drop.tlog > /dev/null
"$TARR" log cat drop.tlog --metrics drop.csv 2> /dev/null
grep -q '^counter,fault\.retransmissions,' drop.csv
expect_rc 2 campaign --bogus
expect_rc 2 campaign --drop 2

# Probe: same-seed CSVs, the forced-failure fallback, bad input.
"$TARR" probe --smoke --csv probe-a.csv > /dev/null
"$TARR" probe --smoke --csv probe-b.csv > /dev/null
cmp probe-a.csv probe-b.csv
"$TARR" probe --smoke --fail-probe > /dev/null
expect_rc 2 probe --bogus
expect_rc 2 probe --noise 1.5

# Trace: well-formed, byte-identical across same-seed runs.
"$TARR" map "${RUN[@]}" --quiet --trace trace-a.json --metrics metrics-a.csv
python3 -m json.tool trace-a.json > /dev/null
"$TARR" map "${RUN[@]}" --quiet --trace trace-b.json --metrics metrics-b.csv
cmp trace-a.json trace-b.json
[ -s metrics-a.csv ] || fail "empty metrics CSV"
cmp_metrics metrics-a.csv metrics-b.csv

# Tlog: engine captures are byte-identical, replays print the live bytes,
# the capture stays within the size budget, corruption is rejected.
"$TARR" map "${RUN[@]}" --quiet --trace live.json --metrics live.csv \
  --tlog run-a.tlog
"$TARR" log cat run-a.tlog --json replay.json --metrics replay.csv 2> /dev/null
cmp live.json replay.json
cmp live.csv replay.csv
"$TARR" log info run-a.tlog > info.txt
grep -q ': tlog v4,' info.txt || fail "log info: $(head -n 1 info.txt)"
! grep -qE '^(counter|permute|copy) ' info.txt ||
  fail "log info lists a counter, permute or copy kind"
"$TARR" log stats run-a.tlog --by stage > /dev/null 2>&1
"$TARR" log cat run-a.tlog --stages 0:0 --json stage0.json 2> /dev/null
window_loads_only stage0.json 0 ||
  fail "run-a.tlog: a stage-0 window draws loads of other stages"
# Reader-side filters: the ring's stage-0 transfers, which carry their
# copies, with an endpoint in ranks 0..3.
FILTER=(--kinds transfer --stages 0:0 --ranks 0:3)
"$TARR" log cat run-a.tlog "${FILTER[@]}" --json cat-a.json 2> /dev/null
"$TARR" log cat run-a.tlog "${FILTER[@]}" --json cat-b.json 2> /dev/null
cmp cat-a.json cat-b.json
python3 -m json.tool cat-a.json > /dev/null
"$TARR" log stats run-a.tlog --by rank "${FILTER[@]}" 2> /dev/null |
  tail -n +2 | cut -d, -f1 | tr '\n' ' ' > stats-keys.txt
[ "$(cat stats-keys.txt)" = "00000000 00000001 00000002 00000003 00000031 " ] ||
  fail "filtered log stats keys: $(cat stats-keys.txt)"
expect_rc 2 log cat run-a.tlog --kinds bogus
expect_rc 2 log cat run-a.tlog --kinds counter
expect_rc 2 log cat run-a.tlog --kinds permute
expect_rc 2 log cat run-a.tlog --kinds copy
# A capture of several blocks: a stage window decodes only the blocks whose
# stage range meets it.
"$TARR" map --nodes 64 --procs 512 --pattern recursive-doubling --quiet \
  --tlog big.tlog > /dev/null
"$TARR" log stats big.tlog --by stage --stages 0:0 > /dev/null 2> skip.txt
grep -q 'decoded 1/3 blocks' skip.txt
# With every kind kept, the window still skips the block that holds only
# later stages: no stage-less record rides in it.
"$TARR" log cat big.tlog --stages 0:0 --json /dev/null 2> skip-all.txt
grep -q 'decoded 2/3 blocks (1 skipped' skip-all.txt
"$TARR" log cat big.tlog --stages 3:3 --json stage3.json 2> /dev/null
window_loads_only stage3.json 3 ||
  fail "big.tlog: a stage-3 window draws loads of other stages"
"$TARR" report critical-path "${RUN[@]}" --tlog cp-a.tlog > cp-live.txt
"$TARR" report critical-path "${RUN[@]}" --tlog cp-b.tlog > /dev/null
cmp cp-a.tlog cp-b.tlog
"$TARR" report critical-path "${RUN[@]}" --from-tlog cp-a.tlog > cp-replay.txt
cmp cp-live.txt cp-replay.txt
"$TARR" viz dashboard "${RUN[@]}" --tlog-baseline viz-base.tlog \
  --tlog viz-reord.tlog --out viz-live.html
"$TARR" viz dashboard "${RUN[@]}" --from-tlog-baseline viz-base.tlog \
  --from-tlog viz-reord.tlog --out viz-replay.html
cmp viz-live.html viz-replay.html
tlog_bytes=$(wc -c < run-a.tlog)
json_bytes=$(wc -c < trace-a.json)
[ "$((tlog_bytes * 4))" -le "$json_bytes" ] ||
  fail "tlog $tlog_bytes B exceeds 25% of trace JSON $json_bytes B"
head -c "$((tlog_bytes / 2))" run-a.tlog > truncated.tlog
expect_rc 1 log info truncated.tlog
python3 - << 'EOF'
data = bytearray(open("run-a.tlog", "rb").read())
data[100] ^= 0x40  # flip one payload bit; a checksum must catch it
open("flipped.tlog", "wb").write(bytes(data))
EOF
expect_rc 1 log cat flipped.tlog
expect_rc 2 log info run-a.tlog --bogus
expect_rc 2 log cat run-a.tlog --stages zz

# Report: the critical path of a traced run, the mapping diff, and the
# snapshot gate on the committed baselines.
"$TARR" map "${RUN[@]}" --quiet --report > /dev/null
"$TARR" report critical-path "${RUN[@]}" --markdown > cp.md
grep -q '^| ' cp.md
"$TARR" report diff --nodes 4 --procs 32 --pattern ring \
  --layout cyclic-bunch > /dev/null
"$TARR" report compare --baseline-dir "$SRC/bench/baselines/BENCH_*.json" \
  --candidate-dir "$SRC/bench/baselines" > /dev/null
mkdir perturbed
cp "$SRC"/bench/baselines/BENCH_*.json perturbed/
python3 - << 'EOF'
import json
path = "perturbed/BENCH_fig3_nonhier.json"
snap = json.load(open(path))
for m in snap["metrics"]:
    if m["name"] == "block-bunch.default_latency_maxmsg":
        m["value"] *= 1.1  # lower is better: 10 % worse
json.dump(snap, open(path, "w"))
EOF
expect_rc 1 report compare --baseline-dir "$SRC/bench/baselines" \
  --candidate-dir perturbed

# Dashboards: byte-identical across same-seed runs.
"$TARR" viz dashboard "${RUN[@]}" --out dash-a.html
"$TARR" viz dashboard "${RUN[@]}" --out dash-b.html
cmp dash-a.html dash-b.html
"$TARR" campaign --smoke --html fault.html > /dev/null
# CI's perf-gate dashboard: 128 ranks aggregate the matrix node x node, and
# the snapshot sets add the trend section.
"$TARR" viz dashboard --nodes 16 --procs 128 --layout cyclic-bunch \
  --pattern recursive-doubling --seed 1 --snapshots "$SRC/bench/baselines" \
  --label baseline --snapshots perturbed --label perturbed --out ci-dash.html
grep -q 'aggregated node x node' ci-dash.html
grep -q 'REGRESSED' ci-dash.html

# Prof: identical flag sets give byte-identical profiles; bad output paths
# die before the run (exit 1), a missing value with usage (exit 2).
for run in a b; do
  "$TARR" map "${RUN[@]}" --quiet --prof prof-$run.csv \
    --prof-speedscope prof-$run.ss.json --prof-collapsed prof-$run.folded \
    --metrics prof-metrics-$run.csv > /dev/null
done
cmp prof-a.csv prof-b.csv
cmp prof-a.folded prof-b.folded
cmp prof-a.ss.json prof-b.ss.json
python3 -m json.tool prof-a.ss.json > /dev/null
grep -q '^counter,prof\.' prof-metrics-a.csv
cmp_metrics prof-metrics-a.csv prof-metrics-b.csv
"$TARR" map "${RUN[@]}" --quiet --prof prof-c.csv \
  --html prof-dash.html > /dev/null
grep -q 'Overheads' prof-dash.html
for run in a b; do
  "$TARR" campaign --smoke --prof fault-prof-$run.csv > /dev/null
  "$TARR" probe --smoke --prof probe-prof-$run.csv \
    --metrics probe-prof-metrics-$run.csv > /dev/null
done
[ "$(head -n 3 fault-prof-a.csv | wc -l)" -eq 3 ] || fail "short fault profile"
cmp fault-prof-a.csv fault-prof-b.csv
cmp probe-prof-a.csv probe-prof-b.csv
grep -q '^counter,prof\.' probe-prof-metrics-a.csv
cmp_metrics probe-prof-metrics-a.csv probe-prof-metrics-b.csv
"$TARR" probe --smoke --metrics probe-metrics-a.csv > /dev/null
"$TARR" probe --smoke --metrics probe-metrics-b.csv > /dev/null
cmp_metrics probe-metrics-a.csv probe-metrics-b.csv
for run in a b; do
  grep -q '^counter,mapping\.placements,' probe-metrics-$run.csv
  grep -q '^counter,probe\.decision\.remap,' probe-metrics-$run.csv
done
expect_rc 1 map --nodes 4 --procs 32 --prof /nonexistent-dir/p.csv
expect_rc 1 campaign --smoke --prof /nonexistent-dir/p.csv
expect_rc 2 probe --smoke --prof

# Insight: same-seed diagnoses are byte-identical, the trend negative
# control finds nothing, --out-dir derives every artifact, the gate exits 3.
"$TARR" insight diagnose --congested --epoch 3 --out insight-a.txt > /dev/null
"$TARR" insight diagnose --congested --epoch 3 --out insight-b.txt > /dev/null
cmp insight-a.txt insight-b.txt
grep -q 'straggler' insight-a.txt
"$TARR" insight diagnose --congested --epoch 3 --markdown > insight.md
grep -q '^- \*\*\[' insight.md
"$TARR" insight trend "$SRC/bench/baselines" --label a \
  "$SRC/bench/baselines" --label b > trend.txt
grep -q 'no change points' trend.txt
"$TARR" insight trend "$SRC/bench/baselines" --label a perturbed --label b \
  > trend-step.txt
grep -q 'block-bunch.default_latency_maxmsg' trend-step.txt
"$TARR" viz trend "$SRC/bench/baselines" --label a "$SRC/bench/baselines" \
  --label b --out trend-pass.html
grep -q 'PASS' trend-pass.html
"$TARR" viz trend "$SRC/bench/baselines" --label a perturbed --label b \
  --out trend.html
grep -q 'REGRESSED' trend.html
"$TARR" map "${RUN[@]}" --quiet --wall --out-dir insight-run > /dev/null
[ -f insight-run/insight.txt ] && [ -f insight-run/report.txt ] ||
  fail "--out-dir did not derive insight.txt and report.txt"
# One run, one diagnosis: --insight alone writes what --out-dir derives,
# distribution-tail findings included.
TAIL=(--nodes 4 --procs 32 --pattern ring --msg 4096 --quiet)
"$TARR" map "${TAIL[@]}" --insight tail-alone.txt > /dev/null
"$TARR" map "${TAIL[@]}" --out-dir tail-run > /dev/null
cmp tail-alone.txt tail-run/insight.txt
grep -q 'transfer.serialization p99' tail-alone.txt
expect_rc 1 insight diagnose --fail-on bogus
expect_rc 3 insight diagnose --congested --epoch 3 --fail-on info
expect_rc 2 insight

# Static audit: every built-in schedule certifies, with the stage and copy
# counts of the committed listing; a mutated one is rejected.
"$TARR" analyze certify-all --nodes 2 --procs 16 > certify-all.txt
diff "$SRC/tests/certify_all.expected" certify-all.txt ||
  fail "certify-all differs from tests/certify_all.expected"
"$TARR" analyze certify-all --nodes 4 --procs 32 --layout cyclic-scatter \
  --reorder > /dev/null
"$TARR" analyze certify --collective allgather-ring --max-link-load 0.01 \
  > hazard.txt
grep -q 'capacity-hazard' hazard.txt
for kind in drop-transfer swap-stages truncate-bytes duplicate-block; do
  expect_rc 1 analyze certify --collective allgather-rd --reorder \
    --mutate "$kind"
done

# Mappers and layouts: identity and every key of the mapper table reorder
# the same way across same-seed runs (the wall-clock overhead line aside);
# SLURM's block:cyclic places ranks as block-scatter does; unknown names
# are errors.
for mapper in identity heuristic scotch greedy mvapich-cyclic; do
  for run in a b; do
    "$TARR" map --nodes 2 --procs 16 --mapper "$mapper" --seed 5 |
      grep -v '^overhead:' > "map-$mapper-$run.txt"
  done
  cmp "map-$mapper-a.txt" "map-$mapper-b.txt"
done
for layout in block:cyclic block-scatter; do
  "$TARR" map --nodes 2 --procs 16 --layout "$layout" |
    grep -v -e '^job' -e '^overhead:' > "layout-$layout.txt"
done
cmp layout-block:cyclic.txt layout-block-scatter.txt
expect_rc 1 map --nodes 2 --procs 16 --mapper bogus
expect_rc 1 map --nodes 2 --procs 16 --layout bogus
# Bad input reads in plain text: the message alone, no C++ condition or
# source path.
[ "$("$TARR" map --nodes 2 --procs 16 --layout bogus 2>&1 || true)" = \
  "tarr map: parse_layout_spec: unknown layout: bogus" ] ||
  fail "--layout bogus: unexpected error text"
[ "$("$TARR" map --nodes 2 --procs 17 2>&1 || true)" = \
  "tarr map: make_layout: more ranks than cores" ] ||
  fail "--procs 17: unexpected error text"

# Usage errors: no command, an unknown one, a missing second level.
expect_rc 2
expect_rc 2 bogus
expect_rc 2 report

# A failed artifact write exits 1, never 0 or an abort.
SMALL=(--nodes 2 --procs 16)
for flag in --trace --metrics --tlog --html --prof --prof-speedscope \
            --prof-collapsed --insight; do
  expect_rc 1 map "${SMALL[@]}" --quiet "$flag" /dev/full
done
for flag in --csv --json --metrics --html --prof --tlog; do
  expect_rc 1 campaign --smoke "$flag" /dev/full
done
for flag in --csv --metrics --trace --prof --tlog; do
  expect_rc 1 probe --smoke "$flag" /dev/full
done
expect_rc 1 report critical-path "${SMALL[@]}" --tlog /dev/full
for flag in --out --tlog --tlog-baseline; do
  expect_rc 1 viz dashboard "${SMALL[@]}" "$flag" /dev/full
done
for flag in --out --tlog; do
  expect_rc 1 insight diagnose "${SMALL[@]}" "$flag" /dev/full
done
for flag in --json --metrics; do
  expect_rc 1 log cat cp-a.tlog "$flag" /dev/full
done

echo "cli_smoke: ok"
