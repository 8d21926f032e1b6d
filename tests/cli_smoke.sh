#!/usr/bin/env bash
# End-to-end smoke of the `tarr` driver, registered with CTest as cli_smoke.
#
# usage: cli_smoke.sh TARR SOURCE_DIR
#
# Asserts, in a temporary directory: same-seed runs are byte-identical (cmp;
# --metrics CSVs once their wall-clock rows are dropped);
# live and --from-tlog renders are byte-identical; JSON artifacts parse; a
# .tlog stays within 25 % of the equivalent Chrome-trace JSON; truncated and
# bit-flipped .tlog files are rejected; the expected strings appear; exit
# codes are 2 for usage errors, 1 for errors (every artifact flag pointed at
# /dev/full included) and 3 for the insight gate.
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

RUN=(--nodes 4 --procs 32 --layout cyclic-bunch --pattern ring --seed 3)

# Fault campaign.
"$TARR" campaign --smoke > /dev/null
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
"$TARR" map "${RUN[@]}" --quiet --tlog run-a.tlog
"$TARR" log info run-a.tlog > /dev/null
"$TARR" log stats run-a.tlog --by stage > /dev/null 2>&1
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

# Report: the critical path of a traced run, and the mapping diff.
"$TARR" map "${RUN[@]}" --quiet --report > /dev/null
"$TARR" report diff --nodes 4 --procs 32 --pattern ring \
  --layout cyclic-bunch > /dev/null

# Dashboards: byte-identical across same-seed runs.
"$TARR" viz dashboard "${RUN[@]}" --out dash-a.html
"$TARR" viz dashboard "${RUN[@]}" --out dash-b.html
cmp dash-a.html dash-b.html
"$TARR" campaign --smoke --html fault.html > /dev/null

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
expect_rc 1 map --nodes 4 --procs 32 --prof /nonexistent-dir/p.csv
expect_rc 1 campaign --smoke --prof /nonexistent-dir/p.csv
expect_rc 2 probe --smoke --prof

# Insight: same-seed diagnoses are byte-identical, the trend negative
# control finds nothing, --out-dir derives every artifact, the gate exits 3.
"$TARR" insight diagnose --congested --epoch 3 --out insight-a.txt > /dev/null
"$TARR" insight diagnose --congested --epoch 3 --out insight-b.txt > /dev/null
cmp insight-a.txt insight-b.txt
grep -q 'straggler' insight-a.txt
"$TARR" insight trend "$SRC/bench/baselines" --label a \
  "$SRC/bench/baselines" --label b > trend.txt
grep -q 'no change points' trend.txt
"$TARR" map "${RUN[@]}" --quiet --out-dir insight-run > /dev/null
[ -f insight-run/insight.txt ] && [ -f insight-run/report.txt ] ||
  fail "--out-dir did not derive insight.txt and report.txt"
expect_rc 1 insight diagnose --fail-on bogus
expect_rc 3 insight diagnose --congested --epoch 3 --fail-on info
expect_rc 2 insight

# Static audit: every built-in schedule certifies; a mutated one is rejected.
"$TARR" analyze certify-all --nodes 2 --procs 16 > /dev/null
"$TARR" analyze certify-all --nodes 4 --procs 32 --layout cyclic-scatter \
  --reorder > /dev/null
expect_rc 1 analyze certify --collective allgather-rd --mutate drop-transfer

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
