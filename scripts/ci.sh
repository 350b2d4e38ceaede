#!/usr/bin/env bash
# Tier-1 gate for the sharing-arch workspace. Everything runs offline:
# the workspace has zero external dependencies by design (see DESIGN.md §5).
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo fmt --check =="
cargo fmt --all -- --check

echo "== cargo clippy (warnings denied; tier-1.5 gate) =="
cargo clippy --workspace --all-targets --offline -- -D warnings

echo "== cargo build --release =="
cargo build --release --workspace --offline

echo "== cargo test =="
cargo test -q --workspace --offline

echo "== examples (build all, smoke-run one per crate) =="
cargo build --release --offline --examples
# One representative example per crate layer, so examples can't silently
# rot. Each prints to stdout; CI only cares that it exits 0.
EXAMPLES=(
  handwritten_kernel # isa: hand-assembled kernel on the reference interpreter
  quickstart         # core + trace: SSim on a synthetic benchmark
  pipeline_view      # noc + cache: per-stage pipeline statistics
  autotune           # area: area-constrained configuration search
  datacenter_mix     # hv: chip allocator under a tenant mix
  iaas_market        # market: the §5.6 sub-core market end to end
  spot_prices        # market + json: spot-price series serialization
  dc_scenario        # dc: discrete-event datacenter, sharing vs fixed
  serve_jobs         # server: ssimd daemon end to end
  trace_a_run        # obs: two-clock tracing + Prometheus counters
)
for ex in "${EXAMPLES[@]}"; do
  echo "-- example: $ex"
  cargo run --release --offline --example "$ex" >/dev/null
done

echo "== trace smoke: ssim --trace-out emits a valid Chrome trace =="
TRACE_TMP="$(mktemp -d)"
trap 'rm -rf "$TRACE_TMP"' EXIT
cargo run --release --offline -p sharing-ssim --bin ssim -- \
  run --benchmark gcc --len 2000 --trace-out "$TRACE_TMP/run.trace.json" >/dev/null
cargo run --release --offline --example validate_trace -- "$TRACE_TMP/run.trace.json"

echo "== parallel sweep smoke: --jobs 4 byte-identical to --jobs 1 =="
SSIM="target/release/ssim"
"$SSIM" sweep --benchmark gcc --len 2000 --seed 9 --jobs 1 > "$TRACE_TMP/sweep_j1.txt"
"$SSIM" sweep --benchmark gcc --len 2000 --seed 9 --jobs 4 > "$TRACE_TMP/sweep_j4.txt"
diff "$TRACE_TMP/sweep_j1.txt" "$TRACE_TMP/sweep_j4.txt"

echo "== profile smoke: cycle attribution conserves and is byte-identical =="
"$SSIM" profile --benchmark gcc --slices 2 --len 2000 --seed 9 > "$TRACE_TMP/prof_a.txt"
"$SSIM" profile --benchmark gcc --slices 2 --len 2000 --seed 9 > "$TRACE_TMP/prof_b.txt"
diff "$TRACE_TMP/prof_a.txt" "$TRACE_TMP/prof_b.txt"
grep -q 'conserved true' "$TRACE_TMP/prof_a.txt"

echo "== VM threads smoke: worker threads byte-identical to the default =="
# The VM worker count must be unobservable (DESIGN.md §14): a
# single-trace run and a 4-thread PARSEC VM, both at --threads 4, must
# match the default run's bytes exactly, and so must a 128-bank ferret
# VM at --threads 2, whose copy-on-write forks share one large L2 base
# across both workers.
"$SSIM" run --benchmark gcc --len 2000 --seed 9 --json > "$TRACE_TMP/run_default.json"
"$SSIM" run --benchmark gcc --len 2000 --seed 9 --json \
  --threads 4 > "$TRACE_TMP/run_threads.json"
diff "$TRACE_TMP/run_default.json" "$TRACE_TMP/run_threads.json"
"$SSIM" run --benchmark dedup --len 2000 --seed 9 --json > "$TRACE_TMP/vm_default.json"
"$SSIM" run --benchmark dedup --len 2000 --seed 9 --json \
  --threads 4 > "$TRACE_TMP/vm_threads.json"
diff "$TRACE_TMP/vm_default.json" "$TRACE_TMP/vm_threads.json"
"$SSIM" run --benchmark ferret --banks 128 --len 2000 --seed 9 --json > "$TRACE_TMP/vm128_default.json"
"$SSIM" run --benchmark ferret --banks 128 --len 2000 --seed 9 --json \
  --threads 2 > "$TRACE_TMP/vm128_threads.json"
diff "$TRACE_TMP/vm128_default.json" "$TRACE_TMP/vm128_threads.json"

echo "== perf guard: warm single-worker sweep must hold 2.5M cycles/sec =="
# A short-trace suite sweep (all 15 benchmarks x 72 shapes). The seed
# repo measured 1.9M simulated cycles/sec on the standard sweep; the
# warm single-worker sweep (the first "cycles_per_sec" key) now measures
# 3.7-3.8M on a 2-vCPU box, so it is held to 2.5M. The median of three
# runs keeps one noisy run from deciding the gate. bench_sweep asserts
# byte-identity (seq vs par, cold vs warm) before it writes --out, so
# every run must exit 0 and leave a fresh file: a failed run fails CI.
cargo build --release --offline -p sharing-market --example bench_sweep
: > "$TRACE_TMP/sweep_cps.txt"
for run in 1 2 3; do
  rm -f "$TRACE_TMP/sweep_perf.json"
  target/release/examples/bench_sweep --len 10000 --out "$TRACE_TMP/sweep_perf.json" >/dev/null
  grep -o '"cycles_per_sec": *[0-9.e+-]*' "$TRACE_TMP/sweep_perf.json" \
    | head -n1 | sed 's/.*: *//' >> "$TRACE_TMP/sweep_cps.txt"
done
if [ "$(grep -c . "$TRACE_TMP/sweep_cps.txt")" -ne 3 ]; then
  echo "perf guard FAILED: expected 3 cycles_per_sec readings" >&2
  cat "$TRACE_TMP/sweep_cps.txt" >&2
  exit 1
fi
CPS="$(sort -g "$TRACE_TMP/sweep_cps.txt" | sed -n 2p)"
awk -v cps="$CPS" 'BEGIN {
  floor = 2500000
  if (cps + 0 < floor) {
    printf "perf guard FAILED: median %.0f cycles/sec < %.1fM/s floor\n", cps, floor / 1e6
    exit 1
  }
  printf "perf guard ok: median %.2fM cycles/sec of 3 runs (floor %.1fM)\n", \
    cps / 1e6, floor / 1e6
}'

echo "== multi-node smoke: 2 workers + 1 coordinator, byte-identical sweep =="
"$SSIM" serve --addr 127.0.0.1:42115 --workers 2 &
W1=$!
"$SSIM" serve --addr 127.0.0.1:42116 --workers 2 &
W2=$!
COORD=""
HTTP_DAEMON=""
cleanup_daemons() {
  kill "$W1" "$W2" ${COORD:+"$COORD"} ${HTTP_DAEMON:+"$HTTP_DAEMON"} 2>/dev/null || true
  rm -rf "$TRACE_TMP"
}
trap cleanup_daemons EXIT
# The coordinator registers its workers at startup, so they go first.
for port in 42115 42116; do
  for _ in $(seq 1 50); do
    "$SSIM" submit --addr "127.0.0.1:$port" --ping >/dev/null 2>&1 && break
    sleep 0.2
  done
done
"$SSIM" serve --addr 127.0.0.1:42117 --workers 2 \
  --worker 127.0.0.1:42115 --worker 127.0.0.1:42116 \
  --trace-out "$TRACE_TMP/fleet.trace.jsonl" &
COORD=$!
for _ in $(seq 1 50); do
  "$SSIM" submit --addr 127.0.0.1:42117 --ping >/dev/null 2>&1 && break
  sleep 0.2
done
"$SSIM" submit --addr 127.0.0.1:42117 --hello
# The same sweep in-process and through the coordinator must agree on
# every byte of the table (the daemon run appends a provenance line).
"$SSIM" sweep --benchmark gcc --len 2000 --seed 9 > "$TRACE_TMP/local.txt"
"$SSIM" sweep --benchmark gcc --len 2000 --seed 9 \
  --daemon 127.0.0.1:42117 > "$TRACE_TMP/fanout.txt"
diff "$TRACE_TMP/local.txt" <(grep -v '^served by' "$TRACE_TMP/fanout.txt")
"$SSIM" submit --addr 127.0.0.1:42117 --metrics | grep -q '^ssimd_dispatched_total 72'
"$SSIM" submit --addr 127.0.0.1:42117 --metrics | grep -q '^ssimd_workers_healthy 2'
# One coordinator scrape federates every worker's exposition under an
# instance label; the coordinator's own samples stay bare (greps above).
"$SSIM" submit --addr 127.0.0.1:42117 --metrics > "$TRACE_TMP/fed.txt"
grep -q 'instance="worker:0"' "$TRACE_TMP/fed.txt"
grep -q 'instance="worker:1"' "$TRACE_TMP/fed.txt"
grep -q '^ssimd_build_info{' "$TRACE_TMP/fed.txt"
# A traced job streams its spans into the coordinator's .jsonl sink:
# dispatch spans (track 1000+) and relayed worker spans (track 2000+)
# merged under the one trace id.
"$SSIM" submit --addr 127.0.0.1:42117 --benchmark gcc --len 2000 --seed 7 \
  --trace 42 >/dev/null
"$SSIM" submit --addr 127.0.0.1:42117 --shutdown >/dev/null
"$SSIM" submit --addr 127.0.0.1:42115 --shutdown >/dev/null
"$SSIM" submit --addr 127.0.0.1:42116 --shutdown >/dev/null
wait "$W1" "$W2" "$COORD"
grep -q '"trace":42' "$TRACE_TMP/fleet.trace.jsonl"
grep -q '"tid":200[01]' "$TRACE_TMP/fleet.trace.jsonl"
"$SSIM" trace-pack "$TRACE_TMP/fleet.trace.jsonl" "$TRACE_TMP/fleet.trace.json"
cargo run --release --offline --example validate_trace -- "$TRACE_TMP/fleet.trace.json"

echo "== chaos smoke: fixed-seed fault plan, replayed schedule and output =="
# Two invocations of the same seeded plan (partition + sigkill + conn
# drops over a 2-worker fleet) must inject the identical fault schedule
# and print the identical report — replayable chaos, not noise.
"$SSIM" chaos --seed 2014 --len 2000 \
  --schedule-out "$TRACE_TMP/sched_a.txt" > "$TRACE_TMP/chaos_a.txt"
"$SSIM" chaos --seed 2014 --len 2000 \
  --schedule-out "$TRACE_TMP/sched_b.txt" > "$TRACE_TMP/chaos_b.txt"
diff "$TRACE_TMP/sched_a.txt" "$TRACE_TMP/sched_b.txt"
# The report names its schedule file; everything else must match.
diff <(grep -v '^chaos: wrote schedule' "$TRACE_TMP/chaos_a.txt") \
     <(grep -v '^chaos: wrote schedule' "$TRACE_TMP/chaos_b.txt")
test -s "$TRACE_TMP/sched_a.txt"
grep -q '^chaos: all invariants held' "$TRACE_TMP/chaos_a.txt"

echo "== http smoke: serve --http + --pidfile, jobs over HTTP, SIGTERM drain =="
PIDFILE="$TRACE_TMP/ssimd.pid"
URL="http://127.0.0.1:42119"
"$SSIM" serve --addr 127.0.0.1:42118 --http 127.0.0.1:42119 --workers 2 \
  --pidfile "$PIDFILE" &
HTTP_DAEMON=$!
for _ in $(seq 1 50); do
  "$SSIM" submit --url "$URL" --ping >/dev/null 2>&1 && break
  sleep 0.2
done
test -f "$PIDFILE"
# Prometheus text with at least one histogram family, a job end to end
# over POST /jobs + polling, and the JSON status snapshot.
"$SSIM" submit --url "$URL" --benchmark gcc --len 2000 | grep -q '"ok": true'
"$SSIM" submit --url "$URL" --metrics | grep -q '_bucket{le="+Inf"}'
"$SSIM" submit --url "$URL" --stats | grep -q '"draining": false'
# SIGTERM must drain gracefully and remove the pidfile.
kill -TERM "$HTTP_DAEMON"
wait "$HTTP_DAEMON"
test ! -f "$PIDFILE"
HTTP_DAEMON=""

echo "ci: all green"
