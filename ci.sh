#!/usr/bin/env bash
# Local CI gate for the ThirstyFLOPS workspace. Run from the repo root.
#
#   ./ci.sh                # full gate: fmt, clippy, release build, the
#                          # perfbench build, tests and digest check,
#                          # tests at two worker thread counts plus
#                          # passes at one and at four concurrent test
#                          # threads, the determinism matrix
#                          # (tests/determinism.rs: every CLI command at
#                          # 1, 2 and 8 threads) and the K-lane
#                          # kernel's bit-identity oracles on the
#                          # release build, the smokes below, docs
#   ./ci.sh quick          # skip the release build, the sequential and
#                          # the one- and four-test-thread passes
#                          # (fastest signal)
#   ./ci.sh serve-smoke    # just the HTTP serving-layer smoke probe
#                          # (ephemeral port, std-only TcpStream client)
#   ./ci.sh load-smoke     # deterministic loadgen replay of the smoke
#                          # mix at --workers 1 and 8: every response
#                          # body byte-verified, zero mismatches required
#   ./ci.sh obs-smoke      # a /v1/metrics fetch over raw TCP that must
#                          # be well-formed Prometheus text with every
#                          # family declared once
#   ./ci.sh trace-smoke    # causal-tracing gate: --trace-out exports
#                          # valid Chrome trace_event JSON, and
#                          # GET /v1/trace answers over raw TCP with
#                          # the client's X-Request-Id echoed and the
#                          # request access-logged as strict JSON
#   ./ci.sh chaos-smoke    # deterministic chaos replay: the bench mix
#                          # under examples/faults/smoke.json at
#                          # --workers 1, 8, and 1 again — zero byte-
#                          # verification failures, at least one
#                          # simcache_poison recompute per run, chaos
#                          # accounting bit-identical across all three
#                          # runs (docs/ROBUSTNESS.md)
#   ./ci.sh bench-json     # perfbench's record of every BENCHMARK.json
#                          # workload, untraced and traced, at the
#                          # default seed and seconds ->
#                          # BENCH_perfbench.json (docs/PERFORMANCE.md)
#   ./ci.sh fanout-check   # every rayon fan-out in crates/*/src and src/
#                          # wraps its per-item closure in
#                          # trace::propagate (part of every gate run)
#   ./ci.sh regen-goldens  # regenerate the golden-pinned artifacts for a
#                          # deliberate recalibration (see docs/GOLDENS.md)
#
# The same commands gate merges; keep them green.
set -euo pipefail

mode="${1:-}"

step() { printf '\n== %s\n' "$*"; }

if [[ "$mode" == "regen-goldens" ]]; then
  # One-command recalibration diff: regenerate the artifacts whose numbers
  # tests/golden.rs pins (plus the full set for context) and leave the
  # report under target/ for comparison against the pinned constants.
  out="target/golden-report.md"
  step "thirstyflops experiments --all (release build)"
  mkdir -p target
  cargo build --release -q
  target/release/thirstyflops experiments --all > "$out"
  step "golden-pinned sections (fig03 fig06 fig07 fig08) from $out"
  grep -A 12 -E '^## (fig03|fig06|fig07|fig08) ' "$out" || true
  printf '\nFull report: %s\nUpdate the constants in tests/golden.rs, then re-run ./ci.sh\n' "$out"
  exit 0
fi

fanout_check() {
  # Every rayon fan-out must go through thirstyflops_obs::trace::propagate
  # so its workers' spans join the spawning trace (docs/OBSERVABILITY.md,
  # docs/CONCURRENCY.md rule seven). A par_iter / into_par_iter /
  # par_iter_mut / par_chunks / rayon::join in crates/*/src or src/
  # fails unless `propagate(` follows on the same line or within the
  # next three code lines. shims/ is outside the searched trees;
  # comment lines are skipped.
  step "fan-out check (every rayon site goes through trace::propagate)"
  local bare
  bare=$(find src crates/*/src -name '*.rs' -print0 | xargs -0 awk '
    function report() { if (pending != "") print pending; pending = "" }
    FNR == 1 { report() }
    /^[[:space:]]*\/\// { next }
    {
      if (pending != "" && ++seen > 3) report()
      if (pending == "" && $0 ~ /(into_)?par_iter(_mut)?\(|par_chunks\(|rayon::join/) {
        pending = FILENAME ":" FNR ":" $0
        seen = 0
      }
      if (pending != "" && index($0, "propagate(")) pending = ""
    }
    END { report() }
  ')
  if [[ -n "$bare" ]]; then
    echo "fan-out check: rayon sites not wrapped in trace::propagate:" >&2
    printf '%s\n' "$bare" >&2
    exit 1
  fi
  printf '  ok every rayon fan-out attaches the trace\n'
}

if [[ "$mode" == "fanout-check" ]]; then
  fanout_check
  exit 0
fi

serve_smoke() {
  # Starts the server on an ephemeral port, probes /healthz and a
  # /v1/footprint query (twice — the repeat must hit the result cache)
  # via std::net::TcpStream, and shuts down cleanly. No curl involved.
  step "serve smoke (cargo run --release --example serve_smoke)"
  cargo run --release --example serve_smoke
}

if [[ "$mode" == "serve-smoke" ]]; then
  serve_smoke
  exit 0
fi

load_smoke() {
  # Replays the recorded smoke mix against an in-process server at one
  # worker and at eight, byte-comparing every response body against the
  # precomputed expectation. ≥ 1000 verified requests total; any
  # mismatch fails the run (docs/SERVING.md, docs/CONCURRENCY.md).
  step "load smoke (loadgen replay at --workers 1 and 8)"
  cargo build --release -q
  local bin=target/release/thirstyflops
  for workers in 1 8; do
    "$bin" loadgen --mix examples/loadmix/smoke.json       --requests 500 --connections 2 --workers "$workers"
  done
}

if [[ "$mode" == "load-smoke" ]]; then
  load_smoke
  exit 0
fi

obs_smoke() {
  # GET /v1/metrics must serve well-formed Prometheus text over a real
  # socket (bash /dev/tcp — no curl involved; docs/OBSERVABILITY.md).
  step "obs smoke (/v1/metrics exposition)"
  cargo build --release -q
  local bin=target/release/thirstyflops
  mkdir -p target

  # /v1/metrics over raw TCP against an ephemeral-port server.
  "$bin" serve --addr 127.0.0.1:0 --workers 1 > target/obs_serve_banner.txt 2>/dev/null &
  local server_pid=$!
  local addr=""
  for _ in $(seq 1 100); do
    addr=$(sed -n 's#^listening on http://\([0-9.:]*\) .*#\1#p' target/obs_serve_banner.txt)
    [[ -n "$addr" ]] && break
    sleep 0.1
  done
  if [[ -z "$addr" ]]; then
    kill "$server_pid" 2>/dev/null || true
    echo "obs smoke: server never printed its bound address" >&2
    exit 1
  fi
  exec 3<>"/dev/tcp/${addr%:*}/${addr##*:}"
  printf 'GET /v1/metrics HTTP/1.1\r\nHost: ci\r\nConnection: close\r\n\r\n' >&3
  cat <&3 > target/obs_metrics_raw.txt
  exec 3<&- 3>&-
  kill "$server_pid" 2>/dev/null || true
  wait "$server_pid" 2>/dev/null || true

  grep -q 'Content-Type: text/plain; version=0.0.4' target/obs_metrics_raw.txt
  # The body starts after the CRLF blank line that ends the head.
  awk 'body {print} /^\r?$/ {body=1}' target/obs_metrics_raw.txt > target/obs_metrics_body.txt
  for family in '# TYPE thirstyflops_http_requests_total counter'     'thirstyflops_http_requests_total{endpoint="metrics"}'     'thirstyflops_simcache_hits_total' 'thirstyflops_batch_lanes_total'     'thirstyflops_http_request_duration_micros_bucket' 'thirstyflops_shed_total'; do
    if ! grep -qF -- "$family" target/obs_metrics_body.txt; then
      echo "obs smoke: /v1/metrics is missing $family" >&2
      exit 1
    fi
  done
  # One surface: a family registered in both the global and the server's
  # registry would print its `# TYPE` line twice.
  dup_types=$(grep '^# TYPE ' target/obs_metrics_body.txt | sort | uniq -d)
  if [[ -n "$dup_types" ]]; then
    echo "obs smoke: /v1/metrics declares a family twice:" >&2
    echo "$dup_types" >&2
    exit 1
  fi
  # Well-formedness: every non-comment line is `name[{labels}] value`.
  if grep -vE '^(#.*)?$' target/obs_metrics_body.txt        | grep -qvE '^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? -?[0-9]+(\.[0-9]+)?([eE][+-]?[0-9]+)?$'; then
    echo "obs smoke: /v1/metrics has malformed exposition lines:" >&2
    grep -vE '^(#.*)?$' target/obs_metrics_body.txt          | grep -vE '^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? -?[0-9]+(\.[0-9]+)?([eE][+-]?[0-9]+)?$' >&2
    exit 1
  fi
  printf '  ok /v1/metrics: well-formed exposition with http, shed, simcache, and batch families, none twice\n'
}

if [[ "$mode" == "obs-smoke" ]]; then
  obs_smoke
  exit 0
fi

trace_smoke() {
  # The causal-tracing gate (docs/OBSERVABILITY.md): the exported file
  # must be valid Chrome trace_event JSON whose only phases are complete
  # spans ("X") and fault instants ("i"), and GET /v1/trace must answer
  # over a real socket with the client's X-Request-Id echoed back and the
  # request access-logged as one strict-JSON line (serve --log-json).
  step "trace smoke (--trace-out export + /v1/trace)"
  cargo build --release -q
  local bin=target/release/thirstyflops
  mkdir -p target
  "$bin" rank --json --trace-out target/trace_on.trace > /dev/null 2>&1

  # The export is valid Chrome trace_event JSON attributing the
  # workload sub-stages (python3 when available, grep otherwise).
  if command -v python3 >/dev/null 2>&1; then
    python3 - target/trace_on.trace <<'PY'
import json, sys
doc = json.load(open(sys.argv[1]))
events = doc["traceEvents"]
assert events, "trace has no events"
bad = [e["ph"] for e in events if e["ph"] not in ("X", "i")]
assert not bad, f"unexpected phases: {bad}"
names = {e["name"] for e in events}
missing = {"trace_gen", "cluster_sim", "power_model"} - names
assert not missing, f"trace missing stages: {missing}"
PY
  else
    for needle in '"traceEvents"' '"name":"trace_gen"' '"name":"cluster_sim"'; do
      if ! grep -q -- "$needle" target/trace_on.trace; then
        echo "trace smoke: export is missing $needle" >&2
        exit 1
      fi
    done
    if grep -o '"ph":"[^"]*"' target/trace_on.trace | grep -vq '"ph":"[Xi]"'; then
      echo "trace smoke: export has phases other than X and i" >&2
      exit 1
    fi
  fi
  printf '  ok --trace-out: valid Chrome JSON with workload stages\n'

  # /v1/trace + X-Request-Id echo + --log-json over raw TCP.
  "$bin" serve --addr 127.0.0.1:0 --workers 1 --log-json     > target/trace_serve_banner.txt 2> target/trace_access_log.txt &
  local server_pid=$!
  local addr=""
  for _ in $(seq 1 100); do
    addr=$(sed -n 's#^listening on http://\([0-9.:]*\) .*#\1#p' target/trace_serve_banner.txt)
    [[ -n "$addr" ]] && break
    sleep 0.1
  done
  if [[ -z "$addr" ]]; then
    kill "$server_pid" 2>/dev/null || true
    echo "trace smoke: server never printed its bound address" >&2
    exit 1
  fi
  exec 3<>"/dev/tcp/${addr%:*}/${addr##*:}"
  printf 'GET /v1/trace?last=32 HTTP/1.1\r\nHost: ci\r\nX-Request-Id: ci-trace-1\r\nConnection: close\r\n\r\n' >&3
  cat <&3 > target/trace_endpoint_raw.txt
  exec 3<&- 3>&-
  kill "$server_pid" 2>/dev/null || true
  wait "$server_pid" 2>/dev/null || true

  for needle in 'HTTP/1.1 200' 'Content-Type: application/json'     'X-Request-Id: ci-trace-1' '"traceEvents"'; do
    if ! grep -qF -- "$needle" target/trace_endpoint_raw.txt; then
      echo "trace smoke: /v1/trace response is missing $needle" >&2
      exit 1
    fi
  done
  if ! grep -qF '"trace":"ci-trace-1","endpoint":"trace","status":200' target/trace_access_log.txt; then
    echo "trace smoke: --log-json never logged the traced request:" >&2
    cat target/trace_access_log.txt >&2
    exit 1
  fi
  printf '  ok /v1/trace: 200 Chrome JSON, id echoed, request access-logged\n'
}

if [[ "$mode" == "trace-smoke" ]]; then
  trace_smoke
  exit 0
fi

chaos_smoke() {
  # The robustness gate (docs/ROBUSTNESS.md): replay the recorded bench
  # mix under the committed fault plan — injected panics, latency past
  # the deadline, truncated and stalled writes, accept-time drops,
  # simcache poisoning — at --workers 1, 8, and 1 again. Fail-closed:
  # every 200 is byte-verified, every fault must be recovered by the
  # client's bounded retries, and the chaos accounting (attempts,
  # retries, per-site injected counts) must be bit-identical across all
  # three runs: the fault schedule is a pure function of the plan seed
  # and the visit counts, never of thread interleaving.
  step "chaos smoke (loadgen --chaos at --workers 1, 8, 1)"
  cargo build --release -q
  local bin=target/release/thirstyflops
  mkdir -p target
  local runs=(1 8 1) workers
  for i in "${!runs[@]}"; do
    workers="${runs[$i]}"
    "$bin" loadgen --mix examples/loadmix/bench.json       --requests 300 --connections 6 --workers "$workers"       --retries 32 --request-timeout 2000       --chaos examples/faults/smoke.json --json       > "target/chaos_smoke_$i.json"
    for needle in '"mismatches": 0' '"errors": 0' '"unrecovered": 0'; do
      if ! grep -qF -- "$needle" "target/chaos_smoke_$i.json"; then
        echo "chaos smoke: run $i (workers $workers) violated $needle" >&2
        exit 1
      fi
    done
    # The deterministic tail: everything from the chaos key on (the
    # load section above it legitimately carries wall-clock numbers).
    sed -n '/"chaos":/,$p' "target/chaos_smoke_$i.json" > "target/chaos_section_$i.json"
    if ! grep -q '"injected"' "target/chaos_section_$i.json"; then
      echo "chaos smoke: run $i has no per-site fault accounting" >&2
      exit 1
    fi
    # Poisoned workload lookups are the one runtime path where a served
    # workload year is recomputed (and the response then byte-verified),
    # so the replay must hit it.
    local poisoned
    poisoned=$(grep -A1 '"site": "simcache_poison"' "target/chaos_section_$i.json" \
      | sed -n 's/.*"injected": \([0-9]*\).*/\1/p')
    if [[ -z "$poisoned" || "$poisoned" -lt 1 ]]; then
      echo "chaos smoke: run $i injected no simcache_poison fault (got '${poisoned}')" >&2
      exit 1
    fi
  done
  for i in 1 2; do
    if ! cmp -s target/chaos_section_0.json "target/chaos_section_$i.json"; then
      echo "chaos smoke: chaos accounting differs between run 0 and run $i:" >&2
      diff target/chaos_section_0.json "target/chaos_section_$i.json" >&2 || true
      exit 1
    fi
  done
  printf '  ok chaos replay: 0 mismatches, simcache_poison fired, accounting bit-identical at workers 1, 8, 1\n'
}

if [[ "$mode" == "chaos-smoke" ]]; then
  chaos_smoke
  exit 0
fi

if [[ "$mode" == "bench-json" ]]; then
  # The tracked bench numbers: perfbench's record line (the second-to-
  # last stdout line; `sed -n 'x;$p'` prints it) for each workload that
  # BENCHMARK.json declares, untraced and traced.
  records=()
  for workload in $(sed -n '/"workloads"/,/]/s/.*"name": "\([a-z_]*\)".*/\1/p' BENCHMARK.json); do
    for trace in 0 1; do
      step "bash perfbench/run.sh --workload $workload --trace $trace"
      records+=("$(bash perfbench/run.sh --workload "$workload" --trace "$trace" | sed -n 'x;$p')")
    done
  done
  printf '%s\n' "${records[@]}" | sed '1s/^/[\n/; $!s/$/,/; $s/$/\n]/' > BENCH_perfbench.json
  printf '  ok %d records -> BENCH_perfbench.json\n' "${#records[@]}"
  exit 0
fi

step "cargo fmt --check"
cargo fmt --all --check

fanout_check

step "cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

if [[ "$mode" != "quick" ]]; then
  step "cargo build --release"
  cargo build --release

  # perfbench links the repository's public APIs from its own workspace,
  # so nothing above compiles it; build, test and digest-check it here so
  # a change that drops an API it probes, or alters an output byte it
  # verifies, fails the gate instead of the benchmark. The target
  # directory is the one perfbench/run.sh builds into.
  step "cargo build --release --offline --manifest-path perfbench/Cargo.toml"
  CARGO_TARGET_DIR=target cargo build --release --offline --manifest-path perfbench/Cargo.toml
  step "cargo test --release --offline --manifest-path perfbench/Cargo.toml"
  CARGO_TARGET_DIR=target cargo test --release --offline --manifest-path perfbench/Cargo.toml
  step "bash perfbench/run.sh --check"
  bash perfbench/run.sh --check
fi

# The determinism contract (docs/CONCURRENCY.md) promises bit-identical
# results at every thread count: the full gate runs the whole suite
# sequentially *and* at the default (auto-detected) worker count so any
# divergence — including golden drift — fails it. Quick mode keeps its
# fastest-signal promise with a single default-count pass.
if [[ "$mode" != "quick" ]]; then
  step "cargo test -q (THIRSTYFLOPS_THREADS=1, sequential)"
  THIRSTYFLOPS_THREADS=1 cargo test -q --workspace
fi

step "cargo test -q (default thread count)"
cargo test -q --workspace

# libtest runs as many tests at once as the host has CPUs, so on a
# 1-CPU runner two tests that share process-global state (span and
# trace switches, counters) never overlap. A pass at four test threads
# catches that class of race on any host; a pass at one test thread
# catches the converse: a test that passes only because a sibling
# running beside it moved some shared state first.
if [[ "$mode" != "quick" ]]; then
  step "cargo test -q (--test-threads=4)"
  cargo test -q --workspace -- --test-threads=4
  step "cargo test -q (--test-threads=1, one test at a time)"
  cargo test -q --workspace -- --test-threads=1
fi

if [[ "$mode" != "quick" ]]; then
  # The passes above run the matrix against the debug binary; the
  # release binary is the one users and perfbench run.
  step "cargo test --release -q --test determinism (release binary)"
  cargo test --release -q --test determinism
  # The K-lane kernel's bit-identity oracles, compiled as users run the
  # kernel: an optimization that reorders a fold shows here first.
  step "cargo test --release -q (the K-lane kernel's bit-identity oracles)"
  cargo test --release -q --test batch --test scenario_oracle --test simcache
  cargo test --release -q -p thirstyflops_timeseries
  serve_smoke
  load_smoke
  obs_smoke
  trace_smoke
  chaos_smoke
fi

step "cargo doc --workspace --no-deps (warnings are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

step "OK"
