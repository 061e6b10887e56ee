#!/usr/bin/env bash
# Offline-first CI gate for the SSDRec workspace.
#
#   1. Deny-list: no Cargo.toml may name a registry dependency — only
#      workspace path crates (ssdrec-*) are allowed — the CLI's normal
#      dependency tree must not reach the retired ssdrec-ann crate, no
#      shipped package's normal dependency tree may reach ssdrec-testkit, no
#      file under crates/tensor/src but math.rs may call libm's exp, ln or
#      tanh, no file under crates/*/src but base's atomic_file.rs may call
#      rename( (every published file goes through its fsync), and the
#      SSDREC_* environment variables the code reads are exactly FAULTS,
#      POOL, PROP_SEED and THREADS (option creep fails).
#   2. cargo fmt --check
#   3. Offline release build of the whole workspace.
#   4. Offline test run: the tier-1 command itself, `cargo test -q`, which
#      covers the whole workspace through the root manifest's
#      default-members. Among its tests, tests/doc_citations.rs fails when
#      DESIGN.md, README.md or EXPERIMENTS.md cites a path, Rust name,
#      option, SSDREC_* variable, route, metric or fault site the code no
#      longer has. It runs with TMPDIR set to a fresh empty directory and
#      fails, naming them, if any ssdrec-* entry is left there.
#   5. Serve smoke: train a tiny checkpoint, serve it on an ephemeral
#      port, open a silent connection, issue one request over bash /dev/tcp
#      (no curl), assert a well-formed response that did not wait on the
#      silent connection, shut down cleanly within 10 s with it still open.
#      Two requests of different history lengths sent at once must answer
#      with the bytes each gets alone, batch_size aside — on the default
#      server, and on one worker lingering 500 ms while both arrive during
#      the linger of a batch of a third length.
#   6. Chaos smoke: re-serve the checkpoint with SSDREC_FAULTS arming one
#      read fault and one worker panic; retry until the response matches
#      the fault-free baseline byte-for-byte and /metrics reports the
#      recovery counters.
#   7. Hostile-body smoke: re-serve the checkpoint and POST a body of
#      10 000 '[' — it must get a 400, and /health and the baseline
#      /recommend bytes must still answer afterwards.
#   8. Thread determinism: the golden HR@10/NDCG@10 test, the graph
#      builder's, SSDRec stages' and backbones' pins and oracles (the
#      readout-only last block's wall among them), and CLI train runs of
#      SSDRec, SSDRec over BERT4Rec and the bare backbone must pass or
#      produce byte-identical metrics and checkpoints under
#      SSDREC_THREADS=1 and SSDREC_THREADS=4 (capped at the host's cores).
#   9. Kernel parity: the parity suite, which holds the production kernels
#      to the test-only oracle (the v2 kernel bits-contract), must have run
#      every tile build (portable, AVX2, AVX-512F) the host's CPU flags
#      name.
#  10. Pool identity: a CLI train run with the tensor pool on and one with
#      SSDREC_POOL=0 must emit byte-identical metric lines.
#  11. Scale smoke: SSDRec trains one epoch of beauty --scale 70 (~20 K
#      users) under `ulimit -v 2097152`; prints its wall time and peak RSS.
#  12. Hot-swap smoke: ingest the smoke profile into an append-only log,
#      retrain into a versioned checkpoint dir, serve CURRENT, capture a
#      baseline body, ingest a delta under an armed stream.append latency
#      fault, retrain again, POST /reload — the body must change and
#      /metrics must report swap_total:1 at the new model_version.
#  13. Out-of-core smoke: gen-data writes a columnar .ssdc file; `train
#      --data` runs off it — SSDRec, which builds the graph, and the bare
#      backbone (`--baseline`), which builds none — at 1 and 4 threads,
#      with byte-identical metric lines and checkpoints; and ingest
#      bulk-loads it into a log.
#  14. Training-scenario smoke: `train --contrastive` and `train --mgsd`
#      each run two epochs and must emit byte-identical metric lines at
#      SSDREC_THREADS=1 and --threads 4.
#  15. ssdrec-bench smoke: `table4 --fast` runs every method and writes
#      results/table4_fast.json with the CL4SRec and MGSD-WSS rows;
#      `data-scale --fast` runs the out-of-core phases end to end; the
#      batched analysis path (`fig1 --fast`, `fig4 --fast --users 3`) must
#      write byte-identical results/fig1_oup.csv and
#      results/fig4_case_study.csv under SSDREC_THREADS=1 and
#      SSDREC_THREADS=4 (capped at the host's cores); prints its wall time.
#  16. Repo benchmark: benchmark/probes and benchmark/driver build against
#      the working tree (removing a public item a probe times fails here
#      instead of silently nulling a per-layer metric), then
#      `benchmark/run.sh --smoke` runs every workload's correctness checks
#      and all seven probes at tiny sizes.
#  17. Line-count ledger: the Rust lines ROADMAP item 8 tracks, split into
#      shipped code, inline #[cfg(test)] modules, crates/testkit and the
#      test directories (the counting rule is written at the stage), the
#      line counts of DESIGN.md and README.md beside it, and a check that
#      the run left `git status` as it found it.
#
# Everything runs with CARGO_NET_OFFLINE=true: any attempt to reach the
# registry fails the build immediately.

set -euo pipefail
cd "$(dirname "$0")/.."

export CARGO_NET_OFFLINE=true
STATUS_BEFORE=$(git status --porcelain 2>/dev/null || true)
SMOKE_DIR=target/ssdrec-smoke
mkdir -p "$SMOKE_DIR"
SMOKE_FLAGS="--profile beauty --scale 0.03 --dim 8 --max-len 12 --seed 7"
SERVER_PID=""

# die MESSAGE: fail the run, taking a still-running smoke server down too.
die() {
    echo "FAILED: $*"
    [ -z "$SERVER_PID" ] || kill "$SERVER_PID" 2>/dev/null || true
    exit 1
}

# start_server NAME SERVE_ARGS...: `ssdrec serve` on an ephemeral port in
# the background, logging to $SMOKE_DIR/NAME.log. Sets SERVER_PID and PORT
# once the server has announced its address. Environment assignments in
# front of the call (SSDREC_FAULTS=...) reach the server.
start_server() {
    local name=$1 addr=""
    shift
    ./target/release/ssdrec serve "$@" --addr 127.0.0.1:0 >"$SMOKE_DIR/$name.log" 2>&1 &
    SERVER_PID=$!
    for _ in $(seq 1 300); do
        addr=$(sed -n 's#^serving on http://##p' "$SMOKE_DIR/$name.log" | head -1)
        [ -n "$addr" ] && break
        sleep 0.1
    done
    [ -n "$addr" ] || die "$name: server did not announce its address"
    PORT=${addr##*:}
}

# http_body METHOD PATH: one request to the smoke server over bash's
# /dev/tcp (the workspace has no curl dependency); prints the response body.
http_body() {
    exec 3<>"/dev/tcp/127.0.0.1/$PORT"
    printf '%s %s HTTP/1.1\r\nHost: ci\r\nContent-Length: 0\r\nConnection: close\r\n\r\n' "$1" "$2" >&3
    awk 'body {print} /^\r?$/ {body=1}' <&3
    exec 3<&- 3>&-
}

# http_status METHOD PATH BODY: send BODY (ASCII) in one request to the
# smoke server; prints the response's status code.
http_status() {
    exec 3<>"/dev/tcp/127.0.0.1/$PORT"
    printf '%s %s HTTP/1.1\r\nHost: ci\r\nContent-Length: %s\r\nConnection: close\r\n\r\n%s' \
        "$1" "$2" "${#3}" "$3" >&3
    awk 'NR == 1 {print $2}' <&3
    exec 3<&- 3>&-
}

# stop_server: POST /shutdown and wait, at most 10 s, for a clean exit.
stop_server() {
    local status=0
    http_body POST /shutdown >/dev/null
    for _ in $(seq 1 100); do
        kill -0 "$SERVER_PID" 2>/dev/null || break
        sleep 0.1
    done
    ! kill -0 "$SERVER_PID" 2>/dev/null || die "server did not exit within 10 s of /shutdown"
    wait "$SERVER_PID" || status=$?
    [ "$status" -eq 0 ] || die "server exited with status $status"
    SERVER_PID=""
}

# train_metrics OUT TRAIN_ARGS...: the metric lines of one CLI train run.
# Environment assignments in front of the call reach the trainer.
train_metrics() {
    local out=$1
    shift
    ./target/release/ssdrec train "$@" | grep -E '^(data|valid|test)' >"$out"
}

# seq=1 is the only history guaranteed to be in range: the tiny smoke
# dataset can 5-core down to a catalogue of just a couple of items.
RECOMMEND='/recommend?user=0&seq=1&k=5'

echo "== registry-dependency deny-list =="
# Collect dependency names from every [*dependencies] section. A dependency
# is acceptable only if it is an ssdrec-* path crate (directly or via
# workspace = true).
fail=0
while IFS= read -r manifest; do
    deps=$(awk '
        /^\[/ { in_deps = ($0 ~ /dependencies\]$/ || $0 ~ /dependencies\./) }
        in_deps && /^[A-Za-z0-9_-]+[ \t]*=/ {
            split($0, kv, "=");
            gsub(/[ \t]/, "", kv[1]);
            print kv[1];
        }
    ' "$manifest")
    for dep in $deps; do
        case "$dep" in
            ssdrec-*|version|edition|description) ;;
            *)
                echo "FORBIDDEN: registry dependency \`$dep\` in $manifest"
                fail=1
                ;;
        esac
    done
done < <(find . -path ./target -prune -o -name Cargo.toml -print)
if [ "$fail" -ne 0 ]; then
    echo "deny-list check FAILED: the workspace must stay registry-free"
    exit 1
fi
echo "ok: no registry dependencies"
# ANN retrieval left the product; its crate stays a workspace member only
# for the benchmark's probe_ann.
CLI_TREE=$(cargo tree --offline -e normal -p ssdrec-cli)
if printf '%s\n' "$CLI_TREE" | grep -q 'ssdrec-ann'; then
    die "the ssdrec CLI depends on ssdrec-ann again"
fi
echo "ok: the CLI does not link ssdrec-ann"
# The test substrate sits above the product: every crate takes it as a
# dev-dependency only, so no shipped package may reach it through any chain
# of normal dependencies.
for pkg in ssdrec ssdrec-cli ssdrec-bench ssdrec-ann; do
    TREE=$(cargo tree --offline -e normal -p "$pkg")
    if grep -q 'ssdrec-testkit' <<<"$TREE"; then
        die "$pkg links ssdrec-testkit through a normal dependency"
    fi
done
echo "ok: no shipped package links ssdrec-testkit"
# Kernel bits must not depend on the host's C library: every exp, ln and
# tanh in the tensor crate is math.rs's. A float method call (`x.exp()`, no
# argument — graph ops such as `g.exp(v)` take one) or an `f32::exp` path
# anywhere else brings libm-dependent bits back.
LIBM_CALLS=$(grep -rnE '\.(exp|ln|tanh)\(\)|f32::(exp|ln|tanh)\b' crates/tensor/src --include='*.rs' |
    grep -v '^crates/tensor/src/math\.rs:' || true)
if [ -n "$LIBM_CALLS" ]; then
    printf '%s\n' "$LIBM_CALLS"
    die "libm transcendentals in crates/tensor/src outside math.rs (call crate::math instead)"
fi
echo "ok: crates/tensor's transcendentals all go through math.rs"
# A file published by anything but the one atomic writer skips its fsync:
# after a power loss the rename could name bytes that never reached disk.
RENAMES=$(grep -rnE '\brename\(' crates/*/src --include='*.rs' |
    grep -v '^crates/base/src/atomic_file\.rs:' || true)
if [ -n "$RENAMES" ]; then
    printf '%s\n' "$RENAMES"
    die "rename( outside crates/base/src/atomic_file.rs (publish through ssdrec_base::atomic_file)"
fi
echo "ok: every rename( in crates/*/src is the atomic writer's"
# Every environment variable is an option nobody sees in --help: the set
# the code spells may only change together with this line.
ENV_WANT="FAULTS POOL PROP_SEED THREADS"
ENV_GOT=$(grep -rhoE '"SSDREC_[A-Z_]+"' crates src tests | tr -d '"' | sed 's/^SSDREC_//' |
    sort -u | tr '\n' ' ' | sed 's/ $//')
if [ "$ENV_GOT" != "$ENV_WANT" ]; then
    diff <(tr ' ' '\n' <<<"$ENV_WANT") <(tr ' ' '\n' <<<"$ENV_GOT") || true
    die "SSDREC_* variables changed: want $ENV_WANT, the code reads $ENV_GOT"
fi
echo "ok: the code reads SSDREC_{${ENV_WANT// /,}} and no other SSDREC_* variable"

echo "== cargo fmt --check =="
cargo fmt --all -- --check

echo "== offline release build =="
cargo build --release --workspace

echo "== offline tests =="
# Under a fresh, empty TMPDIR: a test that leaves an ssdrec-* scratch entry
# in the system temp directory (rather than holding it in an
# ssdrec_testkit::TempDir, which removes it on drop) fails the stage.
TEST_TMP=$(mktemp -d "$PWD/$SMOKE_DIR/tmpdir.XXXXXX")
TMPDIR="$TEST_TMP" cargo test -q
LEFT=$(find "$TEST_TMP" -mindepth 1 -maxdepth 1 -name 'ssdrec-*' -printf '%f\n' | sort | tr '\n' ' ')
[ -z "$LEFT" ] || die "tests left temp entries behind in $TEST_TMP: $LEFT"
rm -rf "$TEST_TMP"
echo "ok: the tests left no ssdrec-* entry in their temp directory"

echo "== serve smoke =="
./target/release/ssdrec train $SMOKE_FLAGS --epochs 1 --out "$SMOKE_DIR/ckpt.ssdt" >/dev/null
start_server serve $SMOKE_FLAGS --model "$SMOKE_DIR/ckpt.ssdt"
# A silent client: connected, never sends a byte, open until the server is
# gone. It pins only the thread that accepted it (for the 30 s read
# timeout); the baseline request and the server's exit must not wait on it.
exec 4<>"/dev/tcp/127.0.0.1/$PORT"
sleep 0.2
START=$SECONDS
# Scores are bit-identical across server instances of the same checkpoint,
# so this body is the baseline of the chaos and hostile-body smokes.
BASELINE=$(http_body GET "$RECOMMEND")
[ $((SECONDS - START)) -lt 10 ] || die "serve smoke: the request waited on a silent connection"
printf '%s' "$BASELINE" | grep -q '"items":\[' || die "serve smoke: malformed response: $BASELINE"
# Two histories of different lengths in flight at once on the default
# configuration: a worker takes one length per forward pass, so each must
# come back with the bytes it gets alone, batch_size aside. Both requests
# are written before either answer is read; the cache starts cold for both
# users, and two length-1 requests replace their entries before the
# requests are repeated alone.
PAIR=('/recommend?user=1&seq=1,2,1&k=5' '/recommend?user=2&seq=2,1&k=5')
exec 5<>"/dev/tcp/127.0.0.1/$PORT" 6<>"/dev/tcp/127.0.0.1/$PORT"
printf 'GET %s HTTP/1.1\r\nHost: ci\r\nContent-Length: 0\r\nConnection: close\r\n\r\n' "${PAIR[0]}" >&5
printf 'GET %s HTTP/1.1\r\nHost: ci\r\nContent-Length: 0\r\nConnection: close\r\n\r\n' "${PAIR[1]}" >&6
TOGETHER=("$(awk 'body {print} /^\r?$/ {body=1}' <&5)" "$(awk 'body {print} /^\r?$/ {body=1}' <&6)")
exec 5<&- 5>&- 6<&- 6>&-
http_body GET '/recommend?user=1&seq=1&k=5' >/dev/null
http_body GET '/recommend?user=2&seq=1&k=5' >/dev/null
ALONE=()
for i in 0 1; do
    ALONE[i]=$(http_body GET "${PAIR[$i]}")
    printf '%s' "${ALONE[$i]}" | grep -q '"items":\[' || die "serve smoke: malformed response: ${ALONE[$i]}"
    [ "$(sed 's/"batch_size":[0-9]*//' <<<"${TOGETHER[$i]}")" = "$(sed 's/"batch_size":[0-9]*//' <<<"${ALONE[$i]}")" ] ||
        die "serve smoke: ${PAIR[$i]} answered ${TOGETHER[$i]} beside a request of another length, ${ALONE[$i]} alone"
done
stop_server
exec 4<&- 4>&-
echo "ok: served a request beside a silent connection on port $PORT and shut down cleanly"
echo "ok: two concurrent requests of different lengths answered with the bytes each gets alone"
# Two idle workers may take the pair one request each, which says nothing
# about how a take groups lengths. On one worker lingering 500 ms, eight
# length-5 requests put a batch of them into a linger, and the pair
# arrives during it: a take that let other lengths join would run all of
# them in one forward. Each pair answer must still be its alone bytes.
# Whether a burst queues together is timing (the server accepts it one
# connection at a time), so it is tried three times, each with histories
# the cache has not seen.
start_server take $SMOKE_FLAGS --model "$SMOKE_DIR/ckpt.ssdt" --workers 1 --linger-ms 500
# send_burst SEQ: sixteen length-5 requests, written back to back on
# sixteen fresh connections, from the smoke data's users other than the
# pair's (it has nine); leaves their descriptors in BLOCKERS.
send_burst() {
    local users=(0 3 4 5 6 7 8)
    BLOCKERS=()
    for _ in $(seq 16); do
        exec {fd}<>"/dev/tcp/127.0.0.1/$PORT"
        BLOCKERS+=("$fd")
    done
    for i in "${!BLOCKERS[@]}"; do
        printf 'GET /recommend?user=%s&seq=%s&k=5 HTTP/1.1\r\nHost: ci\r\nContent-Length: 0\r\nConnection: close\r\n\r\n' \
            "${users[i % 7]}" "$1" >&"${BLOCKERS[$i]}"
    done
}
drain_burst() {
    for fd in "${BLOCKERS[@]}"; do
        cat <&"$fd" >/dev/null
        exec {fd}<&- {fd}>&-
    done
}
# The first burst only leaves idle acceptors behind (the server keeps up
# to 16), so that later bursts are parsed in parallel.
send_burst 1,1,1,1,1
drain_burst
for burst in 2,1,1,1,1 1,2,1,1,1 1,1,2,1,1; do
    send_burst "$burst"
    sleep 0.1
    exec 5<>"/dev/tcp/127.0.0.1/$PORT" 6<>"/dev/tcp/127.0.0.1/$PORT"
    printf 'GET %s HTTP/1.1\r\nHost: ci\r\nContent-Length: 0\r\nConnection: close\r\n\r\n' "${PAIR[0]}" >&5
    printf 'GET %s HTTP/1.1\r\nHost: ci\r\nContent-Length: 0\r\nConnection: close\r\n\r\n' "${PAIR[1]}" >&6
    TOGETHER=("$(awk 'body {print} /^\r?$/ {body=1}' <&5)" "$(awk 'body {print} /^\r?$/ {body=1}' <&6)")
    exec 5<&- 5>&- 6<&- 6>&-
    drain_burst
    for i in 0 1; do
        [ "$(sed 's/"batch_size":[0-9]*//' <<<"${TOGETHER[$i]}")" = "$(sed 's/"batch_size":[0-9]*//' <<<"${ALONE[$i]}")" ] ||
            die "serve smoke: ${PAIR[$i]} answered ${TOGETHER[$i]} during a lingering batch of another length on one worker, ${ALONE[$i]} alone"
    done
    # Evict the pair's cache entries for the next burst.
    http_body GET '/recommend?user=1&seq=1&k=5' >/dev/null
    http_body GET '/recommend?user=2&seq=1&k=5' >/dev/null
done
stop_server
echo "ok: on one lingering worker, requests of other lengths did not join a batch"

echo "== chaos smoke (SSDREC_FAULTS: injected faults + recovery) =="
SSDREC_FAULTS="serve.read:error:1,engine.batch:panic:1" \
    start_server chaos $SMOKE_FLAGS --model "$SMOKE_DIR/ckpt.ssdt" --workers 1 --cache 0
# Retry through the armed plan: one attempt dies on the injected read
# fault, one panics the worker mid-batch, and the respawned worker must
# then serve the exact baseline bytes.
BODY=""
TRIES=0
for _ in $(seq 1 20); do
    TRIES=$((TRIES + 1))
    BODY=$(http_body GET "$RECOMMEND" 2>/dev/null) || true
    [ "$BODY" = "$BASELINE" ] && break
    sleep 0.1
done
[ "$BODY" = "$BASELINE" ] ||
    die "chaos smoke: no recovery to the baseline after $TRIES attempts; baseline: $BASELINE; last: $BODY"
METRICS=$(http_body GET /metrics)
for want in '"worker_panics":1' '"injected_total":2'; do
    printf '%s' "$METRICS" | grep -qF "$want" || die "chaos smoke: /metrics missing $want: $METRICS"
done
stop_server
echo "ok: recovered to baseline bytes in $TRIES attempt(s); worker respawned after injected panic"

echo "== hostile-body smoke (10 000-deep JSON nesting) =="
# One parser recursion per '[' would run the connection thread off its
# stack and abort the whole server; past the parser's depth bound the body
# is a typed 400 and the server keeps serving.
start_server hostile $SMOKE_FLAGS --model "$SMOKE_DIR/ckpt.ssdt"
DEEP=$(printf '%10000s' '' | tr ' ' '[')
STATUS=$(http_status POST /recommend "$DEEP")
[ "$STATUS" = 400 ] || die "hostile-body smoke: a 10 000-deep body got status '$STATUS', not 400"
http_body GET /health | grep -qF '"status":"ok"' ||
    die "hostile-body smoke: /health did not answer after the deep body"
BODY=$(http_body GET "$RECOMMEND")
[ "$BODY" = "$BASELINE" ] ||
    die "hostile-body smoke: /recommend diverged from the baseline; baseline: $BASELINE; got: $BODY"
stop_server
echo "ok: a 10 000-deep body is a 400; /health and the baseline bytes still answer"

echo "== thread determinism (golden metrics at 1 vs 4 threads) =="
# The golden test pins exact f64 metrics; it must pass under both thread
# counts — any parallel kernel that reorders a float sum fails it.
SSDREC_THREADS=1 cargo test --release -q --test golden_determinism
SSDREC_THREADS=4 cargo test --release -q --test golden_determinism
# The fused ops against their unfused oracles and finite differences, with
# the gemms inside them run sequentially and row-partitioned.
SSDREC_THREADS=1 cargo test --release -q -p ssdrec-tensor --test backend_parity --test grad_layers
SSDREC_THREADS=4 cargo test --release -q -p ssdrec-tensor --test backend_parity --test grad_layers
# The row-parallel graph builder against its pins and its sort-and-merge
# oracle, SSDRec's stages (sparse stage 1, the sequence-chunked Bi-LSTMs)
# and the backbones (the readout-only last block against the full stack)
# against theirs, run sequentially and over four threads (capped at the
# host's cores).
SSDREC_THREADS=1 cargo test --release -q -p ssdrec-graph -p ssdrec-core -p ssdrec-models
SSDREC_THREADS=4 cargo test --release -q -p ssdrec-graph -p ssdrec-core -p ssdrec-models
# And CLI train runs — SSDRec, SSDRec over BERT4Rec, the bare backbone —
# must emit byte-identical metric lines and checkpoint bytes either way.
for run in ssdrec:"" bert4rec:"--backbone BERT4Rec" baseline:"--baseline"; do
    name=${run%%:*}
    SSDREC_THREADS=1 train_metrics "$SMOKE_DIR/metrics_${name}_t1.txt" $SMOKE_FLAGS ${run#*:} \
        --epochs 1 --out "$SMOKE_DIR/ckpt_${name}_t1.ssdt"
    train_metrics "$SMOKE_DIR/metrics_${name}_t4.txt" $SMOKE_FLAGS ${run#*:} --epochs 1 \
        --threads 4 --out "$SMOKE_DIR/ckpt_${name}_t4.ssdt"
    diff -u "$SMOKE_DIR/metrics_${name}_t1.txt" "$SMOKE_DIR/metrics_${name}_t4.txt" ||
        die "thread determinism: $name metrics differ between 1 and 4 threads"
    cmp "$SMOKE_DIR/ckpt_${name}_t1.ssdt" "$SMOKE_DIR/ckpt_${name}_t4.ssdt" ||
        die "thread determinism: $name checkpoints differ between 1 and 4 threads"
done
echo "ok: golden + CLI metrics and checkpoints identical at 1 and 4 threads"

echo "== kernel parity (every tile build the host runs vs the oracle) =="
# The gemm tile, the softmax exponentials and the LSTM passes are compiled
# once per instruction set and the widest the host runs is picked at run
# time; the parity suite holds every build the host can run to the oracle
# and names them. A build the CPU flags promise but the suite skipped fails
# here.
COVERED=$(cargo test --release -q -p ssdrec-tensor --test backend_parity \
    every_tile_build_matches_the_oracle -- --nocapture | sed -n 's/^tile builds covered: //p')
echo "tile builds covered: $COVERED"
printf '%s' "$COVERED" | grep -qw portable || die "kernel parity: the portable tile build did not run"
for isa in avx2 avx512f; do
    if grep -qw "$isa" /proc/cpuinfo 2>/dev/null && ! printf '%s' "$COVERED" | grep -qw "$isa"; then
        die "kernel parity: the host has $isa but the parity suite did not run that tile build"
    fi
done
echo "ok: tile builds $COVERED match the oracle"

echo "== pool identity (pooled vs fresh CLI metrics) =="
# The step-scoped buffer pool must never change a bit of output.
train_metrics "$SMOKE_DIR/metrics_pooled.txt" $SMOKE_FLAGS --epochs 1 \
    --out "$SMOKE_DIR/ckpt_pooled.ssdt"
SSDREC_POOL=0 train_metrics "$SMOKE_DIR/metrics_fresh.txt" $SMOKE_FLAGS --epochs 1 \
    --out "$SMOKE_DIR/ckpt_fresh.ssdt"
diff -u "$SMOKE_DIR/metrics_pooled.txt" "$SMOKE_DIR/metrics_fresh.txt" ||
    die "pool identity: metrics differ between pooled and fresh runs"
cmp "$SMOKE_DIR/ckpt_pooled.ssdt" "$SMOKE_DIR/ckpt_fresh.ssdt" ||
    die "pool identity: checkpoints differ between pooled and fresh runs"
echo "ok: pooled and fresh metrics and checkpoints byte-identical"

echo "== SSDRec at scale (beauty --scale 70 under a 2 GiB address-space limit) =="
# Stage 1's seven relation operators are sparse, so a catalogue of ~20 K
# users × ~5.6 K items trains in a few hundred MiB; one dense U×U operator
# alone would need 1.6 GB. Prints the wall time and the peak RSS (VmHWM,
# polled while the run lives).
SCALE_LOG=$SMOKE_DIR/scale70.txt
t0=$(date +%s%N)
(ulimit -v 2097152 && exec ./target/release/ssdrec train --profile beauty --scale 70 \
    --epochs 1 --batch-size 256) >"$SCALE_LOG" 2>&1 &
SCALE_PID=$!
PEAK_KIB=0
while HWM=$(awk '/^VmHWM:/ {print $2}' "/proc/$SCALE_PID/status" 2>/dev/null) && [ -n "$HWM" ]; do
    [ "$HWM" -gt "$PEAK_KIB" ] && PEAK_KIB=$HWM
    sleep 0.2
done
wait "$SCALE_PID" || die "scale-70 train failed under the 2 GiB limit: see $SCALE_LOG"
grep -q '^test ' "$SCALE_LOG" || die "scale-70 train printed no test metrics: see $SCALE_LOG"
echo "ok: $(head -1 "$SCALE_LOG"); wall $(( ($(date +%s%N) - t0) / 1000000 )) ms, peak RSS $((PEAK_KIB / 1024)) MiB"

echo "== hot-swap smoke (ingest → retrain → serve --ckpt-dir → /reload) =="
STREAM_DIR=$SMOKE_DIR/stream
rm -rf "$STREAM_DIR"
mkdir -p "$STREAM_DIR"
STREAM_LOG="$STREAM_DIR/events.sslg"
STREAM_CKPTS="$STREAM_DIR/ckpts"
RETRAIN_FLAGS="--epochs 1 --dim 8 --max-len 12 --seed 7 --batch-size 32"
# Day 0: bulk-load the smoke profile into the append-only log, publish v1.
./target/release/ssdrec ingest --log "$STREAM_LOG" $SMOKE_FLAGS >/dev/null
./target/release/ssdrec retrain --log "$STREAM_LOG" --ckpt-dir "$STREAM_CKPTS" \
    $RETRAIN_FLAGS >/dev/null
start_server swap --ckpt-dir "$STREAM_CKPTS" --log "$STREAM_LOG" --workers 1 --cache 0
V1_BODY=$(http_body GET "$RECOMMEND")
[ -n "$V1_BODY" ] || die "hot-swap smoke: empty v1 baseline body"
# Day 1: a small delta lands while a stream.append latency fault is armed
# (the writer must absorb the injected stall without corrupting the log),
# then the incremental round publishes v2.
SSDREC_FAULTS="stream.append:delay50:1" \
    ./target/release/ssdrec ingest --log "$STREAM_LOG" \
    --events "0:1,1:2,2:1,0:2" >/dev/null
./target/release/ssdrec retrain --log "$STREAM_LOG" --ckpt-dir "$STREAM_CKPTS" \
    $RETRAIN_FLAGS >/dev/null
RELOAD=$(http_body POST /reload)
printf '%s' "$RELOAD" | grep -qF '"status":"swapped"' || die "hot-swap smoke: /reload did not swap: $RELOAD"
[ "$(http_body GET "$RECOMMEND")" != "$V1_BODY" ] ||
    die "hot-swap smoke: the served body did not change after the swap"
METRICS=$(http_body GET /metrics)
for want in '"swap_total":1' '"model_version":2' '"swap_failed_total":0'; do
    printf '%s' "$METRICS" | grep -qF "$want" || die "hot-swap smoke: /metrics missing $want: $METRICS"
done
stop_server
echo "ok: hot-swapped v1 → v2 with zero downtime; /metrics reports the swap"

echo "== out-of-core smoke (gen-data → train --data → ingest --data) =="
OOC_DIR=$SMOKE_DIR/ooc
rm -rf "$OOC_DIR"
mkdir -p "$OOC_DIR"
OOC_FILE="$OOC_DIR/smoke.ssdc"
./target/release/ssdrec gen-data --profile beauty --scale 0.1 --seed 7 \
    --out "$OOC_FILE" >/dev/null
test -f "$OOC_FILE"
# The same columnar file trained at 1 thread and at 4 must emit
# byte-identical metric lines and checkpoints: the thread count may not
# cost a single bit of output. SSDRec builds the graph over the store; the
# bare backbone builds none.
for kind in ssdrec baseline; do
    flags="--data $OOC_FILE --epochs 1 --dim 8 --seed 7"
    [ "$kind" = baseline ] && flags="$flags --baseline"
    SSDREC_THREADS=1 train_metrics "$OOC_DIR/${kind}_t1.txt" $flags \
        --out "$OOC_DIR/${kind}_t1.ssdt"
    train_metrics "$OOC_DIR/${kind}_t4.txt" $flags --threads 4 \
        --out "$OOC_DIR/${kind}_t4.ssdt"
    diff -u "$OOC_DIR/${kind}_t1.txt" "$OOC_DIR/${kind}_t4.txt" ||
        die "out-of-core smoke: $kind metrics differ between 1 and 4 threads"
    cmp "$OOC_DIR/${kind}_t1.ssdt" "$OOC_DIR/${kind}_t4.ssdt" ||
        die "out-of-core smoke: $kind checkpoints differ between 1 and 4 threads"
done
# Bulk-load the columnar file into a fresh log; the record count must
# match the file's interaction count.
./target/release/ssdrec ingest --log "$OOC_DIR/events.sslg" --data "$OOC_FILE" \
    >"$OOC_DIR/ingest.txt"
grep -q '^created' "$OOC_DIR/ingest.txt"
echo "ok: SSDRec and baseline metrics and checkpoints byte-identical across threads; columnar bulk-load ingested"

echo "== training-scenario smoke (--contrastive / --mgsd at 1 vs 4 threads) =="
for sc in contrastive mgsd; do
    SSDREC_THREADS=1 train_metrics "$SMOKE_DIR/metrics_${sc}_t1.txt" $SMOKE_FLAGS --epochs 2 --$sc
    train_metrics "$SMOKE_DIR/metrics_${sc}_t4.txt" $SMOKE_FLAGS --epochs 2 --$sc --threads 4
    diff -u "$SMOKE_DIR/metrics_${sc}_t1.txt" "$SMOKE_DIR/metrics_${sc}_t4.txt" ||
        die "scenario smoke: --$sc metrics differ between 1 and 4 threads"
done
echo "ok: --contrastive and --mgsd metrics byte-identical at 1 and 4 threads"

echo "== ssdrec-bench smoke (table4, data-scale --fast, fig1/fig4 at 1 vs 4 threads) =="
# results/ is not under version control; a fresh checkout has none.
rm -f results/table4_fast.json
./target/release/ssdrec-bench table4 --fast >/dev/null
for want in DSAN FMLP-Rec HSD DCRec STEAM CL4SRec MGSD-WSS SSDRec; do
    grep -qF "\"model\":\"$want\"" results/table4_fast.json || die "table4 --fast: no $want row"
done
./target/release/ssdrec-bench data-scale --fast >/dev/null
echo "ok: table4_fast.json has a row per method; data-scale ran"
ANALYSIS_START=$SECONDS
for threads in 1 4; do
    SSDREC_THREADS=$threads ./target/release/ssdrec-bench fig1 --fast >/dev/null
    cp results/fig1_oup.csv "$SMOKE_DIR/fig1_oup_t$threads.csv"
    SSDREC_THREADS=$threads ./target/release/ssdrec-bench fig4 --fast --users 3 >/dev/null
    cp results/fig4_case_study.csv "$SMOKE_DIR/fig4_case_study_t$threads.csv"
done
for csv in fig1_oup fig4_case_study; do
    cmp "$SMOKE_DIR/${csv}_t1.csv" "$SMOKE_DIR/${csv}_t4.csv" ||
        die "batched analysis: results/$csv.csv differs between 1 and 4 threads"
done
echo "ok: fig1 and fig4 results byte-identical at 1 and 4 threads (+$((SECONDS - ANALYSIS_START)) s)"

echo "== repo benchmark (probes + driver API wall, then run.sh --smoke) =="
for pkg in probes driver; do
    CARGO_TARGET_DIR=$PWD/target cargo build --release --offline \
        --manifest-path "benchmark/$pkg/Cargo.toml" --bins
done
benchmark/run.sh --smoke >"$SMOKE_DIR/benchmark_smoke.log" ||
    die "benchmark/run.sh --smoke: see $SMOKE_DIR/benchmark_smoke.log"
echo "ok: benchmark/probes and benchmark/driver build; every workload check and probe passed"

echo "== line-count ledger + clean tree =="
# The ledger: every Rust line under crates, src and tests, in four
# disjoint counts.
#   shipped    crates/*/src and src, less the other two below;
#   inline     #[cfg(test)] modules in those files: each from a column-0
#              `#[cfg(test)]` line through the next column-0 `}`;
#   testkit    crates/testkit/src;
#   test dirs  every other .rs file: crates/*/tests and tests.
count_lines() { cat "$@" /dev/null | wc -l; }
PRODUCT=($(find crates/*/src src -name '*.rs' -not -path 'crates/testkit/*' | sort))
INLINE=$(awk 'FNR == 1 {t = 0} /^#\[cfg\(test\)\]/ {t = 1} t {n++} t && /^}/ {t = 0} END {print n + 0}' \
    "${PRODUCT[@]}")
TESTKIT=$(count_lines $(find crates/testkit/src -name '*.rs'))
ALL=$(count_lines $(find crates src tests -name '*.rs'))
SHIPPED=$(($(count_lines "${PRODUCT[@]}") - INLINE))
echo "rust lines: $ALL = shipped $SHIPPED + inline tests $INLINE + testkit $TESTKIT" \
    "+ test dirs $((ALL - SHIPPED - INLINE - TESTKIT))"
echo "doc lines: $(wc -l DESIGN.md README.md | tr '\n' ' ')"
STATUS_AFTER=$(git status --porcelain 2>/dev/null || true)
if [ "$STATUS_AFTER" != "$STATUS_BEFORE" ]; then
    echo "clean-tree check FAILED: CI changed the working tree"
    diff <(printf '%s\n' "$STATUS_BEFORE") <(printf '%s\n' "$STATUS_AFTER") || true
    exit 1
fi
echo "ok: git status unchanged by the run"

echo "CI: all checks passed"
