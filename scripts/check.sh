#!/usr/bin/env bash
# The full local gate: everything CI runs, in the order a developer
# wants failures reported (cheap formatting first would hide build
# breakage behind style noise, so build comes first).
set -euo pipefail
cd "$(dirname "$0")/.."

run() {
    echo "==> $*"
    "$@"
}

run cargo build --release --workspace
run cargo test -q --workspace
# The SHA-NI kernel again, optimized: the release build is what every
# bench and deployment runs.
run cargo test --release -q -p rap-crypto
# The benchmark package is a workspace of its own, so the run above
# never builds it. Building it and running its exact-repeat test here
# makes a change to a public type it reads fail this gate, not only the
# benchmark.
run cargo test --release --offline --manifest-path roundbench/Cargo.toml
run cargo fmt --all -- --check
run cargo clippy --workspace --all-targets -- -D warnings
RUSTDOCFLAGS="-D warnings" run cargo doc --no-deps --workspace

# The examples are living documentation — they must keep running, not
# just keep compiling.
run cargo run --release -q --example quickstart
run cargo run --release -q --example attack_detection
run cargo run --release -q --example partial_reports
run cargo run --release -q --example fleet_attestation
run cargo run --release -q --example offline_inspection
run cargo run --release -q --example syringe_audit

# Fuzz gate: a fixed-seed differential campaign (deterministic, so
# any failure here reproduces locally from the printed case seed). Its
# summary lands under target/ and must match the committed
# FUZZ_summary.json byte for byte, so a change that moves any verdict
# tally fails here instead of showing up only as a diff. Then the
# sabotage self-test proving the harness catches an injected MTB
# corruption (inverted semantics: exit 0 means the fault WAS caught).
FUZZ_DIR="$PWD/target/fuzz"
mkdir -p "$FUZZ_DIR"
run cargo run --release -q -p rap-cli --bin rap -- fuzz --seed 1 --iters 200 --json "$FUZZ_DIR/FUZZ_summary.json"
if ! cmp -s "$FUZZ_DIR/FUZZ_summary.json" "$PWD/FUZZ_summary.json"; then
    diff "$PWD/FUZZ_summary.json" "$FUZZ_DIR/FUZZ_summary.json" >&2 || true
    echo "fuzz gate: $FUZZ_DIR/FUZZ_summary.json differs from the committed $PWD/FUZZ_summary.json." >&2
    echo "fuzz gate: copy it over the committed file only when the tally change is intended." >&2
    exit 1
fi
# Completeness campaign: replay is a single pass that trusts the
# linker's quiet-cycle analysis (DESIGN.md §6 item 1), so a site the
# analysis misses rejects a benign run. The replay-fidelity oracle
# fails any generated benign program the verifier rejects; 2 000
# programs sample far more layouts than the 200 above.
run cargo run --release -q -p rap-cli --bin rap -- fuzz --seed 3 --iters 2000
run cargo run --release -q -p rap-cli --bin rap -- fuzz --seed 2 --iters 20 --sabotage

# Bench smoke: reduced configurations, but they still exercise the
# speedup/overhead assertions and regenerate the JSON artifacts. Their
# medians are noisy per run, so they land under target/bench/ (CI
# uploads them from there) instead of over the BENCH_*.json files
# committed in the repo root.
BENCH_DIR="$PWD/target/bench"
mkdir -p "$BENCH_DIR"
run cargo bench -p rap-bench --bench fleet -- --quick --json "$BENCH_DIR/BENCH_fleet.json"
run cargo bench -p rap-bench --bench figures -- --quick --json "$BENCH_DIR/BENCH_figures.json"
# Scaling gate: --enforce fails the run if the 4-thread fleet speedup
# drops below 1.5x (the bench itself skips the gate, with a note, on
# hosts with fewer than 4 cores — the pool cannot scale there).
run cargo bench -p rap-bench --bench scaling -- --quick --json "$BENCH_DIR/BENCH_scaling.json" --enforce
# Saturation gate: pipelined throughput at 8 clients must stay >= 3x
# the connection-per-round baseline on loopback.
run cargo bench -p rap-bench --bench serve -- --quick --json "$BENCH_DIR/BENCH_serve.json" --enforce
# Dictionary gate: on the loop-heavy workloads the mined sub-path
# dictionary must save >= 30% wire bytes and speed single-stream
# verification up by >= 1.15x (with replay equivalence asserted
# against the plain stream before anything is timed).
run cargo bench -p rap-bench --bench dict -- --quick --json "$BENCH_DIR/BENCH_dict.json" --enforce
# Fleet control plane scaling: pure registry+scheduler cost (no
# network) at 10/100/1000 devices, with p99 in-slot scheduling lag.
run cargo bench -p rap-bench --bench fleet_plane -- --quick --json "$BENCH_DIR/BENCH_fleet_plane.json"
# Audit gate: sealing every verdict and hash-chaining it to disk must
# cost <= 5% pipelined throughput at 8 clients (gated on multi-core
# hosts; seal/append/replay microbenches always run).
run cargo bench -p rap-bench --bench audit -- --quick --json "$BENCH_DIR/BENCH_audit.json" --enforce

# Serve smoke: one real loopback deployment of the attestation service
# with the telemetry plane bound (--admin). The server gets a
# three-connection budget (--limit 3) so it drains and exits on its
# own: a benign device runs a pipelined session, then reconnects with
# its resumption token and runs more rounds without a re-HELLO (exit 0,
# two connections), and a wrong-key prover must be rejected (exit 1,
# third connection). Between those, the admin endpoint is scraped live:
# `rap top --smoke` sandwich-checks the Prometheus and JSON renderings
# against each other and writes TELEMETRY_smoke.json (admin
# connections do not count against --limit).
SMOKE_DIR=$(mktemp -d)
trap 'rm -rf "$SMOKE_DIR"' EXIT
RAP=target/release/rap
echo "==> serve smoke (loopback attest-remote, resumed pipelined session, admin scrape)"
"$RAP" demo > "$SMOKE_DIR/demo.tasm"
"$RAP" link "$SMOKE_DIR/demo.tasm" -o "$SMOKE_DIR/demo.img" -m "$SMOKE_DIR/demo.map"
"$RAP" serve "$SMOKE_DIR/demo.img" "$SMOKE_DIR/demo.map" --limit 3 \
    --admin 127.0.0.1:0 --slow-ms 0 --audit-log "$SMOKE_DIR/audit.ralog" \
    > "$SMOKE_DIR/serve.log" &
SERVE_PID=$!
ADDR=""
for _ in $(seq 1 100); do
    ADDR=$(sed -n 's/^listening on //p' "$SMOKE_DIR/serve.log" 2>/dev/null || true)
    [ -n "$ADDR" ] && break
    sleep 0.1
done
if [ -z "$ADDR" ]; then
    echo "serve smoke: server never reported its listen address" >&2
    kill "$SERVE_PID" 2>/dev/null || true
    exit 1
fi
ADMIN_ADDR=$(sed -n 's/^admin on //p' "$SMOKE_DIR/serve.log")
if [ -z "$ADMIN_ADDR" ]; then
    echo "serve smoke: server did not report its admin address" >&2
    kill "$SERVE_PID" 2>/dev/null || true
    exit 1
fi
grep -q "session secret (generated)" "$SMOKE_DIR/serve.log" || {
    echo "serve smoke: server did not log its generated session secret" >&2
    cat "$SMOKE_DIR/serve.log" >&2
    exit 1
}
echo "==> $RAP attest-remote --device smoke-benign --rounds 2 --window 2 --resume"
"$RAP" attest-remote "$SMOKE_DIR/demo.img" "$SMOKE_DIR/demo.map" \
    --addr "$ADDR" --device smoke-benign --rounds 2 --window 2 --resume \
    | tee "$SMOKE_DIR/benign.log"
grep -q "session resumed" "$SMOKE_DIR/benign.log" || {
    echo "serve smoke: session was not resumed" >&2
    cat "$SMOKE_DIR/benign.log" >&2
    exit 1
}
grep -q "4/4 round(s) accepted" "$SMOKE_DIR/benign.log" || {
    echo "serve smoke: expected 4 accepted rounds across both connections" >&2
    cat "$SMOKE_DIR/benign.log" >&2
    exit 1
}
# Scrape the admin plane while the server is still up (before the
# third connection exhausts --limit): the smoke asserts every counter
# satisfies prom <= json <= prom across the three snapshot scrapes,
# and --slow-ms 0 guarantees the benign rounds left exemplars behind.
run "$RAP" top "$ADMIN_ADDR" --smoke "$PWD/TELEMETRY_smoke.json"
run "$RAP" stats --watch "$ADMIN_ADDR" --iters 1
grep -q '"exemplars_retained": 4' "$PWD/TELEMETRY_smoke.json" || {
    echo "serve smoke: expected all 4 rounds retained as exemplars" >&2
    cat "$PWD/TELEMETRY_smoke.json" >&2
    exit 1
}
if "$RAP" attest-remote "$SMOKE_DIR/demo.img" "$SMOKE_DIR/demo.map" \
    --addr "$ADDR" --device smoke-attacker --key wrong-key \
    > "$SMOKE_DIR/attacker.log" 2>&1; then
    echo "serve smoke: wrong-key prover was accepted" >&2
    cat "$SMOKE_DIR/attacker.log" >&2
    exit 1
fi
grep -q "REJECTED" "$SMOKE_DIR/attacker.log" || {
    echo "serve smoke: wrong-key round did not report REJECTED" >&2
    cat "$SMOKE_DIR/attacker.log" >&2
    exit 1
}
wait "$SERVE_PID"
grep -q "served 3 connection" "$SMOKE_DIR/serve.log" || {
    echo "serve smoke: server did not drain after --limit 3" >&2
    cat "$SMOKE_DIR/serve.log" >&2
    exit 1
}

# Audit smoke: the serve run above chained every verdict (4 accepted +
# 1 rejected) into audit.ralog. The chain must replay cleanly under
# the operator's key, and flipping a single byte must break it with a
# typed first break and a non-zero exit.
echo "==> audit smoke (hash-chained verdict log, tamper detection)"
run "$RAP" audit verify "$SMOKE_DIR/audit.ralog" --key default-device \
    | tee "$SMOKE_DIR/audit.log"
grep -q "entries=5" "$SMOKE_DIR/audit.log" || {
    echo "audit smoke: expected 5 chained verdicts" >&2
    cat "$SMOKE_DIR/audit.log" >&2
    exit 1
}
grep -q "chain and seals verified" "$SMOKE_DIR/audit.log" || {
    echo "audit smoke: seals were not verified" >&2
    cat "$SMOKE_DIR/audit.log" >&2
    exit 1
}
run "$RAP" audit tail "$SMOKE_DIR/audit.ralog" --key default-device --last 2
cp "$SMOKE_DIR/audit.ralog" "$SMOKE_DIR/tampered.ralog"
# Offset 9 is the first record's magic ('R' of RAPV) — overwrite it.
printf 'X' | dd of="$SMOKE_DIR/tampered.ralog" bs=1 seek=9 count=1 conv=notrunc 2>/dev/null
if "$RAP" audit verify "$SMOKE_DIR/tampered.ralog" --key default-device \
    > "$SMOKE_DIR/tamper.log" 2>&1; then
    echo "audit smoke: tampered log verified cleanly" >&2
    cat "$SMOKE_DIR/tamper.log" >&2
    exit 1
fi
grep -q "BROKEN:" "$SMOKE_DIR/tamper.log" || {
    echo "audit smoke: tampered log did not report a typed break" >&2
    cat "$SMOKE_DIR/tamper.log" >&2
    exit 1
}

# Dictionary smoke: the full `rap profile` loop on a loop-heavy
# program — profile once, attest with the dictionary loaded, assert
# the compressed report stream actually shrank on disk, then verify it
# with the same dictionary. The artifact lands in $PWD, where CI
# uploads it.
echo "==> dict smoke (profile, compressed attest, verify --dict)"
cat > "$SMOKE_DIR/loopy.tasm" <<'EOF'
.func main
    movw r0, #40
    movw r1, #0
loop:
    cmp r1, #100
    beq skip
    adds r1, r1, #1
skip:
    subs r0, r0, #1
    cmp r0, #0
    bne loop
    halt
EOF
"$RAP" link "$SMOKE_DIR/loopy.tasm" -o "$SMOKE_DIR/loopy.img" -m "$SMOKE_DIR/loopy.map"
run "$RAP" profile "$SMOKE_DIR/loopy.img" "$SMOKE_DIR/loopy.map" -o "$PWD/PROFILE_loopy.dict"
"$RAP" attest "$SMOKE_DIR/loopy.img" "$SMOKE_DIR/loopy.map" --chal 7 \
    -o "$SMOKE_DIR/plain.rpt"
"$RAP" attest "$SMOKE_DIR/loopy.img" "$SMOKE_DIR/loopy.map" --chal 7 \
    --dict "$PWD/PROFILE_loopy.dict" -o "$SMOKE_DIR/dict.rpt"
PLAIN_BYTES=$(wc -c < "$SMOKE_DIR/plain.rpt")
DICT_BYTES=$(wc -c < "$SMOKE_DIR/dict.rpt")
if [ "$DICT_BYTES" -ge "$PLAIN_BYTES" ]; then
    echo "dict smoke: compressed report did not shrink ($DICT_BYTES >= $PLAIN_BYTES bytes)" >&2
    exit 1
fi
echo "dict smoke: report stream $PLAIN_BYTES -> $DICT_BYTES bytes"
run "$RAP" verify "$SMOKE_DIR/loopy.img" "$SMOKE_DIR/loopy.map" "$SMOKE_DIR/dict.rpt" \
    --chal 7 --dict "$PWD/PROFILE_loopy.dict" --trace "$SMOKE_DIR/trace.json"
# The trace is the admin plane's EXEMPLARS document: one exemplar for
# the one verified job.
grep -q '"retained": 1' "$SMOKE_DIR/trace.json" || {
    echo "dict smoke: --trace did not retain the verified job" >&2
    cat "$SMOKE_DIR/trace.json" >&2
    exit 1
}

# Fleet smoke: a deterministic 4-device loopback fleet with one
# compromised actor — the run must quarantine it (exit 0 asserts
# containment), the transition log must show the quarantine, and the
# persisted registry must round-trip through `rap fleet status`.
echo "==> fleet smoke (simulated fleet, compromise -> quarantine)"
run "$RAP" fleet run --devices 4 --compromised 1 --slots 18 --seed 7 \
    --json "$SMOKE_DIR/fleet.json" | tee "$SMOKE_DIR/fleet.log"
grep -q "suspect -> quarantined (reject-threshold)" "$SMOKE_DIR/fleet.log" || {
    echo "fleet smoke: compromised device was not quarantined" >&2
    cat "$SMOKE_DIR/fleet.log" >&2
    exit 1
}
"$RAP" fleet status "$SMOKE_DIR/fleet.json" --json \
    | grep -q '"state": *"quarantined"\|"state":"quarantined"' || {
    echo "fleet smoke: quarantine missing from status JSON" >&2
    "$RAP" fleet status "$SMOKE_DIR/fleet.json" >&2
    exit 1
}

echo "==> all checks passed"
