#!/usr/bin/env bash
# Tier-1 verification, run before recording a change in CHANGES.md.
#
# The workspace is hermetic: every dependency lives in crates/, so both
# steps run with --offline and must succeed with networking disabled.
# TESTKIT_CASES / TESTKIT_SEED (see crates/testkit) can be exported first
# to broaden or pin the property suites.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release --offline --workspace
cargo test -q --offline --workspace
cargo clippy -q --workspace --all-targets --offline -- -D warnings

# Chaos smoke: randomized fault plans (crashes, reboots, partitions, burst
# loss, clock skew) must leave every invariant intact. CHAOS_CASES scales
# the sweep; the workspace pass above already ran it at the testkit
# default, so this re-runs wider.
TESTKIT_CASES="${CHAOS_CASES:-128}" \
  cargo test -q --offline -p envirotrack-chaos --test chaos \
  -- random_fault_plans_never_break_invariants

# Telemetry smoke: the flagship storm must emit the summary table and a
# non-empty trace, byte-identically across two runs of the same seed.
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
cargo run -q --release --offline --example telemetry_summary > "$tmp/a.txt"
cargo run -q --release --offline --example telemetry_summary > "$tmp/b.txt"
diff "$tmp/a.txt" "$tmp/b.txt" \
  || { echo "verify: telemetry output is not seed-stable" >&2; exit 1; }
grep -q "== telemetry summary ==" "$tmp/a.txt" \
  || { echo "verify: telemetry summary table missing" >&2; exit 1; }
grep -q "trace stream: [1-9][0-9]* JSON lines" "$tmp/a.txt" \
  || { echo "verify: telemetry trace is empty" >&2; exit 1; }

# Sweep smoke: the parallel sweep engine must merge byte-identically at
# any worker count — 2 workers over 8 cells against the 1-worker golden.
./target/release/sweep --workers 1 --cells 8 --seed 1 --out "$tmp/sweep1.jsonl"
./target/release/sweep --workers 2 --cells 8 --seed 1 --out "$tmp/sweep2.jsonl"
cmp -s "$tmp/sweep1.jsonl" "$tmp/sweep2.jsonl" \
  || { echo "verify: sweep output depends on worker count" >&2; exit 1; }
[ "$(wc -l < "$tmp/sweep1.jsonl")" -eq 8 ] \
  || { echo "verify: sweep smoke expected 8 merged cells" >&2; exit 1; }

# Scale smoke: a 1k-node field must run bounded (2 s virtual horizon) and
# emit a BENCH_scale.json with every schema section present — both in the
# fresh smoke output and in the checked-in trajectory.
./target/release/scale --smoke --out "$tmp/scale.json"
for f in "$tmp/scale.json" BENCH_scale.json; do
  for key in '"bench":"scale"' '"construction":' '"speedup":' '"results":' \
             '"events_per_sec":' '"sweep":' '"merged_outputs_identical":true' \
             '"bytes_on_air":' \
             '"shards":' '"speedup_vs_first":' '"byte_identical":true' \
             '"replayed_intents":' '"full_replay_intents":'; do
    grep -q "$key" "$f" \
      || { echo "verify: $f is missing $key" >&2; exit 1; }
  done
done

# Soak smoke: a short layered-fault run (corruption + burst loss +
# partition/heal + crash/reboot) must pass every acceptance claim — zero
# invariant violations, zero corrupt frames accepted, replicas agreed —
# with the schema keys present, and a second invocation at the same seed
# must reproduce the JSON byte-for-byte. The checked-in flagship
# BENCH_soak.json must carry the same green claims.
./target/release/soak --smoke --seed 1 --out "$tmp/soak.json" \
  || { echo "verify: soak smoke failed" >&2; exit 1; }
./target/release/soak --smoke --seed 1 --out "$tmp/soak_replay.json" \
  || { echo "verify: soak smoke replay failed" >&2; exit 1; }
cmp -s "$tmp/soak.json" "$tmp/soak_replay.json" \
  || { echo "verify: soak output is not seed-stable" >&2; exit 1; }
for f in "$tmp/soak.json" BENCH_soak.json; do
  for key in '"bench":"soak"' '"passed":true' '"violations":0' \
             '"corrupt_accepted":0' '"replicas_agree":true' '"gossip_tx":' \
             '"gossip_repairs":' '"corrupt_dropped":' '"record":'; do
    grep -q "$key" "$f" \
      || { echo "verify: $f is missing $key" >&2; exit 1; }
  done
done

# Shard smoke: the same 1k-node field advanced by the lock-step sharded
# kernel (core::shard) at 1, 2 and 4 shards must produce a byte-identical
# merged run record + telemetry stream — the shard count is an execution
# knob, never a behavior knob. One shard routes every transmission to its
# only shard, so it is also the full-replay reference for interest
# routing.
./target/release/scale --smoke --shards 1 --crosscheck "$tmp/shard1.jsonl"
for n in 2 4; do
  ./target/release/scale --smoke --shards "$n" --crosscheck "$tmp/shard$n.jsonl"
  cmp -s "$tmp/shard1.jsonl" "$tmp/shard$n.jsonl" \
    || { echo "verify: simulation output differs between 1 and $n shards" >&2; exit 1; }
done
grep -q "net.k1.tx" "$tmp/shard1.jsonl" \
  || { echo "verify: shard cross-check saw no protocol traffic" >&2; exit 1; }
grep -q "shard.intents.tail_dropped" "$tmp/shard1.jsonl" \
  || { echo "verify: shard cross-check is missing the tail-intent accounting" >&2; exit 1; }

# Serve smoke: a ~5 s happy-path mini-storm against the session server —
# 560 concurrent sessions ramped, held streaming, and closed cleanly over
# real TCP loopback. The smoke profile runs no hostile clients, so every
# protocol-error counter must be zero; the checked-in flagship
# BENCH_serve.json (which does storm the server) must carry the same
# corrupt-accepted/panic/passed claims plus its storm-phase evidence.
./target/release/serve_storm --smoke --out "$tmp/serve.json" \
  || { echo "verify: serve smoke failed" >&2; exit 1; }
for key in '"bench":"serve"' '"passed":true' '"corrupt_accepted":0' \
           '"protocol_errors":0' '"client_errors":0' '"panics":0' \
           '"connects_per_s":' '"query_ack_p50_us":' '"query_ack_p95_us":' \
           '"query_ack_p99_us":' '"fairness_jain":'; do
  grep -q "$key" "$tmp/serve.json" \
    || { echo "verify: $tmp/serve.json is missing $key" >&2; exit 1; }
done
for key in '"bench":"serve"' '"mode":"flagship"' '"passed":true' \
           '"corrupt_accepted":0' '"client_errors":0' '"panics":0' \
           '"connects_per_s":' '"query_ack_p50_us":' '"query_ack_p95_us":' \
           '"query_ack_p99_us":' '"fairness_jain":'; do
  grep -q "$key" BENCH_serve.json \
    || { echo "verify: BENCH_serve.json is missing $key" >&2; exit 1; }
done

echo "verify: OK"
