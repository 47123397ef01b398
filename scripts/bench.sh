#!/usr/bin/env bash
# Seeded offline smoke benchmark (no criterion, no network): builds the
# tier-1-safe `bench` package, runs it on the synthetic block-chain
# families, writes the output JSON (default BENCH_pr9.json, override with
# the first argument), and asserts:
#
#   * the PR 2 headline — the indexed incremental engine beats the naive
#     whole-state chase on the largest family, full chase and insert
#     stream alike;
#   * the PR 3 headline — the dormant (no-op-tracer) instrumentation
#     costs < 5% on the largest family against the checked-in
#     BENCH_pr2.json baseline (plus a small absolute epsilon so sub-ms
#     timer noise cannot fail the build);
#   * the PR 6 headline — three replicas running the largest family's
#     insert stream converge under all three fault plans (clean, lossy,
#     partition + crash), with deterministic rounds-to-convergence and
#     ops-shipped counts in the `sync` section;
#   * the PR 7 headline — the concurrent hub over the group-commit WAL
#     serves a fixed durable op budget faster with 4 clients than with 1
#     (clients ride shared commit barriers), and grouping cuts
#     fsyncs-per-op below the classic one-fsync-per-op discipline;
#   * the PR 9 headline — the chase_scale section carries absolute-ms
#     numbers for ≥10^6-tuple bulk streams, and the durable bulk load of
#     one million tuples through framed batch groups (one WAL batch, one
#     fsync per group) beats the per-op serving discipline (one fsync
#     per op) by ≥5x;
#   * the trajectory gate — the 4-client serving throughput of this
#     build must stay within a generous tolerance of the checked-in
#     BENCH_pr8.json, so neither the batch plumbing nor new
#     instrumentation can silently halve the serving path.
#
# The durable bulk-load section fsyncs one million per-op commits, so a
# full run takes a few minutes on ordinary disks.
set -euo pipefail
cd "$(dirname "$0")/.."

OUT="${1:-BENCH_pr9.json}"

cargo build -p bench --release
./target/release/bench-smoke > "$OUT"
echo "wrote $(pwd)/$OUT"

OUT="$OUT" python3 - <<'EOF'
import json, os

with open(os.environ["OUT"]) as f:
    doc = json.load(f)

largest = doc["families"][-1]
full = largest["full_chase_ms"]
stream = largest["insert_stream_ms"]
print(f"largest family: {largest['name']} ({largest['tuples']} tuples)")
print(f"  full chase : naive {full['naive']:.3f} ms  vs  incremental {full['incremental']:.3f} ms")
print(f"  insert x{stream['inserts']}: naive re-chase {stream['naive_rechase']:.3f} ms  vs  "
      f"hub stream {stream['hub_stream']:.3f} ms  ({stream['speedup']:.1f}x)")

assert full["incremental"] < full["naive"], "incremental chase must beat the naive chase"
assert stream["hub_stream"] < stream["naive_rechase"], \
    "hub insert stream must beat re-chase-from-scratch"
print("OK: incremental engine beats the naive chase on the largest family")

for fam in doc["families"]:
    m = fam["metrics"]
    assert m["counters"]["session.builds"] >= 1, f"{fam['name']}: no session build metered"
    assert m["gauges"]["guard.lookups"] >= 0, f"{fam['name']}: no guard.lookups gauge"
print("OK: every family carries a metrics snapshot")

oh = doc["trace_overhead"]
print(f"trace overhead on {oh['family']}: "
      f"incremental noop {oh['incremental_noop_ms']:.3f} ms, traced {oh['incremental_traced_ms']:.3f} ms; "
      f"stream noop {oh['stream_noop_ms']:.3f} ms, traced {oh['stream_traced_ms']:.3f} ms")

# Dormant-instrumentation regression gate: the no-op-tracer numbers of
# this build vs the PR 3 baseline (itself gated against PR 2). 5%
# relative, with 0.15 ms absolute slack for scheduler jitter on sub-ms
# medians — the replication layer must stay out of the single-node path.
#
# The baseline's milliseconds were recorded on a different day's machine
# conditions, so the budget is first corrected for environment drift
# using the naive whole-state chase as the same-run anchor: it runs with
# a no-op tracer, so its time moves with the machine but never with the
# incremental engine's dormant-tracer cost.
if os.path.exists("BENCH_pr3.json"):
    with open("BENCH_pr3.json") as f:
        base = json.load(f)
    drift = (largest["full_chase_ms"]["naive"]
             / base["families"][-1]["full_chase_ms"]["naive"])
    base_noop = base["trace_overhead"]["incremental_noop_ms"]
    budget = base_noop * drift * 1.05 + 0.15
    got = oh["incremental_noop_ms"]
    assert got <= budget, \
        f"no-op tracer overhead: incremental {got:.3f} ms exceeds 5% over the " \
        f"drift-corrected PR3 baseline ({budget:.3f} ms = {base_noop:.3f} x {drift:.3f} x 1.05 + 0.15)"
    print(f"OK: no-op tracer within 5% of the PR3 baseline "
          f"({got:.3f} <= {budget:.3f} ms, drift x{drift:.3f})")
else:
    print("note: BENCH_pr3.json baseline missing; skipping the overhead gate")

# Replication section: three replicas, three adversaries, all converged
# (the binary asserts convergence itself; re-check and show the shape).
sync = doc["sync"]
assert len(sync["plans"]) == 3, "sync section must carry three fault plans"
for p in sync["plans"]:
    assert p["rounds_to_convergence"] > 0, f"{p['plan']}: no rounds recorded"
    assert p["ops_shipped"] > 0, f"{p['plan']}: nothing shipped"
    print(f"sync {p['plan']}: {p['rounds_to_convergence']} round(s), "
          f"{p['ops_shipped']} op(s) shipped, {p['messages_sent']} message(s), "
          f"{p['dropped']} dropped, {p['crashes']} crash(es)")
clean = sync["plans"][0]
faulty = sync["plans"][2]
assert faulty["rounds_to_convergence"] >= clean["rounds_to_convergence"], \
    "partition+crash should not converge faster than the clean network"
print("OK: replicas converge under clean, lossy and partition+crash plans")

# Serving section: the durable hub under 1/2/4/8 client threads, plus
# the group-commit fsync accounting. Commit latency (window + fsync)
# dominates per-op cost, so more clients per batch must mean more
# throughput — even on a single core.
serve = doc["serve"]
by_clients = {c["clients"]: c for c in serve["clients"]}
for c in serve["clients"]:
    print(f"serve {c['clients']} client(s): {c['inserts']} insert(s) + {c['queries']} quer(ies) "
          f"in {c['wall_ms']:.1f} ms = {c['ops_per_sec']:.0f} ops/s")
assert by_clients[4]["ops_per_sec"] > by_clients[1]["ops_per_sec"], \
    "4 concurrent clients must out-serve 1 (group commit amortises the barrier)"
print("OK: 4-client throughput beats 1-client on the durable serving path")

gc = {g["mode"]: g for g in serve["group_commit"]}
for mode in ("per_op", "grouped"):
    g = gc[mode]
    print(f"group_commit {mode}: {g['clients']} client(s), window {g['window_us']} us, "
          f"{g['fsyncs']} fsync(s) / {g['inserts']} op(s) = {g['fsyncs_per_op']:.3f} fsyncs/op")
assert gc["per_op"]["fsyncs_per_op"] >= 1.0, \
    "zero-window single-writer WAL must fsync every op"
assert gc["grouped"]["fsyncs_per_op"] < gc["per_op"]["fsyncs_per_op"], \
    "group commit must reduce fsyncs-per-op below the per-op discipline"
print("OK: group commit measurably reduces fsyncs-per-op")

# Absolute-throughput trajectory gate: 4-client serving ops/s against the
# PR 8 baseline. The tolerance is deliberately generous (half the
# baseline) — fsync-bound medians jitter hard on shared runners — but a
# hot-path regression from the batch plumbing (an accidental lock or
# clone per op, say) costs well over 2x and will trip it.
if os.path.exists("BENCH_pr8.json") and os.path.abspath("BENCH_pr8.json") != \
        os.path.abspath(os.environ["OUT"]):
    with open("BENCH_pr8.json") as f:
        base = json.load(f)
    base_rate = {c["clients"]: c["ops_per_sec"] for c in base["serve"]["clients"]}[4]
    got_rate = by_clients[4]["ops_per_sec"]
    floor = base_rate * 0.5
    assert got_rate >= floor, \
        f"serve trajectory: 4-client {got_rate:.0f} ops/s fell below half the " \
        f"PR8 baseline ({base_rate:.0f} ops/s)"
    print(f"OK: 4-client serve throughput {got_rate:.0f} ops/s holds the PR8 "
          f"trajectory (baseline {base_rate:.0f}, floor {floor:.0f})")
else:
    print("note: BENCH_pr8.json baseline missing; skipping the serve trajectory gate")

# Chase-scale section: honest absolute-ms numbers at 10^5-10^6 tuples.
# The gate is existence + sanity (a ≥10^6-tuple family with real
# timings); absolute wall-clock is machine-dependent, so no ms ceiling.
cs = doc["chase_scale"]
big = [f for f in cs["families"] if f["tuples"] >= 1_000_000]
assert big, "chase_scale must include a >=10^6-tuple family"
for f in cs["families"]:
    print(f"chase_scale {f['name']} x{f['tuples']}: gen {f['gen_ms']:.0f} ms, "
          f"hub per-op {f['hub_per_op_ms']:.0f} ms, hub batch {f['hub_batch_ms']:.0f} ms")
    assert f["hub_batch_ms"] > 0 and f["hub_per_op_ms"] > 0
print(f"OK: chase_scale carries {len(big)} family run(s) at >=10^6 tuples")

# Durable bulk-load headline: framed batch groups (one WAL batch + one
# fsync per group) vs the per-op serving discipline (one fsync per op)
# on a >=10^6-tuple family. This is the batch pipeline's reason to
# exist; gate it at 5x.
bl = doc["durable_bulk_load"]
print(f"durable_bulk_load {bl['family']} x{bl['tuples']} (groups of {bl['group_size']}): "
      f"per-op {bl['per_op_ms']:.0f} ms / {bl['per_op_fsyncs']} fsyncs  vs  "
      f"batch {bl['batch_ms']:.0f} ms / {bl['batch_fsyncs']} fsyncs  "
      f"= {bl['speedup']:.1f}x")
assert bl["tuples"] >= 1_000_000, "bulk-load headline must run at >=10^6 tuples"
assert bl["per_op_fsyncs"] >= bl["tuples"], \
    "per-op discipline must fsync every op"
assert bl["batch_fsyncs"] <= bl["tuples"] // bl["group_size"] + 1, \
    "batch groups must commit one fsync per group"
assert bl["speedup"] >= 5.0, \
    f"batch bulk load must beat the per-op loop by >=5x (got {bl['speedup']:.1f}x)"
print("OK: batched bulk load beats the per-op serving discipline by >=5x")
EOF
