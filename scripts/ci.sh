#!/bin/sh
# Tier-1 CI gate: full build (all targets, including bench, examples and
# the docs alias) with warnings treated as errors, then the test suite.
# Run from anywhere: paths are relative to the repository root.
set -eu
cd "$(dirname "$0")/.."

# The artifact validators below and the bench gate are python3 scripts.
command -v python3 > /dev/null 2>&1 || {
  echo 'ci: python3 is required (artifact validators, bench gate)' >&2
  exit 1
}

# Force a rebuild of every action so compiler warnings are re-emitted even
# on a warm _build, then fail if any slipped through.
out=$(dune build @all --force 2>&1) || {
  printf '%s\n' "$out"
  exit 1
}
if printf '%s' "$out" | grep -q 'Warning'; then
  printf '%s\n' "$out"
  echo 'ci: compiler warnings are errors' >&2
  exit 1
fi

dune runtest

# The allocation ledger again under the release profile, the build the
# benchmark measures: dune runtest ran it under dev, which compiles every
# module -opaque (no cross-module inlining), so both builds are gated.
# It shares the benchmark's build directory.
dune build --root . --build-dir .bench_build --profile release \
  ./test/test_alloc.exe
./.bench_build/default/test/test_alloc.exe

# CLI error smoke: an unknown flag, a bad seed range, an unknown
# corruption kind and a knob the experiment does not honour must exit 2
# with a usage message, the status every invalid option value gets.
for args in 'table2 --bogus' 'torture --seed 5-1' 'torture --corrupt bogus' \
  'serve --read-error-rate 0.1' 'smp --read-error-rate 0.1' \
  'table1 --quick' 'lockstat --quick' 'soak --cpus 2'; do
  rc=0
  # shellcheck disable=SC2086 # split the argument list on purpose
  ./_build/default/bin/uvm_sim.exe $args > /dev/null 2>&1 || rc=$?
  if [ "$rc" -ne 2 ]; then
    echo "ci: 'uvm_sim $args' exited $rc, want 2" >&2
    exit 1
  fi
done
echo 'ci: CLI errors exit 2'

# Trace-export smoke test: a short experiment run must produce a valid
# Chrome trace with fault and pagein events from both VM systems, every
# pagein carrying its pager, page count and result.
trace=$(mktemp /tmp/uvm-trace.XXXXXX.json)
trap 'rm -f "$trace"' EXIT
dune exec bin/uvm_sim.exe -- table2 --trace-out "$trace" > /dev/null
python3 - "$trace" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    events = json.load(f)["traceEvents"]
labels = {e["pid"]: e["args"]["name"]
          for e in events
          if e["ph"] == "M" and e["name"] == "process_name"}
assert set(labels.values()) >= {"UVM", "BSD VM"}, labels
for want in ("fault", "pagein"):
    per_sys = {labels[e["pid"]] for e in events
               if e["ph"] != "M" and e["name"] == want}
    assert per_sys >= {"UVM", "BSD VM"}, (want, per_sys)
# The pager step both kernels share owns the pagein details: which
# pager, how many pages (at least one) and the outcome.
pageins = [e for e in events if e["ph"] != "M" and e["name"] == "pagein"]
for e in pageins:
    a = e["args"]
    assert a.get("pager"), (labels[e["pid"]], a)
    assert int(a.get("pages", "0")) >= 1, (labels[e["pid"]], a)
    assert a.get("result") in ("ok", "error"), (labels[e["pid"]], a)
print("ci: trace export valid (%d events, %d pagein details)"
      % (len(events), len(pageins)))
EOF

# Stats-snapshot smoke: --stats-out must emit uvm-sim-stats/2 for both
# VM systems, with span-derived fault and pagein latency histograms and
# the span ring's recorded/dropped counts.  In both snapshots, and for
# both systems, the swap store's zero-page tags are a subset of all
# pageouts (a zero counter is omitted from a snapshot, so reads as 0);
# fig5 must page out on both systems, so that bound is not vacuous.
stats=$(mktemp /tmp/uvm-stats.XXXXXX.json)
swapstats=$(mktemp /tmp/uvm-stats.XXXXXX.json)
trap 'rm -f "$trace" "$stats" "$swapstats"' EXIT
dune exec bin/uvm_sim.exe -- table2 --stats-out "$stats" > /dev/null
dune exec bin/uvm_sim.exe -- fig5 --stats-out "$swapstats" > /dev/null
python3 - "$stats" "$swapstats" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    r = json.load(f)
assert r["schema"] == "uvm-sim-stats/2", r.get("schema")
systems = {s["label"]: s for s in r["systems"]}
assert set(systems) >= {"UVM", "BSD VM"}, set(systems)
for label, s in systems.items():
    for series in ("fault", "pagein"):
        h = s["histograms"].get(series)
        assert h is not None and h["count"] > 0, (label, series)
    assert s["trace"]["recorded"] > 0, (label, s["trace"])
    assert s["trace"]["dropped"] >= 0, (label, s["trace"])
for path in sys.argv[1:]:
    with open(path) as f:
        snap = {s["label"]: s["counters"] for s in json.load(f)["systems"]}
    assert set(snap) >= {"UVM", "BSD VM"}, (path, set(snap))
    for label, c in snap.items():
        zero, out = c.get("swap_zero_pageouts", 0), c.get("pageouts", 0)
        assert 0 <= zero <= out, (path, label, zero, out)
        if path == sys.argv[2]:
            assert out > 0, ("fig5 paged nothing out", label)
print("ci: stats snapshots valid (%d systems)" % len(systems))
EOF

# Torture smoke: one fixed-seed differential run with periodic invariant
# audits on both VM systems.  On failure it leaves a crash artifact (op
# trace, failure, span ring, stats) in artifacts/torture/seed-42/ for the
# CI workflow to upload.
dune exec bin/uvm_sim.exe -- torture --seed 42 --ops 2000 --audit-every 50 \
  --shrink --artifact-dir artifacts/torture

# Crash-artifact smoke: a run corrupted on purpose must fail (exit 1) and
# leave its seven crash files, every .json one valid, the crash file
# naming the audit failure and a shrunk repro, and recording the swap
# layout and machine size a replay boots with.
crash=$(mktemp -d /tmp/uvm-crash.XXXXXX)
trap 'rm -rf "$trace" "$stats" "$swapstats" "$crash"' EXIT
rc=0
./_build/default/bin/uvm_sim.exe torture --seed 42 --ops 600 --audit-every 10 \
  --corrupt overref-anon --corrupt-at 300 --shrink --artifact-dir "$crash" \
  > /dev/null || rc=$?
if [ "$rc" -ne 1 ]; then
  echo "ci: corrupted torture run exited $rc, want 1" >&2
  exit 1
fi
python3 - "$crash/seed-42" <<'EOF'
import json, os, sys
d = sys.argv[1]
names = sorted(f for f in os.listdir(d) if f.endswith(".json"))
assert names == ["crash.json", "lockstat.json", "metrics.json", "spans.json",
                 "stats.json", "trace.chrome.json"], names
docs = {}
for n in names:
    with open(os.path.join(d, n)) as f:
        docs[n] = json.load(f)
assert os.path.getsize(os.path.join(d, "events.txt")) > 0
crash = docs["crash.json"]
assert crash["schema"] == "uvm-sim-torture/1", crash.get("schema")
assert crash["failure"]["kind"] == "audit", crash["failure"]
assert crash["minimal"], "no shrunk repro"
assert crash["tiers"] is False, crash.get("tiers")
assert crash["ram_pages"] == 256 and crash["swap_pages"] == 2048, crash
print("ci: crash artifacts valid (%d files, %d-op repro)"
      % (len(names) + 1, len(crash["minimal"])))
EOF

# Multi-seed torture sweep: seeds 1-60 x 6000 ops, audited every 50 ops,
# must all run clean on both kernels.  The seeds run in parallel on a
# pool of OCaml domains; a failing seed leaves its crash artifact in
# artifacts/torture/seed-N/.
start=$(date +%s)
sweep=$(./_build/default/bin/uvm_sim.exe torture --seed 1-60 --ops 6000 \
  --audit-every 50 --artifact-dir artifacts/torture) || {
  printf '%s\n' "$sweep" | grep -v '^torture: OK' >&2
  echo 'ci: torture sweep failed' >&2
  exit 1
}
echo "ci: torture sweep clean (seeds 1-60 x 6000 ops, $(($(date +%s) - start)) s wall)"

# The same sweep on the faulting swap path: tiered swap with injected
# media errors, seeds 61-400.  Failed writes leave pages stuck dirty in
# core, which is the case the pagedaemon's early stop must get right.
start=$(date +%s)
sweep=$(./_build/default/bin/uvm_sim.exe torture --seed 61-400 --ops 6000 \
  --audit-every 50 --tiers --faults --artifact-dir artifacts/torture) || {
  printf '%s\n' "$sweep" | grep -v '^torture: OK' >&2
  echo 'ci: faulting torture sweep failed' >&2
  exit 1
}
echo "ci: faulting torture sweep clean (seeds 61-400 x 6000 ops, --tiers --faults, $(($(date +%s) - start)) s wall)"

# Efficacy-report smoke (DESIGN.md §10): quick-mode ledger report over
# both systems, kept in artifacts/ for the workflow to upload.
mkdir -p artifacts
dune exec bin/uvm_sim.exe -- report --quick --out artifacts/report.json \
  > /dev/null
python3 - artifacts/report.json <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    r = json.load(f)
assert r["schema"] == "uvm-sim-report/1", r.get("schema")
systems = {s["label"]: s for s in r["systems"]}
assert set(systems) >= {"UVM", "BSD VM"}, set(systems)
for label, s in systems.items():
    assert s["ledger"]["illegal_transitions"] == 0, label
    assert set(s["fault_ahead"]) == {"normal", "random", "sequential"}, label
print("ci: efficacy report valid (%d systems)" % len(r["systems"]))
EOF

# IPC serve smoke (DESIGN.md §11): quick client/server run under every
# policy on both systems.  The BSD rows must match its copy baseline (it
# has no zero-copy path to fall back from), and UVM's map-entry passing
# must beat copying at the largest payload in the sweep.
dune exec bin/uvm_sim.exe -- serve --quick --out artifacts/serve.json \
  > /dev/null
python3 - artifacts/serve.json <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    r = json.load(f)
assert r["schema"] == "uvm-sim-serve/1", r.get("schema")
rows = r["rows"]
assert {x["system"] for x in rows} == {"UVM", "BSD VM"}, rows
assert {x["policy"] for x in rows} == {"copy", "loan", "mexp"}, rows
by = {(x["system"], x["policy"], x["payload"]): x["total_us"] for x in rows}
top = max(x["payload"] for x in rows)
for policy in ("loan", "mexp"):
    assert by[("BSD VM", policy, top)] == by[("BSD VM", "copy", top)], policy
assert by[("UVM", "mexp", top)] < by[("UVM", "copy", top)]
# Causal attribution (DESIGN.md §13): every row's per-subsystem p99
# breakdown must sum back to the measured p99 within 1%.
for x in rows:
    total = sum(part["self_us"] for part in x["p99_breakdown"])
    assert abs(total - x["p99_us"]) <= 0.01 * x["p99_us"], \
        (x["system"], x["policy"], x["payload"], total, x["p99_us"])
print("ci: serve results valid (%d rows, p99 breakdowns sum)" % len(rows))
EOF

# Observability smoke (DESIGN.md §13): a quick vmstat run must emit
# valid uvm-sim-metrics/1 and uvm-sim-spans/1 artifacts for both VM
# systems, with well-formed span trees (every non-root's parent exists
# in the same trace) and strictly increasing sample timestamps.
dune exec bin/uvm_sim.exe -- vmstat --quick \
  --metrics-out artifacts/metrics.json --spans-out artifacts/spans.json \
  > /dev/null
python3 - artifacts/metrics.json artifacts/spans.json <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    m = json.load(f)
assert m["schema"] == "uvm-sim-metrics/1", m.get("schema")
systems = {s["label"]: s for s in m["systems"]}
assert set(systems) >= {"UVM", "BSD VM"}, set(systems)
for label, s in systems.items():
    cols = s["columns"]
    assert {"free_pages", "faults", "swap_slots_used"} <= set(cols), label
    ts = [row["ts"] for row in s["samples"]]
    assert len(ts) >= 2, label
    assert all(a < b for a, b in zip(ts, ts[1:])), label
    assert all(len(row["values"]) == len(cols) for row in s["samples"]), label
with open(sys.argv[2]) as f:
    sp = json.load(f)
assert sp["schema"] == "uvm-sim-spans/1", sp.get("schema")
spsys = {s["label"]: s for s in sp["systems"]}
assert set(spsys) >= {"UVM", "BSD VM"}, set(spsys)
nspans = 0
for label, s in spsys.items():
    spans = s["spans"]
    assert spans, label
    by_id = {(x["trace"], x["span"]): x for x in spans}
    roots = 0
    for x in spans:
        assert x["dur"] >= 0, (label, x)
        if x["parent"] == 0:
            roots += 1
        else:
            parent = by_id.get((x["trace"], x["parent"]))
            assert parent is not None, (label, x)
            assert parent["ts"] <= x["ts"] + 1e-9, (label, x)
    assert roots > 0, label
    assert {x["subsys"] for x in spans} >= {"fault", "pager"}, label
    nspans += len(spans)
print("ci: observability artifacts valid (%d spans)" % nspans)
EOF

# Tier-failover resilience smoke: stream a working set through a
# fast+slow swap pair, kill the fast device mid-stream, and require both
# kernels to survive with zero lost pages and a warm swapcache before
# the death.
dune exec bin/uvm_sim.exe -- resilience --quick \
  --out artifacts/resilience.json > /dev/null
python3 - artifacts/resilience.json <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    r = json.load(f)
assert r["schema"] == "uvm-sim-resilience/1", r.get("schema")
rows = r["rows"]
assert {x["system"] for x in rows} == {"UVM", "BSD VM"}, rows
for x in rows:
    assert x["survived"], x["system"]
    assert x["lost_pages"] == 0, (x["system"], x["lost_pages"])
    assert x["devices_dead"] == 1, x["system"]
    assert x["migrations"] + x["failovers"] > 0, x["system"]
    assert x["hit_rate_before"] > 0, x["system"]
print("ci: resilience valid (%d rows, no lost pages)" % len(rows))
EOF

# Chaos soak smoke: a compressed scenario composing device death, I/O
# storms, pressure spikes, rlimit squeezes and fork churn.  Both kernels
# must pass every SLO — zero audit failures, zero lost pages, bounded
# p99 fault latency, every OOM kill attributed to a chaos phase.  The
# soak binary exits non-zero on any SLO failure, so the run itself is
# the gate; the validator re-checks the artifact's schema and SLOs.
dune exec bin/uvm_sim.exe -- soak --quick \
  --out artifacts/soak.json > /dev/null
python3 - artifacts/soak.json <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    r = json.load(f)
assert r["schema"] == "uvm-sim-soak/1", r.get("schema")
rows = r["systems"]
assert {x["label"] for x in rows} == {"UVM", "BSD VM"}, rows
for x in rows:
    assert x["passed"], x["label"]
    slo = x["slo"]
    assert slo["audit_failures"] == 0, (x["label"], slo)
    assert slo["lost_pages"] == 0, (x["label"], slo)
    assert slo["p99_fault_us"] <= slo["p99_bound_us"], (x["label"], slo)
    assert slo["unattributed_ooms"] == 0, (x["label"], slo)
    for k in x["kills"]:
        assert k["phase"] != "unattributed", (x["label"], k)
print("ci: soak valid (%d systems, all SLOs green)" % len(rows))
EOF

# Lock observatory smoke (DESIGN.md §15): one paging+IPC workload through
# every registered lock class on both kernels.  Requires >= 6 held lock
# classes per system, a cycle-free observed lock-order graph, and folded
# flamegraph self-times that telescope to the measured wall within 1%.
dune exec bin/uvm_sim.exe -- lockstat --out artifacts/lockstat.json \
  --folded-out artifacts/profile.folded > /dev/null
python3 - artifacts/lockstat.json artifacts/profile.folded <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    r = json.load(f)
assert r["schema"] == "uvm-sim-lockstat/2", r.get("schema")
assert abs(r["folded_total_us"] - r["wall_us"]) <= 0.01 * r["wall_us"], \
    (r["folded_total_us"], r["wall_us"])
systems = {s["label"]: s for s in r["systems"]}
assert set(systems) >= {"UVM", "BSD VM"}, set(systems)
for label, s in systems.items():
    held = [c for c in s["classes"] if c["acquires"] > 0]
    assert len(held) >= 6, (label, [c["class"] for c in held])
    assert s["cycles"] == [], (label, s["cycles"])
    for c in held:
        h = c["hold_us"]
        assert h["count"] == c["acquires"], (label, c["class"])
        assert c["reads"] + c["writes"] == c["acquires"], (label, c["class"])
        attributed = sum(b["holds"] for b in c["by_subsys"])
        assert attributed == c["acquires"], (label, c["class"], attributed)
    assert s["order_edges"], label
total = 0.0
with open(sys.argv[2]) as f:
    for line in f:
        path, weight = line.rsplit(" ", 1)
        assert ";" in path, line
        total += float(weight)
assert abs(total - r["wall_us"]) <= 0.01 * r["wall_us"], (total, r["wall_us"])
print("ci: lockstat valid (%d classes held, folded telescopes)"
      % sum(len([c for c in s["classes"] if c["acquires"] > 0])
            for s in r["systems"]))
EOF

# Simulated-SMP smoke (DESIGN.md §16): the 4-CPU storm on both kernels
# with periodic sharding audits.  Gates on zero audit failures, a
# speedup of at least 1 over the 1-CPU baseline, and the lockless
# lookup fast path serving the majority of page lookups.
dune exec bin/uvm_sim.exe -- smp --cpus 4 --quick \
  --out artifacts/smp.json > /dev/null
python3 - artifacts/smp.json <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    r = json.load(f)
assert r["schema"] == "uvm-sim-smp/1", r.get("schema")
assert r["cpus"] == 4, r["cpus"]
systems = {s["system"]: s for s in r["systems"]}
assert set(systems) == {"UVM", "BSD VM"}, set(systems)
for label, s in systems.items():
    for run in (s["baseline"], s["parallel"]):
        assert run["audit_failures"] == [], (label, run["audit_failures"])
        assert run["audits"] > 0, label
    assert s["speedup"] >= 1.0, (label, s["speedup"])
    assert s["fast_hit_rate"] > 0.5, (label, s["fast_hit_rate"])
    par = s["parallel"]
    assert len(par["cpus_detail"]) == 4, label
    assert sum(c["quanta"] for c in par["cpus_detail"]) == par["quanta"], label
# The paper's asymmetry, measured: the shared-anon storm must make the
# object class BSD VM's top waiter while UVM's amap layer spreads it.
assert systems["BSD VM"]["top_wait_class"] == "object", \
    systems["BSD VM"]["top_wait_class"]
assert systems["UVM"]["top_wait_class"] != "object", \
    systems["UVM"]["top_wait_class"]
print("ci: smp valid (UVM %.2fx, BSD VM %.2fx at 4 cpus, audits clean)"
      % (systems["UVM"]["speedup"], systems["BSD VM"]["speedup"]))
EOF

# Benchmark self-test: every simbench workload at quick size, untraced and
# traced.  Each repetition checks every file page's bytes against
# Vfs.file_byte, the IPC payloads, cross-kernel divergence and the audits,
# which makes it the end-to-end guard for the generated file store.
python3 simbench/run.py --self-test

# Full bench: the fold over the registry's benched entries (every paper
# table/figure, the ablations and the embedded efficacy report); leaves BENCH_results.json at the repo root so
# the workflow can start accumulating the bench trajectory.
dune exec bench/main.exe > /dev/null
test -s BENCH_results.json

# An experiment's --out document is its bench section: the CLI and the
# bench's fold over the registry write one document.  table2 is a paper
# artifact, ablation_fault_ahead an ablation entry.
for cmd in table2 ablation_fault_ahead; do
  out=$(mktemp /tmp/uvm-$cmd.XXXXXX.json)
  ./_build/default/bin/uvm_sim.exe "$cmd" --out "$out" > /dev/null
  python3 - "$cmd" "$out" BENCH_results.json <<'EOF'
import json, sys
cmd = sys.argv[1]
with open(sys.argv[2]) as f:
    rows = json.load(f)
with open(sys.argv[3]) as f:
    bench = json.load(f)["experiments"][cmd]
assert rows == bench, (cmd, rows, bench)
print("ci: %s --out matches the bench (%d rows)" % (cmd, len(rows)))
EOF
  rm -f "$out"
done

# Gate self-check: a section whose type changes between the baseline and
# the results must fail the gate rather than skip every leaf under it.
# The doctored pair's fig5 row is gateable and unchanged, so only that
# check can fail it.
doctored=$(mktemp -d /tmp/uvm-gate.XXXXXX)
fig5='"fig5":[{"mb":4,"bsd_us":1.5,"uvm_us":1.0}]'
printf '{"schema":"uvm-bench/2","experiments":{%s,%s}}\n' "$fig5" \
  '"serve":[{"total_us":2.0}]' > "$doctored/baseline.json"
printf '{"schema":"uvm-bench/2","experiments":{%s,%s}}\n' "$fig5" \
  '"serve":{"rows":[{"total_us":2.0}]}' > "$doctored/results.json"
rc=0
BENCH_GATE_TOLERANCE=0 sh scripts/bench_gate.sh "$doctored/baseline.json" \
  "$doctored/results.json" > /dev/null || rc=$?
rm -rf "$doctored"
if [ "$rc" -ne 1 ]; then
  echo "ci: bench gate exited $rc on a reshaped section, want 1" >&2
  exit 1
fi
echo 'ci: bench gate fails a reshaped section'

# Regression gate: the simulated-time metrics are deterministic, so fail
# if any of them in the fresh bench run is worse than the committed
# baseline at all (zero tolerance; see DESIGN.md §13).
BENCH_GATE_TOLERANCE=0 sh scripts/bench_gate.sh BENCH_baseline.json \
  BENCH_results.json

echo 'ci: build clean, all tests passed'
