#!/bin/sh
# Bench regression gate (DESIGN.md §13).
#
# Compares a fresh BENCH_results.json against the committed
# BENCH_baseline.json and fails if any simulated-time metric regressed
# beyond tolerance.  Only deterministic simulated measurements are
# gated:
#
#   - numeric leaves whose key ends in "_us"  fail when  new > old * (1 + TOL)
#   - numeric leaves whose key ends in "mb_s" fail when  new < old * (1 - TOL)
#
# A key dropped from the results, a changed row count, or a node whose
# type (dict, list, number, ...) differs between the two files also fails.
#
# Every verdict also reports how many gated leaves changed value in either
# direction, so "every simulated leaf is identical" reads "0 changed".
#
# Only the "experiments" object is walked: any other top-level key is
# outside the gate.
#
# Usage: scripts/bench_gate.sh [baseline] [results]
# Env:   BENCH_GATE_TOLERANCE  fractional tolerance (default 0.15)
set -eu
cd "$(dirname "$0")/.."

baseline=${1:-BENCH_baseline.json}
results=${2:-BENCH_results.json}
tol=${BENCH_GATE_TOLERANCE:-0.15}

test -s "$baseline" || { echo "bench_gate: missing $baseline" >&2; exit 1; }
test -s "$results" || { echo "bench_gate: missing $results" >&2; exit 1; }

command -v python3 > /dev/null 2>&1 || {
  echo 'bench_gate: python3 is required for the numeric comparison' >&2
  exit 1
}

python3 - "$baseline" "$results" "$tol" <<'EOF'
import json, sys

baseline_path, results_path, tol = sys.argv[1], sys.argv[2], float(sys.argv[3])
with open(baseline_path) as f:
    base = json.load(f)
with open(results_path) as f:
    new = json.load(f)

for artifact, name in ((base, baseline_path), (new, results_path)):
    if artifact.get("schema") != "uvm-bench/2":
        sys.exit("bench_gate: %s: bad schema %r" % (name, artifact.get("schema")))

failures = []
checked = [0]
changed = [0]
worst = [0.0, None]  # (relative slowdown, path)


def gate(path, old, cur):
    """Gate one numeric leaf; returns None or a failure line."""
    key = path.rsplit(".", 1)[-1]
    lower_is_better = key.endswith("_us")
    higher_is_better = key.endswith("mb_s")
    if not (lower_is_better or higher_is_better):
        return
    if not isinstance(old, (int, float)) or not isinstance(cur, (int, float)):
        return
    checked[0] += 1
    if cur != old:
        changed[0] += 1
    if old == 0:
        return  # no baseline signal; nothing to scale a tolerance from
    if lower_is_better:
        rel = (cur - old) / old
        bad = cur > old * (1.0 + tol)
    else:
        rel = (old - cur) / old
        bad = cur < old * (1.0 - tol)
    if rel > worst[0]:
        worst[0], worst[1] = rel, path
    if bad:
        failures.append(
            "  %-60s %12.3f -> %12.3f  (%+.1f%%)" % (path, old, cur, 100.0 * rel)
        )


def kind(x):
    if isinstance(x, dict):
        return "dict"
    if isinstance(x, list):
        return "list"
    if isinstance(x, (int, float)) and not isinstance(x, bool):
        return "number"
    return type(x).__name__


def walk(path, old, cur):
    if kind(old) != kind(cur):
        # A reshaped section would otherwise skip every leaf under it.
        failures.append(
            "  %s: type changed %s -> %s" % (path, kind(old), kind(cur))
        )
    elif isinstance(old, dict):
        missing = sorted(set(old) - set(cur))
        if missing:
            failures.append("  %s: keys dropped from results: %s" % (path, missing))
        for k in old:
            if k in cur:
                walk("%s.%s" % (path, k) if path else k, old[k], cur[k])
    elif isinstance(old, list):
        if len(old) != len(cur):
            failures.append(
                "  %s: row count changed %d -> %d" % (path, len(old), len(cur))
            )
        for i, (o, c) in enumerate(zip(old, cur)):
            walk("%s[%d]" % (path, i), o, c)
    else:
        gate(path, old, cur)


# Gate only the deterministic simulated-time experiments.
walk("experiments", base.get("experiments", {}), new.get("experiments", {}))

if not checked[0]:
    sys.exit("bench_gate: no gateable metrics found; baseline malformed?")

if failures:
    print("bench_gate: FAIL (%d of %d metrics beyond %.0f%% tolerance, %d changed)"
          % (len(failures), checked[0], 100.0 * tol, changed[0]))
    for line in failures:
        print(line)
    sys.exit(1)

if worst[1] is None:
    print("bench_gate: OK (%d metrics, none slower than baseline, %d changed)"
          % (checked[0], changed[0]))
else:
    print("bench_gate: OK (%d metrics within %.0f%%; worst %+.1f%% at %s; %d changed)"
          % (checked[0], 100.0 * tol, 100.0 * worst[0], worst[1], changed[0]))
EOF
