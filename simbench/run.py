#!/usr/bin/env python3
"""Simulator benchmark runner.

Builds simbench.exe from the checkout, runs one workload for about
--seconds seconds as repeated repetitions (each in a fresh process), checks
every repetition's outputs and prints the medians (run_s and
sim_faults_per_s from the fastest repetition).  The last line of stdout
is the result object; the line before it records provenance and checks.

  python3 simbench/run.py --workload paging --seed 1 --seconds 30 --trace 0
  python3 simbench/run.py --self-test

--trace 0 reports the end-to-end metrics of BENCHMARK.json from untraced
repetitions.  --trace 1 alternates untraced and traced repetitions and
reports the per-layer metrics; every deterministic metric must then agree
exactly between the two kinds.  See simbench/README.md.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = ".bench_build"
EXE = os.path.join(ROOT, BUILD_DIR, "default", "simbench", "simbench.exe")
WORKLOADS = ("paging", "shell", "sweep")
REP_TIMEOUT_S = 150
# Per-layer metrics read from the untraced repetitions: tracing itself
# allocates and keeps rings, so the GC figures come from runs without it.
UNTRACED_LAYER_METRICS = (
    "gc.minor_collections",
    "gc.major_collections",
    "gc.live_heap_mb_end",
)
TELESCOPE_TOLERANCE = 0.01
# Host-time metrics taken from the fastest repetition rather than the
# median: interference from other tenants of a shared host only ever adds
# time, and it comes in phases of seconds that can cover half a run.
FASTEST_REP_METRICS = ("run_s", "sim_faults_per_s")


class BenchError(Exception):
    pass


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build():
    needed = ("dune-project", "lib", os.path.join("simbench", "dune"))
    missing = [p for p in needed if not os.path.exists(os.path.join(ROOT, p))]
    if missing:
        raise BenchError("not a source checkout, missing: " + ", ".join(missing))
    env = dict(os.environ, DUNE_CACHE="disabled")
    proc = subprocess.run(
        ["dune", "build", "--root", ".", "--build-dir", BUILD_DIR,
         "--profile", "release", "./simbench/simbench.exe"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=840)
    if proc.returncode != 0:
        raise BenchError("build failed:\n" + proc.stdout + proc.stderr)


def repetition(workload, seed, traced, quick):
    cmd = [EXE, "--workload", workload, "--seed", str(seed)]
    if traced:
        cmd.append("--trace")
    if quick:
        cmd.append("--quick")
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=REP_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchError("repetition failed: %s\n%s" % (" ".join(cmd), proc.stderr))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def git_commit():
    """HEAD of the checkout when it is a git work tree, read without git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path) as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs")) as f:
            for line in f:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def source_digest():
    """sha256 over the sources the benchmark builds, for checkouts without git."""
    h = hashlib.sha256()
    for top in ("lib", "simbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()


def determinism_errors(reps):
    """Names of deterministic metrics, and stream digests, that differ between
    repetitions (traced and untraced alike)."""
    errors = []
    first = reps[0]
    for rep in reps[1:]:
        if rep["op_stream_digest"] != first["op_stream_digest"]:
            errors.append("op_stream_digest")
        for name in first["deterministic"]:
            if name in rep["metrics"] and rep["metrics"][name] != first["metrics"][name]:
                errors.append(name)
    return sorted(set(errors))


def median_of(reps, name):
    return statistics.median(r["metrics"][name] for r in reps)


def fastest(reps):
    return min(reps, key=lambda r: r["metrics"]["run_s"])


def run_workload(spec, workload, seed, seconds, trace, quick=False, min_reps=None):
    """Run repetitions for about [seconds]; return (result, provenance)."""
    if min_reps is None:
        min_reps = 2 if trace else 3
    untraced, traced = [], []
    start = time.monotonic()
    while True:
        untraced.append(repetition(workload, seed, False, quick))
        if trace:
            traced.append(repetition(workload, seed, True, quick))
        if len(untraced) >= min_reps and time.monotonic() - start >= seconds:
            break
    reps = untraced + traced
    checks = {"nondeterministic": determinism_errors(reps)}
    if trace:
        checks["spans_dropped"] = sum(r["spans_dropped"] for r in traced)
        checks["telescope_error_max"] = max(r["telescope_error"] for r in traced)
    failures = {}
    for r in reps:
        for kind, n in r["failures"].items():
            failures[kind] = failures.get(kind, 0) + n
    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    correct = (failed == 0 and not checks["nondeterministic"]
               and checks.get("spans_dropped", 0) == 0
               and checks.get("telescope_error_max", 0.0) <= TELESCOPE_TOLERANCE)

    metrics = {}
    for m in spec["per_layer" if trace else "end_to_end"]:
        name = m["name"]
        if name == "gc.tracing_overhead":
            value = (fastest(traced)["metrics"]["run_s"]
                     / fastest(untraced)["metrics"]["run_s"])
        elif name in FASTEST_REP_METRICS:
            value = fastest(untraced)["metrics"][name]
        elif name in UNTRACED_LAYER_METRICS or not trace:
            value = median_of(untraced, name)
        else:
            value = median_of(traced, name)
        metrics[name] = {"value": value, "unit": m["unit"]}

    provenance = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "quick": quick,
        "repetitions": {"untraced": len(untraced), "traced": len(traced)},
        "params": untraced[0]["params"],
        "ops": untraced[0]["ops"],
        "op_stream_digest": untraced[0]["op_stream_digest"],
        "ocaml_version": untraced[0]["ocaml_version"],
        "git_commit": git_commit(),
        "source_digest": source_digest(),
        "fault_samples": {k: untraced[0]["metrics"][k + ".fault_samples"]
                          for k in ("uvm", "bsd")},
        "run_s_median": median_of(untraced, "run_s"),
        "failures": failures,
        "checks": checks,
    }
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    return result, provenance


def self_test(spec):
    """Quick run of every workload: every metric of BENCHMARK.json is emitted,
    nothing fails, and deterministic metrics agree across repetitions."""
    ok = True
    for workload in WORKLOADS:
        for trace in (0, 1):
            kind = "per_layer" if trace else "end_to_end"
            result, prov = run_workload(spec, workload, 7, 0, trace,
                                        quick=True, min_reps=2)
            want = [m["name"] for m in spec[kind]]
            missing = [n for n in want if n not in result["metrics"]]
            problems = []
            if missing:
                problems.append("missing metrics: " + ", ".join(missing))
            if not result["correct"]:
                problems.append("not correct: %s" % json.dumps(prov["checks"]))
            if result["failed"]:
                problems.append("failures: %s" % json.dumps(prov["failures"]))
            if trace and result["metrics"]["error_rate"]["value"] != 0:
                problems.append("error_rate != 0")
            print("%-7s trace=%d %s" % (workload, trace,
                                        "ok" if not problems else "; ".join(problems)))
            ok = ok and not problems
    print("self-test " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if not args.self_test and args.workload is None:
        ap.error("--workload is required")
    try:
        build()
        spec = load_spec()
        if args.self_test:
            return self_test(spec)
        result, provenance = run_workload(spec, args.workload, args.seed,
                                          args.seconds, args.trace)
    except (BenchError, OSError, ValueError, subprocess.TimeoutExpired) as e:
        print("simbench: %s" % e, file=sys.stderr)
        return 1
    print(json.dumps({"provenance": provenance}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
