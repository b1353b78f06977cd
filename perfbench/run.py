#!/usr/bin/env python3
"""Checker benchmark: build, run one workload, check its answers, report.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Run from the root of a source tree.  The script builds
perfbench/bench.exe with dune, runs it for one workload in a process of
its own, checks every verdict and count it observed against
perfbench/expected.json, and prints one line per metric followed by a
final JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics of BENCHMARK.json, measured with
tracing off; --trace 1 reports its per-layer metrics and writes the run's
spans.  Every result, with an environment record, is also written under
perfbench/out/.  --workload all runs every workload in turn, each in its
own process, and ends with one JSON line whose metrics are keyed
WORKLOAD/METRIC.  See perfbench/README.md for the workloads and metrics.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "bench.exe")
OUT = os.path.join(HERE, "out")

BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def dune_command():
    if shutil.which("dune"):
        return ["dune"]
    if shutil.which("opam"):
        return ["opam", "exec", "--", "dune"]
    fail("neither dune nor opam found on PATH")


def build():
    dune = dune_command()
    if not os.path.exists(os.path.join(ROOT, "dune-project")):
        fail("no dune-project at %s: run from the root of a source tree" % ROOT)
    # Keep every file the build writes inside the tree: no shared dune
    # cache, and the compiler's temporary files under perfbench/out.
    tmp = os.path.join(OUT, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, DUNE_CACHE="disabled", TMPDIR=tmp)
    cmd = dune + ["build", "--root", ROOT, "--profile", "release",
                  "./perfbench/bench.exe"]
    try:
        r = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr,
                           stderr=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("build timed out")
    if r.returncode != 0 or not os.path.exists(EXE):
        fail("build failed (exit %d)" % r.returncode)


def git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")) or not shutil.which("git"):
        return None
    try:
        r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                           capture_output=True, text=True, timeout=10)
    except subprocess.TimeoutExpired:
        return None
    return r.stdout.strip() or None


def check(workload, observations, expected):
    """Count observations (one per verdict) that differ from expected."""
    want = {k: v for k, v in expected[workload].items() if not k.startswith("_")}
    failed, reasons = 0, []
    for obs in observations:
        bad = {k: obs.get(k) for k, v in want.items() if obs.get(k) != v}
        if "error" in obs or bad:
            failed += 1
            reasons.append(obs.get("error") or "differs: %s" % bad)
    return len(observations), failed, reasons


def run_all(args, names):
    """Every workload in its own process; a failing one does not stop the rest."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        r = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True)
        sys.stderr.write(r.stderr)
        lines = r.stdout.strip().splitlines()
        print("== " + name)
        if r.returncode != 0 or not lines:
            print("problem: exit %d without a result" % r.returncode)
            summary["correct"] = False
            summary["attempted"] += 1
            summary["failed"] += 1
            continue
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        summary["correct"] = summary["correct"] and result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        for metric, m in result["metrics"].items():
            summary["metrics"][name + "/" + metric] = m
    print(json.dumps(summary))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    with open(os.path.join(HERE, "expected.json")) as f:
        expected = json.load(f)
    names = [w["name"] for w in spec["workloads"]]
    if args.workload == "all":
        return run_all(args, names)
    if args.workload not in names:
        fail("unknown workload %r (known: %s)" % (args.workload, ", ".join(names)))
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    build()
    tag = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    spans = os.path.join(OUT, "spans-%s.jsonl" % tag)
    cmd = [EXE, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--spans", spans]
    try:
        r = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                           timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("workload %s timed out after %ds" % (args.workload, RUN_TIMEOUT_S))
    sys.stderr.write(r.stderr)
    lines = r.stdout.strip().splitlines()
    if r.returncode != 0 or not lines:
        fail("bench.exe exited %d without a report" % r.returncode)
    report = json.loads(lines[-1])

    attempted, failed, reasons = check(args.workload, report["observations"], expected)
    reasons += report["replay_failures"]
    metrics = {}
    for m in wanted:
        v = report["metrics"].get(m["name"], {}).get("value")
        if isinstance(v, (int, float)):
            metrics[m["name"]] = {"value": v, "unit": m["unit"]}
        else:
            reasons.append("metric %s not measured" % m["name"])
    correct = not reasons
    env = {
        "nproc": os.cpu_count(),
        "ocaml_version": report["ocaml_version"],
        "git_commit": git_commit(),
        "OCAMLRUNPARAM": os.environ.get("OCAMLRUNPARAM"),
    }
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    with open(os.path.join(OUT, "result-%s.json" % tag), "w") as f:
        json.dump(dict(result, workload=args.workload, seed=args.seed,
                       trace=args.trace, env=env, samples=report["samples"],
                       verdict_samples_s=report["verdict_samples_s"],
                       factors=report["factors"],
                       observations=report["observations"], problems=reasons,
                       time=time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())),
                  f, indent=1)

    print("env: " + json.dumps(env))
    print("samples: " + json.dumps(report["samples"]))
    raw = sorted(report["verdict_samples_s"])
    if raw:
        print("raw verdict_s (wall time, not scaled): median %.6g s; host-speed"
              " factors %.4g to %.4g" % (raw[len(raw) // 2], min(report["factors"]),
                                         max(report["factors"])))
    for reason in reasons:
        print("problem: " + reason)
    for name, m in metrics.items():
        print("%-36s %16.6g %s" % (name, m["value"], m["unit"]))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
