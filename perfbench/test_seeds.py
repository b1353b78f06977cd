#!/usr/bin/env python3
"""Seed-independence test for the checker benchmark.

    python3 perfbench/test_seeds.py [SEED_A SEED_B]

Runs every workload once at each of two seeds (one repetition each,
tracing off) and asserts that:

- every run is correct, with no failed check;
- verdicts and counts are identical at both seeds;
- lin-crash-k4-j2 gives exactly the counts of its sequential twin,
  lin-crash-k4, which bench.exe still runs but BENCHMARK.json does not
  gate.

Takes about a minute, most of it the two lin-symfull-k5 searches.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "bench.exe")


def run(workload, seed):
    r = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert r.returncode == 0, "%s seed %d: exit %d\n%s" % (
        workload, seed, r.returncode, r.stderr)
    result = json.loads(r.stdout.strip().splitlines()[-1])
    tag = "%s-seed%d-trace0" % (workload, seed)
    with open(os.path.join(HERE, "out", "result-%s.json" % tag)) as f:
        full = json.load(f)
    assert result["correct"] and result["failed"] == 0, (
        "%s seed %d: %s" % (workload, seed, full["problems"]))
    return full["observations"]


def run_sequential_twin(seed):
    """The lin-crash-k4 observations, straight from bench.exe."""
    r = subprocess.run(
        [EXE, "--workload", "lin-crash-k4", "--seed", str(seed),
         "--seconds", "0", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert r.returncode == 0, "lin-crash-k4 seed %d: exit %d\n%s" % (
        seed, r.returncode, r.stderr)
    return json.loads(r.stdout.strip().splitlines()[-1])["observations"]


def main():
    seeds = [int(s) for s in sys.argv[1:3]] or [1, 2]
    assert len(seeds) == 2 and seeds[0] != seeds[1], "give two distinct seeds"
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        workloads = [w["name"] for w in json.load(f)["workloads"]]
    seen = {}
    for w in workloads:
        a, b = (run(w, s) for s in seeds)
        assert a == b, "%s: seeds %s disagree:\n%s\n%s" % (w, seeds, a, b)
        seen[w] = a[0]
        print("ok  %-16s identical at seeds %s: %s" % (w, seeds, json.dumps(a[0])))
    if "lin-crash-k4-j2" in seen:
        for s in seeds:
            seq = run_sequential_twin(s)[0]
            assert seq == seen["lin-crash-k4-j2"], (
                "seed %d: jobs=2 counts %s differ from jobs=1 counts %s"
                % (s, seen["lin-crash-k4-j2"], seq))
        print("ok  lin-crash-k4-j2 counts equal lin-crash-k4 counts at seeds %s"
              % seeds)
    print("PASS")


if __name__ == "__main__":
    main()
