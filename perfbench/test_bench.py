#!/usr/bin/env python3
"""The benchmark's own test: every workload at a tiny size, untraced and traced.

    python3 perfbench/test_bench.py        # from the root of the repo

For each workload it asserts that
  - the run exits 0 and its last line is a result with correct = true;
  - every metric BENCHMARK.json names is printed, with that unit;
  - ok_frac = 1;
  - the semantic cache is in the workload's regime: hit ratio >= 0.95 on
    serve-hot, <= 0.1 on serve-churn and analytic;
and, at the end, that no `gqkg serve` process is left running.
"""

import json
import os
import subprocess
import sys

HIT_RATIO = {"serve-hot": (0.95, 1.0), "serve-churn": (0.0, 0.1), "analytic": (0.0, 0.1)}


def run(workload, trace):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
           "--seconds", "2", "--trace", str(trace), "--size", "tiny"]
    p = subprocess.run(cmd, capture_output=True, text=True, timeout=300)
    assert p.returncode == 0, "%s trace=%d exited %d:\n%s\n%s" % (
        workload, trace, p.returncode, p.stdout[-3000:], p.stderr[-3000:])
    result = json.loads(p.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
    assert result["correct"] is True and result["failed"] == 0, result
    assert result["attempted"] >= 1, result
    return result["metrics"]


def check_units(metrics, specs, where):
    for spec in specs:
        name = spec["name"]
        assert name in metrics, "%s: metric %s not printed" % (where, name)
        assert metrics[name]["unit"] == spec["unit"], "%s: %s has unit %s, not %s" % (
            where, name, metrics[name]["unit"], spec["unit"])
        assert isinstance(metrics[name]["value"], (int, float)), (where, name)


def daemons_left():
    left = []
    for pid in os.listdir("/proc"):
        if not pid.isdigit():
            continue
        try:
            with open("/proc/%s/cmdline" % pid, "rb") as f:
                args = f.read().split(b"\0")
        except OSError:
            continue
        if b"serve" in args and any(a.endswith(b"gqkg.exe") for a in args):
            left.append(int(pid))
    return left


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    for w in bench["workloads"]:
        name = w["name"]
        e2e = run(name, 0)
        check_units(e2e, bench["end_to_end"], name)
        assert e2e["ok_frac"]["value"] == 1.0, (name, e2e["ok_frac"])
        layers = run(name, 1)
        check_units(layers, bench["per_layer"], name + " traced")
        lo, hi = HIT_RATIO[name]
        ratio = layers["semcache.hit_ratio"]["value"]
        lookups = layers["semcache.lookups"]["value"]
        assert lookups > 0 and lo <= ratio <= hi, "%s: hit ratio %.3f of %d lookups outside [%.2f, %.2f]" % (
            name, ratio, lookups, lo, hi)
        print("ok  %-12s hit ratio %.3f of %d lookups" % (name, ratio, lookups))
    assert daemons_left() == [], "gqkg serve still running: %s" % daemons_left()
    print("ok  no gqkg serve left running")


if __name__ == "__main__":
    main()
