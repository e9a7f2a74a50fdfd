#!/usr/bin/env python3
"""Self-test of the benchmark: a short smoke run of every workload, untraced
and traced, plus the failure paths.

    python3 perfbench/selftest.py

Run from the root of a checkout (the first call builds the program). Checks
that each run exits 0 with a correct result naming exactly the metrics and
units BENCHMARK.json lists, that a wrong reference checksum makes the
command exit 1 with "correct": false. Exits non-zero on the first failure.
"""
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def bench(*args):
    out = subprocess.run([sys.executable, os.path.join(ROOT, "perfbench", "run.py"), *args],
                         cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = out.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            pass
    return out.returncode, result, out


def fail(msg, out=None):
    print("FAIL: " + msg)
    if out is not None:
        print(out.stdout[-2000:], out.stderr[-2000:], sep="\n")
    sys.exit(1)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    units = {
        "0": {m["name"]: m["unit"] for m in spec["end_to_end"]},
        "1": {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    for w in spec["workloads"]:
        for trace in ("0", "1"):
            code, res, out = bench("--workload", w["name"], "--seed", "7",
                                   "--seconds", "1", "--trace", trace)
            if code != 0 or res is None or not res["correct"] or res["failed"] != 0:
                fail(f"{w['name']} trace {trace}: exit {code}", out)
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            if got != units[trace]:
                fail(f"{w['name']} trace {trace}: metrics differ from BENCHMARK.json", out)
            if trace == "0" and any(v["value"] <= 0 for v in res["metrics"].values()):
                fail(f"{w['name']}: an end-to-end metric is not positive", out)
            print(f"ok  {w['name']} trace {trace}: {res['attempted']} operations checked")

    code, res, out = bench("--workload", "ram256_j1", "--seed", "7", "--seconds", "1",
                           "--trace", "0", "--expect-checksum", "0x1")
    if code != 1 or res is None or res["correct"] or res["failed"] == 0:
        fail(f"a wrong reference checksum must fail the run (exit {code})", out)
    print("ok  a wrong reference checksum fails the command")

    print("selftest passed")


if __name__ == "__main__":
    main()
