#!/usr/bin/env python3
"""Self-test of the benchmark.  Run from the repository root:

    python3 perfbench/selftest.py

1. A smoke-size run of every workload, untraced and traced, must pass its
   checks and print every metric BENCHMARK.json names, with its unit.
2. Each --corrupt run damages one output (or the store oracle); the
   matching check must fail, proving the checks are live.
3. In a directory holding only BENCHMARK.json and perfbench/, the
   benchmark must exit nonzero without printing a result.

Exits nonzero on the first failed expectation.
"""

import json
import os
import shutil
import subprocess
import sys

SEED = 5


def bench(workload, trace, corrupt=None, cwd="."):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed",
           str(SEED), "--seconds", "2", "--trace", str(trace), "--size", "smoke"]
    if corrupt:
        cmd += ["--corrupt", corrupt]
    p = subprocess.run(cmd, capture_output=True, text=True, cwd=cwd, timeout=600)
    lines = p.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = None
    return p.returncode, result, p


def expect(ok, what, p=None):
    print("%s  %s" % ("ok  " if ok else "FAIL", what), flush=True)
    if not ok:
        if p is not None:
            sys.stderr.write(p.stdout[-3000:] + p.stderr[-3000:])
        sys.exit(1)


def main():
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    wanted = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
              1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    for w in [x["name"] for x in spec["workloads"]]:
        for trace in (0, 1):
            code, r, p = bench(w, trace)
            expect(code == 0 and r is not None and r["correct"] and r["failed"] == 0
                   and r["attempted"] >= 1,
                   "%s trace=%d passes its checks" % (w, trace), p)
            got = {k: v["unit"] for k, v in r["metrics"].items()}
            expect(got == wanted[trace],
                   "%s trace=%d prints every metric with its unit" % (w, trace), p)
    for w, trace, corrupt in [("weekly", 0, "weekly-csv"),
                              ("weekly", 0, "weekly-ledger"),
                              ("weekly", 1, "weekly-traced-csv"),
                              ("analyze", 0, "analyze-csv"),
                              ("analyze", 1, "analyze-traced-csv"),
                              ("store", 0, "store-oracle")]:
        code, r, p = bench(w, trace, corrupt)
        expect(code == 0 and r is not None and not r["correct"] and r["failed"] >= 1,
               "%s trace=%d --corrupt %s fails its check" % (w, trace, corrupt), p)
    bare = os.path.join("perfbench", "_work", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    try:
        shutil.copy("BENCHMARK.json", bare)
        shutil.copytree("perfbench", os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("_work"))
        code, r, p = bench("store", 0, cwd=bare)
        expect(code != 0 and r is None,
               "without the repository the benchmark exits %d with no result" % code, p)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        if not os.listdir(os.path.dirname(bare)):
            os.rmdir(os.path.dirname(bare))


if __name__ == "__main__":
    main()
