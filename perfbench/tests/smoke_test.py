#!/usr/bin/env python3
"""Short smoke of perfbench/run.py on small instances.

    python3 perfbench/tests/smoke_test.py

From the root of a checkout. For every workload and both modes it checks that
the last stdout line is the result object, that every metric BENCHMARK.json
names is printed with its unit and nothing else, and that every answer was
correct. Then it feeds one deliberately wrong exact reference and checks that
the answers it scores count as failed and in error_rate. Exits 1 on the first
failure.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def run(workload, trace, *extra):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
           "--seconds", "1", "--trace", str(trace), "--tiny"] + list(extra)
    out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                         text=True, timeout=600)
    if out.returncode != 0:
        sys.exit("FAIL %s: exit %d\n%s" % (" ".join(cmd), out.returncode, out.stderr[-2000:]))
    return json.loads(out.stdout.strip().split("\n")[-1])


def expect(ok, what):
    if not ok:
        sys.exit("FAIL " + what)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    for w in [w["name"] for w in bench["workloads"]]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            r = run(w, trace)
            what = "%s --trace %d" % (w, trace)
            expect(sorted(r) == ["attempted", "correct", "failed", "metrics"], what + ": keys")
            expect(r["correct"] and r["failed"] == 0 and r["attempted"] >= 1,
                   what + ": answers not all correct")
            want = {m["name"]: m["unit"] for m in bench[key]}
            got = {name: m["unit"] for name, m in r["metrics"].items()}
            expect(got == want, what + ": metrics differ: %s"
                   % sorted(set(got.items()) ^ set(want.items())))
            expect(all(isinstance(m["value"], (int, float)) for m in r["metrics"].values()),
                   what + ": non-numeric value")
            print("ok  %s: %d metrics, %d answers" % (what, len(got), r["attempted"]))

    r = run("edit_stream", 1, "--corrupt-reference")
    expect(not r["correct"] and r["failed"] >= 1, "wrong reference not counted as failed")
    expect(r["metrics"]["error_rate"]["value"] == r["failed"] / r["attempted"],
           "wrong reference not counted in error_rate")
    print("ok  a wrong reference counts in error_rate")


if __name__ == "__main__":
    main()
