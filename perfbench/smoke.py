#!/usr/bin/env python3
"""Short run of every workload, untraced and traced: each must print
every metric BENCHMARK.json names for that mode, with its unit, report
no failures, and print it as the last line.

    python3 perfbench/smoke.py            (from the repository root)
"""
import json
import subprocess
import sys


def main():
    spec = json.load(open("BENCHMARK.json"))
    problems = []
    for w in spec["workloads"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            cmd = spec["command"] + ["--workload", w["name"], "--seed", "3", "--seconds", "1", "--trace", str(trace)]
            out = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True, timeout=300)
            label = "%s trace=%d" % (w["name"], trace)
            if out.returncode != 0:
                problems.append("%s: exit %d" % (label, out.returncode))
                continue
            result = json.loads(out.stdout.strip().splitlines()[-1])
            if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
                problems.append("%s: keys %s" % (label, sorted(result)))
            if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
                problems.append("%s: correct=%s failed=%s" % (label, result["correct"], result["failed"]))
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != want:
                problems.append("%s: metrics differ: missing %s, extra %s, units %s" % (
                    label, sorted(set(want) - set(got)), sorted(set(got) - set(want)),
                    sorted(k for k in want if k in got and got[k] != want[k])))
            bad = [k for k, v in result["metrics"].items() if not isinstance(v["value"], (int, float))]
            if bad:
                problems.append("%s: non-numeric %s" % (label, bad))
            print("ok " if not problems else "...", label, flush=True)
    for p in problems:
        print("FAIL", p)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
