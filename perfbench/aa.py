#!/usr/bin/env python3
"""A/A steadiness check: the same code measured as two sets of runs.

    python3 perfbench/aa.py [--runs 10] [--workloads a,b] [--log FILE]
    python3 perfbench/aa.py --report-only --log FILE

Runs run.py (trace 0) once per seed and workload: set A on seeds
1..runs, set B on seeds runs+1..2*runs, alternating A and B so host
drift hits both. Each result is appended to --log (JSON lines, default
.bench_build/aa.jsonl). Then prints, per workload and end-to-end
metric, each set's median and quartiles, its spread (q3 - q1 over the
median, as statistics.quantiles(n=4) gives them), the shift of B's
median against A's, and whether both stay within BENCHMARK.json's bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds):
    p = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True)
    if p.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} failed:\n{p.stderr}")
    lines = p.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def summary(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3


def report(records, bench):
    print("| workload | metric | A median [q1, q3] | A spread "
          "| B median [q1, q3] | B spread | B vs A | bound | ok |")
    print("|---|---|---|---|---|---|---|---|---|")
    ok_all = True
    for wl in [w["name"] for w in bench["workloads"]]:
        for m in bench["end_to_end"]:
            sets = {}
            for r in records:
                if r["workload"] == wl:
                    sets.setdefault(r["set"], []).append(
                        r["result"]["metrics"][m["name"]]["value"])
            if len(sets.get("A", [])) < 3 or len(sets.get("B", [])) < 3:
                continue
            (ma, a1, a3), (mb, b1, b3) = summary(sets["A"]), summary(sets["B"])
            sa, sb = (a3 - a1) / ma, (b3 - b1) / mb
            shift = (mb - ma) / ma
            worse = shift if m["better"] == "lower" else -shift
            ok = worse <= m["bound"] and max(sa, sb) <= m["bound"]
            ok_all &= ok
            print(f"| {wl} | {m['name']} | {ma:.4g} [{a1:.4g}, {a3:.4g}] | "
                  f"{sa:.3f} | {mb:.4g} [{b1:.4g}, {b3:.4g}] | {sb:.3f} | "
                  f"{shift:+.3f} | {m['bound']} | {'yes' if ok else 'NO'} |")
    bad = [r for r in records if not r["result"]["correct"]]
    print(f"\n{len(records)} runs, {len(bad)} incorrect; "
          f"{'all within bounds' if ok_all else 'SOME OUT OF BOUNDS'}")
    return ok_all and not bad


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workloads", default="")
    ap.add_argument("--log", default=os.path.join(ROOT, ".bench_build",
                                                  "aa.jsonl"))
    ap.add_argument("--report-only", action="store_true")
    a = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    names = ([w for w in a.workloads.split(",") if w] or
             [w["name"] for w in bench["workloads"]])
    if not a.report_only:
        os.makedirs(os.path.dirname(os.path.abspath(a.log)), exist_ok=True)
        for wl in names:
            for i in range(1, a.runs + 1):
                for label, seed in (("A", i), ("B", a.runs + i)):
                    detail, result = run_once(wl, seed, bench["run_seconds"])
                    rec = {"workload": wl, "set": label, "seed": seed,
                           "detail": detail, "result": result}
                    with open(a.log, "a") as f:
                        f.write(json.dumps(rec) + "\n")
                    print(f"{wl} {label} seed {seed}: " + ", ".join(
                        f"{k}={v['value']:.4g}"
                        for k, v in result["metrics"].items()),
                        file=sys.stderr, flush=True)
    with open(a.log) as f:
        records = [json.loads(line) for line in f if line.strip()]
    sys.exit(0 if report(records, bench) else 1)


if __name__ == "__main__":
    main()
