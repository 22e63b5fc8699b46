#!/usr/bin/env python3
"""Runs one workload of the mrlr benchmark and prints its result.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. It builds perfbench_harness (the
library plus perfbench/harness.cpp, Release) under $CARGO_TARGET_DIR, or
.bench_build when that is unset, then runs the workload that
perfbench/design.json describes with inputs generated from --seed.

stdout ends with two JSON lines. The first is the detail record: every
metric with its unit and sample count, the host noise record, the
hashes and any failure. The last is the result:

    {"correct": .., "attempted": .., "failed": .., "metrics": {..}}

With --trace 0 the metrics are BENCHMARK.json's end_to_end list, with
--trace 1 its per_layer list. Exits non-zero without a result when the
build or the run fails.
"""

import argparse
import json
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
HARNESS_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build():
    """Configures once and builds incrementally; returns the harness path."""
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")):
        raise RuntimeError("no CMakeLists.txt at the checkout root")
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    bdir = os.path.join(ROOT, target, "perfbench")
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", bdir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", bdir, "-j", str(os.cpu_count() or 1)],
                   check=True, stdout=sys.stderr)
    return bdir, os.path.join(bdir, "perfbench_harness")


def resolve(design, name):
    """The workload's parameters, with "same_job_as" expanded: such a
    workload takes the named one's instance, job and pinned hashes and
    overrides only the job fields it lists."""
    wl = design["workloads"][name]
    base_name = wl.get("same_job_as", name)
    base = design["workloads"][base_name]
    wl = dict(wl, instance=base["instance"], job={**base["job"], **wl["job"]})
    return wl, design["pinned_hashes"].get(base_name, {})


def harness_args(wl, seed, seconds, trace, workdir):
    args = ["--seed", str(seed), "--trace", str(trace), "--workdir", workdir,
            "--setup-reps", str(wl["setup_reps"])]
    inst, job = wl["instance"], wl["job"]
    if wl["mode"] == "batch":
        jobs = max(wl["min_jobs"], round(seconds / wl["nominal_job_s"]))
        args = ["batch"] + args + [
            "--algo", job["algo"], "--mu", str(job["mu"]),
            "--shards", str(job["shards"]), "--jobs", str(jobs),
            "--n", str(inst["n"]), "--c", str(inst["c"])]
    else:
        g, s = inst["graph"], inst["sets"]
        mix = ",".join(f"{k}:{v}" for k, v in job["mix"].items())
        args = ["serve"] + args + [
            "--n", str(g["n"]), "--c", str(g["c"]), "--mu", str(job["mu"]),
            "--sets", str(s["sets"]), "--universe", str(s["universe"]),
            "--set-size", str(s["set_size"]), "--sets-mu", str(job["sets_mu"]),
            "--eps", str(job["eps"]), "--mix", mix,
            "--rate", str(wl["rate_per_s"]),
            "--jobs", str(round(wl["rate_per_s"] * seconds)),
            "--conns", str(min(wl["conns"], os.cpu_count() or 1)),
            "--max-running", str(wl["daemon"]["max_running"])]
    return args


def run_harness(exe, args):
    """Runs the harness in its own process group and reaps all of it."""
    proc = subprocess.Popen([exe] + args, stdout=subprocess.PIPE,
                            start_new_session=True, text=True)
    try:
        out, _ = proc.communicate(timeout=HARNESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RuntimeError("harness timed out")
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)  # strays, if any
        except ProcessLookupError:
            pass
    if proc.returncode != 0:
        raise RuntimeError(f"harness exited with {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def median(xs):
    return statistics.median(xs) if xs else 0.0


def percentile(xs, q):
    """Linear interpolation between closest ranks."""
    if not xs:
        return 0.0
    xs = sorted(xs)
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (pos - lo) * (xs[hi] - xs[lo])


def derive(raw, serve):
    """Every metric this run can give: name -> (value, sample count)."""
    s, v = raw["samples"], raw["values"]
    per_job = s["latency_s"] if serve else s["job_s"]
    if serve:
        # The mean of the per-kind median latencies: unlike the median
        # over all jobs, it does not jump between the kinds' modes.
        kinds = [xs for k, xs in s.items()
                 if k.startswith("serve.latency_s.")]
        job_s = statistics.fmean(median(xs) for xs in kinds)
    else:
        job_s = median(per_job)
    m = {
        "job_s": (job_s, len(per_job)),
        "setup_s": (median(s["setup_s"]), len(s["setup_s"])),
        "peak_rss_mb": (v["peak_rss_mb"], 1),
        "mrc.rounds": (median(s["rounds"]), len(s["rounds"])),
        "mrc.space_headroom": (min(s["space_headroom"]),
                               len(s["space_headroom"])),
    }
    if serve:
        m["cpu_s"] = (v["cpu_s"], len(per_job))
        m["serve.latency_s_p90"] = (percentile(per_job, 0.9), len(per_job))
        m["noise.generator_lateness_p95_s"] = (
            percentile(s["lateness_s"], 0.95), len(s["lateness_s"]))
        for k in ("serve.jobs_rejected", "serve.jobs_failed"):
            m[k] = (v[k], 1)
    else:
        m["cpu_s"] = (median(s["cpu_s"]), len(s["cpu_s"]))
        if "job_s_traced" in s:
            m["trace.overhead_s"] = (
                median(s["job_s_traced"]) - median(s["job_s"]),
                len(s["job_s_traced"]))
    for k, xs in s.items():
        name = re.sub(r"[^A-Za-z0-9_.-]", "_", k)
        if "." in name and name not in m:
            m[name] = (median(xs), len(xs))
    for k, x in raw["noise"].items():
        m["noise." + k] = (x, 1)
    return m


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    with open(os.path.join(HERE, "design.json")) as f:
        design = json.load(f)
    if a.workload not in design["workloads"]:
        raise RuntimeError(f"unknown workload {a.workload}")
    wl, pinned = resolve(design, a.workload)

    bdir, exe = build()
    workdir = os.path.join(bdir, f"work-{a.workload}-{a.seed}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    args = harness_args(wl, a.seed, a.seconds, a.trace, workdir)
    pins = pinned.get(str(a.seed), {})
    for algo, h in pins.items():
        args += [f"--pin-{algo}", h]
    try:
        raw = run_harness(exe, args)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    serve = wl["mode"] == "serve"
    derived = derive(raw, serve)
    wanted = bench["per_layer" if a.trace else "end_to_end"]
    metrics = {}
    for spec in wanted:
        value, _ = derived.get(spec["name"], (0.0, 0))
        metrics[spec["name"]] = {"value": value, "unit": spec["unit"]}

    units = {m["name"]: m["unit"] for m in bench["end_to_end"] +
             bench["per_layer"]}
    # A generator late by more than a tenth of the mean gap no longer
    # offers the scheduled load.
    behind = serve and (derived["noise.generator_lateness_p95_s"][0] >
                        0.1 / wl["rate_per_s"])
    if behind:
        log("generator fell behind its schedule; latency figures of this "
            "run are not comparable")
    detail = {
        "workload": a.workload, "seed": a.seed, "trace": a.trace,
        "pinned": bool(pins), "generator_behind": behind,
        "metrics": {k: {"value": x,
                        "unit": units.get(k, "s" if k.endswith("_s") else ""),
                        "samples": n}
                    for k, (x, n) in sorted(derived.items())},
        "hashes": raw["hashes"], "failures": raw["failures"],
    }
    print(json.dumps(detail))
    for why in raw["failures"]:
        log(f"FAILED {why}")
    correct = not raw["failures"] and raw["failed"] == 0
    print(json.dumps({"correct": correct, "attempted": raw["attempted"],
                      "failed": raw["failed"], "metrics": metrics}))


if __name__ == "__main__":
    try:
        main()
    except (RuntimeError, OSError, subprocess.CalledProcessError) as e:
        log(f"error: {e}")
        sys.exit(1)
