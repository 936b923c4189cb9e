#!/usr/bin/env python3
"""Build the benchmark from source and run it.

Usage, from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --repeat <N>

The benchmark is the Go program in this directory (a module of its own
that uses the repository's module through a replace directive). This
script builds it and cmd/tracecheck into .bench_build/ at the repository
root, keeping Go's build cache there too, then runs it with the given
arguments. Every argument is passed through; see main.go for the flags.
The benchmark's exit code is this script's exit code; a build failure
exits 1 without printing a result.

--repeat N runs the workload N times, with seeds seed ... seed+N-1, and
prints each metric's median, quartiles, spread (interquartile distance
as a share of the median) and max/min ratio, then the same as one JSON
line. It exits 1 if any run fails or reports an incorrect result.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 175


def go_env():
    """Environment that keeps every Go cache and setting inside BUILD."""
    env = dict(os.environ)
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env.update(
        TMPDIR=tmp,
        GOTMPDIR=tmp,
        GOCACHE=os.path.join(BUILD, "go-cache"),
        GOPATH=os.path.join(BUILD, "go-path"),
        XDG_CONFIG_HOME=os.path.join(BUILD, "config"),
        GOFLAGS="-buildvcs=false",
        GOPROXY="off",
        GOTOOLCHAIN="local",
        GOWORK="off",
    )
    return env


def build():
    """Build perfbench and tracecheck; return their paths."""
    os.makedirs(BUILD, exist_ok=True)
    bench = os.path.join(BUILD, "perfbench")
    check = os.path.join(BUILD, "tracecheck")
    env = go_env()
    for out, pkg in ((bench, "."), (check, "repro/cmd/tracecheck")):
        subprocess.run(["go", "build", "-o", out, pkg], cwd=HERE, env=env,
                       check=True, timeout=BUILD_TIMEOUT_S,
                       stdout=sys.stderr)
    return bench, check


def run(args, capture):
    """Run the benchmark once; return (exit code, standard output)."""
    try:
        done = subprocess.run(args, cwd=ROOT, env=go_env(), timeout=RUN_TIMEOUT_S,
                              stdout=subprocess.PIPE if capture else None, text=True)
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1, ""
    return done.returncode, done.stdout or ""


def summarize(values):
    """Median, quartiles, spread and max/min ratio of one metric's values."""
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    lo, hi = min(values), max(values)
    return {
        "median": med,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / abs(med) if med else 0.0,
        "max_min_ratio": hi / lo if lo > 0 else 0.0,
    }


def repeat(bench_args, seed, n):
    """Run the benchmark n times with consecutive seeds and summarize."""
    values, units = {}, {}
    for s in range(seed, seed + n):
        code, out = run(bench_args + ["--seed", str(s)], capture=True)
        lines = out.strip().splitlines()
        try:
            res = json.loads(lines[-1])
        except (IndexError, ValueError):
            res = None
        if code != 0 or not res or not res["correct"] or res["failed"]:
            print(f"perfbench: seed {s}: exit {code}, result {res}", file=sys.stderr)
            return 1
        for name, m in res["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]
        print(f"seed {s}: " + " ".join(f"{k}={v['value']:.6g}" for k, v in sorted(res["metrics"].items())),
              flush=True)
    summary = {}
    print(f"{'metric':28} {'unit':12} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'max/min':>8}")
    for name in sorted(values):
        s = summary[name] = dict(unit=units[name], **summarize(values[name]))
        print(f"{name:28} {s['unit']:12} {s['median']:12.6g} {s['q1']:12.6g} {s['q3']:12.6g} "
              f"{s['spread']:8.4f} {s['max_min_ratio']:8.4f}")
    print(json.dumps({"runs": n, "first_seed": seed, "metrics": summary}))
    return 0


def main():
    parser = argparse.ArgumentParser(add_help=False)
    parser.add_argument("--repeat", type=int, default=0)
    parser.add_argument("--seed", type=int, default=1)
    opts, rest = parser.parse_known_args()
    try:
        bench, check = build()
    except (OSError, subprocess.SubprocessError) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 1
    args = [bench] + rest + ["--work-dir", BUILD, "--tracecheck", check]
    if opts.repeat > 0:
        return repeat(args, opts.seed, opts.repeat)
    return run(args + ["--seed", str(opts.seed)], capture=False)[0]


if __name__ == "__main__":
    sys.exit(main())
