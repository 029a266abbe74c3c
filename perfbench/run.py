#!/usr/bin/env python3
"""Builds and runs the seeded HARL benchmark.

One run:
    python3 perfbench/run.py --workload net-tune --seed 1 --seconds 20 --trace 0

Repeat mode (N runs on seeds seed..seed+N-1, then each metric's median and
quartiles, flagging end-to-end metrics whose spread exceeds their bound):
    python3 perfbench/run.py --workload zoo-ops --seed 1 --seconds 20 --repeat 10

Run from the repository root. The benchmark package is built offline with
cargo into $CARGO_TARGET_DIR (default: .bench_build). The last line of a
single run's stdout is the JSON result; the exit code is the benchmark's.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build(target_dir):
    cmd = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", os.path.join(HERE, "Cargo.toml"),
    ]
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    r = subprocess.run(cmd, env=env, stdout=sys.stderr)
    if r.returncode != 0:
        sys.exit(f"perfbench: build failed (exit {r.returncode})")
    return os.path.join(target_dir, "release", "perfbench")


def host_env():
    """Facts the binary cannot learn by itself: compiler and revision."""
    env = dict(os.environ)
    try:
        env["PERFBENCH_RUSTC"] = subprocess.run(
            ["rustc", "--version"], capture_output=True, text=True, check=True
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        pass
    try:
        env["PERFBENCH_REV"] = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True, check=True, cwd=ROOT,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        pass
    return env


def run_once(binary, args, seed, trace, env, echo):
    cmd = [
        binary, "--workload", args.workload, "--seed", str(seed),
        "--seconds", str(args.seconds), "--trace", str(trace),
    ]
    r = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True)
    sys.stderr.write(r.stderr)
    if echo:
        sys.stdout.write(r.stdout)
    lines = r.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = None
    return r.returncode, result, r.stdout


def bounds():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m.get("bound") for m in spec["end_to_end"]}


def repeat(binary, args, env):
    values = {}
    units = {}
    shares = set()
    for i in range(args.repeat):
        seed = args.seed + i
        code, result, out = run_once(binary, args, seed, args.trace, env, False)
        if code != 0 or result is None:
            sys.stdout.write(out)
            sys.exit(f"perfbench: run with seed {seed} failed (exit {code})")
        shares.add((result["failed"], result["attempted"]))
        row = []
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]
            row.append(f"{name}={m['value']:.6g}")
        print(f"seed={seed} correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} " + " ".join(row), flush=True)
    limit = bounds() if not args.trace else {}
    flagged = []
    print(f"\n{'metric':<28} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8} {'bound':>6}")
    summary = {}
    for name, vs in values.items():
        med = statistics.median(vs)
        q1, _, q3 = statistics.quantiles(vs, n=4) if len(vs) > 1 else (vs[0], 0, vs[0])
        spread = (q3 - q1) / med if med else 0.0
        bound = limit.get(name)
        flag = bound is not None and spread > bound
        if flag:
            flagged.append(name)
        print(f"{name:<28} {med:>14.6g} {q1:>14.6g} {q3:>14.6g} {spread:>8.4f} "
              f"{'' if bound is None else bound:>6}{'  OVER BOUND' if flag else ''}")
        summary[name] = {"unit": units[name], "median": med, "q1": q1, "q3": q3,
                         "spread": spread, "values": vs}
    failed_shares = sorted(f / a for f, a in shares)
    print(f"\nfailed share per run: {failed_shares}")
    if args.out:
        with open(args.out, "w") as f:
            json.dump({"workload": args.workload, "seconds": args.seconds,
                       "trace": args.trace, "seeds": [args.seed, args.seed + args.repeat - 1],
                       "metrics": summary}, f, indent=1)
    if flagged:
        print("over bound: " + ", ".join(flagged))
        sys.exit(1)


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--repeat", type=int, default=0,
                   help="run N seeds and summarize instead of one run")
    p.add_argument("--out", help="repeat mode: write the summary JSON here")
    args = p.parse_args()
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    binary = build(os.path.abspath(target))
    env = host_env()
    if args.repeat > 0:
        repeat(binary, args, env)
        return
    code, _, _ = run_once(binary, args, args.seed, args.trace, env, True)
    sys.exit(code)


if __name__ == "__main__":
    main()
