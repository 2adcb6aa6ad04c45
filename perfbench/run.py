#!/usr/bin/env python3
"""Build and run the simulator benchmark.

Run one workload (from the checkout root):

    python3 perfbench/run.py --workload flagship-if --seed 7 --seconds 20 --trace 0

This builds perfbench, the Go module beside this file, into the build
directory ($CARGO_TARGET_DIR, default .bench_build) with the Go caches
kept there too, then runs it. The last line of the output is the result
JSON. With --trace 1 the run also writes its spans to
<build dir>/spans-<workload>.json.

Steadiness report: run every workload ROUNDS times, interleaved, each
round on a new seed, and print each metric's median, quartiles and
spread, flagging any end-to-end metric whose spread exceeds its bound:

    python3 perfbench/run.py --steady 10 --save perfbench/results/set1.json

Compare two saved sets (the second median may not be worse than the
first by more than the bound):

    python3 perfbench/run.py --compare perfbench/results/set1.json perfbench/results/set2.json
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def build_dir():
    d = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    os.makedirs(os.path.join(d, "tmp"), exist_ok=True)
    return d


def go_env(bdir):
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(bdir, "gocache"),
        GOTMPDIR=os.path.join(bdir, "tmp"),
        GOPATH=os.path.join(bdir, "gopath"),
        GOMODCACHE=os.path.join(bdir, "gopath", "pkg", "mod"),
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOWORK="off",
        GOFLAGS="",
    )
    return env


def build(bdir):
    """Builds the benchmark binary; returns its path, or None on failure."""
    binary = os.path.join(bdir, "perfbench")
    try:
        p = subprocess.run(["go", "build", "-o", binary, "."], cwd=HERE, env=go_env(bdir),
                           stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
                           timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return None
    if p.returncode != 0:
        print(f"perfbench: build failed:\n{p.stdout}", file=sys.stderr)
        return None
    return binary


def run_one(binary, bdir, workload, seed, seconds, trace, echo=True):
    """Runs one workload; returns (exit code, parsed result or None)."""
    cmd = [binary, "-workload", workload, "-seed", str(seed), "-seconds", str(seconds),
           "-trace", str(trace), "-dir", HERE, "-root", os.getcwd(),
           "-spans", os.path.join(bdir, f"spans-{workload}.json")]
    try:
        p = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: {workload} timed out", file=sys.stderr)
        return 1, None
    if echo:
        sys.stdout.write(p.stdout)
    if p.returncode != 0:
        return p.returncode, None
    lines = p.stdout.strip().splitlines()
    if not lines:
        return 1, None
    res = json.loads(lines[-1])
    m = re.search(r"CPU times scaled by ([0-9.]+)", p.stdout)
    if m:
        res["speed"] = float(m.group(1))
    return 0, res


def load_spec():
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        return json.load(f)


def quartiles(values):
    """Median, first and third quartile as the acceptance check takes them."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q2, q1, q3


def steady(rounds, seconds, names, save):
    spec = load_spec()
    bdir = build_dir()
    binary = build(bdir)
    if binary is None:
        return 1
    runs = {w: [] for w in names}
    for i in range(rounds):
        # Rotate the order each round so no workload always runs first.
        order = names[i % len(names):] + names[:i % len(names)]
        for w in order:
            seed = 1000 + i
            code, res = run_one(binary, bdir, w, seed, seconds, 0, echo=False)
            if code != 0 or res is None:
                print(f"perfbench: {w} seed {seed} exited {code}", file=sys.stderr)
                return 1
            runs[w].append(res)
            print(f"round {i + 1}/{rounds} {w} seed {seed}: correct={res['correct']} "
                  f"attempted={res['attempted']} failed={res['failed']}", flush=True)
    if save:
        with open(save, "w") as f:
            json.dump({"seconds": seconds, "runs": runs}, f, indent=1)
    return report(spec, runs)


def report(spec, runs):
    bad = 0
    for w, results in runs.items():
        print(f"\n{w}: {len(results)} runs, "
              f"{sum(r['failed'] for r in results)} failed of {sum(r['attempted'] for r in results)} operations")
        print(f"  {'metric':<20} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8} {'bound':>6}")
        for m in spec["end_to_end"]:
            vals = [r["metrics"][m["name"]]["value"] for r in results]
            med, q1, q3 = quartiles(vals)
            spread = (q3 - q1) / med
            # setup_s is judged only on its median, not its spread.
            over = m["name"] != "setup_s" and spread > m["bound"]
            bad += over
            flag = "  OVER BOUND" if over else ("  > bound/3" if spread > m["bound"] / 3 else "")
            print(f"  {m['name']:<20} {med:>14.6g} {q1:>14.6g} {q3:>14.6g} {spread:>8.4f} {m['bound']:>6}{flag}")
        if all("speed" in r for r in results):
            # The same runs' CPU time before scaling to nominal host speed.
            raw = [r["metrics"]["cpu_s"]["value"] / r["speed"] for r in results]
            med, q1, q3 = quartiles(raw)
            print(f"  {'(unscaled cpu_s)':<20} {med:>14.6g} {q1:>14.6g} {q3:>14.6g} {(q3 - q1) / med:>8.4f}")
        if any(not r["correct"] for r in results):
            bad += 1
            print("  INCORRECT RESULTS")
    return 1 if bad else 0


def compare(first, second):
    spec = load_spec()
    with open(first) as f:
        a = json.load(f)["runs"]
    with open(second) as f:
        b = json.load(f)["runs"]
    bad = 0
    for w in a:
        if w not in b:
            continue
        print(f"\n{w}")
        for m in spec["end_to_end"]:
            ma = statistics.median(r["metrics"][m["name"]]["value"] for r in a[w])
            mb = statistics.median(r["metrics"][m["name"]]["value"] for r in b[w])
            worse = (mb - ma) / ma if m["better"] == "lower" else (ma - mb) / ma
            over = worse > m["bound"]
            bad += over
            print(f"  {m['name']:<20} {ma:>14.6g} {mb:>14.6g} worse by {worse:+.4f} (bound {m['bound']})"
                  + ("  OVER BOUND" if over else ""))
    return 1 if bad else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--steady", type=int, metavar="ROUNDS")
    ap.add_argument("--workloads", help="comma-separated subset for --steady")
    ap.add_argument("--save", help="file --steady writes its raw results to")
    ap.add_argument("--compare", nargs=2, metavar=("FIRST", "SECOND"))
    args = ap.parse_args()

    if args.compare:
        return compare(*args.compare)
    if args.steady:
        spec = load_spec()
        names = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
        return steady(args.steady, args.seconds or spec["run_seconds"], names, args.save)
    if not args.workload:
        ap.error("--workload, --steady or --compare is required")
    bdir = build_dir()
    binary = build(bdir)
    if binary is None:
        return 1
    seconds = args.seconds if args.seconds is not None else load_spec()["run_seconds"]
    code, _ = run_one(binary, bdir, args.workload, args.seed, seconds, args.trace)
    return code


if __name__ == "__main__":
    sys.exit(main())
