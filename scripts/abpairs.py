#!/usr/bin/env python3
"""Compare two revisions on the repository benchmark with alternating pairs.

Run from anywhere inside the repository:

    python3 scripts/abpairs.py PARENT CHANGE --workload fleet-crowd --seed 1 --pairs 10

Each revision is exported with `git archive` into its own directory in a
fresh temporary directory, removed when the script exits, and every run is
`python3 perfbench/run.py` inside that export at BENCHMARK.json's
run_seconds, so both sides use their own committed benchmark code and build
cache. Pair p runs the parent first when p is even and the change first
when p is odd.

For every end-to-end metric of each workload it prints the change median,
the parent median and quartiles, the parent's interquartile range, and how
many pairs the change won (by the metric's `better` direction in
BENCHMARK.json; ties count for neither side). A claim holds when the change
wins at least nine tenths of the pairs and the medians differ by more than
the parent's interquartile range. It also reports whether the simulated
outcomes (`simulated` in each run's result file) were identical on both
sides.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile


def git(*args, cwd=None):
    return subprocess.run(["git", *args], cwd=cwd, check=True, capture_output=True,
                          text=True).stdout.strip()


def export(root, rev, dest):
    """Extracts rev's tree into the new directory dest; returns its short hash."""
    sha = git("rev-parse", "--verify", rev + "^{commit}", cwd=root)
    os.mkdir(dest)
    archive = subprocess.Popen(["git", "archive", sha], cwd=root, stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", dest], stdin=archive.stdout, check=True)
    archive.stdout.close()
    if archive.wait() != 0:
        raise SystemExit(f"abpairs: git archive {rev} failed")
    return sha[:7]


def run(tree, commit, workload, seed, seconds, trace):
    """Runs the benchmark once in tree; returns (result line, simulated outcome)."""
    env = dict(os.environ, BENCH_COMMIT=commit)
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=tree, env=env, capture_output=True, text=True, timeout=1200)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"abpairs: {workload} seed {seed} at {commit} failed "
                         f"({proc.returncode}):\n{proc.stderr}")
    kind = "trace" if trace else "run"
    path = os.path.join(tree, ".bench_build", "perfbench", f"{workload}-seed{seed}-{kind}.json")
    with open(path) as f:
        simulated = json.load(f).get("simulated")
    return json.loads(lines[-1]), simulated


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0]
    q = statistics.quantiles(xs, n=4, method="inclusive")
    return q[0], q[2]


def summarize(metric, better, parent, change):
    p_med, c_med = statistics.median(parent), statistics.median(change)
    q1, q3 = quartiles(parent)
    wins = sum(1 for p, c in zip(parent, change) if (c > p if better == "higher" else c < p))
    return {
        "metric": metric, "better": better,
        "parent_median": p_med, "parent_q1": q1, "parent_q3": q3, "parent_iqr": q3 - q1,
        "change_median": c_med, "change_q1": quartiles(change)[0], "change_q3": quartiles(change)[1],
        "rel_change": (c_med - p_med) / p_med if p_med else float("nan"),
        "wins": wins, "pairs": len(parent),
        "claim_holds": wins * 10 >= 9 * len(parent) and abs(c_med - p_med) > q3 - q1
        and (c_med > p_med if better == "higher" else c_med < p_med),
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", help="baseline revision")
    ap.add_argument("change", help="revision under test")
    ap.add_argument("--workload", action="append",
                    help="workload to run (repeatable; default: every workload in BENCHMARK.json)")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = ap.parse_args()

    root = git("rev-parse", "--show-toplevel")
    workdir = tempfile.mkdtemp(prefix="abpairs-")
    try:
        compare(root, workdir, args)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


def compare(root, workdir, args):
    trees = {}
    for side, rev in (("parent", args.parent), ("change", args.change)):
        tree = os.path.join(workdir, side)
        trees[side] = (tree, export(root, rev, tree))
    with open(os.path.join(trees["change"][0], "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = bench["run_seconds"]
    names = args.workload or [w["name"] for w in bench["workloads"]]
    metrics = bench["per_layer"] if args.trace else bench["end_to_end"]
    for wl in names:
        runs = {"parent": [], "change": []}
        outcomes = {"parent": [], "change": []}
        for p in range(args.pairs):
            order = ("parent", "change") if p % 2 == 0 else ("change", "parent")
            for side in order:
                tree, commit = trees[side]
                res, sim = run(tree, commit, wl, args.seed, seconds, args.trace)
                runs[side].append(res)
                outcomes[side].append(sim)
                print(f"{wl} pair {p + 1}/{args.pairs} {side} {commit}: "
                      + " ".join(f"{m['name']}={res['metrics'][m['name']]['value']:.6g}"
                                 for m in metrics[:3]), file=sys.stderr, flush=True)
        rows = []
        for m in metrics:
            pv = [r["metrics"][m["name"]]["value"] for r in runs["parent"]]
            cv = [r["metrics"][m["name"]]["value"] for r in runs["change"]]
            rows.append(summarize(m["name"], m["better"], pv, cv))
        same = all(o == outcomes["parent"][0] for o in outcomes["parent"] + outcomes["change"])
        failed = {side: sum(r.get("failed", 0) for r in runs[side]) for side in runs}

        print(f"\n{wl}, seed {args.seed}, {args.pairs} pairs of {seconds:g} s: "
              f"parent {trees['parent'][1]}, change {trees['change'][1]}")
        print(f"  simulated outcomes identical: {same}; failed ops parent {failed['parent']}, "
              f"change {failed['change']}")
        print(f"  {'metric':34} {'change med':>12} {'parent med':>12} {'parent q1':>12} "
              f"{'parent q3':>12} {'delta':>8} {'wins':>6}")
        for r in rows:
            flag = "  claim holds" if r["claim_holds"] else ""
            print(f"  {r['metric']:34} {r['change_median']:12.6g} {r['parent_median']:12.6g} "
                  f"{r['parent_q1']:12.6g} {r['parent_q3']:12.6g} {r['rel_change']:+8.1%} "
                  f"{r['wins']:>3}/{r['pairs']}{flag}")


if __name__ == "__main__":
    sys.exit(main())
