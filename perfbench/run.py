#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload serve-steady --seed 1 --seconds 20 --trace 0

The Go program lives in this directory as its own module; this script
builds it into .bench_build/ (the Go build cache goes there too, so the
run writes nothing outside the checkout), runs it with the same
arguments, and relays its output. The last line of standard output is the
JSON result. A failed build exits non-zero without printing a result.
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
OUT = os.path.join(BUILD, "perfbench")
BINARY = os.path.join(OUT, "perfbench")


def go_env():
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(BUILD, "gocache"),
        "GOTMPDIR": os.path.join(BUILD, "tmp"),
        "GOTOOLCHAIN": "local",
        "GOFLAGS": "-mod=mod",
        "GOPROXY": "off",
        "GOSUMDB": "off",
        "GOWORK": "off",
        # pprof keeps its own state under $HOME; point it into the checkout.
        "HOME": os.path.join(BUILD, "home"),
    })
    # Runs use the default GOMAXPROCS (every CPU); the worker pools are
    # pinned to one goroutine inside the program instead.
    env.pop("GOMAXPROCS", None)
    return env


def commit():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    return os.environ.get("BENCH_COMMIT", "unknown")


def main():
    gobin = shutil.which("go")
    if gobin is None or not os.path.isfile(os.path.join(ROOT, "go.mod")):
        print("perfbench: needs the go toolchain and the repository's go.mod", file=sys.stderr)
        return 1
    env = go_env()
    for d in (env["GOCACHE"], env["GOTMPDIR"], env["HOME"], OUT):
        os.makedirs(d, exist_ok=True)
    build = subprocess.run([gobin, "build", "-o", BINARY, "."], cwd=HERE, env=env,
                           stdout=sys.stderr, timeout=840)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    run = subprocess.run([BINARY, "--out", OUT, "--go", gobin, "--commit", commit()] + sys.argv[1:],
                         cwd=ROOT, env=env, timeout=175)
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
