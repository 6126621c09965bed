#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

    python3 perfbench/run.py --workload route_dense --seed 1 --seconds 25 --trace 0

Run from the root of a checkout. The binary is built with Cargo into
$CARGO_TARGET_DIR (default: .bench_build in the checkout). The last line
of standard output is the result object; the full result and, with
--trace 1, a Chrome trace land in --out (default: .bench_out). Exits
non-zero, without a result line, when the program cannot be built.
"""

import argparse
import hashlib
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("route_dense", "route_wide", "eco_session")
# The binary must finish inside the 180 s a run is allowed.
RUN_TIMEOUT_S = 170


def capture(cmd):
    """First line of a command's output, or None when it cannot run."""
    try:
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    lines = out.stdout.strip().splitlines()
    return lines[0] if out.returncode == 0 and lines else None


def source_digest():
    """SHA-256 over the program's sources, for checkouts without git."""
    h = hashlib.sha256()
    for top in ("Cargo.toml", "crates", "shims", "perfbench"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f)
            for d, _, names in os.walk(path)
            for f in names
            if f.endswith((".rs", ".toml"))
        )
        for f in files:
            h.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()[:16]


def main():
    # Turn SIGTERM into an exception so the cleanup in `finally` runs.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=2018)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", choices=("0", "1"), default="0")
    ap.add_argument("--out", default=os.path.join(ROOT, ".bench_out"))
    args = ap.parse_args()

    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        cwd=ROOT, env=env, stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    binary = os.path.join(target, "release", "operon_perfbench")

    # Only this checkout's own repository counts, not one around it.
    in_git = capture(["git", "rev-parse", "--show-toplevel"]) == ROOT
    commit = (in_git and capture(["git", "rev-parse", "HEAD"])) or "src-sha256:" + source_digest()
    cmd = [
        binary,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", args.trace,
        "--out", args.out,
        "--rustc", capture(["rustc", "-V"]) or "unknown",
        "--commit", commit,
    ]
    child = subprocess.Popen(cmd, cwd=ROOT)
    try:
        return child.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: {args.workload} exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    finally:
        # Never leave the benchmark running: on timeout, or when this
        # script is terminated, stop the child and wait for it.
        if child.poll() is None:
            child.kill()
            child.wait()


if __name__ == "__main__":
    sys.exit(main())
