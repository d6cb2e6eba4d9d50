#!/usr/bin/env python3
"""Builds and runs the Cedar benchmark.

    python3 perfbench/run.py --workload <table2|degraded|serve> --seed N \
        --seconds S --trace <0|1>

Run from the root of a checkout. Builds `perfbench/` (a Cargo package of
its own that depends on the repository's crates by path) into
$CARGO_TARGET_DIR, default `.bench_build`, then runs the benchmark
binary. Its standard output passes through unchanged; its last line is
the JSON result. Run outputs (spans, cache directories) go under
`.bench_build/perfbench-run/`.
"""

import argparse
import hashlib
import os
import subprocess
import sys

RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 880


def source_digest():
    """SHA-256 over the sources the binary is built from.

    Build output (`target` directories) is skipped.
    """
    h = hashlib.sha256()
    roots = ["crates", "perfbench"]
    files = [p for p in ["Cargo.toml", "Cargo.lock"] if os.path.isfile(p)]
    for root in roots:
        for dirpath, dirnames, filenames in os.walk(root):
            dirnames[:] = sorted(d for d in dirnames if d != "target")
            files.extend(os.path.join(dirpath, f) for f in sorted(filenames))
    for path in files:
        h.update(path.encode())
        with open(path, "rb") as f:
            h.update(f.read())
    return h.hexdigest()[:16]


def commit():
    if not os.path.isdir(".git"):
        return "unknown"
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short=12", "HEAD"],
            capture_output=True, text=True, timeout=10, check=True,
        )
        return out.stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=["0", "1"])
    args = ap.parse_args()

    if not os.path.isfile(os.path.join("perfbench", "Cargo.toml")):
        sys.exit("run.py: run from the repository root")
    env = dict(os.environ)
    target = env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join("perfbench", "Cargo.toml")],
        stdout=sys.stderr, env=env, timeout=BUILD_TIMEOUT_S,
    )
    if build.returncode != 0:
        sys.exit("run.py: building the benchmark failed")

    binary = os.path.join(target, "release", "cedar-perfbench")
    out_dir = os.path.join(".bench_build", "perfbench-run")
    os.makedirs(out_dir, exist_ok=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--out", out_dir, "--commit", commit(),
           "--source-digest", source_digest()]
    try:
        run = subprocess.run(cmd, env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("run.py: the benchmark overran its time limit")
    sys.exit(run.returncode)


if __name__ == "__main__":
    main()
