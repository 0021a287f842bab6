#!/usr/bin/env python3
"""Build the release `jahob` binary and the benchmark runner from this
checkout, then run the runner with the given arguments.

Run from the checkout root:

    python3 perfbench/run.py --workload cold_verify --seed 1 --seconds 10 --trace 0

Both builds are offline and `--locked`: the repository's Cargo.toml and
Cargo.lock are read, never rewritten, and the runner is a package of its
own (perfbench/Cargo.toml). Build output goes to CARGO_TARGET_DIR, by
default `.bench_build` in the checkout. Cargo's messages go to stderr, so
the runner's result stays the last line of stdout.
"""
import os
import subprocess
import sys


def main():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    env = dict(os.environ, CARGO_TARGET_DIR=target, CARGO_NET_OFFLINE="true")
    builds = [
        ["cargo", "build", "--release", "--offline", "--locked", "--quiet", "--bin", "jahob"],
        ["cargo", "build", "--release", "--offline", "--locked", "--quiet",
         "--manifest-path", os.path.join("perfbench", "Cargo.toml")],
    ]
    for cmd in builds:
        status = subprocess.run(cmd, env=env, stdout=sys.stderr, check=False).returncode
        if status != 0:
            sys.exit(f"perfbench: `{' '.join(cmd)}` failed with status {status}")
    release = os.path.join(target, "release")
    runner = os.path.join(release, "jahob-perfbench")
    jahob = os.path.join(release, "jahob")
    sys.stdout.flush()
    sys.stderr.flush()
    # Replace this process, so a signal meant for the benchmark reaches
    # the runner, which passes it on to its children.
    os.execv(runner, [runner, "--jahob", jahob] + sys.argv[1:])


if __name__ == "__main__":
    main()
