#!/usr/bin/env python3
"""Build and run the MKSE end-to-end / per-layer benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload fleet_point --seed 1 --seconds 10 --trace 0

Builds the `perfbench` crate (a Cargo workspace of its own that depends on
the repository's crates by path) in release mode, offline, then runs it with
the same arguments. The build goes to `$CARGO_TARGET_DIR` when set, else to
`perfbench/target`. Build output goes to stderr; the benchmark's last stdout
line is its JSON result. Exits non-zero, printing no result, when the build
fails (e.g. when the repository's crates are not next to this directory).
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def commit():
    """The repository's commit, when it is a git checkout (never looks
    above the repository root)."""
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10, env=env,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def main():
    manifest = os.path.join(HERE, "Cargo.toml")
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", manifest],
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target")
    binary = os.path.join(target, "release", "perfbench")
    env = dict(os.environ, PERFBENCH_COMMIT=commit())
    out_dir = os.path.join(HERE, "out")
    args = sys.argv[1:]
    if "--out" not in args:
        args += ["--out", out_dir]
    return subprocess.run([binary] + args, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
