#!/usr/bin/env python3
"""Build and run the CLITE benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload <search|fleet|fleet-durable> \
        --seed <n> --seconds <s> --trace <0|1>

Builds the `perfbench` package (release profile, offline) into
$CARGO_TARGET_DIR (default `.bench_build`), then runs it with the given
arguments. The last line of standard output is the run's JSON result;
the lines before it that start with `#` are its header. Spans of traced
runs and the durable fleet's temporary state go to `perfbench/out/`.
"""

import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def commit():
    """The repository's commit, or "unknown" outside a git checkout."""
    try:
        top = subprocess.run(
            ["git", "rev-parse", "--show-toplevel"],
            cwd=ROOT, capture_output=True, text=True, check=True,
        ).stdout.strip()
        if Path(top).resolve() != ROOT:
            return "unknown"
        return subprocess.run(
            ["git", "rev-parse", "--short=12", "HEAD"],
            cwd=ROOT, capture_output=True, text=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def run(cmd, env):
    """Runs `cmd` to completion; kills and reaps it if interrupted."""
    proc = subprocess.Popen(cmd, env=env)
    try:
        return proc.wait()
    except BaseException:
        proc.kill()
        proc.wait()
        raise


def main():
    if not (ROOT / "crates" / "core" / "Cargo.toml").is_file():
        sys.stderr.write(f"perfbench: no CLITE sources under {ROOT / 'crates'}\n")
        return 1
    env = dict(os.environ)
    target = Path(env.setdefault("CARGO_TARGET_DIR", str(ROOT / ".bench_build")))
    if not target.is_absolute():
        target = Path.cwd() / target
        env["CARGO_TARGET_DIR"] = str(target)
    env.setdefault("PERFBENCH_COMMIT", commit())
    build = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", str(HERE / "Cargo.toml"),
    ]
    # Build output goes to stderr so stdout stays the benchmark's own.
    with open(os.devnull, "rb") as devnull:
        code = subprocess.run(build, env=env, stdin=devnull, stdout=sys.stderr).returncode
    if code != 0:
        sys.stderr.write(f"perfbench: build failed with code {code}\n")
        return 1
    sys.stdout.flush()
    binary = target / "release" / "perfbench"
    return run([str(binary), *sys.argv[1:], "--out", str(HERE / "out")], env)


if __name__ == "__main__":
    sys.exit(main())
