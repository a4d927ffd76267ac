#!/usr/bin/env python3
"""Builds and runs the TxAllo serving-loop benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds the `perfbench` binary from source (cargo, offline, release) into
$CARGO_TARGET_DIR (default `.bench_build` at the repository root), runs it
from the repository root with the same arguments, and passes its standard
output through: the last line is the result object. Each run is also
appended to `perfbench/out/results.jsonl` for `compare.py` and
`steady.py`. Exits with the benchmark's status; a failed build exits
non-zero without printing a result.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
RESULTS = BENCH / "out" / "results.jsonl"


def build():
    """Builds the binary; returns its path, or None when the build fails."""
    target = Path(os.environ.get("CARGO_TARGET_DIR") or ROOT / ".bench_build")
    if not target.is_absolute():
        target = ROOT / target
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", str(BENCH / "Cargo.toml")]
    try:
        built = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, timeout=850)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"run.py: build failed: {e}", file=sys.stderr)
        return None
    if built.returncode != 0:
        print(f"run.py: build failed with status {built.returncode}", file=sys.stderr)
        return None
    return target / "release" / "perfbench"


def main(argv):
    exe = build()
    if exe is None:
        return 1
    proc = subprocess.run([str(exe), *argv], cwd=ROOT, stdout=subprocess.PIPE, text=True)
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    lines = proc.stdout.strip().splitlines()
    if len(lines) >= 2:
        try:
            record = {"info": json.loads(lines[-2]), "result": json.loads(lines[-1])}
        except json.JSONDecodeError:
            record = None
        if record is not None:
            RESULTS.parent.mkdir(parents=True, exist_ok=True)
            with RESULTS.open("a") as f:
                f.write(json.dumps(record) + "\n")
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
