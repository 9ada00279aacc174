#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload index_range|serve_read|serve_mixed \
        --seed N --seconds S --trace 0|1

The first run configures and compiles perfbench/ (which compiles ../src)
into $CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench; later
runs only rebuild what changed. Build output goes to stderr. The last line
of stdout is the run's JSON result; result records and span dumps land in
<build dir>/perfbench-out/. Exits non-zero, printing no result, when the
build fails or the run is invalid.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def build_dir() -> Path:
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    return target / "perfbench"


def run_quiet(cmd, **kwargs) -> subprocess.CompletedProcess:
    return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, **kwargs)


def build(out: Path) -> bool:
    configure = ["cmake", "-S", str(BENCH_DIR), "-B", str(out),
                 "-DCMAKE_BUILD_TYPE=Release"]
    if run_quiet(configure).returncode != 0:
        # A cache written for another checkout path cannot be reused.
        if (out / "CMakeCache.txt").exists():
            (out / "CMakeCache.txt").unlink()
            if run_quiet(configure).returncode != 0:
                return False
        else:
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    return run_quiet(["cmake", "--build", str(out), "-j", jobs]).returncode == 0


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "none (not a git checkout)"
    try:
        res = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, check=True)
        return res.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def source_digest() -> str:
    """sha256 over the library and benchmark sources, in path order."""
    h = hashlib.sha256()
    for top in (ROOT / "src", BENCH_DIR):
        if not top.is_dir():
            continue
        for path in sorted(p for p in top.rglob("*") if p.is_file()):
            if "__pycache__" in path.parts:
                continue
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def main() -> int:
    out = build_dir()
    if not build(out):
        print("perfbench: build failed", file=sys.stderr)
        return 2
    records = out.parent / "perfbench-out"
    records.mkdir(parents=True, exist_ok=True)
    cmd = [str(out / "perfbench"), *sys.argv[1:], "--out-dir", str(records),
           "--commit", git_commit(), "--source-digest", source_digest()]
    sys.stdout.flush()
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
