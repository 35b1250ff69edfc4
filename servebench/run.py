#!/usr/bin/env python3
"""Builds and runs the websra serving benchmark.

    python3 servebench/run.py --workload bulk_replay --seed 1 --seconds 10 --trace 0

Run from the repository root. The first call configures and compiles
servebench/ (which pulls in ../src) into $CARGO_TARGET_DIR/servebench,
or .bench_build/servebench when that variable is unset; later calls
rebuild incrementally. Every argument is passed to the benchmark
program unchanged. Build output goes to stderr, so the benchmark's own
last stdout line (one JSON object) stays the last line.
"""

import hashlib
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def source_digest():
    """Content hash of the library and benchmark sources (the checkout a
    benchmark runs in need not be a git repository)."""
    digest = hashlib.sha256()
    for top in (os.path.join(ROOT, "src"), HERE):
        for base, dirs, files in sorted(os.walk(top)):
            dirs.sort()
            for name in sorted(files):
                if not name.endswith((".h", ".cc", ".txt", ".py")):
                    continue
                path = os.path.join(base, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()[:16]


def git_commit():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "none"
    return out.stdout.strip() if out.returncode == 0 else "none"


def build(build_dir):
    os.makedirs(build_dir, exist_ok=True)
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                   check=True, stdout=sys.stderr)
    return os.path.join(build_dir, "servebench")


def main():
    base = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    if not os.path.isabs(base):
        base = os.path.join(os.getcwd(), base)
    build_dir = os.path.join(base, "servebench")
    if not os.path.isdir(os.path.join(ROOT, "src")):
        print("servebench: websra sources (src/) not found next to servebench/",
              file=sys.stderr)
        return 2
    try:
        binary = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as error:
        print(f"servebench: build failed: {error}", file=sys.stderr)
        return 2
    work_dir = os.path.join(build_dir, "work")
    os.makedirs(work_dir, exist_ok=True)
    cmd = [binary, "--work-dir", work_dir, "--git-commit", git_commit(),
           "--source-digest", source_digest()] + sys.argv[1:]
    sys.stdout.flush()
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
