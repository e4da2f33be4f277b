#!/usr/bin/env python3
"""Build and run the trapjit end-to-end benchmark.

    python3 e2ebench/run.py --workload suite_steady --seed 1 --seconds 10 --trace 0

Run from the repository root.  The benchmark and the library under
../src are built optimized into $CARGO_TARGET_DIR (default .bench_build)
on first use; build output goes to stderr so that the last line of
stdout is the benchmark's JSON result.  See README.md next to this file.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def fail(msg):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(2)


def source_digest():
    """Commit when this is a git checkout, else a digest of src/."""
    try:
        if not (ROOT / ".git").exists():
            raise OSError("not a git checkout")
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0:
            return "git:" + out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file():
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(path.read_bytes())
    return "src-sha256:" + h.hexdigest()[:16]


def build(build_dir):
    jobs = str(os.cpu_count() or 1)
    if not (build_dir / "CMakeCache.txt").exists():
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(build_dir),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", str(build_dir), "-j", jobs,
                    "--target", "e2ebench"],
                   stdout=sys.stderr, check=True)
    return build_dir / "e2ebench"


def main():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no trapjit sources under {ROOT / 'src'}; run from a full "
             "checkout")
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    build_dir = target / "e2ebench"
    try:
        binary = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as err:
        fail(f"build failed: {err}")
    args = [str(binary), *sys.argv[1:], "--tmp", str(target / "tmp"),
            "--source", source_digest()]
    sys.exit(subprocess.run(args).returncode)


if __name__ == "__main__":
    main()
