#!/usr/bin/env python3
"""Build the request-path benchmark from source and run one workload.

    python3 perfbench/run.py --workload <info_hot|info_cold|job_mix>
                             --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The first call configures and builds the
InfoGram libraries plus the request_path program (Release) under
$CARGO_TARGET_DIR (default .bench_build); later calls rebuild
incrementally. Build output goes to stderr, so the last line of stdout is
request_path's JSON result.
The exit code is request_path's, or non-zero if the build fails.
"""
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, target, "perfbench")


def build(out):
    cache = os.path.join(out, "CMakeCache.txt")
    if not os.path.exists(cache):
        configure = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", out, "--target", "request_path", "-j", jobs]
    return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode == 0


def main(argv):
    out = build_dir()
    if not build(out):
        print("perfbench: build failed", file=sys.stderr)
        return 2
    work = os.path.join(out, "work")
    args = list(argv)
    if "--trace" in args and args[args.index("--trace") + 1:][:1] == ["1"]:
        args += ["--spans-out", os.path.join(out, "spans.tsv")]
    cmd = [os.path.join(out, "request_path"), *args, "--work-dir", work]
    try:
        proc = subprocess.run(cmd, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: request_path exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 3
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
