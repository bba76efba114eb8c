#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 hebench/run.py --workload <serve|serve-churn> \
        --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The first call configures and builds
hebench/ (the cross library plus the hebench binary, Release) into the
directory named by CARGO_TARGET_DIR, or .bench_build when it is unset;
later calls reuse that build. The binary's stdout is passed through, so
the last line is its JSON result. Exits non-zero, printing no result,
when the build fails or the binary does.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TIMEOUT_S = 700
RUN_TIMEOUT_S = 170


def run(cmd, timeout, **kw):
    """subprocess.run that kills the child and waits for it on timeout."""
    with subprocess.Popen(cmd, **kw) as proc:
        try:
            out, _ = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            sys.exit("hebench: %s timed out after %d s" % (cmd[0], timeout))
        return proc.returncode, out


def build(build_dir):
    exe = os.path.join(build_dir, "hebench")
    log = sys.stderr
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        rc, _ = run(["cmake", "-S", HERE, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"], BUILD_TIMEOUT_S,
                    stdout=log, stderr=log)
        if rc != 0:
            sys.exit("hebench: cmake configure failed")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    rc, _ = run(["cmake", "--build", build_dir, "--target", "hebench",
                 "-j", jobs], BUILD_TIMEOUT_S, stdout=log, stderr=log)
    if rc != 0 or not os.path.exists(exe):
        sys.exit("hebench: build failed")
    return exe


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=["serve", "serve-churn"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 120:
        sys.exit("hebench: --seed must be >= 0 and --seconds within 1..120")

    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(build_dir):
        build_dir = os.path.join(ROOT, build_dir)
    exe = build(build_dir)

    rc, out = run([exe, "--workload", args.workload, "--seed",
                   str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace)],
                  RUN_TIMEOUT_S, stdout=subprocess.PIPE, text=True)
    if rc != 0:
        # Keep the log for diagnosis, but no result line.
        sys.stderr.write(out)
        sys.exit("hebench: benchmark binary exited with code %d" % rc)
    sys.stdout.write(out)
    sys.stdout.flush()


if __name__ == "__main__":
    main()
