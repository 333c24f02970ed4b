#!/usr/bin/env python3
"""Build and run the layered benchmark.

    python3 perfbench/run.py --workload hacc-serial --seed 1 --seconds 30 \
        --trace 0
    python3 perfbench/run.py --self-test

Run from the repository root. The first run configures and builds
perfbench (and the szp libraries it links) in .bench_build/perfbench;
later runs only re-check the build. Build output goes to stderr, so the
last line of stdout is the benchmark's JSON result. Result files land in
.bench_out/.
"""
import argparse
import hashlib
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
OUT_DIR = os.path.join(ROOT, ".bench_out")
WORKLOADS = ("hacc-serial", "hacc-archive", "rtm-inline")
RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def revision():
    """The git commit when there is one, else a digest of the sources."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return "sources-sha256:" + h.hexdigest()[:16]


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no szp sources at %s/src; run from a full checkout" % ROOT)
    jobs = str(os.cpu_count() or 1)
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", BUILD_DIR, "--target", "perfbench",
                    "-j", jobs], stdout=sys.stderr, check=True)
    return os.path.join(BUILD_DIR, "perfbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true",
                    help="only check that the output oracle rejects "
                         "tampered streams")
    args = ap.parse_args()
    if not args.self_test and args.workload is None:
        ap.error("--workload is required")

    try:
        exe = build()
    except (OSError, subprocess.CalledProcessError) as e:
        fail("build failed: %s" % e)
    if args.self_test:
        cmd = [exe, "--self-test"]
    else:
        cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace),
               "--out", OUT_DIR, "--revision", revision()]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail("timed out after %d s" % RUN_TIMEOUT_S, 1)
    sys.stdout.write(out)
    sys.stdout.flush()
    if proc.returncode != 0:
        sys.exit(proc.returncode)
    if not args.self_test and not out.rstrip().splitlines()[-1].startswith("{"):
        fail("no JSON result line", 1)


if __name__ == "__main__":
    main()
