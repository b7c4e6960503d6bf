#!/usr/bin/env python3
"""Build the benchmark binary (zbench) from source and run one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the root of a checkout. zbench is built with CMake into
$CARGO_TARGET_DIR (default .bench_build) under perfbench/; build output goes
to stderr. Standard output ends with a host fingerprint line and then the
result line, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics; --trace 1 the per-layer metrics
of the traced run, whose Chrome trace and layer table are written to
<build dir>/perfbench/runs/. The exit code is zbench's: 0 when every
check held, non-zero otherwise (and when the build fails, with no result).
"""

import argparse
import hashlib
import json
import os
import pathlib
import platform
import re
import subprocess
import sys

WORKLOADS = ("corpus-cfi", "bigbin", "serve-mix", "fuzz-farm")
HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 170


def build_root():
    d = pathlib.Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not d.is_absolute():
        d = pathlib.Path.cwd() / d
    return d / "perfbench"


def nproc():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def build(bdir):
    """Configure (once) and build zbench; returns its path or None."""
    log = sys.stderr
    if not (bdir / "CMakeCache.txt").exists():
        cfg = ["cmake", "-S", str(HERE), "-B", str(bdir), "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if subprocess.run(cfg, stdout=log, stderr=log).returncode != 0:
            return None
    cmd = ["cmake", "--build", str(bdir), "--target", "zbench", "-j", str(nproc())]
    if subprocess.run(cmd, stdout=log, stderr=log).returncode != 0:
        return None
    exe = bdir / "zbench"
    return exe if exe.exists() else None


def source_digest():
    """sha256 over the rewriter's and the benchmark's source files."""
    h = hashlib.sha256()
    for top in (ROOT / "src", HERE):
        for p in sorted(top.rglob("*")):
            if p.is_file() and p.suffix in (".h", ".cpp", ".txt", ".py"):
                h.update(str(p.relative_to(ROOT)).encode())
                h.update(p.read_bytes())
    return h.hexdigest()[:16]


def fingerprint(bdir):
    cpu = platform.processor() or "unknown"
    try:
        for line in open("/proc/cpuinfo", encoding="utf-8", errors="replace"):
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    cache = (bdir / "CMakeCache.txt").read_text(errors="replace")
    build_type = re.search(r"^CMAKE_BUILD_TYPE:\w+=(.*)$", cache, re.M)
    compiler = re.search(r"^CMAKE_CXX_COMPILER:\w+=(.*)$", cache, re.M)
    version = "unknown"
    for f in (bdir / "CMakeFiles").glob("*/CMakeCXXCompiler.cmake"):
        m = re.search(r'CMAKE_CXX_COMPILER_VERSION "([^"]*)"', f.read_text(errors="replace"))
        if m:
            version = m.group(1)
    commit = None
    try:
        r = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                           capture_output=True, text=True, timeout=10)
        if r.returncode == 0:
            commit = r.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return {
        "cpu": cpu,
        "nproc": nproc(),
        "build_type": build_type.group(1) if build_type else "unknown",
        "compiler": "%s %s" % (os.path.basename(compiler.group(1)) if compiler else "c++", version),
        "commit": commit,
        "source_digest": source_digest(),
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    bdir = build_root()
    exe = build(bdir)
    if exe is None:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    out_dir = bdir / "runs"
    out_dir.mkdir(parents=True, exist_ok=True)

    cmd = [str(exe), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--out-dir", str(out_dir)]
    try:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: %s did not finish in %d s" % (args.workload, RUN_TIMEOUT_S),
              file=sys.stderr)
        return 1
    lines = r.stdout.strip().splitlines()
    if not lines:
        print("perfbench: %s printed no result (exit %d)" % (args.workload, r.returncode),
              file=sys.stderr)
        return r.returncode or 1
    print("host: " + json.dumps(fingerprint(bdir), sort_keys=True))
    for line in lines:
        print(line)
    sys.stdout.flush()
    return r.returncode


if __name__ == "__main__":
    sys.exit(main())
