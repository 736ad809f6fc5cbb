#!/usr/bin/env python3
"""Repository benchmark: builds the simulator from source and measures it.

Run from the root of a checkout:

    python3 perfbench/run.py --workload fig09_campaign --seed 1 \
        --seconds 30 --trace 0

Workloads: fig09_campaign, mesh16_knee, faults_retx (see
perfbench/README.md). With --trace 0 the result carries the end-to-end
metrics; with --trace 1 the per-layer metrics, and a Chrome trace-event
file is written under .bench_build/perfbench-traces/.

The last line of standard output is one JSON object with exactly the keys
correct, attempted, failed and metrics. Everything before it is a human
readable report: provenance, the metric table and any failed check.
"""

import argparse
import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
RUN_DIR = ROOT / ".bench_build" / "perfbench-run"
TRACE_DIR = ROOT / ".bench_build" / "perfbench-traces"
REFERENCE = HERE / "reference.json"
WORKLOADS = ("fig09_campaign", "mesh16_knee", "faults_retx")
OPTIMISED = ("Release", "RelWithDebInfo", "MinSizeRel")
# Campaign workers and mesh16_knee shard threads: at most two, so that on a
# shared host other tenants' load does not turn into stalled workers and
# barriers (see README.md).
MAX_THREADS = 2
# The measuring program gets at most this long; a run must end in 180 s.
RUN_TIMEOUT_S = 170


def die(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def usable_cores():
    """CPUs this process may run on: affinity mask, capped by cgroup quota."""
    affinity = len(os.sched_getaffinity(0))
    quota = None
    try:
        fields = Path("/sys/fs/cgroup/cpu.max").read_text().split()
        if fields[0] != "max":
            quota = int(fields[0]) / int(fields[1])
    except (OSError, ValueError, IndexError):
        try:
            q = int(Path("/sys/fs/cgroup/cpu/cpu.cfs_quota_us").read_text())
            p = int(Path("/sys/fs/cgroup/cpu/cpu.cfs_period_us").read_text())
            if q > 0:
                quota = q / p
        except (OSError, ValueError):
            pass
    usable = affinity if quota is None else min(affinity, math.ceil(quota))
    return affinity, quota, max(1, usable)


def cmake_cache(key):
    try:
        for line in (BUILD / "CMakeCache.txt").read_text().splitlines():
            if line.startswith(key + ":"):
                return line.split("=", 1)[1]
    except OSError:
        pass
    return ""


def build(jobs):
    """Configures (once) and builds the measuring program; logs to stderr."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        die("simulator sources (src/) not found next to perfbench/")
    log = sys.stderr
    if not (BUILD / "CMakeCache.txt").is_file():
        cfg = subprocess.run(
            ["cmake", "-S", str(HERE), "-B", str(BUILD),
             "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            stdout=log, stderr=log, check=False)
        if cfg.returncode != 0:
            die("cmake configure failed")
    done = subprocess.run(
        ["cmake", "--build", str(BUILD), "--target", "perfbench",
         "-j", str(jobs)],
        stdout=log, stderr=log, check=False)
    if done.returncode != 0:
        die("build failed")


def git_commit():
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, check=False,
                             timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    return "n/a (not a git checkout)"


def source_digest():
    """sha256 over the simulator and benchmark sources, path-ordered."""
    h = hashlib.sha256()
    for base in (ROOT / "src", HERE):
        for path in sorted(p for p in base.rglob("*") if p.is_file()):
            if "__pycache__" in path.parts:
                continue
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def compiler():
    cxx = cmake_cache("CMAKE_CXX_COMPILER")
    try:
        out = subprocess.run([cxx, "--version"], capture_output=True,
                             text=True, check=False, timeout=10)
        return out.stdout.splitlines()[0]
    except (OSError, IndexError, subprocess.TimeoutExpired):
        return cxx or "unknown"


def provenance(load_at_start, affinity, quota, usable, threads):
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": affinity,
        "cgroup_cpu_quota": quota,
        "usable_cores": usable,
        "threads": threads,
        "compiler": compiler(),
        "cmake_build_type": cmake_cache("CMAKE_BUILD_TYPE"),
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "loadavg_at_start": list(load_at_start),
    }


def record_key(line):
    rec = json.loads(line)
    return rec.get("key") or rec.get("workload")


def digests(lines):
    ordered = sorted(lines)
    return {
        "digest": hashlib.sha256("\n".join(ordered).encode()).hexdigest(),
        "records": {record_key(l): hashlib.sha256(l.encode()).hexdigest()
                    for l in ordered},
    }


def check_reference(reference, workload, seed, lines):
    """Failed record keys against the stored digest (None: no reference
    applies to this seed)."""
    ref = json.loads(Path(reference).read_text())
    if seed != ref["seed"]:
        return None
    want = ref["workloads"].get(workload)
    if want is None:
        return ["<no reference stored for this workload>"]
    got = digests(lines)
    if got["digest"] == want["digest"]:
        return []
    keys = set(want["records"]) | set(got["records"])
    return sorted(k for k in keys
                  if want["records"].get(k) != got["records"].get(k)) or \
        ["<record set>"]


def update_reference(reference, workload, seed, lines):
    path = Path(reference)
    ref = json.loads(path.read_text()) if path.exists() else \
        {"seed": seed, "workloads": {}}
    if seed != ref["seed"]:
        die(f"the reference is stored for seed {ref['seed']}")
    ref["workloads"][workload] = digests(lines)
    path.write_text(json.dumps(ref, indent=2, sort_keys=True) + "\n")
    print(f"stored the reference digest of {workload} in {path}",
          file=sys.stderr)


def expected_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--reference", default=str(REFERENCE),
                    help="stored digests of the canonical records")
    ap.add_argument("--update-reference", action="store_true",
                    help="store this run's record digests as the reference")
    ap.add_argument("--knee-scale", type=float, default=1.0,
                    help="multiply the mesh16_knee rate (checks' own tests)")
    args = ap.parse_args()
    if args.seed < 0 or not args.seconds > 0:
        die("--seed must be >= 0 and --seconds > 0")

    load_at_start = os.getloadavg()
    affinity, quota, usable = usable_cores()
    threads = min(MAX_THREADS, usable)
    build(min(4, usable))
    prov = provenance(load_at_start, affinity, quota, usable, threads)
    print("provenance: " + json.dumps(prov, sort_keys=True))
    if prov["cmake_build_type"] not in OPTIMISED:
        die("refusing to report from an unoptimised build "
            f"(CMAKE_BUILD_TYPE={prov['cmake_build_type']!r})", 3)

    work = RUN_DIR / args.workload
    records = RUN_DIR / f"{args.workload}.records.jsonl"
    trace_out = TRACE_DIR / f"{args.workload}-seed{args.seed}.trace.json"
    work.mkdir(parents=True, exist_ok=True)
    TRACE_DIR.mkdir(parents=True, exist_ok=True)
    cmd = [str(BUILD / "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", repr(args.seconds),
           "--trace", str(args.trace), "--threads", str(threads),
           "--work-dir", str(work), "--records", str(records),
           "--trace-out", str(trace_out), "--knee-scale",
           repr(args.knee_scale)]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              check=False, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die(f"the measuring program ran past {RUN_TIMEOUT_S} s", 1)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        die(f"the measuring program failed (exit {proc.returncode})", 1)
    print("\n".join(lines[:-1]))
    out = json.loads(lines[-1])

    rec_lines = records.read_text().splitlines()
    if args.update_reference:
        if out["failed"]:
            die("refusing to store a reference from a run with failures", 1)
        update_reference(args.reference, args.workload, args.seed, rec_lines)
    failed = out["failed"]
    mismatched = check_reference(args.reference, args.workload, args.seed,
                                 rec_lines)
    if mismatched:
        print("FAILED: records differ from the stored reference digest: "
              + ", ".join(mismatched))
        failed += len(mismatched) * max(1, out["reps"])
    failed = min(failed, out["attempted"])

    metrics = out["metrics"]
    if args.trace:
        metrics["failed_frac"] = {"value": failed / out["attempted"],
                                  "unit": "ratio"}
        print(f"{'failed_frac':<24} {failed / out['attempted']:>16.6g}  ratio")
        print(f"trace: {trace_out.relative_to(ROOT)}")
        doc = json.loads(trace_out.read_text())
        doc["otherData"]["provenance"] = prov
        doc["otherData"]["not_applicable"] = out["na"]
        trace_out.write_text(json.dumps(doc))
    want = expected_metrics(args.trace)
    got = {k: v["unit"] for k, v in metrics.items()}
    if got != want:
        die(f"reported metrics do not match BENCHMARK.json: {got} != {want}",
            1)

    print(json.dumps({
        "correct": failed == 0 and not mismatched,
        "attempted": out["attempted"],
        "failed": failed,
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
