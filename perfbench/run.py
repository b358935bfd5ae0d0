#!/usr/bin/env python3
"""Benchmark of the sl3maass library: one workload per invocation.

    python3 perfbench/run.py --workload <lift-demand|form-orbit|whittaker-mix>
                             --seed <n> --seconds <s> --trace <0|1>

Run from the repository root.  The library is imported from ./src.  With
--trace 0 the run reports the end-to-end metrics, with --trace 1 the
per-layer metrics of a traced run (see perfbench/README.md).  Every metric
is printed on its own line with its unit, followed by a report line with
the environment and gate details, and last a JSON result line.  The exit
code is 1 when a correctness gate fails.

Helper processes, each a fresh interpreter running this script: the ones
that compute reference values neither stored nor cached, before any timed
work; the repeated set-up measurements; and in a traced run the untraced
pass that the tracing overhead is measured against.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

from hostspeed import HostSpeed

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
REFS_DIR = os.path.join(BENCH_DIR, "refs")
CACHE_DIR = os.path.join(BENCH_DIR, ".cache")
WORKLOAD_NAMES = ("lift-demand", "form-orbit", "whittaker-mix")
# set-up is measured in this process and in this many fresh ones
SETUP_HELPERS = 2
HELPER_TIMEOUT_S = 900


def _nproc() -> int:
    return len(os.sched_getaffinity(0))


def _cap_blas_threads() -> None:
    """Cap the BLAS thread count at nproc; must run before numpy loads."""
    n = _nproc()
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        value = os.environ.get(var, "")
        want = int(value) if value.isdigit() and int(value) > 0 else n
        os.environ[var] = str(min(want, n))


def _blas_info() -> dict:
    import ctypes
    import glob

    import numpy as np

    info = {"blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS")}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        info["blas"] = "unknown"
    threads = None
    for path in glob.glob(os.path.join(os.path.dirname(np.__file__) + ".libs", "*openblas*")):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                threads = fn()
                break
        if threads is not None:
            break
    info["blas_threads"] = threads
    return info


def _git_commit() -> str | None:
    try:
        top = subprocess.run(["git", "-C", ROOT, "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or os.path.realpath(lines[0]) != os.path.realpath(ROOT):
        return None
    return lines[1]


def _src_digest() -> str:
    h = hashlib.sha256()
    for base, dirs, files in sorted(os.walk(os.path.join(SRC, "sl3maass"))):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            if name.endswith(".py"):
                with open(os.path.join(base, name), "rb") as fh:
                    h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()[:16]


def environment(load_avg) -> dict:
    import numpy as np

    return {"nproc": _nproc(), "load_avg_start": [round(v, 2) for v in load_avg],
            "python": platform.python_version(), "numpy": np.__version__,
            **_blas_info(), "git_commit": _git_commit(), "src_sha256": _src_digest()}


def _spawn(args, role: str, *extra: str) -> subprocess.Popen:
    """Start this script in a fresh interpreter for one helper role."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0",
           "--role", role, *extra]
    return subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)


def _collect(procs: list[subprocess.Popen]) -> list[dict]:
    """Wait for every helper and return the JSON object each printed last;
    a helper still running after a failure is killed and waited for."""
    try:
        out = []
        for proc in procs:
            stdout, _ = proc.communicate(timeout=HELPER_TIMEOUT_S)
            if proc.returncode != 0:
                raise RuntimeError(f"helper {proc.args[-1]!r} exited with {proc.returncode}")
            out.append(json.loads(stdout.strip().splitlines()[-1]))
        return out
    finally:
        for proc in procs:
            if proc.poll() is None:
                proc.kill()
                proc.wait()


def _helper(args, role: str) -> dict:
    return _collect([_spawn(args, role)])[0]


def references(args, wl, ops) -> list:
    """Reference values for this op list.  The results of its reference
    jobs are stored in REFS_DIR, cached in CACHE_DIR by an earlier run, or
    computed now by helper processes, one per core, before any timed
    work."""
    jobs = wl.ref_jobs(ops, args.seed)
    if not jobs:
        return wl.ref_assemble(ops, args.seed, [])
    digest = hashlib.sha256(json.dumps([wl.name, jobs], sort_keys=True).encode())
    key = f"{wl.name}-{digest.hexdigest()[:16]}.json"
    for folder in (REFS_DIR, CACHE_DIR):
        try:
            with open(os.path.join(folder, key)) as fh:
                results = json.load(fh)["results"]
        except FileNotFoundError:
            continue
        if len(results) == len(jobs):
            return wl.ref_assemble(ops, args.seed, results)
    n = min(_nproc(), len(jobs))
    parts = _collect([_spawn(args, "refs", "--shard", str(i), "--shards", str(n))
                      for i in range(n)])
    merged = {int(k): v for part in parts for k, v in part.items()}
    results = [merged[i] for i in range(len(jobs))]
    path = os.path.join(CACHE_DIR, key)
    with open(path + ".tmp", "w") as fh:
        json.dump({"workload": wl.name, "jobs": jobs, "results": results}, fh)
    os.replace(path + ".tmp", path)
    return wl.ref_assemble(ops, args.seed, results)


def timed_setup(wl, args):
    """(state, host-speed corrected time) of one set-up."""
    with HostSpeed() as speed:
        t0 = time.perf_counter()
        state = wl.setup(args.seed, CACHE_DIR)
        setup_s = time.perf_counter() - t0
    return state, setup_s * speed.factor()


def tail(latencies: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with at least ten
    samples above it; the maximum when there are fewer than eleven."""
    xs = sorted(latencies)
    n = len(xs)
    if n < 11:
        return xs[-1], 100.0
    return xs[n - 11], 100.0 * (n - 10) / n


def main(argv=None) -> int:
    load_avg = os.getloadavg()
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--role", default="main", choices=("main", "setup", "refs", "untraced"),
                    help=argparse.SUPPRESS)
    ap.add_argument("--shard", type=int, default=0, help=argparse.SUPPRESS)
    ap.add_argument("--shards", type=int, default=1, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    _cap_blas_threads()
    if not os.path.isfile(os.path.join(SRC, "sl3maass", "__init__.py")):
        print(f"perfbench: library source not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    with HostSpeed() as speed:
        t0 = time.perf_counter()
        import workloads
        import_s = (time.perf_counter() - t0) * speed.factor()
    lib = workloads.lib
    if not os.path.abspath(lib.__file__).startswith(SRC + os.sep):
        print(f"perfbench: imported {lib.__file__}, not the library under {SRC}",
              file=sys.stderr)
        return 2

    wl = workloads.WORKLOADS[args.workload]
    os.makedirs(CACHE_DIR, exist_ok=True)
    ops = wl.inputs(args.seed, args.seconds, CACHE_DIR)

    if args.role == "refs":
        jobs = wl.ref_jobs(ops, args.seed)
        print(json.dumps({i: wl.ref_run(jobs[i])
                          for i in range(args.shard, len(jobs), args.shards)}))
        return 0

    if args.role == "setup":
        print(json.dumps({"setup_s": import_s + timed_setup(wl, args)[1]}))
        return 0

    if args.role == "untraced":
        state = wl.setup(args.seed, CACHE_DIR)
        *_, wall = workloads.timed_pass(wl, state, ops)
        print(json.dumps({"wall_s": wall}))
        return 0

    # references come first, from their own process, so that neither their
    # cost nor any state they leave behind reaches a timed region
    refs = references(args, wl, ops)

    metrics: dict[str, tuple[float, str]] = {}
    report: dict = {"workload": wl.name, "seed": args.seed, "seconds": args.seconds,
                    "trace": args.trace, "ops": len(ops)}
    if args.trace:
        from tracer import Tracer

        untraced_wall = _helper(args, "untraced")["wall_s"]
        tracer = Tracer()
        tracer.install()
        try:
            with tracer.span("bench.setup"):
                state = wl.setup(args.seed, CACHE_DIR)
            outcomes, latencies, errors, wall = workloads.timed_pass(wl, state, ops, tracer)
        finally:
            tracer.uninstall()
        summary = tracer.summary()
        metrics.update(summary.layer_metrics())
        metrics["trace.overhead_ratio"] = (wall / untraced_wall, "ratio")
        report["trace"] = {"traced_wall_s": wall, "untraced_wall_s": untraced_wall,
                           "missing_targets": summary.missing}
    else:
        state, setup_s = timed_setup(wl, args)
        setup_samples = [import_s + setup_s]
        setup_samples += [_helper(args, "setup")["setup_s"] for _ in range(SETUP_HELPERS)]
        outcomes, latencies, errors, walls, raw = [], [], [], [], []
        for i in range(wl.passes):
            if i:
                # set up afresh, so that every pass starts from cold caches
                state = wl.setup(args.seed, CACHE_DIR)
            with HostSpeed() as speed:
                out, lat, err, wall = workloads.timed_pass(wl, state, ops)
            # host-speed corrected times; the raw ones go to the report
            factor = speed.factor()
            outcomes += out
            errors += err
            latencies += [t * factor for t in lat]
            walls.append(wall * factor)
            raw.append({"wall_s": wall, "op_p50_ms": 1e3 * statistics.median(lat),
                        "speed_factor": factor})
        wall = statistics.median(walls)
        tail_s, tail_pct = tail(latencies)
        report["raw_passes"] = raw
        report["setup_samples_s"] = setup_samples
        report["op_tail_percentile"] = tail_pct
        report["op_samples"] = len(latencies)

    # every pass is judged: the op list repeats once per pass
    passes_run = len(outcomes) // len(ops)
    min_digits, failed, detail = workloads.judge(wl, ops * passes_run, outcomes,
                                                 refs * passes_run)
    fail_ratio = sum(failed) / len(failed)
    # printed on every run but left out of the untraced result's metrics:
    # fail_ratio is 0 on every healthy run, so no bound can be relative to it
    unbounded = {"fail_ratio": (fail_ratio, "ratio")}
    if args.trace:
        metrics.update(unbounded)
    else:
        metrics.update({
            "setup_s": (statistics.median(setup_samples), "s"),
            "wall_s": (wall, "s"),
            "op_p50_ms": (1e3 * statistics.median(latencies), "ms"),
            "op_tail_ms": (1e3 * tail_s, "ms"),
            "min_digits": (min_digits, "digits"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        })
        report.update({name: value for name, (value, _) in unbounded.items()})
    report["min_digits"] = min_digits
    report["errors"] = errors
    report["gates"] = detail
    report["environment"] = environment(load_avg)
    correct = not any(failed)

    for name, (value, unit) in {**metrics, **unbounded}.items():
        print(f"{name:<42} {value:>16.6f} {unit}")
    print("report " + json.dumps(report, default=str))
    print(json.dumps({
        "correct": correct,
        "attempted": len(failed),
        "failed": sum(failed),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
