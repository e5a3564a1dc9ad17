"""haarweight benchmark: one workload per process, timed end to end or traced.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: sweep-p2, ap-lowner, commutator-growth, ensemble-small (see
perfbench/README.md).  Each is a closed loop with one client: the workload
is prepared from the seed, then repeated in passes until ``--seconds`` have
elapsed (at least one pass).  Every operation's outputs are checked.

The last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  With ``--trace 0`` the metrics are the
end-to-end ones (medians over passes); with ``--trace 1`` every traced
library function is timed from outside and the metrics are per-layer self
times and counts, per pass.  The line before it records the run
environment.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("sweep-p2", "ap-lowner", "commutator-growth", "ensemble-small")
SETUP_PROBES = 5
# ensemble-small's BLAS calls are on matrices of at most 128x128, where a
# second OpenBLAS thread only busy-waits; it doubled cpu_s and made wall
# times and the latency tail worse and noisier (see README.md)
BLAS_THREADS = {"ensemble-small": 1}

# a fresh interpreter that imports the library and prepares the workload:
# the set-up a user pays before the first result
PROBE = ("import sys; sys.path[:0] = sys.argv[1:3]; import workloads; "
         "workloads.prepare(sys.argv[3], int(sys.argv[4]), sys.argv[5])")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def pin_blas_threads(workload):
    """At most one BLAS thread per available CPU; set before numpy loads."""
    n = BLAS_THREADS.get(workload, len(os.sched_getaffinity(0)))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(n)
    return n


def time_setup(name, seed, workdir):
    """Median wall time of SETUP_PROBES fresh set-ups, one after another."""
    times = []
    for i in range(SETUP_PROBES):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", PROBE, SRC, HERE, name, str(seed),
                        os.path.join(workdir, f"probe{i}")],
                       check=True, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def run_passes(plan, seconds, tracer=None):
    """Repeat passes until ``seconds`` have elapsed.  Returns per-pass
    (wall, cpu) pairs, per-operation (key, latency) pairs and the failure
    count."""
    from tracer import OP_SPAN
    passes, latencies, failed = [], [], 0
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        w0, c0 = time.perf_counter(), time.process_time()
        for key, op in plan.ops(len(passes)):
            t0 = time.perf_counter()
            try:
                ok = op() if tracer is None else tracer.span(OP_SPAN, op)
            except Exception as exc:    # a raising operation is a failed one
                print(f"operation raised {exc!r}", file=sys.stderr)
                ok = False
            latencies.append((key, time.perf_counter() - t0))
            failed += not ok
        passes.append((time.perf_counter() - w0, time.process_time() - c0))
    return passes, latencies, failed


def percentile(values, q):
    """Nearest-rank percentile: the maximum when fewer than 1/(1-q) samples."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def input_latencies(latencies):
    """Median latency of each input over its repeats in the run."""
    by_key = {}
    for key, seconds in latencies:
        by_key.setdefault(key, []).append(seconds)
    return [statistics.median(v) for v in by_key.values()]


def end_to_end(passes, latencies, setup_s):
    per_input = input_latencies(latencies)
    return {
        "wall_s": (statistics.median(w for w, _ in passes), "s"),
        "cpu_s": (statistics.median(c for _, c in passes), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "setup_s": (setup_s, "s"),
        "unit_p50_ms": (statistics.median(per_input) * 1e3, "ms"),
        "unit_p95_ms": (percentile(per_input, 0.95) * 1e3, "ms"),
    }


def per_layer(tracer, passes):
    from tracer import OP_SPAN, TRACED
    n = len(passes)
    self_s, calls = tracer.self_times(), tracer.call_counts()
    out = {}
    for name in TRACED + (OP_SPAN,):
        out[f"{name}.self_s"] = (self_s.get(name, 0.0) / n, "s")
        out[f"{name}.calls"] = (calls.get(name, 0) / n, "count")
    for key, unit in COUNTERS.items():
        out[key] = (tracer.counts.get(key, 0) / n, unit)
    wall = sum(w for w, _ in passes)
    out["trace.wall_s"] = (statistics.median(w for w, _ in passes), "s")
    out["trace.coverage"] = (sum(self_s.values()) / wall, "ratio")
    return out


# exact counters the tracer keeps, with their units; bytes are computed
COUNTERS = {
    "linalg.matfree_spectral_norm.matvecs": "count",
    "operators.dense_matrix.bytes": "bytes",
    "operators.weighted_operator_norm.exact": "count",
    "operators.weighted_operator_norm.lower_bound": "count",
    "dyadic.haar_analyze.bytes_in": "bytes",
    "weights.reducing_pyramid.net_doublings": "count",
}


def environment(args, threads):
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = "unknown (not a git checkout)"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                                capture_output=True).stdout.strip() or commit
    l3 = os.sysconf("SC_LEVEL3_CACHE_SIZE") if "SC_LEVEL3_CACHE_SIZE" in os.sysconf_names else 0
    l3_path = "/sys/devices/system/cpu/cpu0/cache/index3/size"
    if not l3 and os.path.exists(l3_path):
        with open(l3_path) as fh:
            l3 = fh.read().strip()
    ram = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": sys.version.split()[0],
        "numpy": np.__version__, "blas": {k: blas.get(k) for k in ("name", "version")},
        "blas_threads": threads, "nproc": len(os.sched_getaffinity(0)),
        "ram_bytes": ram, "l3_cache": l3, "git_commit": commit,
        "peak_rss_share_of_ram": rss / ram,
    }


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "haarweight", "__init__.py")):
        sys.exit(f"perfbench: no haarweight package under {SRC}")
    threads = pin_blas_threads(args.workload)
    sys.path[:0] = [SRC, HERE]
    workdir = os.path.join(ROOT, ".perfbench-work", f"{args.workload}-{os.getpid()}")
    try:
        setup_s = None if args.trace else time_setup(args.workload, args.seed, workdir)
        import workloads
        from tracer import Tracer
        plan = workloads.prepare(args.workload, args.seed, os.path.join(workdir, "run"))
        tracer = Tracer() if args.trace else None
        if tracer:
            tracer.install()
        passes, latencies, failed = run_passes(plan, args.seconds, tracer)
        if tracer:
            tracer.uninstall()
            metrics = per_layer(tracer, passes)
        else:
            metrics = end_to_end(passes, latencies, setup_s)
        env = environment(args, threads)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(os.path.dirname(workdir))
    print("env " + json.dumps(env))
    print(json.dumps({
        "correct": failed == 0, "attempted": len(latencies), "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))


if __name__ == "__main__":
    main()
