"""Run one bplab benchmark workload and print its metrics.

    python3 bench/run.py --workload simulate --seed 0 --seconds 30 --trace 0

Run it from the root of a checkout that holds ``src/bplab``; nothing needs
to be installed. The workload runs as a closed loop, one job at a time, until
the jobs have taken ``--seconds`` seconds. With ``--trace 0`` the last line of
standard output is a JSON object carrying the end-to-end metrics; with
``--trace 1`` untraced and traced jobs alternate and it carries the per-layer
metrics instead. The lines before it name every metric with its unit and
record the environment. The exit code is 2 when the sources are missing.

Set-up and untraced jobs run under ``hostclock``'s canary. The JSON times
(``setup_s``, ``norm_wall_s``) are normalised to its reference host speed;
the raw times are printed beside them.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")

# One thread: each workload is one client running one job at a time, and
# numpy's FFT is single-threaded; idle BLAS/OpenMP pools only add noise on a
# small shared host. Must be set before numpy is first imported.
THREADS = 1
THREAD_VARS = ("BPLAB_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 3
IMPORTS = "import bplab.acceptance, bplab.diagnostics, bplab.solver"


def pin_threads() -> int:
    cap = min(THREADS, len(os.sched_getaffinity(0)))
    for var in THREAD_VARS:
        os.environ[var] = str(cap)
    return cap


def source_revision() -> dict:
    """Git commit when the checkout is a repository, and always a hash of the
    bplab sources (the benchmark's checkout may not be a git repository)."""
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "bplab")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    commit = None
    # only this checkout's own repository, not one that happens to enclose it
    if os.path.exists(os.path.join(ROOT, ".git")):
        try:
            out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                 capture_output=True, text=True, timeout=30)
            if out.returncode == 0:
                commit = out.stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {"git_commit": commit, "src_sha256": digest.hexdigest()}


def run_import():
    """A fresh interpreter importing the modules the workloads use."""
    cmd = [sys.executable, "-c", f"import sys; sys.path.insert(0, {SRC!r}); {IMPORTS}"]
    subprocess.run(cmd, check=True, timeout=120, cwd=ROOT)


def timed(fn):
    t0 = time.perf_counter()
    fn()
    return t0, time.perf_counter()


def measure(workload, seconds, trace, tracer, clock):
    """Closed loop: run jobs one after another, at least one, until they
    have taken about `seconds`. With trace, untraced and traced jobs
    alternate, at least one of each; the canary samples only during the
    untraced ones. Returns the untraced jobs' (start, end) intervals, the
    traced jobs' walls, check outcomes and the per-layer numbers read from
    untraced outputs, which carry none of the tracer's cost."""
    plain, traced_walls = [], []
    checks, extras = [], []
    spent = 0.0
    while True:
        traced = trace and len(plain) > len(traced_walls)
        try:
            if traced:
                with tracer.installed(), tracer.job(len(traced_walls)):
                    t0 = time.perf_counter()
                    out = workload.job()
                    wall = time.perf_counter() - t0
                traced_walls.append(wall)
            else:
                with clock.sampling():
                    t0 = time.perf_counter()
                    out = workload.job()
                    t1 = time.perf_counter()
                plain.append((t0, t1))
                wall = clock.own_time(t0, t1)
                extras.append(workload.layer_metrics(out))
            checks.extend(workload.check(out))
        except Exception:
            # the job boundary: record the failure and stop measuring
            traceback.print_exc(file=sys.stderr)
            checks.append(("job_completed", False))
            break
        spent += wall
        # stop when one more job would overshoot `seconds` by over half its length
        if spent + 0.5 * wall >= seconds and (not trace or traced_walls):
            break
    return plain, traced_walls, checks, extras


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    if not os.path.isfile(os.path.join(SRC, "bplab", "__init__.py")):
        print(f"bench: no bplab sources under {SRC}", file=sys.stderr)
        return 2
    threads = pin_threads()
    sys.path.insert(0, SRC)
    # imported only now: numpy must see the thread caps, and bplab must come
    # from this checkout
    import numpy as np
    import scipy
    import bplab
    if os.path.dirname(os.path.abspath(bplab.__file__)) != os.path.join(SRC, "bplab"):
        print(f"bench: bplab imported from {bplab.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import hostclock
    import spans
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")

    env = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
           "trace": args.trace, "nproc": len(os.sched_getaffinity(0)),
           "threads": threads, "python": sys.version.split()[0],
           "numpy": np.__version__, "scipy": scipy.__version__, **source_revision()}
    print("env " + json.dumps(env), flush=True)

    clock = hostclock.HostClock()
    os.makedirs(os.path.join(BENCH_DIR, ".work"), exist_ok=True)
    with tempfile.TemporaryDirectory(dir=os.path.join(BENCH_DIR, ".work")) as workdir:
        workload = WORKLOADS[args.workload](args.seed, workdir)
        imports = []
        for _ in range(SETUP_REPEATS):
            clock.burst()
            imports.append(timed(run_import))
        clock.burst()
        with clock.sampling():
            inputs = [timed(workload.setup) for _ in range(SETUP_REPEATS)]
        tracer = spans.Tracer()
        plain, traced_walls, checks, extras = measure(workload, args.seconds,
                                                      bool(args.trace), tracer, clock)

    failed = [name for name, ok in checks if not ok]
    import_s = statistics.median(clock.normalised(*iv) for iv in imports)
    inputs_s = statistics.median(clock.normalised(*iv) for iv in inputs)
    setup_s = import_s + inputs_s
    raw_setup_s = (statistics.median(b - a for a, b in imports)
                   + statistics.median(clock.own_time(*iv) for iv in inputs))
    walls = [clock.own_time(*iv) for iv in plain]
    norm_walls = [clock.normalised(*iv) for iv in plain]
    q1, wall_s, q3 = (float(q) for q in np.percentile(walls or [0.0], (25, 50, 75)))
    n1, norm_wall_s, n3 = (float(q) for q in np.percentile(norm_walls or [0.0], (25, 50, 75)))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    calib_ms = clock.kernel_ms(0)

    print(f"setup_s {setup_s:.4f} s at reference host speed (import {import_s:.4f} s + "
          f"inputs {inputs_s:.4f} s, medians of {SETUP_REPEATS}); raw {raw_setup_s:.4f} s")
    print(f"norm_wall_s {norm_wall_s:.4f} s median at reference host speed, q1 {n1:.4f}, "
          f"q3 {n3:.4f} over {len(plain)} untraced jobs")
    print(f"wall_s {wall_s:.4f} s median, q1 {q1:.4f}, q3 {q3:.4f}")
    print("job_walls_s " + " ".join(f"{w:.4f}" for w in walls))
    print("job_norm_walls_s " + " ".join(f"{w:.4f}" for w in norm_walls))
    if wall_s > 0:
        print(f"{workload.work_unit}_per_s {workload.work / wall_s:.4f} 1/s ({workload.work} "
              f"{workload.work_unit} per job)")
    print(f"peak_rss_mb {peak_rss_mb:.1f} MB")
    print(f"failed_ratio {len(failed) / len(checks):.4f} "
          f"({len(failed)} of {len(checks)} checks failed{': ' if failed else ''}"
          f"{', '.join(sorted(set(failed)))})")
    print(f"host.calib_ms {calib_ms:.4f} ms, the FFT canary's median; python "
          f"{clock.kernel_ms(1):.4f} ms, stream {clock.kernel_ms(2):.4f} ms; "
          f"{len(clock.samples)} samples")

    if args.trace:
        # a layer the workload never calls reads 0
        metrics = {m["name"]: 0.0 for m in spec["per_layer"]}
        metrics.update(spans.layer_metrics(tracer.spans))
        for name in extras[0] if extras else ():
            metrics[name] = float(np.mean([e[name] for e in extras]))
        metrics["trace.overhead_s"] = statistics.median(traced_walls or [0.0]) - wall_s
        metrics["host.calib_ms"] = calib_ms
        for m in spec["per_layer"]:
            print(f"{m['name']} {metrics[m['name']]!r} {m['unit']}")
    else:
        metrics = {"setup_s": setup_s, "norm_wall_s": norm_wall_s, "peak_rss_mb": peak_rss_mb}
    kind = "per_layer" if args.trace else "end_to_end"
    values = {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in spec[kind]}
    print(json.dumps({"correct": not failed, "attempted": len(checks),
                      "failed": len(failed), "metrics": values}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
