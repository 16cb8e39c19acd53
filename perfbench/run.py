#!/usr/bin/env python3
"""Benchmark entry point: one workload per run, from the repository root.

    python3 perfbench/run.py --workload serve_bm25 --seed 1 --seconds 10 --trace 0

Prints the end-to-end metrics (``--trace 0``) or the per-layer metrics
(``--trace 1``) by name and unit, a stamp line, and as the LAST line one
JSON object ``{"correct", "attempted", "failed", "metrics"}``. Exits 1
when any operation failed its correctness gate, 2 when the engine cannot
be imported (nothing is printed on stdout then).

``--workload all`` runs every workload in one Ray session; without an
explicit ``--trace`` it runs each tracing-off and then traced, and
reports the traced run's overhead on every end-to-end metric.
``--smoke`` shrinks every size so all three workloads finish in well
under a minute (the benchmark's own tests use it).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("build_batch", "serve_bm25", "ingest_refresh")
DEFAULT_SEED = 1
# Ray's temp dir and the per-run work dirs, removed at exit. Short, because
# Ray's sockets live below it: the AF_UNIX path limit (107 bytes) minus
# "/session_<date>_<pid>/sockets/plasma_store.N" leaves 41 for the dir.
RUN_ROOT = ".pbr"
MAX_RAY_TEMP_DIR = 41
RUN_DEADLINE_S = 150  # plus --seconds: ops past it fail, so a run ends


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED,
                   help=f"corpus, query set and update seed (default {DEFAULT_SEED})")
    p.add_argument("--seconds", type=float, default=10.0,
                   help="measured phase length; every workload does a minimum of work")
    p.add_argument("--trace", type=int, choices=(0, 1), default=None,
                   help="0: end-to-end metrics; 1: per-layer metrics (default 0; "
                        "with --workload all, both)")
    p.add_argument("--smoke", action="store_true", help="small sizes, for tests")
    return p.parse_args(argv)


def nproc() -> int:
    """CPUs as ``nproc`` counts them: the affinity mask, capped by
    OMP_NUM_THREADS / OMP_THREAD_LIMIT when set."""
    n = len(os.sched_getaffinity(0))
    for var in ("OMP_NUM_THREADS", "OMP_THREAD_LIMIT"):
        v = os.environ.get(var, "").split(",")[0]
        if v.isdigit() and int(v) > 0:
            n = min(n, int(v)) if var == "OMP_THREAD_LIMIT" else int(v)
    return n


def _cpu_ticks() -> list[int]:
    with open("/proc/stat") as f:
        return [int(x) for x in f.readline().split()[1:9]]


@contextlib.contextmanager
def ray_session(ray_tmp: str):
    """This run's own local Ray cluster: num_cpus = nproc, no dashboard.
    On exit, shut it down (``ray.shutdown`` waits until every process of
    the session has ended) and remove its session dir."""
    import ray

    ncpu = nproc()
    # workers import the engine and the span wrappers from the checkout
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (ROOT, os.environ.get("PYTHONPATH")) if p)
    ray.init(address="local", num_cpus=ncpu, include_dashboard=False,
             log_to_driver=False, object_store_memory=512 * 1024**2,
             _temp_dir=ray_tmp)
    session_dir = ray._private.worker._global_node.get_session_dir_path()
    from ray.data import DataContext

    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    ctx.print_on_execution_start = False
    try:
        yield ncpu
    finally:
        ray.shutdown()
        shutil.rmtree(session_dir, ignore_errors=True)
        latest = os.path.join(ray_tmp, "session_latest")
        if os.path.islink(latest) and not os.path.exists(latest):
            os.unlink(latest)


def run_one(workload, seed, seconds, trace, sizes, run_dir):
    """One workload in the current Ray session → (ops, e2e, per-layer)."""
    from perfbench import scenario, tracing

    work = tempfile.mkdtemp(prefix=f"{workload}-", dir=run_dir)
    try:
        tracer = (tracing.Tracer(os.path.join(work, "spans")) if trace
                  else tracing.NullTracer())
        sc = scenario.Scenario(workload, seed, seconds, sizes, work, tracer,
                               deadline_s=RUN_DEADLINE_S + seconds)
        t0 = time.perf_counter()
        with tracing.instrument(tracer) if trace else contextlib.nullcontext():
            sc.run()
        wall = time.perf_counter() - t0
        layers = sc.per_layer(tracer.collect(), wall) if trace else {}
        return sc.ops, sc.end_to_end(), layers, sc.sample_counts()
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main(argv=None) -> int:
    args = parse_args(argv)
    sys.path.insert(0, ROOT)
    try:
        import ray
        import neural_search_ray  # noqa: F401
    except ImportError as e:
        print(f"perfbench: cannot import the engine from {ROOT}: {e}", file=sys.stderr)
        return 2
    from perfbench import scenario

    sizes = scenario.SMOKE if args.smoke else scenario.FULL
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    if args.trace is not None:
        modes = (args.trace,)
    else:
        modes = (0, 1) if args.workload == "all" else (0,)
    units = dict(scenario.END_TO_END + scenario.PER_LAYER)

    run_root = os.path.join(ROOT, RUN_ROOT)
    os.makedirs(run_root, exist_ok=True)
    run_dir = tempfile.mkdtemp(prefix="run-", dir=run_root)
    # below a deep checkout, ray.init fails on its socket paths: then Ray's
    # session goes to the system temp dir, removed at exit like the rest
    ray_tmp = run_root if len(run_root) <= MAX_RAY_TEMP_DIR else tempfile.mkdtemp(prefix="pbr")
    stamp = {"seed": args.seed, "workload": args.workload, "trace": list(modes),
             "smoke": args.smoke, "nproc": nproc(),
             "affinity_cpus": len(os.sched_getaffinity(0)),
             "loadavg_start": os.getloadavg(), "ray": ray.__version__}
    ticks = _cpu_ticks()
    attempted = failed = 0
    metrics: dict[str, dict] = {}
    stamp["samples"] = {}
    try:
        with ray_session(ray_tmp) as ncpu:
            stamp["num_cpus"] = ncpu
            for w in workloads:
                e2e = {}
                for trace in modes:
                    ops, e2e_t, layers, samples = run_one(w, args.seed, args.seconds,
                                                          trace, sizes, run_dir)
                    stamp["samples"][f"{w} trace={trace}"] = samples
                    attempted += ops.attempted
                    failed += ops.failed
                    shown = layers if trace else e2e_t
                    print(f"[{w} trace={trace}] attempted={ops.attempted} failed={ops.failed}")
                    for name, value in shown.items():
                        print(f"  {name:42s} {value:14.4f} {units[name]}")
                    if trace and e2e:
                        for name, value in e2e_t.items():
                            if name in e2e:
                                print(f"  traced vs tracing off: {name:24s} "
                                      f"{100 * (value / e2e[name] - 1):+7.1f} %")
                    if not trace:
                        e2e = e2e_t
                    prefix = f"{w}." if len(workloads) > 1 or len(modes) > 1 else ""
                    metrics.update({prefix + n: {"value": v, "unit": units[n]}
                                    for n, v in shown.items()})
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        if ray_tmp != run_root:
            shutil.rmtree(ray_tmp, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(run_root)  # other runs may still use it
    stamp["loadavg_end"] = os.getloadavg()
    # share of CPU time the hypervisor gave to other guests during the run
    d = [b - a for a, b in zip(ticks, _cpu_ticks())]
    stamp["steal_pct"] = round(100.0 * d[7] / max(sum(d), 1), 2)
    print(json.dumps({"stamp": stamp}))
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
