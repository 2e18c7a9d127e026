"""Crawl-engine benchmark: one workload, one seed, one JSON result.

Usage (from the repository root):

    python3 perfbench/run.py --workload details_clustered --seed 1 \
        --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` runs the
traced variant and prints the per-layer metrics. stdout carries two
JSON lines: a run record (environment, corpus shape, pass times,
failures), then the result
``{"correct", "attempted", "failed", "metrics"}``. Everything else
(Ray's logs included) goes to stderr. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import signal
import statistics
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: documents per corpus (each yields one entity and 1-4 detail pages)
N_DOCS = 1000
#: corpus generations in the set-up; ``setup_s`` takes their median
SETUP_REPEATS = 3
#: object store for the local Ray session: the corpus is a few MB
OBJECT_STORE_BYTES = 256 << 20
#: longest Ray temp dir whose plasma socket path stays under AF_UNIX's
#: 107-byte limit (the session directory name adds about 65 bytes)
MAX_RAY_TMP_LEN = 40

END_TO_END_UNITS = {
    "setup_s": "s",
    "pages_per_s": "pages/s",
    "wall_s": "s",
    "driver_peak_rss_mb": "MB",
    "ok_ratio": "ratio",
}


def nproc() -> int:
    """CPUs as coreutils ``nproc`` counts them: the affinity mask, or
    ``OMP_NUM_THREADS`` when set, capped by ``OMP_THREAD_LIMIT``."""
    n = len(os.sched_getaffinity(0))
    for var, cap in (("OMP_NUM_THREADS", False), ("OMP_THREAD_LIMIT", True)):
        try:
            v = int(os.environ.get(var, "").split(",")[0])
        except ValueError:
            continue
        if v > 0:
            n = min(n, v) if cap else v
    return n


def pin_to_nproc() -> list[int]:
    """Confine this process, its threads and every process it starts
    (Ray's included) to the first ``nproc`` CPUs it may run on, so the
    program gets exactly the CPU budget Ray is told about and the box's
    other vCPUs, shared with other tenants, stay out of the measurement."""
    cpus = sorted(os.sched_getaffinity(0))[:nproc()]
    for tid in os.listdir("/proc/self/task"):
        os.sched_setaffinity(int(tid), cpus)
    return cpus


def cpu_ticks() -> list[int]:
    """System-wide CPU ticks (/proc/stat): user, nice, system, idle,
    iowait, irq, softirq, steal."""
    with open("/proc/stat") as f:
        return [int(v) for v in f.readline().split()[1:9]]


def _children_by_parent() -> dict[int, list[int]]:
    out: dict[int, list[int]] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as f:
                ppid = int(f.read().rsplit(")", 1)[1].split()[1])
        except (OSError, IndexError, ValueError):
            continue
        out.setdefault(ppid, []).append(int(entry))
    return out


def descendants(pid: int) -> list[int]:
    tree = _children_by_parent()
    out, stack = [], [pid]
    while stack:
        for child in tree.get(stack.pop(), []):
            out.append(child)
            stack.append(child)
    return out


def _alive(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat") as f:
            return f.read().rsplit(")", 1)[1].split()[0] != "Z"
    except (OSError, IndexError):
        return False


def wait_ended(pids: list[int], timeout: float = 30.0) -> None:
    """Wait until every pid has exited; SIGKILL stragglers at the deadline."""
    deadline = time.monotonic() + timeout
    while True:
        for pid in pids:  # reap our own children
            try:
                os.waitpid(pid, os.WNOHANG)
            except ChildProcessError:
                pass
        left = [p for p in pids if _alive(p)]
        if not left:
            return
        if time.monotonic() > deadline:
            for p in left:
                try:
                    os.kill(p, signal.SIGKILL)
                except ProcessLookupError:
                    pass
            deadline = time.monotonic() + 10.0
        time.sleep(0.1)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--docs", type=int, default=N_DOCS,
                   help="documents in the corpus (the self-test uses a tiny one)")
    return p.parse_args(argv)


def run(args, emit, pinned: list[int]) -> int:
    try:
        import pyarrow
        import ray
        import ray.data

        import dfg_gepris_crawler_ray  # noqa: F401  (fail fast without the engine)
        from perfbench.ledger import Tracer
        from perfbench.workloads import PER_LAYER_UNITS, WORKLOADS, Ops
    except ImportError as exc:
        print(f"perfbench: cannot import the engine: {exc}", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2

    work = os.path.join(ROOT, ".perfbench_work", f"{args.workload}-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    ray_tmp = os.path.join(ROOT, ".perfbench_work", f"r{os.getpid()}")
    if len(ray_tmp) > MAX_RAY_TMP_LEN:
        ray_tmp = tempfile.mkdtemp(prefix="pb")
    # Ray workers import the engine from this checkout
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (ROOT, os.environ.get("PYTHONPATH")) if p)

    cpus = len(pinned)
    ops = Ops()
    run_id = f"{args.workload}-seed{args.seed}-{os.getpid()}"
    tracer = Tracer(run_id)
    record = dict(workload=args.workload, seed=args.seed, trace=args.trace,
                  nproc=nproc(), cpu_count=os.cpu_count(), ray_num_cpus=cpus,
                  pinned_cpus=pinned,
                  ray_version=ray.__version__, pyarrow_version=pyarrow.__version__,
                  docs=args.docs)
    try:
        t0 = time.perf_counter()
        ray.init(num_cpus=cpus, include_dashboard=False, log_to_driver=False,
                 object_store_memory=OBJECT_STORE_BYTES, _temp_dir=ray_tmp)
        ray_init_s = time.perf_counter() - t0
        ray.data.DataContext.get_current().enable_progress_bars = False

        wl = WORKLOADS[args.workload](work, args.docs, args.seed, ops, tracer)
        gen_s = [wl.generate() for _ in range(SETUP_REPEATS)]
        warm_s = wl.warm_up()
        setup_s = ray_init_s + statistics.median(gen_s) + warm_s

        # the timed window: passes while the next one (at the median pass
        # time so far) still fits in --seconds, and at least one of each
        # kind; the traced run alternates untraced and traced passes
        walls: list[float] = []
        traced_walls: list[float] = []
        n_passes = 0
        ticks0 = cpu_ticks()
        t_start = time.perf_counter()
        while True:
            elapsed = time.perf_counter() - t_start
            if walls and (traced_walls or not args.trace):
                if elapsed + statistics.median(walls + traced_walls) > args.seconds:
                    break
            elif elapsed > 2 * args.seconds:
                break  # passes keep failing: report that rather than spin
            if args.trace and n_passes % 2:
                wall = wl.traced_pass()
                if wall is not None:
                    traced_walls.append(wall)
            else:
                wall = wl.run_pass()
                if wall is not None:
                    walls.append(wall)
            n_passes += 1
            gc.collect()  # between passes, outside the timed calls
        # how busy the box was during the window: steal is CPU time the
        # hypervisor gave to other guests
        ticks = [b - a for a, b in zip(ticks0, cpu_ticks())]
        host = dict(idle_share=ticks[3] / sum(ticks), steal_share=ticks[7] / sum(ticks))

        if args.trace:
            layers = wl.ledger(walls)
            metrics = {k: layers.get(k, 0) for k in PER_LAYER_UNITS}
            units = PER_LAYER_UNITS
        else:
            wl.verify()
            wall = statistics.median(walls) if walls else 0.0
            metrics = {
                "setup_s": setup_s,
                "pages_per_s": wl.pages_per_pass / wall if wall else 0.0,
                "wall_s": wall,
                "driver_peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "ok_ratio": (ops.attempted - ops.failed) / ops.attempted,
            }
            units = END_TO_END_UNITS
        record.update(corpus=wl.shape, ray_init_s=ray_init_s, generate_s=gen_s,
                      warm_up_s=warm_s, pass_s=walls, traced_pass_s=traced_walls, host=host,
                      pages_per_pass=wl.pages_per_pass, failures=ops.failures, **wl.record)
    finally:
        pids = descendants(os.getpid())
        ray.shutdown()
        wait_ended(pids)
        shutil.rmtree(work, ignore_errors=True)
        shutil.rmtree(ray_tmp, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work))  # only when no other run uses it
        except OSError:
            pass

    if args.trace:
        trace_path = os.path.join(ROOT, ".perfbench_out", f"{run_id}.json")
        tracer.write(trace_path)
        record["trace_file"] = os.path.relpath(trace_path, ROOT)
    emit(record)
    emit(dict(correct=ops.failed == 0, attempted=ops.attempted, failed=ops.failed,
              metrics={k: dict(value=v, unit=units[k]) for k, v in metrics.items()}))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    pinned = pin_to_nproc()  # before any import starts a thread pool
    sys.path.insert(0, ROOT)
    # stdout is reserved for the two JSON lines: point fd 1 at stderr so
    # nothing else (Ray, pyarrow, print) can write there
    out = os.fdopen(os.dup(1), "w")
    os.dup2(2, 1)

    def emit(obj):
        out.write(json.dumps(obj, default=str) + "\n")
        out.flush()

    return run(args, emit, pinned)


if __name__ == "__main__":
    sys.exit(main())
