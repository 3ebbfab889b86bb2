"""Run one workload in a fresh process and print its measurements as one JSON line.

``run.py`` starts this script with ``PYTHONPATH`` pointing at the checkout's
``src`` and the BLAS pinned to one thread; it is not meant to be run by hand.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1 [--setup-only]

Every time is process CPU time (the BLAS runs on one thread, so that is the
program's own work), converted to seconds at a fixed reference speed by a
probe that runs every PROBE_INTERVAL_S (``ReferenceComputation``). Set-up
counts from the start of the process to the end of one small warm-up
operation, so it covers starting Python and importing numpy, scipy and fnar.
The loop then runs operations one after another until ``--seconds`` have
passed and at least the workload's ``min_ops`` are done.
In a traced run, operations run in pairs on the same inputs, one with the
tracer installed and one without, so the tracing overhead is measured pair
by pair in the same process.
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
OUT_DIR = ROOT / ".perfbench"
HARD_LIMIT_S = 110.0  # stop starting operations after this, whatever min_ops says
PROBE_INTERVAL_S = 0.25  # wall seconds between two probes
PROBE_NOMINAL_S = 0.01  # a probe's CPU time at the reference speed
PROBE_WINDOW_S = 1.0  # CPU seconds either side of an interval whose probes set its speed
MAX_PROBES = 4096  # more than a run of HARD_LIMIT_S plus set-up and checks takes


# Per-layer metrics: (name, unit, operations, SpanStats field, span name or layer).
# "time" metrics cover every traced operation; "count" metrics cover the first
# min_ops/2 traced operations, a fixed set, so a count repeats exactly for a
# seed. Each value is divided by the user operations (replications, panels,
# pipelines) in its set.
PER_LAYER = (
    ("montecarlo.harness_self_s", "s/op", "time", "self_time", "montecarlo.run_mc"),
    ("estimator.designs_built", "count/op", "count", "calls", "estimator.build_instruments"),
    ("estimator.fit_2sls_s", "s/op", "time", "duration", "estimator.fit_2sls"),
    ("estimator.fit_gmm_s", "s/op", "time", "duration", "estimator.fit_gmm"),
    ("estimator.gn_iters", "count/op", "count", "value_sum", "estimator.fit_gmm"),
    ("estimator.variance_s", "s/op", "time", "duration", "estimator.estimate_variance"),
    ("estimator.fixed_effects_s", "s/op", "time", "duration",
     "estimator.estimate_fixed_effects"),
    ("network.quad_weights_builds", "count/op", "count", "calls",
     "network.build_quadratic_weights"),
    ("network.quad_weights_s", "s/op", "time", "duration", "network.build_quadratic_weights"),
    ("basis.build_s", "s/op", "time", "duration", "basis.build_bspline_basis"),
    ("simulate.busy_s", "s/op", "time", "layer_busy", "simulate"),
    ("simulate.neumann_s", "s/op", "time", "duration", "simulate.neumann_solve"),
    ("simulate.neumann_iters", "count/op", "count", "value_sum", "simulate.neumann_solve"),
    ("interaction.apply_grid_calls", "count/op", "count", "calls", "interaction.apply_grid"),
    ("interaction.apply_grid_s", "s/op", "time", "duration", "interaction.apply_grid"),
    ("interaction.network_lag_s", "s/op", "time", "duration", "interaction.network_lag"),
    ("effects.propagations", "count/op", "count", "calls", "effects.impulse_response"),
    ("effects.keyplayer_s", "s/op", "time", "layer_busy", "effects"),
    ("cli.simulate_io_s", "s/op", "time", "self_time", "cli.simulate"),
    ("cli.estimate_io_s", "s/op", "time", "self_time", "cli.estimate"),
)


def environment(seed: int) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "fnar").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
        commit = proc.stdout.strip() or commit
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(os.environ.get("OPENBLAS_NUM_THREADS", "0")),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
        "git_commit": commit,
        "src_sha256": digest.hexdigest()[:16],
        "seed": seed,
    }


def _median(values):
    return statistics.median(values) if values else float("nan")


class ReferenceComputation:
    """A fixed computation, independent of fnar, run every PROBE_INTERVAL_S.

    On a shared machine the work one CPU second buys drifts by up to 1.5x,
    over seconds and from one process to the next, because other tenants
    share the caches and execution units. A SIGALRM timer runs this probe at
    regular intervals, and an interval of the process's CPU time is divided
    by the mean CPU time of the probes in and around it, then multiplied by
    PROBE_NOMINAL_S: it is expressed in CPU seconds at a fixed reference
    speed, sampled where the work ran. (A CPU-time timer, ITIMER_PROF, would
    coarsen the process CPU clock to the kernel's tick.) The mix mirrors what
    fnar spends time on: interpreted Python, many small einsum calls, small
    scipy.sparse products and constructions, BLAS products, and in-place
    sweeps over a buffer larger than a core's L2 cache. It allocates no
    lasting memory after ``__init__``, so its arrays are a fixed
    ``resident_bytes`` of the process's resident memory and leave the heap's
    layout alone.
    """

    def __init__(self):
        import numpy as np
        import scipy.sparse as sp

        rng = np.random.default_rng(0)
        self.np, self.sp = np, sp
        self.small = rng.normal(size=(40, 40))
        self.block = rng.normal(size=(40, 3))
        self.matrix = rng.normal(size=(200, 200))
        self.product = np.empty_like(self.matrix)
        self.sweep = rng.normal(size=3 * 2**20 // 8)  # 3 MB
        self.sparse = sp.random_array((100, 100), density=0.05, random_state=0, format="csr")
        coo = self.sparse.tocoo()
        self.triplets = (coo.data, (coo.row, coo.col))
        self.vector = rng.normal(size=100)
        self.multi = rng.normal(size=(100, 3))
        self.table = {f"k{i}": 0.0 for i in range(256)}
        # CPU (start, end) of every probe, in a buffer that never grows: a
        # growing list, reallocated between fnar's arrays, raised the peak RSS
        # of cli-pipeline by 6-9 MB
        self._times = np.zeros((MAX_PROBES, 2))
        self._count = 0
        self._running = False
        self.resident_bytes = sum(a.nbytes for a in (
            self.small, self.block, self.matrix, self.product, self.sweep, self.vector,
            self.multi, self.sparse.data, self.sparse.indices, self.sparse.indptr,
            *self.triplets[1], self._times))

    def _once(self) -> None:
        np, sp = self.np, self.sp
        table = self.table
        for i in range(4000):
            key = f"k{i % 256}"
            table[key] = table[key] * 0.5 + i
        for _ in range(80):
            np.einsum("ij,jk->ik", self.small, self.block).sum()
        for _ in range(100):
            (self.sparse @ self.vector).sum() + (self.sparse @ self.multi).sum()
        for _ in range(15):
            sp.csr_array(self.triplets, shape=self.sparse.shape)
        for _ in range(6):
            np.matmul(self.matrix, self.matrix, out=self.product)
        for _ in range(12):
            np.multiply(self.sweep, 1.0, out=self.sweep)

    @property
    def probes(self):
        return self._times[:self._count]

    def _tick(self, signum, frame):
        if self._running or self._count == MAX_PROBES:
            return
        self._running = True
        start = time.process_time()
        try:
            self._once()
        finally:
            self._times[self._count] = start, time.process_time()
            self._count += 1
            self._running = False

    def __enter__(self):
        self._tick(None, None)
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self._tick(None, None)

    def probe_seconds(self, t0: float, t1: float) -> float:
        """CPU time the probe took inside [t0, t1]."""
        return sum(end - start for start, end in self.probes if t0 <= start < t1)

    def reference_seconds(self, t0: float, t1: float) -> float:
        """CPU time spent in [t0, t1] outside the probe, at the reference speed.

        The speed is the mean CPU time of the probes that started within
        PROBE_WINDOW_S of CPU time of the interval.
        """
        near = [end - start for start, end in self.probes
                if t0 - PROBE_WINDOW_S <= start < t1 + PROBE_WINDOW_S]
        speed = statistics.mean(near or [end - start for start, end in self.probes])
        return (t1 - t0 - self.probe_seconds(t0, t1)) / speed * PROBE_NOMINAL_S


def measure(workload, args, tracer):
    """Run operations one after another; record each one's process CPU interval.

    In a traced run, operations ``2k`` and ``2k + 1`` form pair ``k`` and use
    seed index ``k``. One of them runs traced: the second in even pairs, the
    first in odd pairs, so that running second (on warm caches and a reused
    heap) does not bias the overhead one way.
    """
    from workloads import OpResult

    ops = []
    start = time.perf_counter()
    index = 0
    while True:
        elapsed = time.perf_counter() - start
        if elapsed >= HARD_LIMIT_S or (index >= workload.min_ops and elapsed >= args.seconds):
            break
        traced = tracer is not None and index % 2 != (index // 2) % 2
        seed_index = index // 2 if tracer is not None else index
        if traced:
            tracer.op = index
            tracer.install()
        state, error = None, None
        t0 = time.process_time()
        try:
            state = workload.run(seed_index, tracer if traced else None)
        except Exception:  # a failed operation is counted, and the loop goes on
            error = traceback.format_exc()
        t1 = time.process_time()
        if traced:
            tracer.uninstall()
        if error is None:
            try:
                result = workload.check(state)
            except Exception:
                error = traceback.format_exc()
        del state
        if error is not None:
            print(f"operation {index} failed:\n{error}", file=sys.stderr)
            result = OpResult(failed=workload.units)
        for note in result.notes:
            print(f"operation {index}: {note}", file=sys.stderr)
        ops.append({"index": index, "traced": traced, "span": (t0, t1), "result": result})
        index += 1
    return ops


def end_to_end(workload, ops, reference) -> tuple[dict, dict]:
    """(metrics gated in BENCHMARK.json, further named metrics) from untraced operations."""
    plain = [op for op in ops if not op["traced"]]
    for op in plain:
        op["seconds"] = reference.reference_seconds(*op["span"])
        op["stages"] = {name: reference.reference_seconds(*span)
                        for name, span in op["result"].stages.items()}
    per_unit = [op["seconds"] / workload.units for op in plain]
    cpu = [(op["span"][1] - op["span"][0] - reference.probe_seconds(*op["span"]))
           / workload.units for op in plain]
    # the mean, not the median: its inverse is the throughput, and across
    # seeds it spread by less than half as much on fit-large
    listed = {"op_s": (statistics.fmean(per_unit) if per_unit else float("nan"), "s")}
    named = {"op_cpu_s": (statistics.fmean(cpu) if cpu else float("nan"), "s"),
             "op_count": (len(plain), "count"),
             "probe_cpu_s": (_median([end - start for start, end in reference.probes]), "s"),
             "probes": (len(reference.probes), "count")}
    if len(per_unit) >= 4:
        q1, _, q3 = statistics.quantiles(per_unit, n=4)
        named["op_q1_s"], named["op_q3_s"] = (q1, "s"), (q3, "s")
    named.update(workload.named_metrics(plain))
    return listed, named


def per_layer(workload, ops, tracer) -> dict:
    from spans import SpanStats

    traced = [op for op in ops if op["traced"]]
    window = traced[: workload.min_ops // 2]
    stats = {"time": SpanStats(tracer.spans, {op["index"] for op in traced}),
             "count": SpanStats(tracer.spans, {op["index"] for op in window})}
    units = {"time": workload.units * len(traced), "count": workload.units * len(window)}
    metrics = {}
    for name, unit, source, field, key in PER_LAYER:
        value = getattr(stats[source], field).get(key, 0.0)
        metrics[name] = (value / max(units[source], 1), unit)
    peak = stats["time"].value_max.get("estimator.estimate_variance", 0.0)
    metrics["estimator.variance_peak_mb"] = (peak / 2**20, "MB")
    for key in ("bytes_written", "bytes_read"):
        total = sum(getattr(op["result"], key) for op in window)
        metrics[f"cli.{key}"] = (total / max(units["count"], 1), "bytes/op")
    # each traced operation against the untraced one of its pair, on the same inputs
    cpu = [op["span"][1] - op["span"][0] for op in ops]
    pairs = [cpu[op["index"]] / cpu[op["index"] ^ 1] for op in traced
             if op["index"] ^ 1 < len(ops)]
    metrics["trace_overhead_pct"] = (100.0 * (_median(pairs) - 1.0), "%")
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    from spans import Tracer

    tracer = Tracer() if args.trace else None
    reference = ReferenceComputation()  # imports numpy and scipy.sparse
    workdir = OUT_DIR / f"work-{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        with reference:
            import fnar

            if Path(fnar.__file__).resolve().parent != ROOT / "src" / "fnar":
                print(f"error: imported fnar from {fnar.__file__}, not from {ROOT / 'src'}",
                      file=sys.stderr)
                return 2
            from workloads import WORKLOADS

            workload = WORKLOADS[args.workload](args.seed, workdir)
            workload.warm_up()
            setup_end = time.process_time()
            if tracer is None and not args.setup_only:
                ops = measure(workload, args, None)
        # set-up counts from the start of the process
        setup_s = reference.reference_seconds(0.0, setup_end)
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        if tracer is not None:  # without the probe, which would land inside spans
            ops = measure(workload, args, tracer)
        checks = workload.final_checks()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = workload.units * len(ops) + len(checks)
    failed = sum(op["result"].failed for op in ops) + sum(not ok for _, ok, _ in checks)
    fits = sum(op["result"].fits for op in ops)
    nonconverged = sum(op["result"].nonconverged for op in ops)
    listed, named = end_to_end(workload, ops, reference)
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 - reference.resident_bytes
    listed["peak_rss_mb"] = (peak / 2**20, "MB")
    named["failed_frac"] = (failed / attempted, "ratio")
    named["nonconverged_frac"] = (nonconverged / fits if fits else 0.0, "ratio")
    record = {
        "workload": args.workload, "unit": workload.unit, "setup_s": setup_s,
        "setup_cpu_s": setup_end,
        "attempted": attempted, "failed": failed, "fits": fits, "nonconverged": nonconverged,
        "end_to_end": listed, "named": named, "checks": checks,
        "ops": [[op["index"], op["traced"], *op["span"], op.get("seconds")] for op in ops],
        "env": environment(args.seed),
    }
    if tracer is not None:
        record["per_layer"] = per_layer(workload, ops, tracer)
        spans_path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.json"
        tracer.write(spans_path)
        record["spans_file"] = str(spans_path.relative_to(ROOT))
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
