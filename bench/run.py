#!/usr/bin/env python3
"""Closed-loop benchmark of the logpolar library, run from the repository root.

    python3 bench/run.py --workload wide-kernel-train --seed 1 --seconds 50 --trace 0

One process, one caller: each batch starts after the previous one ended
(workloads.py describes the workloads). The library is imported
from ``src/`` of the checkout; without it the command exits non-zero.

``--trace 0`` measures with tracing off and reports the end-to-end
metrics. ``--trace 1`` alternates untraced and traced blocks of batches
and reports the per-layer metrics (tracing.py), including the traced
throughput against the untraced one. Every run checks the outputs
(``workloads.run_checks``) and exits 2 when a batch loss is not finite or
a check fails. The last stdout line is the JSON result; the environment,
the metrics and, when traced, every span are also written to
``bench/out/<workload>.json``.

Times are reported on a reference core. On a shared host the cores'
speed follows the load of other tenants: on the 2-core host the bounds
were set on, it moved by up to 1.5x over minutes, so wall-clock figures
of runs minutes apart spread by up to a third of their median. So the timed
loop runs in blocks of about ``BLOCK_S``, and between two blocks a fixed
pure-Python loop measures the core's speed (``calibration_rate``). Each
wall time is multiplied by the block's speed, the mean calibration rate
on either side over ``CAL_REF_RATE``: the result is the time the same
work takes on a core that runs the calibration loop ``CAL_REF_RATE``
times a second. The calibration loop is part of the benchmark and never
changes, so a slower program still reads slower. Set-up is timed the
same way, and the wall-clock figures are printed beside the metrics.
BLAS runs one thread, as the calibration loop does.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 7  # fresh processes timed for setup_s; the median is reported
BLOCK_S = 0.5  # batches between two calibration slots; the traced run
# alternates untraced and traced blocks of this length
CAL_SLOT_S = 0.05  # one calibration between two blocks of batches
SETUP_CAL_SLOT_S = 0.2  # one calibration between two set-up processes
# calibration loops per second of the reference core (about the faster of
# the two speeds of the shared 2-core x86-64 host the bounds were set on)
CAL_REF_RATE = 20_000.0

END_TO_END_UNITS = {
    "samples_per_s": "1/s",
    "batch_ms_p50": "ms",
    "batch_ms_p90": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "final_loss": "nat",
    "ok_frac": "frac",
}

# (metric, span name, what): "ms" inclusive time, "self_ms" span minus its
# children, "calls" spans; all per traced batch
SPAN_METRICS = (
    ("lpsc.pool_ms", "lpsc.pool", "ms"),
    ("lpsc.pool_calls", "lpsc.pool", "calls"),
    ("lpsc.block_conv_ms", "lpsc.block_conv", "ms"),
    ("lpsc.block_conv_bwd_ms", "lpsc.block_conv_bwd", "ms"),
    ("lpsc.fwd_self_ms", "lpsc.forward", "self_ms"),
    ("lpsc.bwd_self_ms", "lpsc.backward", "self_ms"),
    ("conv.fwd_ms", "conv.fwd", "ms"),
    ("conv.bwd_ms", "conv.bwd", "ms"),
    ("conv.fwd_calls", "conv.fwd", "calls"),
    ("network.forward_ms", "network.forward", "ms"),
    ("network.backward_ms", "network.backward", "ms"),
    ("network.sgd_ms", "network.sgd", "ms"),
    ("ops.maxpool_fwd_ms", "ops.maxpool_fwd", "ms"),
    ("ops.maxpool_bwd_ms", "ops.maxpool_bwd", "ms"),
    ("ops.meanpool_ms", "ops.meanpool", "ms"),
    ("ops.relu_ms", "ops.relu", "ms"),
    ("ops.dense_ms", "ops.dense", "ms"),
    ("ops.loss_ms", "ops.loss", "ms"),
)
# set-up spans, total ms over the traced run's single set-up
SETUP_METRICS = (("geometry.mask_ms", "geometry.mask"), ("data.gen_ms", "data.gen"))
# per forward pass of one batch: exact counts from analysis.count_costs and
# buffer sizes computed from shapes (not measured)
COST_METRICS = {
    "lpsc.pooled_bytes": ("B", "computed"),
    "lpsc.pool_cell_adds": ("count", "counted"),
    "lpsc.mults": ("count", "counted"),
    "lpsc.adds": ("count", "counted"),
    "conv.im2col_bytes": ("B", "computed"),
    "conv.mults": ("count", "counted"),
    "conv.adds": ("count", "counted"),
}


def pin_blas_threads() -> int:
    """Run BLAS on one thread, within the cores this process may use; returns their count.

    One caller and one BLAS thread keep every timed step on one core, the
    core the calibration loop measures. With a thread per core, a step
    waits for whichever core another tenant slows.
    """
    nproc = len(os.sched_getaffinity(0))
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    return nproc


def calibration_rate(seconds: float = CAL_SLOT_S) -> float:
    """Loops per second of a fixed pure-Python loop: the core's speed now."""
    loops = 0
    start = time.perf_counter()
    while True:
        total = 0
        for k in range(1000):
            total += k * k
        loops += 1
        elapsed = time.perf_counter() - start
        if elapsed >= seconds:
            return loops / elapsed


class CoreSpeed:
    """Core speed from calibration slots between blocks of timed work."""

    def __init__(self, slot_s: float = CAL_SLOT_S):
        self.slot_s = slot_s
        self.rates = [calibration_rate(slot_s)]

    def factor(self) -> float:
        """Calibrate again; wall seconds of the block since the last call,
        times this factor, are seconds on the reference core."""
        self.rates.append(calibration_rate(self.slot_s))
        return (self.rates[-2] + self.rates[-1]) / 2 / CAL_REF_RATE


def import_workloads():
    """Import the workloads against the checkout's own sources."""
    if not (SRC / "logpolar" / "__init__.py").is_file():
        sys.exit(f"error: {SRC / 'logpolar'} not found; run from the root of a full checkout")
    sys.path.insert(0, str(SRC))
    import logpolar

    if Path(logpolar.__file__).resolve().parent != SRC / "logpolar":
        sys.exit(f"error: imported logpolar from {logpolar.__file__}, not from {SRC}")
    import workloads

    return workloads


def environment(nproc: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_config": blas.get("openblas configuration", ""),
        "blas_threads": {var: os.environ[var] for var in BLAS_THREAD_VARS},
        "nproc": nproc,
        "machine": platform.machine(),
    }


def layer_metric_names(workloads) -> list[str]:
    """layer.<i>.<kind>.fwd_ms, and .bwd_ms where trained, over every workload."""
    names = []
    for wl in workloads.WORKLOADS.values():
        suffixes = ("fwd", "bwd") if wl.train_config is not None else ("fwd",)
        for i, layer in enumerate(wl.spec.layers, start=1):
            for suffix in suffixes:
                name = f"layer.{i}.{layer.kind}.{suffix}_ms"
                if name not in names:
                    names.append(name)
    return names


class Loop:
    """Closed-loop batches cycling over the workload's batch pool."""

    def __init__(self, workloads, wl, state):
        self.workloads, self.wl, self.state = workloads, wl, state
        self.done = 0
        self.failed = 0

    def run_batch(self) -> float:
        """Run the next batch; returns its wall time in seconds."""
        batch = self.state.batches[self.done % len(self.state.batches)]
        start = time.perf_counter()
        loss = self.workloads.step(self.wl, self.state.network, batch)
        elapsed = time.perf_counter() - start
        self.done += 1
        if not math.isfinite(loss):
            self.failed += 1
        return elapsed


def setup_seconds(wl_name: str, seed: int) -> tuple[list[float], list[float]]:
    """Wall and reference-core seconds of fresh processes that only import,
    build and fill caches."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", wl_name,
           "--seed", str(seed), "--setup-only"]
    speed = CoreSpeed(SETUP_CAL_SLOT_S)
    wall, ref = [], []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run(cmd, check=True, cwd=ROOT, stdout=subprocess.DEVNULL)
        wall.append(time.perf_counter() - start)
        ref.append(wall[-1] * speed.factor())
    return wall, ref


@dataclass
class Run:
    """What one run measured and checked."""

    metrics: dict  # name -> value
    units: dict  # name -> (unit, "measured" | "traced" | "counted" | "computed")
    batches: int
    batch_failures: int  # batches whose loss was not finite
    checks: list  # (name, error, tolerance, passed)
    notes: dict
    tracer: object = None

    @property
    def attempted(self) -> int:
        return self.batches + len(self.checks)

    @property
    def failed(self) -> int:
        return self.batch_failures + sum(not ok for *_, ok in self.checks)


def untraced_run(workloads, wl, seed, seconds) -> Run:
    """The end-to-end metrics, with tracing off."""
    import numpy as np

    setup_wall, setup_ref = setup_seconds(wl.name, seed)
    state = workloads.setup(wl, seed)
    loop = Loop(workloads, wl, state)
    final_loss = None
    if wl.loss_steps == 0:
        final_loss = workloads.eval_loss(wl, state.network, state.eval_set)
    speed = CoreSpeed()
    wall, ref = [], []  # batch seconds, on the wall clock and on the reference core
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or loop.done < wl.loss_steps:
        block = []
        block_end = time.perf_counter() + BLOCK_S
        while time.perf_counter() < block_end:
            block.append(loop.run_batch())
            if loop.done == wl.loss_steps:
                final_loss = workloads.eval_loss(wl, state.network, state.eval_set)
        factor = speed.factor()
        wall += block
        ref += [t * factor for t in block]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    checks = workloads.run_checks(wl, state.network, state.batches[0])
    checks.append(("final_loss.finite", final_loss, math.inf, math.isfinite(final_loss)))
    p50, p90 = 1000 * np.percentile(ref, [50, 90])
    metrics = {
        "samples_per_s": wl.batch_size * len(ref) / sum(ref),
        "batch_ms_p50": float(p50),
        "batch_ms_p90": float(p90),
        "setup_s": statistics.median(setup_ref),
        "peak_rss_mb": peak_rss_mb,
        "final_loss": final_loss,
    }
    wall_p50, wall_p90 = 1000 * np.percentile(wall, [50, 90])
    notes = {
        "batches": len(ref),
        "samples_per_batch": wl.batch_size,
        "final_loss_after_steps": wl.loss_steps,
        "core_speed_median": statistics.median(speed.rates) / CAL_REF_RATE,
        "wall_samples_per_s": wl.batch_size * len(wall) / sum(wall),
        "wall_batch_ms_p50": float(wall_p50),
        "wall_batch_ms_p90": float(wall_p90),
        "wall_setup_s": statistics.median(setup_wall),
        "setup_runs_s": setup_ref,
    }
    run = Run(metrics, {}, len(ref), loop.failed, checks, notes)
    metrics["ok_frac"] = 1 - run.failed / run.attempted
    run.units = {name: (END_TO_END_UNITS[name], "measured") for name in metrics}
    return run


def traced_run(workloads, wl, seed, seconds) -> Run:
    """The per-layer metrics, from alternating untraced and traced blocks."""
    from tracing import Tracer

    tracer = Tracer()
    speed = CoreSpeed()
    tracer.install(())
    state = workloads.setup(wl, seed, tracer)
    tracer.uninstall()
    setup_factor = speed.factor()
    loop = Loop(workloads, wl, state)
    plain, traced = [], []  # batch seconds on the reference core
    scale = {}  # traced batch -> its block's speed factor
    deadline = time.perf_counter() + seconds
    tracing = False
    while time.perf_counter() < deadline or not traced:
        if tracing:
            tracer.install(state.network.layers)
        first = loop.done
        block = []
        block_end = time.perf_counter() + BLOCK_S
        while True:
            tracer.batch = loop.done
            block.append(loop.run_batch())
            if time.perf_counter() >= block_end:
                break
        tracer.batch = -1
        if tracing:
            tracer.uninstall()
        factor = speed.factor()
        (traced if tracing else plain).extend(t * factor for t in block)
        if tracing:
            scale.update(dict.fromkeys(range(first, loop.done), factor))
        tracing = not tracing
    checks = workloads.run_checks(wl, state.network, state.batches[0])

    per_batch = tracer.totals(scale)
    in_setup = tracer.totals({-1: setup_factor})
    n = len(traced)
    metrics, units = {}, {}
    for metric, span, what in SPAN_METRICS:
        calls, inclusive, own = per_batch.get(span, (0, 0.0, 0.0))
        value = {"ms": 1000 * inclusive, "self_ms": 1000 * own, "calls": calls}[what]
        metrics[metric] = value / n
        units[metric] = ("count" if what == "calls" else "ms", "traced")
    for metric in layer_metric_names(workloads):
        metrics[metric] = 1000 * per_batch.get(metric[: -len("_ms")], (0, 0.0, 0.0))[1] / n
        units[metric] = ("ms", "traced")
    for metric, span in SETUP_METRICS:
        metrics[metric] = 1000 * in_setup.get(span, (0, 0.0, 0.0))[1]
        units[metric] = ("ms", "traced")
    metrics.update(cost_metrics(wl))
    units.update(COST_METRICS)
    # samples_per_s of the traced blocks against the untraced ones
    metrics["trace.overhead_frac"] = 1 - (n / sum(traced)) / (len(plain) / sum(plain))
    metrics["trace.batches"] = n
    units["trace.overhead_frac"] = ("frac", "measured")
    units["trace.batches"] = ("count", "counted")
    notes = {"untraced_batches": len(plain), "traced_batches": n,
             "samples_per_batch": wl.batch_size}
    return Run(metrics, units, len(plain) + n, loop.failed, checks, notes, tracer)


def cost_metrics(wl) -> dict:
    """Per forward pass of one batch: op counts and computed buffer bytes."""
    from logpolar.analysis import count_costs
    from workloads import CONV_KINDS

    report = count_costs(wl.spec)
    metrics = dict.fromkeys(COST_METRICS, 0)
    n = wl.batch_size
    in_shape = report.input_shape
    for cost, spec in zip(report.layers, wl.spec.layers):
        if cost.kind == "lpsc":
            metrics["lpsc.pooled_bytes"] += 8 * n * cost.pooled_cells
            metrics["lpsc.pool_cell_adds"] += n * cost.detail["pool_adds"]
            metrics["lpsc.mults"] += n * cost.mults
            metrics["lpsc.adds"] += n * cost.adds
        elif cost.kind in CONV_KINDS:
            k = spec.options["kernel_size"]
            out_h, out_w = cost.output_shape[:2]
            metrics["conv.im2col_bytes"] += 8 * n * out_h * out_w * k * k * in_shape[2]
            metrics["conv.mults"] += n * cost.mults
            metrics["conv.adds"] += n * cost.adds
        in_shape = cost.output_shape
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="import, build and fill caches, then exit (times setup_s)")
    args = parser.parse_args(argv)

    nproc = pin_blas_threads()
    workloads = import_workloads()
    wl = workloads.WORKLOADS.get(args.workload)
    if wl is None:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    if args.setup_only:
        workloads.setup(wl, args.seed)
        return 0

    env = environment(nproc)
    print("env " + json.dumps(env, sort_keys=True))
    run = (traced_run if args.trace else untraced_run)(workloads, wl, args.seed, args.seconds)

    for name, err, tol, ok in run.checks:
        print(f"check {name}: {err:.3e} (tol {tol:.0e}) {'ok' if ok else 'FAIL'}")
    notes = " ".join(f"{k}={v}" for k, v in run.notes.items() if k != "setup_runs_s")
    print(f"{wl.name} seed={args.seed} {notes}")
    for name, value in run.metrics.items():
        unit, how = run.units[name]
        print(f"{name} = {value:.6g} {unit} ({how})")
    print(f"failed_frac = {run.failed}/{run.attempted}")

    OUT_DIR.mkdir(exist_ok=True)
    header = {
        "workload": wl.name, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "env": env, "notes": run.notes, "attempted": run.attempted, "failed": run.failed,
        "checks": [{"name": n, "error": e, "tol": t, "ok": ok} for n, e, t, ok in run.checks],
        "metrics": {k: {"value": v, "unit": run.units[k][0], "how": run.units[k][1]}
                    for k, v in run.metrics.items()},
    }
    path = OUT_DIR / f"{wl.name}.json"
    if run.tracer is None:
        path.write_text(json.dumps(header, indent=1) + "\n")
    else:
        run.tracer.write(path, header)

    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": run.units[k][0]} for k, v in run.metrics.items()},
    }
    print(json.dumps(result))
    return 0 if run.failed == 0 else 2


if __name__ == "__main__":
    sys.exit(main())
