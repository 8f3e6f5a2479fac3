#!/usr/bin/env python3
"""parafreq benchmark: one workload, timed passes, checked outputs, one JSON line.

Run from the root of a checkout (the program is imported from ``src/``):

    python3 bench/run.py --workload check-all --seed 0 --seconds 10 --trace 0

Workloads are defined in ``workloads.py`` and listed with their reasons in
``BENCHMARK.json``.  A run imports parafreq and generates the seeded inputs
(``setup_s`` is the median of that set-up timed in this process and in
fresh child processes, half of them started before the passes and half
after, so that the samples span the run), then repeats whole passes until
``--seconds`` have elapsed.  Every pass is checked: any failed program check
or output defect makes the run print ``"correct": false`` and exit 1.

``--trace 0`` reports the end-to-end metrics of untraced passes.
``--trace 1`` alternates untraced and traced passes and reports the per-layer
metrics of ``layers.py`` (means over traced passes), with the tracing
overhead as traced minus untraced wall time.  Full results, the environment
block and the spans of the last traced pass go to ``.bench_out/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from pathlib import Path

from layers import COUNTERS, metric_units, pass_metrics
from tracing import Tracer, instrument
from workloads import WORKLOADS, import_program

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# BLAS threads change check-all by ~1.6x, so the count is fixed here, not inherited.
# One thread: on a shared 2-vCPU host, passes with two BLAS threads varied by ~20%
# from run to run, passes with one thread by ~3-5%.
BLAS_THREADS = 1
# Import time swings by up to 40% within seconds on a shared host, so set-up is
# sampled often and on both sides of the passes, and its median reported.
SETUP_PROBES = 8
PROBE_TIMEOUT_S = 60

END_TO_END_UNITS = {"wall_s": "s", "node_steps_per_s": "1/s", "peak_rss_mb": "MB", "setup_s": "s"}


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def _pin_threads() -> int:
    for var in THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)
    return BLAS_THREADS


def _setup(workload, seed: int, workdir: Path):
    """Import the program and generate the inputs; returns (program, state, seconds)."""
    start = time.perf_counter()
    pf = import_program()
    state = workload.setup(pf, seed, workdir)
    return pf, state, time.perf_counter() - start


def _probe_setup(workload: str, seed: int) -> float:
    """Set-up time measured inside a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
         "--workload", workload, "--seed", str(seed)],
        capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, cwd=ROOT,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
    return float(proc.stdout.split()[-1])


def _git_commit() -> str | None:
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = proc.stdout.split()
    if proc.returncode == 0 and len(lines) == 2 and Path(lines[0]).resolve() == ROOT:
        return lines[1]
    return None  # not a git checkout, or one that merely sits inside another repository


def environment(blas_threads: int) -> dict:
    # imported here, not at the top: the first import of numpy belongs to the timed set-up
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_config": blas.get("openblas configuration"),
        "nproc": nproc(),
        "machine": platform.machine(),
        "blas_threads": blas_threads,
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
        "git_commit": _git_commit(),
    }


def _run_pass(workload, pf, state, traced: bool) -> dict:
    tracer = Tracer() if traced else None
    with instrument(tracer, COUNTERS) if traced else nullcontext():
        cpu, start = time.process_time(), time.perf_counter()
        output = workload.execute(pf, state, tracer)
        wall, cpu = time.perf_counter() - start, time.process_time() - cpu
    outcome = workload.verify(state, output)
    result = {"wall": wall, "outcome": outcome}
    if traced:
        _check_flow_counts(workload, state, tracer, outcome)
        metrics = pass_metrics(tracer, wall)
        metrics["process.cpu_s"] = cpu
        metrics["checks.attempted"] = float(outcome.attempted)
        metrics["checks.failed_frac"] = outcome.failed / max(outcome.attempted, 1)
        result.update(metrics=metrics, tracer=tracer)
    return result


def _check_flow_counts(workload, state, tracer, outcome) -> None:
    """The flows a traced pass evolved must be the ones ``node_steps_per_s`` counts from the inputs."""
    want = (workload.flows(state), workload.node_steps(state))
    got = (tracer.counts["evolution.flows"], tracer.counts["evolution.node_steps"])
    if got != want:
        outcome.defects.append(f"traced (flows, node-steps) {got}, the inputs give {want}")


def measure(workload, pf, state, seconds: float, trace: bool) -> list[dict]:
    """Whole passes until ``seconds`` have elapsed.

    With ``trace`` every traced pass sits between two untraced ones, so that
    drift in machine speed during a run does not bias the tracing overhead.
    """
    start = time.perf_counter()
    passes = [_run_pass(workload, pf, state, traced=False)]
    while time.perf_counter() - start < seconds or (trace and len(passes) == 1):
        if trace:
            passes.append(_run_pass(workload, pf, state, traced=True))
        passes.append(_run_pass(workload, pf, state, traced=False))
    return passes


def end_to_end(workload, state, passes: list[dict], setup_samples: list[float]) -> dict:
    wall = statistics.median(p["wall"] for p in passes)
    return {
        "wall_s": wall,
        "node_steps_per_s": workload.node_steps(state) / wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_s": statistics.median(setup_samples),
    }


def per_layer(passes: list[dict]) -> dict:
    """Means over traced passes: unlike medians, they keep self times summing to the wall time."""
    traced = [p for p in passes if "metrics" in p]
    out = {key: statistics.fmean(p["metrics"][key] for p in traced) for key in traced[0]["metrics"]}
    out["trace.overhead_s"] = (statistics.fmean(p["wall"] for p in traced)
                               - statistics.fmean(p["wall"] for p in passes if "metrics" not in p))
    return out


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    if not (SRC / "parafreq" / "__init__.py").is_file():
        print(f"error: no parafreq sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    args = parse_args(argv)
    workload = WORKLOADS[args.workload]
    threads = _pin_threads()
    workdir = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    try:
        pf, state, setup_s = _setup(workload, args.seed, workdir)
        if not Path(pf.__file__).resolve().is_relative_to(SRC):
            print(f"error: parafreq imported from {pf.__file__}, not {SRC}", file=sys.stderr)
            return 2
        if args.setup_probe:
            print(repr(setup_s))
            return 0
        setup_samples = [setup_s] + [_probe_setup(args.workload, args.seed) for _ in range(SETUP_PROBES // 2)]
        passes = measure(workload, pf, state, args.seconds, bool(args.trace))
        setup_samples += [_probe_setup(args.workload, args.seed) for _ in range(SETUP_PROBES - SETUP_PROBES // 2)]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(p["outcome"].attempted for p in passes)
    failed = sum(p["outcome"].failed for p in passes)
    defects = [d for p in passes for d in p["outcome"].defects]
    correct = failed == 0 and not defects and attempted > 0
    if args.trace:
        values, units = per_layer(passes), metric_units()
    else:
        values, units = end_to_end(workload, state, passes, setup_samples), END_TO_END_UNITS
    env = environment(threads)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "environment": env, "setup_samples_s": setup_samples,
        "pass_walls_s": [p["wall"] for p in passes], "traced": ["metrics" in p for p in passes],
        "attempted": attempted, "failed": failed, "defects": defects, "metrics": values,
    }
    if args.trace:
        record["spans"] = [p for p in passes if "tracer" in p][-1]["tracer"].to_json()
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record))

    for defect in defects:
        print(f"output defect: {defect}", file=sys.stderr)
    print("env " + json.dumps(env, sort_keys=True))
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()} if correct else {}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
