"""Batch driver: simulate, check, eigen, poon, and sweep subcommands.

Exit codes: 0 all configured checks pass, 1 configuration error, numerical
failure or lack of memory, 2 check failure.  Outputs are CSV files with stable
schemas plus one JSON report per run; identical config and seed produce
identical bytes.
"""

from __future__ import annotations

import argparse
import ctypes
import sys
from pathlib import Path

import numpy as np

from .caloric import POON_ORACLES, POON_S_GRID, make_oracle, poon_h, poon_reports
from .config import (
    ExperimentConfig, build_gauge, build_geometry, build_initial, build_perturbation,
    build_time, load_json, run_trace_checks, sweep_configs,
)
from .errors import ConfigError, ParafreqError
from .evolution import evolve_cn, evolve_exact, evolve_perturbed, gauge_transform
from .frequency import frequency_trace
from .operators import assemble, eigenpairs
from .reports import (
    write_poon_csv,
    write_report,
    write_spectrum_csv,
    write_trace_csv,
    write_trajectory_csv,
)
from .suite import run_check_all

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_CHECK = 2

try:
    _libc = ctypes.CDLL(None)
    _mallopt, _malloc_trim = _libc.mallopt, _libc.malloc_trim  # glibc's allocator settings and trim
    _mallopt.argtypes, _mallopt.restype = [ctypes.c_int, ctypes.c_int], ctypes.c_int
    _malloc_trim.argtypes, _malloc_trim.restype = [ctypes.c_size_t], ctypes.c_int
except (AttributeError, OSError, TypeError):
    _mallopt = _malloc_trim = None
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
_MMAP_THRESHOLD = 1 << 20
_TRIM_THRESHOLD = 64 << 20


def _pin_malloc_thresholds() -> None:
    """Fix glibc's heap settings for the rest of the process (elsewhere nothing).

    Buffers of ``_MMAP_THRESHOLD`` bytes or more are mapped on their own, so
    the heap holds only small blocks, and :func:`run_simulate` hands its free
    pages back when it returns.  A large buffer carved from the heap lands in
    a hole earlier frees left, and its pages stay resident after it is freed:
    with an 8 MiB threshold, a 32 MiB top pad and no trim, reading back a
    simulate run's 15.8 and 18.1 MB ``trajectory.csv`` peaked at 88 MB, or at
    101-104 MB in one process in ten; now at 86.7-87.5 MB in every process.
    Pinning the threshold stops glibc's adaptation of it and of the trim
    threshold, set to 64 MiB, the most that adaptation reaches.  Only simulate
    runs pin them: with them ``check all``'s peak RSS rose from 97 to 111 MB.
    """
    if _mallopt is not None:
        _mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD)
        _mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD)


def _out_dir(args, config: ExperimentConfig | None = None) -> Path:
    if args.out is not None:
        out = Path(args.out)
    elif config is not None and config.output:
        out = Path(config.output)
    else:
        out = Path("parafreq-out")
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_report(out_dir: Path, reports, seed, extra: dict) -> int:
    """Write ``report.json``; the exit code follows its ``passed`` flag."""
    payload = write_report(out_dir / "report.json", reports, seed=seed, extra=extra)
    return EXIT_OK if payload["passed"] else EXIT_CHECK


def run_simulate(config: ExperimentConfig, out_dir: Path, seed, tol_scale: float) -> int:
    """One simulate run; the heap's free pages go back to the system when it returns."""
    _pin_malloc_thresholds()
    try:
        return _simulate(config, out_dir, seed, tol_scale)
    finally:
        if _malloc_trim is not None:
            _malloc_trim(0)


def _simulate(config: ExperimentConfig, out_dir: Path, seed, tol_scale: float) -> int:
    geometry = build_geometry(config.geometry)
    op = assemble(geometry)
    grid = build_time(config.time)
    u0 = build_initial(config.initial, geometry, op)
    if config.perturbation is not None:
        pert = build_perturbation(config.perturbation, geometry, grid)
        traj = evolve_perturbed(op, u0, grid, pert)
    elif config.integrator == "implicit-step":
        traj = evolve_cn(op, u0, grid)
    else:
        traj = evolve_exact(op, u0, grid)
    if config.gauge is not None:
        traj = gauge_transform(traj, build_gauge(config.gauge, grid))
    trace = frequency_trace(traj, op)
    reports = [rep for _, rep in run_trace_checks(config.checks, traj, trace, op, tol_scale)]
    write_trajectory_csv(out_dir / "trajectory.csv", traj)
    write_trace_csv(out_dir / "trace.csv", trace)
    return _write_report(out_dir, reports, seed, {
        "command": "simulate",
        "integrator": config.integrator,
        "provenance": traj.provenance,
        "samples": trace.samples,
        "u_initial": float(trace.U[0]),
        "u_final": float(trace.U[-1]),
    })


def run_eigen(config: ExperimentConfig, out_dir: Path, k: int, seed) -> int:
    geometry = build_geometry(config.geometry)
    op = assemble(geometry)
    eigenvalues = [p.eigenvalue for p in eigenpairs(op, k)]
    write_spectrum_csv(out_dir / "spectrum.csv", eigenvalues)
    extra = {"command": "eigen", "k": k, "eigenvalues": eigenvalues}
    return _write_report(out_dir, [], seed, extra)


def run_poon(out_dir: Path, seed, tol_scale: float) -> int:
    """Scaled-frequency curves and checks for the standard oracle set."""
    radii = np.exp(POON_S_GRID / 2.0)
    for name in POON_ORACLES:
        oracle = make_oracle(name, 1)
        h_vals = np.array([poon_h(oracle, r) for r in radii])
        write_poon_csv(out_dir / f"poon_{name}.csv", POON_S_GRID, radii, h_vals)
    return _write_report(out_dir, poon_reports(1e-8 * tol_scale), seed, {"command": "poon"})


def run_sweep(raw_config: dict, out_dir: Path, seed, tol_scale: float) -> int:
    runs = sweep_configs(raw_config)
    worst = EXIT_OK
    summary = []
    for name, config in runs.items():
        sub_dir = out_dir / name
        sub_dir.mkdir(parents=True, exist_ok=True)
        code = run_simulate(config, sub_dir, seed, tol_scale)
        summary.append({"name": name, "exit": code})
        worst = max(worst, code)
    write_report(
        out_dir / "report.json",
        [],
        seed=seed,
        extra={"command": "sweep", "runs": summary},
    )
    return worst


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="parafreq",
        description="Simulate drift heat flows and verify frequency monotonicity.",
    )
    parser.add_argument("--seed", type=int, default=0, help="run seed (default 0)")
    parser.add_argument("--out", type=str, default=None, help="output directory")
    parser.add_argument(
        "--tol-scale", type=float, default=1.0, help="multiply all tolerances"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="run one configured experiment")
    p_sim.add_argument("--config", required=True, help="path to a JSON config")

    p_check = sub.add_parser("check", help="run verification suites")
    p_check.add_argument("suite", choices=["all"], help="which suite to run")
    p_check.add_argument(
        "--corrupt-operator",
        action="store_true",
        help="negative control: corrupt one operator and expect failure",
    )

    p_eigen = sub.add_parser("eigen", help="export the leading spectrum")
    p_eigen.add_argument("--config", required=True)
    p_eigen.add_argument("-k", type=int, required=True, help="number of eigenvalues")

    sub.add_parser("poon", help="scaled-frequency curves for the oracle set")

    p_sweep = sub.add_parser("sweep", help="run a family of configured experiments")
    p_sweep.add_argument("--config", required=True)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # checked here, not by an argparse type: argparse exits 2, the check-failure code
        if args.seed < 0:
            raise ConfigError(f"--seed: expected an integer >= 0, got {args.seed}")
        if not 0.0 <= args.tol_scale < np.inf:
            raise ConfigError(f"--tol-scale: expected a finite number >= 0, got {args.tol_scale}")
        if args.command == "simulate":
            config = ExperimentConfig.load(args.config)
            return run_simulate(config, _out_dir(args, config), args.seed, args.tol_scale)
        if args.command == "check":
            out_dir = _out_dir(args)
            reports = run_check_all(
                seed=args.seed,
                tol_scale=args.tol_scale,
                corrupt_operator=args.corrupt_operator,
            )
            code = _write_report(out_dir, reports, args.seed, {
                "command": "check", "suite": args.suite, "tol_scale": args.tol_scale,
            })
            for r in reports:
                print(f"[{'PASS' if r.passed else 'FAIL'}] {r.name}")
            if code != EXIT_OK:
                failures = ", ".join(r.name for r in reports if not r.passed)
                print(f"failed checks: {failures}", file=sys.stderr)
            return code
        if args.command == "eigen":
            config = ExperimentConfig.load(args.config)
            return run_eigen(config, _out_dir(args, config), args.k, args.seed)
        if args.command == "poon":
            return run_poon(_out_dir(args), args.seed, args.tol_scale)
        if args.command == "sweep":
            return run_sweep(load_json(args.config), _out_dir(args), args.seed, args.tol_scale)
        raise ConfigError(f"unknown command {args.command!r}")
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ParafreqError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except MemoryError:
        print("error: out of memory; use a smaller grid or fewer time steps", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
