"""Per-layer metrics of one traced pass: the layers are parafreq's modules.

Every ``*_s`` metric is self time (span duration minus the time its child
spans cover), except ``suite.<sub-suite>_s``, which is the inclusive wall time
of that stage of ``check all``.  The ``<layer>.self_s`` metrics, the
unattributed remainder and nothing else add up to the traced wall time.
Counts are computed from the arguments and results of the traced calls, so
they repeat exactly; the dense-apply counts model ``op.matrix @ fields`` and
are labelled ``computed``.
"""

from __future__ import annotations

import os

from tracing import self_times
from workloads import SteppedLadder

LAYERS = (
    "core", "operators", "evolution", "frequency", "caloric", "expressions",
    "config", "sampling", "suite", "reports", "cli",
)
SUBSUITES = (
    "self_adjoint", "spectrum", "monotonicity", "richardson",
    "rigidity", "perturbed", "caloric", "gauge",
)
RUNGS = tuple(SteppedLadder.rung_names())
FREQUENCY_CHECKS = (
    "frequency.check_u_monotone", "frequency.check_log_convexity",
    "frequency.check_hadamard_bound", "frequency.check_general_frequency",
    "frequency.check_general_lower_bound", "frequency.check_gradient_only",
    "frequency.vanishing_order_surrogate",
)

# metric -> span names whose self time it sums
SELF_TIME = {
    "operators.eigensystem_s": ("operators.DriftOperator.eigensystem",),
    "operators.assemble_s": ("operators.assemble",),
    "operators.check_self_adjoint_s": ("operators.check_self_adjoint",),
    "operators.eigenpairs_s": ("operators.eigenpairs",),
    "evolution.evolve_exact_s": ("evolution.evolve_exact",),
    "evolution.evolve_cn_s": ("evolution.evolve_cn",),
    "evolution.evolve_perturbed_s": ("evolution.evolve_perturbed",),
    "evolution.perturbation_build_s": ("evolution.PerturbationSpec.build",),
    "evolution.gauge_transform_s": ("evolution.gauge_transform",),
    "frequency.frequency_trace_s": ("frequency.frequency_trace",),
    "frequency.checks_s": FREQUENCY_CHECKS,
    "frequency.check_rigidity_s": ("frequency.check_rigidity",),
    "core.geometry_s": ("core.make_circle", "core.make_torus", "core.make_gauss_line"),
    "sampling.random_field_s": (
        "sampling.random_smooth_field", "sampling.random_smooth_values", "sampling.random_weight",
    ),
    "config.build_s": (
        "config.build_geometry", "config.build_time", "config.build_initial",
        "config.build_perturbation", "config.build_gauge",
    ),
    "reports.write_trajectory_csv_s": ("reports.write_trajectory_csv",),
    "reports.write_trace_csv_s": ("reports.write_trace_csv",),
    "reports.write_report_s": ("reports.write_report",),
}
PER_RUNG = (
    "evolution.evolve_cn_s", "evolution.evolve_perturbed_s",
    "frequency.frequency_trace_s", "frequency.checks_s",
)
COUNTS = {
    "operators.dense_bytes": "B-computed",
    "evolution.flows": "count",
    "evolution.node_steps": "count",
    "frequency.dense_apply_flops": "flop-computed",
    "frequency.dense_apply_bytes": "B-computed",
    "reports.bytes_written": "B",
}


def _arg(args, kwargs, index: int, name: str):
    return kwargs[name] if name in kwargs else args[index]


def _count_assemble(tracer, args, kwargs, result):
    n = _arg(args, kwargs, 0, "geometry").node_count
    tracer.counts["operators.dense_bytes"] += n * n * 8


def _count_flow(tracer, args, kwargs, result):
    n = _arg(args, kwargs, 0, "op").geometry.node_count
    components = _arg(args, kwargs, 1, "u0").components
    samples = _arg(args, kwargs, 2, "grid").steps + 1
    tracer.counts["evolution.flows"] += 1
    tracer.counts["evolution.node_steps"] += n * samples * components


def _dense_apply(tracer, n: int, vectors: int) -> None:
    tracer.counts["frequency.dense_apply_flops"] += 2 * n * n * vectors
    tracer.counts["frequency.dense_apply_bytes"] += 8 * (n * n + 2 * n) * vectors


def _count_trace(tracer, args, kwargs, result):
    traj = _arg(args, kwargs, 0, "traj")
    _dense_apply(tracer, traj.geometry.node_count, (traj.grid.steps + 1) * traj.fields[0].components)


def _count_rigidity(tracer, args, kwargs, result):
    """``check_rigidity`` applies the operator to u(a) only when the flow is an eigenmode."""
    if result.aux["is_eigenmode"]:
        traj = _arg(args, kwargs, 0, "traj")
        _dense_apply(tracer, traj.geometry.node_count, traj.fields[0].components)


def _count_written(tracer, args, kwargs, result):
    tracer.counts["reports.bytes_written"] += os.path.getsize(_arg(args, kwargs, 0, "path"))


COUNTERS = {
    "operators.assemble": _count_assemble,
    "evolution.evolve_exact": _count_flow,
    "evolution.evolve_cn": _count_flow,
    "evolution.evolve_perturbed": _count_flow,
    "frequency.frequency_trace": _count_trace,
    "frequency.check_rigidity": _count_rigidity,
    "reports.write_report": _count_written,
    "reports.write_trace_csv": _count_written,
    "reports.write_trajectory_csv": _count_written,
}


def metric_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units = {f"suite.{s}_s": "s" for s in SUBSUITES}
    units.update({name: "s" for name in SELF_TIME})
    units.update(COUNTS)
    units.update({f"{layer}.self_s": "s" for layer in LAYERS})
    units.update({f"{m}.{rung}": "s" for m in PER_RUNG for rung in RUNGS})
    units.update({
        "trace.wall_s": "s", "trace.unattributed_s": "s", "trace.overhead_s": "s",
        "process.cpu_s": "s", "checks.attempted": "count", "checks.failed_frac": "frac",
    })
    return units


def pass_metrics(tracer, wall: float) -> dict[str, float]:
    """Per-layer values of one traced pass that took ``wall`` seconds."""
    selfs = self_times(tracer.spans)
    by_name: dict[str, float] = {}
    by_rung: dict[tuple[str, str | None], float] = {}
    by_layer = dict.fromkeys(LAYERS, 0.0)
    inclusive: dict[str, float] = {}
    for (name, start, end, _, label), own in zip(tracer.spans, selfs):
        by_name[name] = by_name.get(name, 0.0) + own
        by_rung[name, label] = by_rung.get((name, label), 0.0) + own
        layer = name.split(".", 1)[0]
        if layer in by_layer:
            by_layer[layer] += own
        inclusive[name] = inclusive.get(name, 0.0) + (end - start)
    out = {f"suite.{s}_s": inclusive.get(f"suite.{s}_reports", 0.0) for s in SUBSUITES}
    for metric, names in SELF_TIME.items():
        out[metric] = sum(by_name.get(n, 0.0) for n in names)
    for metric in COUNTS:
        out[metric] = float(tracer.counts[metric])
    for layer in LAYERS:
        out[f"{layer}.self_s"] = by_layer[layer]
    for metric in PER_RUNG:
        for rung in RUNGS:
            out[f"{metric}.{rung}"] = sum(by_rung.get((n, rung), 0.0) for n in SELF_TIME[metric])
    out["trace.wall_s"] = wall
    out["trace.unattributed_s"] = wall - sum(by_layer.values())
    return out
