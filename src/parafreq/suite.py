"""The consolidated property suite behind ``parafreq check all``.

One seeded generator per run, split deterministically per sub-suite, so a
fixed seed reproduces the report byte for byte.  Sub-suites return lists of
:class:`CheckReport`, each built by :func:`reports.passing` from its slack;
a report with ``passed=False`` anywhere makes the run exit nonzero.  A line
that measures a defect (a gap, residual or asymmetry) reports minus it as
its margin.  The suite resolves no default tolerance itself: a check that
takes one runs through :func:`config.run_trace_checks`, and a line over many
flows is the worst margin of its registry entry on them (:func:`_lane_results`,
:func:`_worst`).  Negative controls assert that deliberately broken inputs are
caught: each reports minus its inner line's slack, and passes only when that
line fails (``passing(..., expect_fail=True)``).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .caloric import (
    CovSolution,
    check_cov_residual,
    make_oracle,
    poon_reports,
    sample_grid,
    trajectory_from_cov,
)
from .config import read_check, run_trace_checks
from .core import (
    Field, TimeGrid, Trajectory, make_circle, make_gauss_line, make_torus, periodic_coords,
)
from .evolution import (
    PerturbationSpec,
    _in_blocks,
    _projected,
    evolve_cn,
    evolve_exact,
    evolve_perturbed,
    gauge_transform,
)
from .frequency import check_rigidity, check_u_monotone, frequency_trace
from .operators import DriftOperator, assemble, check_self_adjoint, eigenpairs
from .reports import CheckReport, passing
from .sampling import random_smooth_field, random_weight

TWO_PI = 2.0 * np.pi

RANDOM_FIELDS_PER_GEOMETRY = 50
RANDOM_PERTURBATIONS = 50
RICHARDSON_FIELDS = 10
EIGENMODES_CHECKED = 5


def _rng(seed: int, lane: int) -> np.random.Generator:
    return np.random.default_rng([seed, lane])


@dataclass
class SuiteContext:
    """Shared geometries and operators for one seeded run."""

    seed: int
    tol_scale: float = 1.0

    @cached_property
    def flat_circle(self):
        return make_circle(128, TWO_PI)

    @cached_property
    def circle(self):
        phi = random_weight(periodic_coords((128,), (TWO_PI,)), (TWO_PI,), _rng(self.seed, 1))
        return make_circle(128, TWO_PI, phi)

    @cached_property
    def torus(self):
        coords = periodic_coords((32, 32), (TWO_PI, TWO_PI))
        rng = _rng(self.seed, 2)
        phi = random_weight(coords, (TWO_PI, TWO_PI), rng)
        psi = random_weight(coords, (TWO_PI, TWO_PI), rng, amplitude=0.3)
        return make_torus(32, 32, TWO_PI, TWO_PI, phi, psi)

    @cached_property
    def gauss(self):
        return make_gauss_line(32)

    @cached_property
    def operators(self) -> dict:
        """The four operators, each holding its dense eigensystem.

        The eigensystem is read here only to compute and cache it: every
        spectral flow of the suite then projects on it (``evolve_exact``)
        instead of building Krylov modes per flow, and so does every flow of
        the stepped lane (``evolution._projected``), as its trapezoid flow.
        """
        ops = {
            "flat-circle": assemble(self.flat_circle),
            "circle": assemble(self.circle),
            "torus": assemble(self.torus),
            "gauss-line": assemble(self.gauss),
        }
        for op in ops.values():
            op.eigensystem  # computed and cached; the value is not used here
        return ops

    @cached_property
    def window(self) -> TimeGrid:
        return TimeGrid(0.0, 1.0, 200)


def self_adjoint_reports(ctx: SuiteContext, corrupt_operator: bool = False) -> list[CheckReport]:
    reports = []
    for name in ("circle", "torus", "gauss-line"):
        op = ctx.operators[name]
        if corrupt_operator and name == "circle":
            broken = op.symmetric.toarray()
            broken[0, 1] += 1e-3
            op = DriftOperator(geometry=op.geometry, symmetric=broken)
        rep = check_self_adjoint(op, seed=ctx.seed + 17)
        reports.append(rep.renamed(f"self-adjoint/{name}"))
    return reports


def spectrum_reports(ctx: SuiteContext) -> list[CheckReport]:
    reports = []
    pairs = eigenpairs(ctx.operators["gauss-line"], 6)
    target = -0.5 * np.arange(6)
    gap = max(abs(p.eigenvalue - t) for p, t in zip(pairs, target))
    reports.append(
        passing("spectrum/gauss-line", -gap, 1e-10, max_gap=gap,
                eigenvalues=[p.eigenvalue for p in pairs])
    )
    h = TWO_PI / 128
    symbol = lambda k: -4.0 * np.sin(k * h / 2.0) ** 2 / h**2
    pairs = eigenpairs(ctx.operators["flat-circle"], 5)
    expected = np.array([0.0, symbol(1), symbol(1), symbol(2), symbol(2)])
    gap = float(np.max(np.abs([p.eigenvalue for p in pairs] - expected)))
    reports.append(passing("spectrum/circle-symbol", -gap, 1e-10, max_gap=gap))
    continuum = np.array([0.0, -1.0, -1.0, -4.0, -4.0])
    rel = float(
        np.max(
            np.abs([p.eigenvalue for p in pairs] - continuum) / (1.0 + np.abs(continuum))
        )
    )
    reports.append(passing("spectrum/circle-continuum", -rel, 1e-3, max_rel_gap=rel))
    return reports


# lanes: (report label, config check entry, report aux); a report is named
# <label>/<geometry> and carries the entry's worst margin over the lane's flows;
# rows with equal entries (backward-bound is hadamard-bound) share one run per flow
SPECTRAL_LANE = (
    ("monotone/spectral", {"name": "u-monotone", "tol": 1e-10},
     {"fields": RANDOM_FIELDS_PER_GEOMETRY}),
    ("log-convexity/spectral", {"name": "log-convexity", "tol": 1e-8}, {}),
    ("hadamard/spectral", {"name": "hadamard-bound", "tol": 1e-9}, {}),
    ("backward-bound/spectral", {"name": "hadamard-bound", "tol": 1e-9}, {}),
)
STEPPED_LANE = (
    ("monotone/stepped", {"name": "u-monotone"}, {}),
    ("log-convexity/stepped", {"name": "log-convexity"}, {}),
    ("backward-bound/stepped", {"name": "hadamard-bound"}, {}),
)
CALORIC_LANE = (("caloric-flow-monotone", {"name": "u-monotone", "tol": 1e-9}, {}),)
# the checks on each eigenmode flow behind the rigidity lines, pinned like the spectral lane
RIGIDITY_CHECKS = ({"name": "rigidity", "tol": 1e-9}, {"name": "hadamard-bound", "tol": 1e-9})
# the perturbed checks, each a report <name>/advection, in report order
ADVECTION_CHECKS = ("general-frequency", "gradient-only", "general-lower-bound")
# the random suite's checks, each a report <name>/random-suite, in report order
RANDOM_SUITE_CHECKS = ("general-frequency", "general-lower-bound", "gradient-only")


def _lane_results(entries, flows, op, tol_scale: float) -> list[list]:
    """The ``(tol, report)`` of each entry on each of ``flows`` it applies to, a list per entry.

    ``gradient-only`` applies to gradient-only flows alone.  The flows, on
    ``op``, are traced one at a time and none is held past its own checks,
    so a stepped block is freed before the next one.
    """
    results = [[] for _ in entries]
    for traj in flows:
        applies = [k for k, entry in enumerate(entries)
                   if entry["name"] != "gradient-only" or traj.gradient_only]
        checked = run_trace_checks([entries[k] for k in applies], traj,
                                   frequency_trace(traj, op), op, tol_scale)
        for k, result in zip(applies, checked):
            results[k].append(result)
        del traj  # dropped before the next flow, whose block is stepped when it is taken
    return results


def _worst(name: str, results, **aux) -> CheckReport:
    """The worst margin of ``(tol, report)`` results against the largest tolerance they resolved to.

    That tolerance is an entry's pinned ``tol`` times ``tol_scale``, or the
    largest per-flow default.  A NaN margin fails the line.
    """
    tols, reps = zip(*results)
    return passing(name, np.min([rep.margin for rep in reps]), np.max(tols), **aux)


def _lane_reports(lane, flows, op, where: str, tol_scale: float, **extra) -> list[CheckReport]:
    """A report ``<label>/<where>`` per row of ``lane``: its entry's worst margin over ``flows``.

    Each distinct entry runs once per flow, and rows with equal entries share
    its results.  Each report carries its row's aux, then ``extra``.
    """
    entries = [read_check(entry, "check") for _, entry, _ in lane]
    distinct = [entry for k, entry in enumerate(entries) if entry not in entries[:k]]
    results = _lane_results(distinct, flows, op, tol_scale)
    return [_worst(f"{label}/{where}", results[distinct.index(entry)], **aux, **extra)
            for (label, _, aux), entry in zip(lane, entries)]


def monotonicity_reports(ctx: SuiteContext) -> list[CheckReport]:
    """Random-data log-convexity suite, spectral and stepped lanes.

    The stepped lane's trapezoid flows are projected on the operator's
    eigensystem, not stepped (``evolution._projected``): their traces are
    the stepped ones to round-off, and the stepper itself is tested by the
    Richardson and perturbed lines.  Its lines report the stiffness
    ``dt |lambda_min|``; above 2 the trapezoid factor of the fastest modes
    is negative.
    """
    reports = []
    grid = ctx.window
    for name in ("circle", "torus"):
        op = ctx.operators[name]
        rng = _rng(ctx.seed, 3 if name == "circle" else 4)
        fields = [random_smooth_field(op.geometry, rng) for _ in range(RANDOM_FIELDS_PER_GEOMETRY)]
        # the spectral lane pins its tolerances, so --tol-scale leaves them alone
        exact = (evolve_exact(op, u0, grid) for u0 in fields)
        reports += _lane_reports(SPECTRAL_LANE, exact, op, name, 1.0)
        stepped = _projected(evolve_cn(op, u0, grid) for u0 in fields)
        stiffness = grid.dt * abs(float(op.eigensystem[0][-1]))
        reports += _lane_reports(STEPPED_LANE, stepped, op, name, ctx.tol_scale,
                                 dt_lambda_min=stiffness)
    # negative control: reversing time makes U nonincreasing, so the monotone line must fail
    op = ctx.operators["flat-circle"]
    x = op.geometry.coords[:, 0]
    u0 = Field(op.geometry, np.sin(x) + np.sin(2.0 * x))
    traj = evolve_exact(op, u0, grid)
    reversed_traj = Trajectory(
        grid=grid, geometry=traj.geometry, values=traj.values[::-1], provenance=traj.provenance
    )
    rep = check_u_monotone(frequency_trace(reversed_traj, op), 1e-10)
    reports.append(passing("negative-control/reversed-monotone", rep.margin, rep.tolerance,
                           expect_fail=True, inner_margin=rep.margin))
    return reports


def richardson_reports(ctx: SuiteContext) -> list[CheckReport]:
    """Observed O(dt^2) shrinkage of the stepped-lane U trace under dt/2."""
    op = ctx.operators["circle"]
    rng = _rng(ctx.seed, 5)
    starts = [random_smooth_field(op.geometry, rng) for _ in range(RICHARDSON_FIELDS)]

    def u_gap(u0, stepped):
        exact = frequency_trace(evolve_exact(op, u0, stepped.grid), op)
        return float(np.max(np.abs(frequency_trace(stepped, op).U - exact.U)))

    gaps = {}
    for label, grid in (("coarse", ctx.window), ("fine", TimeGrid(0.0, 1.0, 400))):
        stepped = _in_blocks(evolve_cn(op, u0, grid) for u0 in starts)
        gaps[label] = list(map(u_gap, starts, stepped))
    ratios = [c / f for c, f in zip(gaps["coarse"], gaps["fine"]) if f > 0]
    worst_ratio = min(ratios, default=np.inf)
    return [
        passing("richardson/stepped-u-trace", worst_ratio - 2.5, 0.0,
                worst_ratio=worst_ratio, expected_ratio=4.0)
    ]


def rigidity_reports(ctx: SuiteContext) -> list[CheckReport]:
    reports = []
    grid = ctx.window
    entries = [read_check(entry, "check") for entry in RIGIDITY_CHECKS]
    for name in ("circle", "torus", "gauss-line"):
        op = ctx.operators[name]
        pairs = eigenpairs(op, EIGENMODES_CHECKED)
        flows = (evolve_exact(op, pair.eigenfield, grid) for pair in pairs)
        rigid, growth = _lane_results(entries, flows, op, 1.0)
        # a flow not classed as an eigenmode fails the first line, and the other two skip it
        u_gaps, residuals, equalities = [0.0], [0.0], [0.0]
        for pair, (_, rep), (_, bound) in zip(pairs, rigid, growth):
            if not rep.aux["is_eigenmode"]:
                u_gaps.append(np.inf)
                continue
            u_gaps += [abs(rep.aux["lambda_estimate"] - pair.eigenvalue), rep.aux["u_variation"]]
            residuals += [rep.aux["separation_residual"], rep.aux["eigen_residual"]]
            equalities.append(abs(bound.margin))
        u_gap, residual, equality = (float(np.max(v)) for v in (u_gaps, residuals, equalities))
        reports += [
            passing(f"rigidity/{name}", -u_gap, 1e-9, modes=EIGENMODES_CHECKED, max_u_gap=u_gap),
            passing(f"rigidity-separation/{name}", -residual, 1e-8, max_residual=residual),
            passing(f"hadamard-equality/{name}", -equality, 1e-9, max_equality_gap=equality),
        ]
    # negative control: a two-mode flow must be flagged non-rigid, so its U must fail the
    # rigidity line's constancy gate
    op = ctx.operators["flat-circle"]
    x = op.geometry.coords[:, 0]
    traj = evolve_exact(op, Field(op.geometry, np.sin(x) + np.sin(2.0 * x)), grid)
    variation = check_rigidity(traj, 1e-9, op).aux["u_variation"]
    reports.append(passing("negative-control/two-mode-rigidity", -variation, 1e-9,
                           expect_fail=True, u_variation=variation))
    return reports


def _random_perturbation(
    geometry, grid, rng: np.random.Generator, amplitude: float, with_potential: bool
) -> PerturbationSpec:
    """Smooth random (b, c) with time-varying envelope, certified tightly."""
    x = geometry.coords[:, 0]
    length = geometry.node_count * geometry.stencil.spacings[0]
    freq = TWO_PI / length

    def profile():
        """(K+1, n) samples of a fixed spatial profile under a time envelope."""
        coeffs = rng.standard_normal(6)
        phase = rng.uniform(0.0, TWO_PI, 2)
        spatial = (
            coeffs[0]
            + coeffs[1] * np.cos(freq * x + phase[0])
            + coeffs[2] * np.sin(2.0 * freq * x + phase[1])
        )
        envelope = 1.0 + 0.5 * np.sin(coeffs[3] + 2.0 * grid.times)
        peak = np.max(np.abs(spatial)) * 1.5
        return amplitude * spatial * envelope[:, None] / (peak if peak > 0 else 1.0)

    b_profile = profile()
    c_profile = profile() if with_potential else None
    return PerturbationSpec(geometry, grid, b=b_profile[:, :, None], c=c_profile)


def perturbed_reports(ctx: SuiteContext) -> list[CheckReport]:
    """Perturbed-flow inequalities: advection case plus the random suite."""
    reports = []
    op = ctx.operators["flat-circle"]
    geometry = op.geometry
    grid = ctx.window
    x = geometry.coords[:, 0]

    # constant advection of a single mode: U stays at the mode rate
    beta = 0.5
    pert = PerturbationSpec(geometry, grid, b=beta, bound=beta)
    traj = evolve_perturbed(op, Field(geometry, np.sin(x)), grid, pert)
    entries = [read_check({"name": name, "bound": beta}, "check") for name in ADVECTION_CHECKS]
    reports += [
        rep.renamed(f"{rep.name}/advection")
        for _, rep in run_trace_checks(entries, traj, frequency_trace(traj, op), op, ctx.tol_scale)
    ]

    # random certified perturbations, half gradient-only, drawn and stepped a block at a time
    rng = _rng(ctx.seed, 6)

    def random_flows():
        for index in range(RANDOM_PERTURBATIONS):
            pert = _random_perturbation(
                geometry, grid, rng, amplitude=0.3, with_potential=index % 2 == 1
            )
            u0 = random_smooth_field(geometry, rng, zero_mean=True)
            yield evolve_perturbed(op, u0, grid, pert)

    # bounded by each flow's certificate; each line's tolerance is the largest budget of the
    # flows it runs on
    entries = [read_check({"name": name}, "check") for name in RANDOM_SUITE_CHECKS]
    flows = _in_blocks(random_flows())
    general, lower, gradient = _lane_results(entries, flows, op, ctx.tol_scale)
    least = lambda key: float(np.min([rep.aux[key] for _, rep in lower]))
    reports += [
        _worst("general-frequency/random-suite", general, perturbations=len(general)),
        _worst("general-lower-bound/random-suite", lower,
               min_statement_margin=least("statement_margin"),
               min_proof_margin=least("proof_margin")),
        _worst("gradient-only/random-suite", gradient, perturbations=len(gradient)),
    ]

    # zero perturbation must reproduce the plain stepped flow bit for bit
    zero = PerturbationSpec(geometry, grid, bound=0.0)
    u0 = random_smooth_field(geometry, _rng(ctx.seed, 7))
    traj_zero = evolve_perturbed(op, u0, grid, zero)
    traj_cn = evolve_cn(op, u0, grid)
    bit_equal = np.array_equal(traj_zero.values, traj_cn.values)
    reports.append(passing("perturbed/zero-matches-stepped", 0.0 if bit_equal else -1.0, 0.0))
    return reports


def caloric_reports(ctx: SuiteContext) -> list[CheckReport]:
    reports = []
    oracle_set = {
        "linear": make_oracle("linear", 1),
        "caloric-quadratic": make_oracle("caloric-quadratic", 1),
        "static-square": make_oracle(
            "custom-polynomial", 1, {"coeffs": [0.0, 0.0, 1.0], "complete": False}
        ),
        "cubic": make_oracle("custom-polynomial", 1, {"coeffs": [0.0, 0.0, 0.0, 1.0]}),
        "heat-kernel": make_oracle("heat-kernel", 1),
    }
    points = sample_grid(1)
    worst = 0.0
    for oracle in oracle_set.values():
        rep = check_cov_residual(CovSolution(oracle), points, 1e-10)
        worst = max(worst, rep.aux["max_gap"])
    reports.append(
        passing("cov-residual/oracle-set", -worst, 1e-10, max_gap=worst, oracles=len(oracle_set))
    )

    reports += poon_reports(1e-8)

    # caloric flows become drift eigenmode flows on the gauss line
    sgrid = TimeGrid(0.3, 2.3, 80)
    flows = (
        trajectory_from_cov(CovSolution(oracle_set[key]), ctx.gauss, sgrid)
        for key in ("linear", "caloric-quadratic", "cubic")
    )
    return reports + _lane_reports(CALORIC_LANE, flows, ctx.operators["gauss-line"],
                                   "gauss-line", 1.0)


def gauge_reports(ctx: SuiteContext) -> list[CheckReport]:
    op = ctx.operators["circle"]
    grid = ctx.window
    rng = _rng(ctx.seed, 8)
    u0 = random_smooth_field(op.geometry, rng)
    traj = evolve_exact(op, u0, grid)
    base = frequency_trace(traj, op)
    coeffs = rng.standard_normal(3)
    rate = coeffs[0] + coeffs[1] * np.sin(3.0 * grid.times) + coeffs[2] * grid.times
    transformed = frequency_trace(gauge_transform(traj, rate), op)
    gap = float(np.max(np.abs(transformed.U - base.U)))
    return [passing("gauge/u-invariance", -gap, 1e-12, max_gap=gap)]


def run_check_all(
    seed: int = 0, tol_scale: float = 1.0, corrupt_operator: bool = False
) -> list[CheckReport]:
    """Run every gated check of the property suite with one seed."""
    ctx = SuiteContext(seed=seed, tol_scale=tol_scale)
    reports = []
    reports += self_adjoint_reports(ctx, corrupt_operator=corrupt_operator)
    reports += spectrum_reports(ctx)
    reports += monotonicity_reports(ctx)
    reports += richardson_reports(ctx)
    reports += rigidity_reports(ctx)
    reports += perturbed_reports(ctx)
    reports += caloric_reports(ctx)
    reports += gauge_reports(ctx)
    return reports
