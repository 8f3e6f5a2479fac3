"""The consolidated property suite behind ``parafreq check all``.

One seeded generator per run, split deterministically per sub-suite, so a
fixed seed reproduces the report byte for byte.  Sub-suites return lists of
:class:`CheckReport`; a report with ``passed=False`` anywhere makes the run
exit nonzero.  Negative controls assert that deliberately broken inputs are
caught, and pass exactly when the underlying check fails.
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
    evolve_cn,
    evolve_exact,
    evolve_perturbed,
    gauge_transform,
)
from .frequency import (
    check_gradient_only,
    check_general_frequency,
    check_general_lower_bound,
    check_hadamard_bound,
    check_rigidity,
    check_u_monotone,
    default_tolerance,
    frequency_trace,
)
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
        instead of building Krylov modes per flow.
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
            broken = op.matrix.toarray()
            broken[0, 1] += 1e-3
            op = DriftOperator(geometry=op.geometry, matrix=broken)
        rep = check_self_adjoint(op, seed=ctx.seed + 17)
        reports.append(rep.renamed(f"self-adjoint/{name}"))
    return reports


def spectrum_reports(ctx: SuiteContext) -> list[CheckReport]:
    reports = []
    pairs = eigenpairs(ctx.operators["gauss-line"], 6)
    target = -0.5 * np.arange(6)
    gap = max(abs(p.eigenvalue - t) for p, t in zip(pairs, target))
    reports.append(
        passing("spectrum/gauss-line", 1e-10 - gap, 1e-10, max_gap=gap,
                eigenvalues=[p.eigenvalue for p in pairs])
    )
    h = TWO_PI / 128
    symbol = lambda k: -4.0 * np.sin(k * h / 2.0) ** 2 / h**2
    pairs = eigenpairs(ctx.operators["flat-circle"], 5)
    expected = np.array([0.0, symbol(1), symbol(1), symbol(2), symbol(2)])
    gap = float(np.max(np.abs([p.eigenvalue for p in pairs] - expected)))
    reports.append(
        passing("spectrum/circle-symbol", 1e-10 - gap, 1e-10, max_gap=gap)
    )
    continuum = np.array([0.0, -1.0, -1.0, -4.0, -4.0])
    rel = float(
        np.max(
            np.abs([p.eigenvalue for p in pairs] - continuum) / (1.0 + np.abs(continuum))
        )
    )
    reports.append(
        passing("spectrum/circle-continuum", 1e-3 - rel, 1e-3, max_rel_gap=rel)
    )
    return reports


# lanes: (report label, config check entry, report aux); a report is named
# <label>/<geometry> and carries the entry's worst margin over the lane's flows
SPECTRAL_LANE = (
    ("monotone/spectral", {"name": "u-monotone", "tol": 1e-10},
     {"fields": RANDOM_FIELDS_PER_GEOMETRY}),
    ("log-convexity/spectral", {"name": "log-convexity", "tol": 1e-8}, {}),
    ("hadamard/spectral", {"name": "hadamard-bound", "tol": 1e-9}, {}),
    ("backward-bound/spectral", {"name": "vanishing-order", "tol": 1e-9}, {}),
)
STEPPED_LANE = (
    ("monotone/stepped", {"name": "u-monotone"}, {}),
    ("log-convexity/stepped", {"name": "log-convexity"}, {}),
    ("backward-bound/stepped", {"name": "vanishing-order"}, {}),
)
CALORIC_LANE = (("caloric-flow-monotone", {"name": "u-monotone", "tol": 1e-9}, {}),)


def _lane_reports(lane, flows, op, where: str, tol_scale: float) -> list[CheckReport]:
    """Each entry's worst margin over ``flows`` (trajectories on ``op``, traced one at a time).

    The report's tolerance is the largest one the entry resolved to: its pinned
    ``tol`` times ``tol_scale``, or the largest per-flow default.  No flow is
    held past its own checks, so a stepped block is freed before the next one.
    """
    entries = [read_check(entry, "check") for _, entry, _ in lane]

    def checked(traj):
        return run_trace_checks(entries, traj, frequency_trace(traj, op), op, tol_scale)

    margins = [np.inf] * len(lane)
    tols = [-np.inf] * len(lane)
    for results in map(checked, flows):
        for k, (tol, rep) in enumerate(results):
            margins[k] = min(margins[k], rep.margin)
            tols[k] = max(tols[k], tol)
    return [
        passing(f"{label}/{where}", margin, tol, **aux)
        for (label, _, aux), margin, tol in zip(lane, margins, tols)
    ]


def monotonicity_reports(ctx: SuiteContext) -> list[CheckReport]:
    """Random-data log-convexity suite, spectral and stepped lanes."""
    reports = []
    grid = ctx.window
    for name in ("circle", "torus"):
        op = ctx.operators[name]
        rng = _rng(ctx.seed, 3 if name == "circle" else 4)
        fields = [random_smooth_field(op.geometry, rng) for _ in range(RANDOM_FIELDS_PER_GEOMETRY)]
        # the spectral lane pins its tolerances, so --tol-scale leaves them alone
        exact = (evolve_exact(op, u0, grid) for u0 in fields)
        reports += _lane_reports(SPECTRAL_LANE, exact, op, name, 1.0)
        stepped = _in_blocks(evolve_cn(op, u0, grid) for u0 in fields)
        reports += _lane_reports(STEPPED_LANE, stepped, op, name, ctx.tol_scale)
    # negative control: reversing time makes U nonincreasing
    op = ctx.operators["flat-circle"]
    x = op.geometry.coords[:, 0]
    u0 = Field(op.geometry, np.sin(x) + np.sin(2.0 * x))
    traj = evolve_exact(op, u0, grid)
    reversed_traj = Trajectory(
        grid=grid, geometry=traj.geometry, values=traj.values[::-1], provenance=traj.provenance
    )
    rep = check_u_monotone(frequency_trace(reversed_traj, op), 1e-10)
    reports.append(
        CheckReport(
            name="negative-control/reversed-monotone",
            passed=not rep.passed,
            margin=-rep.margin,
            tolerance=rep.tolerance,
            aux={"inner_margin": rep.margin},
        )
    )
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
    for name in ("circle", "torus", "gauss-line"):
        op = ctx.operators[name]
        worst_u_gap = 0.0
        worst_residual = 0.0
        worst_equality = 0.0
        for pair in eigenpairs(op, EIGENMODES_CHECKED):
            traj = evolve_exact(op, pair.eigenfield, grid)
            trace = frequency_trace(traj, op)
            rep = check_rigidity(traj, 1e-9, op, trace)
            if not rep.aux["is_eigenmode"]:
                worst_u_gap = np.inf
                continue
            worst_u_gap = max(worst_u_gap, abs(rep.aux["lambda_estimate"] - pair.eigenvalue))
            worst_u_gap = max(worst_u_gap, rep.aux["u_variation"])
            worst_residual = max(
                worst_residual, rep.aux["separation_residual"], rep.aux["eigen_residual"]
            )
            worst_equality = max(
                worst_equality, abs(check_hadamard_bound(trace, 1e-9).margin)
            )
        reports.append(
            passing(f"rigidity/{name}", 1e-9 - worst_u_gap, 1e-9,
                    modes=EIGENMODES_CHECKED, max_u_gap=worst_u_gap)
        )
        reports.append(
            passing(f"rigidity-separation/{name}", 1e-8 - worst_residual, 1e-8,
                    max_residual=worst_residual)
        )
        reports.append(
            passing(f"hadamard-equality/{name}", 1e-9 - worst_equality, 1e-9,
                    max_equality_gap=worst_equality)
        )
    # negative control: a two-mode flow must be flagged non-rigid
    op = ctx.operators["flat-circle"]
    x = op.geometry.coords[:, 0]
    traj = evolve_exact(op, Field(op.geometry, np.sin(x) + np.sin(2.0 * x)), grid)
    rep = check_rigidity(traj, 1e-9, op)
    reports.append(
        CheckReport(
            name="negative-control/two-mode-rigidity",
            passed=(not rep.aux["is_eigenmode"]) and rep.passed,
            margin=rep.aux["u_variation"],
            tolerance=1e-9,
            aux={"u_variation": rep.aux["u_variation"]},
        )
    )
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
    trace = frequency_trace(traj, op)
    tol = default_tolerance(trace, ctx.tol_scale)
    reports.append(
        check_general_frequency(trace, beta, tol).renamed("general-frequency/advection")
    )
    reports.append(
        check_gradient_only(trace, beta, tol).renamed("gradient-only/advection")
    )
    reports.append(
        check_general_lower_bound(trace, beta, tol).renamed("general-lower-bound/advection")
    )

    # random certified perturbations, half gradient-only, drawn and stepped a block at a time
    rng = _rng(ctx.seed, 6)

    def random_flows():
        for index in range(RANDOM_PERTURBATIONS):
            pert = _random_perturbation(
                geometry, grid, rng, amplitude=0.3, with_potential=index % 2 == 1
            )
            u0 = random_smooth_field(geometry, rng, zero_mean=True)
            yield evolve_perturbed(op, u0, grid, pert)

    def checked(traj):
        trace = frequency_trace(traj, op)
        tol = default_tolerance(trace, ctx.tol_scale)
        lower = check_general_lower_bound(trace, None, tol)
        gradient = check_gradient_only(trace, None, tol).margin if traj.gradient_only else np.inf
        return (tol, check_general_frequency(trace, None, tol).margin, lower, gradient)

    margins = {"general": np.inf, "lower": np.inf, "gradient": np.inf}
    budget = -np.inf
    statement_margins = []
    proof_margins = []
    for tol, general, lower, gradient in map(checked, _in_blocks(random_flows())):
        budget = max(budget, tol)
        margins["general"] = min(margins["general"], general)
        margins["lower"] = min(margins["lower"], lower.margin)
        margins["gradient"] = min(margins["gradient"], gradient)
        statement_margins.append(lower.aux["statement_margin"])
        proof_margins.append(lower.aux["proof_margin"])
    reports.append(
        passing("general-frequency/random-suite", margins["general"], budget,
                perturbations=RANDOM_PERTURBATIONS)
    )
    reports.append(
        passing(
            "general-lower-bound/random-suite", margins["lower"], budget,
            min_statement_margin=float(np.min(statement_margins)),
            min_proof_margin=float(np.min(proof_margins)),
        )
    )
    reports.append(
        passing("gradient-only/random-suite", margins["gradient"], budget,
                perturbations=RANDOM_PERTURBATIONS // 2)
    )

    # zero perturbation must reproduce the plain stepped flow bit for bit
    zero = PerturbationSpec(geometry, grid, bound=0.0)
    u0 = random_smooth_field(geometry, _rng(ctx.seed, 7))
    traj_zero = evolve_perturbed(op, u0, grid, zero)
    traj_cn = evolve_cn(op, u0, grid)
    bit_equal = np.array_equal(traj_zero.values, traj_cn.values)
    reports.append(
        CheckReport(
            name="perturbed/zero-matches-stepped",
            passed=bit_equal,
            margin=0.0 if bit_equal else -1.0,
            tolerance=0.0,
        )
    )
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
        passing("cov-residual/oracle-set", 1e-10 - worst, 1e-10, max_gap=worst,
                oracles=len(oracle_set))
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
    return [passing("gauge/u-invariance", 1e-12 - gap, 1e-12, max_gap=gap)]


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
