"""Acceptance gate: one test per criterion, each printing its verdict.

Tolerances are pinned here, not computed at run time; stepped-lane budgets
follow the documented model 10 * (dt^2 + h^2) * (1 + |U(a)|).  Run with
``pytest tests/test_acceptance.py -v -s`` to see the per-criterion lines.
"""

import sys
import time
from pathlib import Path

import numpy as np
import pytest

import parafreq
from parafreq import evolution, suite
from parafreq import (
    check_hadamard_bound,
    eigenpairs,
    evolve_exact,
    frequency_trace,
)
from parafreq.reports import write_report
from parafreq.sampling import random_smooth_field
from parafreq.suite import (
    SuiteContext,
    caloric_reports,
    monotonicity_reports,
    perturbed_reports,
    richardson_reports,
    rigidity_reports,
    self_adjoint_reports,
    spectrum_reports,
)
from parafreq.suite import run_check_all

# the benchmark's tracer and flow counters, imported as the benchmark runs them
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))
from layers import COUNTERS  # noqa: E402
from tracing import Tracer, instrument  # noqa: E402
from workloads import CheckAll, SteppedLadder  # noqa: E402

_SHARED = {}


@pytest.fixture(scope="module")
def traced_check_all():
    """One ``check all`` at seed 0 under the benchmark's tracer: (reports, counts, seconds)."""
    tracer = Tracer()
    t0 = time.time()
    with instrument(tracer, COUNTERS):
        reports = run_check_all(seed=0)
    return reports, tracer.counts, time.time() - t0


@pytest.fixture(scope="module")
def ctx():
    context = SuiteContext(seed=0)
    # force geometry/operator assembly so criterion timings measure checks
    context.operators
    return context


def verdict(number, label, ok, elapsed, budget):
    flag = "PASS" if ok and elapsed < budget else "FAIL"
    print(f"criterion {number:2d} [{flag}] {label} ({elapsed:.2f}s / {budget:.0f}s)")
    assert ok, f"criterion {number}: {label}"
    assert elapsed < budget, f"criterion {number} exceeded {budget}s ({elapsed:.2f}s)"


def test_criterion_01_self_adjointness(ctx):
    t0 = time.time()
    reports = self_adjoint_reports(ctx)
    elapsed = time.time() - t0
    by_name = {r.name: r for r in reports}
    ok = True
    for name in ("self-adjoint/circle", "self-adjoint/torus"):
        rep = by_name[name]
        ok &= rep.passed
        ok &= rep.aux["max_asymmetry"] <= 1e-10
        ok &= rep.aux["max_pairing_defect"] <= 1e-10
        ok &= rep.aux["trials"] == 50
    verdict(1, "discrete self-adjointness <= 1e-10 over 50 random pairs", ok, elapsed, 5.0)


def test_criterion_02_monotonicity(ctx):
    t0 = time.time()
    reports = monotonicity_reports(ctx) + richardson_reports(ctx)
    elapsed = time.time() - t0
    _SHARED["monotonicity"] = reports
    by_name = {r.name: r for r in reports}
    ok = True
    for geom in ("circle", "torus"):
        ok &= by_name[f"monotone/spectral/{geom}"].margin >= -1e-10
        ok &= by_name[f"log-convexity/spectral/{geom}"].margin >= -1e-8
        stepped = by_name[f"monotone/stepped/{geom}"]
        ok &= stepped.passed and stepped.margin >= -stepped.tolerance
        ok &= by_name[f"log-convexity/stepped/{geom}"].passed
    richardson = by_name["richardson/stepped-u-trace"]
    ok &= richardson.passed and richardson.aux["worst_ratio"] >= 2.5
    verdict(2, "100 random flows: U monotone 1e-10, log-convex 1e-8, stepped O(dt^2)",
            ok, elapsed, 30.0)


def test_criterion_03_rigidity(ctx):
    t0 = time.time()
    reports = rigidity_reports(ctx)
    elapsed = time.time() - t0
    _SHARED["rigidity"] = reports
    by_name = {r.name: r for r in reports}
    ok = True
    for geom in ("circle", "torus", "gauss-line"):
        ok &= by_name[f"rigidity/{geom}"].aux["max_u_gap"] <= 1e-9
        ok &= by_name[f"rigidity-separation/{geom}"].aux["max_residual"] <= 1e-8
    control = by_name["negative-control/two-mode-rigidity"]
    ok &= control.passed and control.aux["u_variation"] > 1.0
    verdict(3, "first 5 eigenmodes rigid to 1e-9/1e-8; two-mode flagged non-rigid",
            ok, elapsed, 5.0)


def test_criterion_04_growth_bound(ctx):
    t0 = time.time()
    grid = ctx.window
    worst_random = np.inf
    for name in ("circle", "torus"):
        op = ctx.operators[name]
        rng = np.random.default_rng([0, 40 if name == "circle" else 41])
        for _ in range(25):
            u0 = random_smooth_field(op.geometry, rng)
            trace = frequency_trace(evolve_exact(op, u0, grid), op)
            worst_random = min(worst_random, check_hadamard_bound(trace, 1e-9).margin)
    worst_equality = 0.0
    for name in ("circle", "torus"):
        op = ctx.operators[name]
        for pair in eigenpairs(op, 5):
            trace = frequency_trace(evolve_exact(op, pair.eigenfield, grid), op)
            worst_equality = max(worst_equality, abs(check_hadamard_bound(trace, 1e-9).margin))
    elapsed = time.time() - t0
    ok = worst_random >= -1e-9 and worst_equality <= 1e-9
    verdict(4, "log I(b) - log I(a) - 2U(a)(b-a) >= -1e-9; eigenmode equality 1e-9",
            ok, elapsed, 5.0)


def test_criterion_05_ou_spectrum(ctx):
    t0 = time.time()
    reports = spectrum_reports(ctx)
    elapsed = time.time() - t0
    by_name = {r.name: r for r in reports}
    rep = by_name["spectrum/gauss-line"]
    expected = [0.0, -0.5, -1.0, -1.5, -2.0, -2.5]
    gap = max(abs(v - e) for v, e in zip(rep.aux["eigenvalues"], expected))
    ok = rep.passed and gap <= 1e-10
    verdict(5, "gauss-line eigenvalues {0,-1/2,...,-5/2} within 1e-10", ok, elapsed, 2.0)


def test_criterion_06_cov_residual(ctx):
    t0 = time.time()
    reports = caloric_reports(ctx)
    elapsed = time.time() - t0
    _SHARED["caloric"] = reports
    by_name = {r.name: r for r in reports}
    rep = by_name["cov-residual/oracle-set"]
    ok = rep.passed and rep.aux["max_gap"] <= 1e-10 and rep.aux["oracles"] == 5
    verdict(6, "change-of-variables residual identity <= 1e-10 on 20x20 grid",
            ok, elapsed, 2.0)


def test_criterion_07_poon_correspondence(ctx):
    t0 = time.time()
    reports = _SHARED.get("caloric")
    if reports is None:
        reports = caloric_reports(ctx)
    by_name = {r.name: r for r in reports}
    expected = np.sqrt(4.0 * np.pi)
    ok = True
    for name in ("constant", "linear", "caloric-quadratic"):
        corr = by_name[f"poon-correspondence/{name}"]
        ok &= corr.passed
        ok &= abs(corr.aux["ratio_min"] / expected - 1.0) <= 1e-8
        ok &= abs(corr.aux["ratio_max"] / expected - 1.0) <= 1e-8
        conv = by_name[f"poon-convexity/{name}"]
        ok &= conv.passed and conv.aux["min_second_difference"] >= -1e-8
    elapsed = time.time() - t0
    verdict(7, "I_w/H(e^{-s/2}) constant = sqrt(4 pi) to 1e-8; log H convex",
            ok, elapsed, 2.0)


def test_criterion_08_general_frequency(ctx):
    t0 = time.time()
    reports = perturbed_reports(ctx)
    elapsed = time.time() - t0
    _SHARED["perturbed"] = reports
    by_name = {r.name: r for r in reports}
    advection = by_name["general-frequency/advection"]
    ok = advection.passed
    ok &= advection.aux["min_u_rate_margin"] >= 0.4
    ok &= advection.aux["min_log_one_minus_u_margin"] >= 0.2
    random_suite = by_name["general-frequency/random-suite"]
    ok &= random_suite.passed and random_suite.aux["perturbations"] == 50
    ok &= random_suite.margin >= -random_suite.tolerance
    verdict(8, "dU >= C^2(U-1) margin 0.4 / [log(1-U)]' <= C^2 margin 0.2; 50 random",
            ok, elapsed, 30.0)


def test_criterion_09_gradient_only(ctx):
    t0 = time.time()
    reports = _SHARED.get("perturbed")
    if reports is None:
        reports = perturbed_reports(ctx)
    by_name = {r.name: r for r in reports}
    ok = by_name["gradient-only/advection"].passed
    ok &= by_name["gradient-only/random-suite"].passed
    lower = by_name["general-lower-bound/random-suite"]
    ok &= lower.passed  # stepwise (log I)' >= (2 + C/2) U - 3C/2 within budget
    ok &= np.isfinite(lower.aux["min_statement_margin"])
    ok &= np.isfinite(lower.aux["min_proof_margin"])
    ok &= by_name["general-lower-bound/advection"].passed
    elapsed = time.time() - t0
    verdict(9, "gradient-only bounds and proof-chain inequality; closed forms reported",
            ok, elapsed, 10.0)


def test_criterion_10_backward_uniqueness_and_full_run(tmp_path, traced_check_all):
    reports = _SHARED.get("monotonicity")
    ok = True
    if reports is not None:
        by_name = {r.name: r for r in reports}
        for geom in ("circle", "torus"):
            ok &= by_name[f"backward-bound/spectral/{geom}"].margin >= -1e-9
            stepped = by_name[f"backward-bound/stepped/{geom}"]
            ok &= stepped.margin >= -stepped.tolerance
    full, _, elapsed = traced_check_all
    write_report(tmp_path / "acceptance-check-all.json", full, seed=0)
    ok &= all(r.passed for r in full)
    verdict(10, "I(b) never below its growth-bound prediction; check all exits 0",
            ok, elapsed, 120.0)


def test_traced_check_all_counts_the_benchmark_flows(traced_check_all):
    # every flow enters through one evolve_* call, however the suite steps them, so the
    # benchmark's traced count equals the one node_steps_per_s is computed from
    _, counts, _ = traced_check_all
    got = (counts["evolution.flows"], counts["evolution.node_steps"])
    workload = CheckAll()
    assert got == (workload.flows(None), workload.node_steps(None)) == (311, 27327008)


def test_growth_bounds_are_gated_after_the_anchor(traced_check_all):
    # the growth bound and the gradient-only envelope hold with equality at t = a,
    # so a margin of exactly 0 would come from gating that sample
    reports, _, _ = traced_check_all
    gated = [r for r in reports if r.name.startswith(("backward-bound/", "gradient-only/"))]
    assert len(gated) == 6
    assert all(r.margin != 0.0 for r in gated), [(r.name, r.margin) for r in gated]


# the lines that measure a defect (a gap, residual or asymmetry that should vanish)
DEFECT_LINES = (
    "self-adjoint/", "spectrum/", "rigidity/", "rigidity-separation/", "hadamard-equality/",
    "cov-residual/", "poon-correspondence/", "gauge/",
)


def test_every_line_passes_on_its_own_slack(traced_check_all):
    # one verdict rule: pass is margin >= -tolerance, the margin carrying no tolerance of its
    # own; a negative control reports minus its inner line's slack, and passes on margin > tol
    reports, _, _ = traced_check_all
    gated = [r for r in reports if not r.name.startswith("negative-control/")]
    controls = [r for r in reports if r.name.startswith("negative-control/")]
    assert len(controls) == 2
    assert [r.name for r in gated if r.passed != (r.margin >= -r.tolerance)] == []
    assert [r.name for r in controls if r.passed != (r.margin > r.tolerance)] == []
    defects = [r for r in gated if r.name.startswith(DEFECT_LINES)]
    assert len(defects) == 20
    assert [(r.name, r.margin) for r in defects if r.margin > 0.0] == []


# every line of check all, in report order; the benchmark's check-all workload counts 48
CHECK_ALL_LINES = (
    "self-adjoint/circle", "self-adjoint/torus", "self-adjoint/gauss-line",
    "spectrum/gauss-line", "spectrum/circle-symbol", "spectrum/circle-continuum",
    "monotone/spectral/circle", "log-convexity/spectral/circle", "hadamard/spectral/circle",
    "backward-bound/spectral/circle", "monotone/stepped/circle", "log-convexity/stepped/circle",
    "backward-bound/stepped/circle", "monotone/spectral/torus", "log-convexity/spectral/torus",
    "hadamard/spectral/torus", "backward-bound/spectral/torus", "monotone/stepped/torus",
    "log-convexity/stepped/torus", "backward-bound/stepped/torus",
    "negative-control/reversed-monotone", "richardson/stepped-u-trace", "rigidity/circle",
    "rigidity-separation/circle", "hadamard-equality/circle", "rigidity/torus",
    "rigidity-separation/torus", "hadamard-equality/torus", "rigidity/gauss-line",
    "rigidity-separation/gauss-line", "hadamard-equality/gauss-line",
    "negative-control/two-mode-rigidity", "general-frequency/advection",
    "gradient-only/advection", "general-lower-bound/advection",
    "general-frequency/random-suite", "general-lower-bound/random-suite",
    "gradient-only/random-suite", "perturbed/zero-matches-stepped", "cov-residual/oracle-set",
    "poon-correspondence/constant", "poon-convexity/constant", "poon-correspondence/linear",
    "poon-convexity/linear", "poon-correspondence/caloric-quadratic",
    "poon-convexity/caloric-quadratic", "caloric-flow-monotone/gauss-line",
    "gauge/u-invariance",
)


def test_check_all_reports_every_line_in_order(traced_check_all):
    reports, _, _ = traced_check_all
    assert tuple(r.name for r in reports) == CHECK_ALL_LINES
    assert len(CHECK_ALL_LINES) == CheckAll.CHECKS == 48


def _inside_the_fast_path(traj) -> bool:
    """A perturbed flow extrapolates its predictor and its potential is inside the edge dt max(-c) <= 2."""
    pending = traj.stepping
    c = pending.pert.c
    within = c is None or pending.grid.dt * -c.min() <= evolution._POTENTIAL_EDGE
    return pending.extrapolates() and within


@pytest.mark.parametrize("seed", [0, 3])
def test_the_stepped_ladders_perturbed_flows_extrapolate_inside_the_potential_edge(seed):
    # the benchmark's perturbed flows are built and checked, not stepped
    ladder = SteppedLadder()
    for rung, spec in ladder.inputs(seed).items():
        op, u0, grid, pert = ladder.build(parafreq, spec)
        assert _inside_the_fast_path(parafreq.evolve_perturbed(op, u0, grid, pert)), rung


def test_check_alls_perturbed_flows_extrapolate_inside_the_potential_edge(ctx, monkeypatch):
    # the 50 random flows at seed 0, with the advection and the zero perturbation
    flows = []

    def recorded(*args):
        flows.append(evolution.evolve_perturbed(*args))
        return flows[-1]

    monkeypatch.setattr(suite, "evolve_perturbed", recorded)
    perturbed_reports(ctx)
    assert len(flows) == 2 + suite.RANDOM_PERTURBATIONS == 52
    assert all(_inside_the_fast_path(traj) for traj in flows)
