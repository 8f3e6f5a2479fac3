import json

import numpy as np
import pytest

from parafreq import PerturbationSpec, TimeGrid, make_circle
from parafreq import frequency, suite
from parafreq.reports import write_report
from parafreq.suite import (
    EIGENMODES_CHECKED,
    TWO_PI,
    SuiteContext,
    _random_perturbation,
    caloric_reports,
    gauge_reports,
    rigidity_reports,
    self_adjoint_reports,
    spectrum_reports,
)


def test_self_adjoint_suite_passes():
    ctx = SuiteContext(seed=0)
    reports = self_adjoint_reports(ctx)
    assert [r.name for r in reports] == [
        "self-adjoint/circle", "self-adjoint/torus", "self-adjoint/gauss-line"
    ]
    assert all(r.passed for r in reports)


def test_corrupted_operator_negative_control():
    ctx = SuiteContext(seed=0)
    reports = self_adjoint_reports(ctx, corrupt_operator=True)
    by_name = {r.name: r for r in reports}
    assert not by_name["self-adjoint/circle"].passed
    assert by_name["self-adjoint/torus"].passed


def test_rigidity_traces_each_flow_once(monkeypatch):
    # five eigenmode flows on each of three geometries, plus the two-mode control
    traced = []
    trace = suite.frequency_trace
    counting = lambda traj, op=None: traced.append(traj) or trace(traj, op)
    monkeypatch.setattr(suite, "frequency_trace", counting)
    monkeypatch.setattr(frequency, "frequency_trace", counting)
    reports = rigidity_reports(SuiteContext(seed=0))
    assert all(r.passed for r in reports)
    assert len(traced) == len({id(traj) for traj in traced}) == 3 * EIGENMODES_CHECKED + 1


def test_spectrum_reports_pass():
    ctx = SuiteContext(seed=0)
    assert all(r.passed for r in spectrum_reports(ctx))


def test_report_document_is_deterministic(tmp_path):
    bodies = []
    for run in ("a", "b"):
        ctx = SuiteContext(seed=11)
        reports = caloric_reports(ctx) + gauge_reports(ctx) + spectrum_reports(ctx)
        path = tmp_path / f"{run}.json"
        write_report(path, reports, seed=11)
        bodies.append(path.read_bytes())
    assert bodies[0] == bodies[1]


def test_report_schema_fields(tmp_path):
    ctx = SuiteContext(seed=3)
    reports = gauge_reports(ctx)
    path = tmp_path / "r.json"
    payload = write_report(path, reports, seed=3)
    loaded = json.loads(path.read_text())
    assert loaded == payload
    assert loaded["schema"] == "parafreq-report/1"
    assert loaded["seed"] == 3
    entry = loaded["checks"][0]
    assert set(entry) == {"check", "pass", "margin", "tolerance", "location", "aux"}
    assert isinstance(entry["margin"], float)


def test_failing_report_still_serializes(tmp_path):
    ctx = SuiteContext(seed=0)
    reports = self_adjoint_reports(ctx, corrupt_operator=True)
    payload = write_report(tmp_path / "bad.json", reports, seed=0)
    assert payload["passed"] is False
    assert np.isfinite(payload["checks"][0]["margin"])


def callback_perturbation(geometry, grid, rng, amplitude, with_potential):
    """Per-sample callbacks: the reference for the array-built random perturbation."""
    x = geometry.coords[:, 0]
    freq = TWO_PI / (geometry.node_count * geometry.stencil.spacings[0])

    def profile():
        coeffs = rng.standard_normal(6)
        phase = rng.uniform(0.0, TWO_PI, 2)

        def fn(t):
            spatial = (
                coeffs[0]
                + coeffs[1] * np.cos(freq * x + phase[0])
                + coeffs[2] * np.sin(2.0 * freq * x + phase[1])
            )
            envelope = 1.0 + 0.5 * np.sin(coeffs[3] + 2.0 * t)
            peak = np.max(np.abs(spatial)) * 1.5
            return amplitude * spatial * envelope / (peak if peak > 0 else 1.0)

        return fn

    b_profile = profile()
    c_profile = profile() if with_potential else None
    return PerturbationSpec.build(
        geometry, grid, b=lambda t: b_profile(t)[:, None], c=c_profile,
        gradient_only=not with_potential,
    )


@pytest.mark.parametrize("with_potential", [False, True])
def test_random_perturbation_matches_callback_reference(with_potential):
    geometry = make_circle(128, TWO_PI)
    grid = TimeGrid(0.0, 1.0, 200)
    spec = _random_perturbation(
        geometry, grid, np.random.default_rng([3, 6]), 0.3, with_potential
    )
    ref = callback_perturbation(geometry, grid, np.random.default_rng([3, 6]), 0.3, with_potential)
    assert spec.gradient_only is ref.gradient_only
    for got, want in ((spec.b, ref.b), (spec.c, ref.c), (spec.bound, ref.bound)):
        if want is None:
            assert got is None
        else:
            assert got.shape == want.shape
            np.testing.assert_allclose(got, want, rtol=1e-15, atol=0.0)
