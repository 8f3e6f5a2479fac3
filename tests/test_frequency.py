import numpy as np
import pytest

from parafreq import (
    PROVENANCE_SPECTRAL,
    Field,
    PerturbationSpec,
    TimeGrid,
    Trajectory,
    check_general_frequency,
    check_general_lower_bound,
    check_gradient_only,
    check_hadamard_bound,
    check_log_convexity,
    check_rigidity,
    check_u_monotone,
    default_tolerance,
    eigenpairs,
    evolve_cn,
    evolve_exact,
    evolve_perturbed,
    frequency_trace,
    vanishing_order_surrogate,
    weighted_inner,
)
from parafreq import frequency
from parafreq.core import ModalExpansion
from parafreq.frequency import derivative_tolerance
from parafreq.errors import DegenerateTraceError, InvalidInputError

TWO_PI = 2.0 * np.pi


def circle_rate(k, n=128):
    h = TWO_PI / n
    return -4.0 * np.sin(k * h / 2.0) ** 2 / h**2


@pytest.fixture(scope="module")
def two_mode(flat_circle_op):
    geom = flat_circle_op.geometry
    x = geom.coords[:, 0]
    u0 = Field(geom, np.sin(x) + np.sin(2.0 * x))
    grid = TimeGrid(0.0, 1.0, 200)
    traj = evolve_exact(flat_circle_op, u0, grid)
    return traj, frequency_trace(traj, flat_circle_op)


class TestTraceValues:
    def test_two_mode_frequency_closed_form(self, two_mode):
        _, trace = two_mode
        r1, r2 = circle_rate(1), circle_rate(2)

        def u_exact(t):
            w1, w2 = np.exp(2.0 * r1 * t), np.exp(2.0 * r2 * t)
            return (r1 * w1 + r2 * w2) / (w1 + w2)

        gaps = [abs(trace.U[k] - u_exact(t)) for k, t in enumerate(trace.times)]
        assert max(gaps) < 1e-10
        # continuum limit: U(0) = -5/2, U(1) ~ -1.00742
        assert abs(trace.U[0] + 2.5) < 2e-3
        assert abs(trace.U[-1] + 1.00742) < 2e-3

    def test_eigenmode_has_constant_frequency(self, flat_circle_op):
        pair = eigenpairs(flat_circle_op, 2)[1]
        traj = evolve_exact(flat_circle_op, pair.eigenfield, TimeGrid(0.0, 1.0, 50))
        trace = frequency_trace(traj, flat_circle_op)
        assert np.max(np.abs(trace.U - pair.eigenvalue)) < 1e-10

    def test_constant_field_has_zero_frequency(self, weighted_circle_op):
        one = Field.constant(weighted_circle_op.geometry)
        traj = evolve_exact(weighted_circle_op, one, TimeGrid(0.0, 1.0, 20))
        trace = frequency_trace(traj, weighted_circle_op)
        assert np.max(np.abs(trace.U)) < 1e-12
        assert np.max(np.abs(trace.I - trace.I[0])) < 1e-12 * trace.I[0]

    def test_both_d_expressions_agree(self, two_mode):
        _, trace = two_mode
        assert trace.aux["d_expression_gap"] < 1e-10

    def test_u_is_nonpositive(self, two_mode):
        _, trace = two_mode
        assert np.all(trace.U <= 0.0)

    def test_degenerate_trace_detected(self, flat_circle_op):
        geom = flat_circle_op.geometry
        grid = TimeGrid(0.0, 1.0, 2)
        zero = Field.constant(geom, 0.0)
        traj = Trajectory(grid=grid, fields=(zero, zero, zero), provenance="analytic-oracle")
        with pytest.raises(DegenerateTraceError):
            frequency_trace(traj, flat_circle_op)


def materialized(traj):
    """The same flow as a plain value stack, traced sample by sample."""
    return Trajectory(
        grid=traj.grid, geometry=traj.geometry, values=traj.values, provenance=traj.provenance
    )


class TestClosedFormSpectralTrace:
    @pytest.mark.parametrize("components", [1, 2])
    @pytest.mark.parametrize(
        "operator", ["weighted_circle_op", "conformal_torus_op", "gauss_line_op"]
    )
    def test_matches_materialized_trace(self, request, operator, components):
        op = request.getfixturevalue(operator)
        geom = op.geometry
        rng = np.random.default_rng(22)
        u0 = Field(geom, rng.standard_normal((geom.node_count, components)))
        traj = evolve_exact(op, u0, TimeGrid(0.0, 1.0, 40))
        closed = frequency_trace(traj, op)
        sampled = frequency_trace(materialized(traj), op)
        assert np.max(np.abs(closed.I - sampled.I) / sampled.I) <= 1e-13
        u_scale = 1.0 + np.max(np.abs(sampled.U))
        assert np.max(np.abs(closed.U - sampled.U)) <= 1e-12 * u_scale
        assert closed.aux["d_expression_gap"] <= 1e-12
        assert sampled.aux["d_expression_gap"] <= 1e-12

    def test_trace_leaves_values_unmaterialized(self, conformal_torus_op, two_mode):
        geom = conformal_torus_op.geometry
        u0 = Field(geom, np.cos(geom.coords[:, 0]) + np.sin(2.0 * geom.coords[:, 1]))
        traj = evolve_exact(conformal_torus_op, u0, TimeGrid(0.0, 1.0, 200))
        frequency_trace(traj, conformal_torus_op)
        assert "values" not in vars(traj) and "fields" not in vars(traj)
        # a non-rigid flow needs no residual, so rigidity does not build values either
        two_mode_traj, _ = two_mode
        check_rigidity(two_mode_traj, 1e-9)
        assert "values" not in vars(two_mode_traj)

    def test_d_gap_detects_inconsistent_modal_data(self, weighted_circle_op):
        geom = weighted_circle_op.geometry
        u0 = Field(geom, np.random.default_rng(23).standard_normal(geom.node_count))
        traj = evolve_exact(weighted_circle_op, u0, TimeGrid(0.0, 1.0, 10))
        coeffs = 1.01 * traj.modal.coeffs  # no longer the expansion of u(a)
        broken = Trajectory(
            grid=traj.grid,
            geometry=geom,
            modal=ModalExpansion(
                rates=traj.modal.rates, vectors=traj.modal.vectors, coeffs=coeffs,
                initial=traj.modal.initial,
            ),
            provenance=PROVENANCE_SPECTRAL,
        )
        assert frequency_trace(traj, weighted_circle_op).aux["d_expression_gap"] <= 1e-12
        assert frequency_trace(broken, weighted_circle_op).aux["d_expression_gap"] > 1e-3


@pytest.fixture(scope="module")
def modal_data(weighted_circle_op):
    pairs = eigenpairs(weighted_circle_op, 128)
    rates = np.array([p.eigenvalue for p in pairs])
    rng = np.random.default_rng(21)
    geom = weighted_circle_op.geometry
    u0 = Field(geom, rng.standard_normal(geom.node_count))
    coeffs = np.array([weighted_inner(u0, p.eigenfield) for p in pairs])
    return rates, coeffs


class TestEigenbasisIdentities:
    """The proof-level derivative identities, evaluated analytically."""

    @staticmethod
    def modal_quantities(rates, coeffs, t):
        w = coeffs**2 * np.exp(2.0 * rates * t)
        I = w.sum()
        D = (rates * w).sum()
        dI = 2.0 * (rates * w).sum()
        dD = 2.0 * (rates**2 * w).sum()
        lu_norm2 = (rates**2 * w).sum()
        return I, D, dI, dD, lu_norm2

    def test_rate_of_i_is_twice_d(self, modal_data):
        rates, coeffs = modal_data
        for t in (0.0, 0.3, 1.0):
            I, D, dI, _, _ = self.modal_quantities(rates, coeffs, t)
            assert abs(dI - 2.0 * D) < 1e-10 * abs(dI)

    def test_rate_of_d_is_twice_operator_norm(self, modal_data):
        rates, coeffs = modal_data
        for t in (0.0, 0.3, 1.0):
            _, _, _, dD, lu2 = self.modal_quantities(rates, coeffs, t)
            assert abs(dD - 2.0 * lu2) < 1e-10 * abs(dD)

    def test_cauchy_schwarz_mechanism(self, modal_data):
        rates, coeffs = modal_data
        for t in (0.0, 0.25, 0.75):
            I, D, dI, dD, _ = self.modal_quantities(rates, coeffs, t)
            assert dD * I - dI * D >= -1e-10 * I**2

    def test_modal_values_match_trace(self, weighted_circle_op, modal_data):
        rates, coeffs = modal_data
        geom = weighted_circle_op.geometry
        rng = np.random.default_rng(21)
        u0 = Field(geom, rng.standard_normal(geom.node_count))
        grid = TimeGrid(0.0, 1.0, 10)
        trace = frequency_trace(evolve_exact(weighted_circle_op, u0, grid), weighted_circle_op)
        for k, t in enumerate(grid.times):
            I, D, _, _, _ = self.modal_quantities(rates, coeffs, t)
            assert abs(trace.I[k] - I) < 1e-9 * I
            assert abs(trace.D[k] - D) < 1e-9 * abs(D)


class TestMonotonicityChecks:
    def test_two_mode_passes(self, two_mode):
        _, trace = two_mode
        assert check_u_monotone(trace, 1e-10).passed
        rep = check_log_convexity(trace, 1e-8 / trace.dt**2)
        assert rep.passed
        assert rep.aux["min_second_difference"] > 0.0

    def test_reversed_trace_fails(self, two_mode):
        traj, _ = two_mode
        reversed_traj = Trajectory(
            grid=traj.grid,
            fields=tuple(reversed(traj.fields)),
            provenance=traj.provenance,
        )
        trace = frequency_trace(reversed_traj)
        assert not check_u_monotone(trace, 1e-10).passed

    def test_dlogi_identity_richardson(self, flat_circle_op):
        geom = flat_circle_op.geometry
        x = geom.coords[:, 0]
        u0 = Field(geom, np.sin(x) + np.sin(2.0 * x))
        gaps = []
        for steps in (100, 200):
            traj = evolve_exact(flat_circle_op, u0, TimeGrid(0.0, 1.0, steps))
            trace = frequency_trace(traj, flat_circle_op)
            rep = check_log_convexity(trace, 1e-8 / trace.dt**2)
            gaps.append(rep.aux["dlogI_vs_2U_gap"])
        assert gaps[0] / gaps[1] > 3.5

    def test_deriv_tolerance_gates_when_given(self, two_mode):
        _, trace = two_mode
        rep = check_log_convexity(trace, 1e-8 / trace.dt**2, deriv_tol=1e-15)
        assert not rep.passed

    def test_single_eigenmode_log_affine(self, flat_circle_op):
        pair = eigenpairs(flat_circle_op, 2)[1]
        traj = evolve_exact(flat_circle_op, pair.eigenfield, TimeGrid(0.0, 1.0, 100))
        trace = frequency_trace(traj, flat_circle_op)
        log_i = np.log(trace.I)
        second = log_i[2:] - 2.0 * log_i[1:-1] + log_i[:-2]
        assert np.max(np.abs(second)) < 1e-10


class TestHadamardBound:
    def test_eigenmode_equality(self, flat_circle_op):
        pair = eigenpairs(flat_circle_op, 2)[1]
        traj = evolve_exact(flat_circle_op, pair.eigenfield, TimeGrid(0.0, 1.0, 50))
        trace = frequency_trace(traj, flat_circle_op)
        rep = check_hadamard_bound(trace, 1e-10)
        assert rep.passed
        assert abs(rep.margin) < 1e-10

    def test_two_mode_margin_value(self, two_mode):
        _, trace = two_mode
        rep = check_hadamard_bound(trace, 1e-9)
        r1, r2 = circle_rate(1), circle_rate(2)
        expected = (
            np.log((np.exp(2.0 * r1) + np.exp(2.0 * r2)) / 2.0) - (r1 + r2)
        )
        assert rep.passed
        assert abs(rep.margin - expected) < 1e-9
        # continuum value: log I(1) - log I(0) + 5
        assert abs(rep.margin - 2.309) < 5e-3

    def test_vanishing_order_eigenmode(self, flat_circle_op):
        pair = eigenpairs(flat_circle_op, 2)[1]
        traj = evolve_exact(flat_circle_op, pair.eigenfield, TimeGrid(0.0, 1.0, 50))
        trace = frequency_trace(traj, flat_circle_op)
        # c = -2 lambda: scaled trace is constant
        rep = vanishing_order_surrogate(trace, -2.0 * pair.eigenvalue)
        assert rep.passed
        assert abs(rep.aux["max_scaled"] - rep.aux["min_scaled"]) < 1e-8
        # c = -lambda: decreasing but above the growth-bound prediction
        rep = vanishing_order_surrogate(trace, -pair.eigenvalue)
        assert rep.passed
        assert abs(rep.margin) < 1e-10

    def test_vanishing_order_tolerance(self, two_mode):
        _, trace = two_mode
        assert vanishing_order_surrogate(trace, 0.0).tolerance == default_tolerance(trace)
        assert vanishing_order_surrogate(trace, 0.0, 1e-3).tolerance == 1e-3

    def test_vanishing_order_zero_rate_reports_i(self, two_mode):
        _, trace = two_mode
        rep = vanishing_order_surrogate(trace, 0.0)
        assert abs(rep.aux["max_scaled"] - trace.I.max()) < 1e-12
        assert abs(rep.aux["min_scaled"] - trace.I.min()) < 1e-12


class TestRigidity:
    def test_eigenmode_flagged(self, flat_circle_op):
        pair = eigenpairs(flat_circle_op, 2)[1]
        traj = evolve_exact(flat_circle_op, pair.eigenfield, TimeGrid(0.0, 1.0, 50))
        rep = check_rigidity(traj, 1e-9, flat_circle_op)
        assert rep.passed and rep.aux["is_eigenmode"]
        assert abs(rep.aux["lambda_estimate"] - pair.eigenvalue) < 1e-9

    def test_given_trace_is_used_as_is(self, flat_circle_op, monkeypatch):
        pair = eigenpairs(flat_circle_op, 3)[2]
        traj = evolve_exact(flat_circle_op, pair.eigenfield, TimeGrid(0.0, 1.0, 50))
        trace = frequency_trace(traj, flat_circle_op)
        expected = check_rigidity(traj, 1e-9, flat_circle_op).to_dict()
        monkeypatch.setattr(frequency, "frequency_trace", None)  # a second trace would fail
        assert check_rigidity(traj, 1e-9, flat_circle_op, trace).to_dict() == expected

    def test_two_mode_not_rigid(self, two_mode):
        traj, _ = two_mode
        rep = check_rigidity(traj, 1e-9)
        assert rep.passed and not rep.aux["is_eigenmode"]
        assert abs(rep.aux["u_variation"] - 1.491) < 5e-3

    def test_separation_residual_matches_per_sample_reference(self, weighted_circle_op):
        geom = weighted_circle_op.geometry
        pair = eigenpairs(weighted_circle_op, 4)[3]
        traj = evolve_exact(weighted_circle_op, pair.eigenfield, TimeGrid(0.0, 1.0, 50))
        rep = check_rigidity(traj, 1e-9, weighted_circle_op)
        assert rep.aux["is_eigenmode"]
        lam = rep.aux["lambda_estimate"]
        u0 = traj.fields[0]
        reference = max(
            np.sqrt(weighted_inner(diff, diff) / weighted_inner(u0, u0))
            for diff in (
                Field(geom, fld.values - np.exp(lam * t) * u0.values)
                for fld, t in zip(traj.fields, traj.grid.times)
            )
        )
        assert abs(rep.aux["separation_residual"] - reference) <= 1e-15
        assert rep.aux["separation_residual"] < 1e-10

    def test_constant_field_rigid_at_zero(self, weighted_circle_op):
        one = Field.constant(weighted_circle_op.geometry)
        traj = evolve_exact(weighted_circle_op, one, TimeGrid(0.0, 1.0, 20))
        rep = check_rigidity(traj, 1e-9, weighted_circle_op)
        assert rep.passed and rep.aux["is_eigenmode"]
        assert abs(rep.aux["lambda_estimate"]) < 1e-10


@pytest.fixture(scope="module")
def advection(flat_circle_op):
    geom = flat_circle_op.geometry
    grid = TimeGrid(0.0, 1.0, 200)
    pert = PerturbationSpec.build(
        geom, grid, b=lambda t: np.full((geom.node_count, 1), 0.5),
        bound=0.5, gradient_only=True,
    )
    u0 = Field(geom, np.sin(geom.coords[:, 0]))
    traj = evolve_perturbed(flat_circle_op, u0, grid, pert)
    return frequency_trace(traj, flat_circle_op)


class TestPerturbedChecks:
    def test_zero_bound_reduces_to_monotonicity(self, two_mode):
        # derivative-based gates carry the O(dt^2) differencing budget
        _, trace = two_mode
        rep = check_general_frequency(trace, 0.0)
        assert rep.passed
        lower = check_general_lower_bound(trace, 0.0)
        assert lower.passed
        hadamard = check_hadamard_bound(trace, 1e-9)
        assert abs(lower.aux["statement_margin"] - hadamard.margin) < 1e-12
        # the proof-final display as printed loses the factor 2 on U at C=0;
        # its margin is reported, never gated, and the gap is exactly U(a)*(b-a)
        gap = lower.aux["proof_margin"] - hadamard.margin
        assert abs(gap - trace.U[0] * (trace.times[-1] - trace.times[0])) < 1e-12

    def test_advection_frequency_constant(self, advection):
        assert np.max(np.abs(advection.U - circle_rate(1))) < 1e-6

    def test_advection_general_frequency_margins(self, advection):
        rep = check_general_frequency(advection, 0.5)
        assert rep.passed
        assert rep.aux["min_u_rate_margin"] > 0.4
        assert rep.aux["min_log_one_minus_u_margin"] > 0.2

    def test_advection_gradient_only(self, advection):
        rep = check_gradient_only(advection, 0.5)
        assert rep.passed
        assert rep.aux["rate_margin"] > 0.12  # C^2/2 = 0.125 with [log(-U)]' ~ 0

    def test_advection_proof_chain(self, advection):
        rep = check_general_lower_bound(advection, 0.5)
        assert rep.passed
        # (log I)' = 2U ~ -2 vs (2 + C/2) U - 3C/2 = -3: margin ~ 1
        assert abs(rep.margin - 1.0) < 5e-3

    def test_gradient_only_needs_flag(self, two_mode):
        _, trace = two_mode
        with pytest.raises(InvalidInputError):
            check_gradient_only(trace, 0.0)

    def test_gradient_only_zero_bound_reduction(self, flat_circle_op):
        # with C == 0 the envelope collapses to U(t) >= U(a)
        geom = flat_circle_op.geometry
        grid = TimeGrid(0.0, 1.0, 100)
        pert = PerturbationSpec.build(geom, grid, bound=0.0, gradient_only=True)
        x = geom.coords[:, 0]
        u0 = Field(geom, np.sin(x) + np.sin(2.0 * x))
        traj = evolve_perturbed(flat_circle_op, u0, grid, pert)
        trace = frequency_trace(traj, flat_circle_op)
        rep = check_gradient_only(trace, 0.0)
        assert rep.passed
        assert abs(rep.aux["envelope_margin"] - (trace.U.min() - trace.U[0])) < 1e-12

    def test_gradient_only_needs_negative_start(self, weighted_circle_op):
        one = Field.constant(weighted_circle_op.geometry)
        geom = weighted_circle_op.geometry
        grid = TimeGrid(0.0, 1.0, 20)
        pert = PerturbationSpec.build(geom, grid, bound=0.0, gradient_only=True)
        traj = evolve_perturbed(weighted_circle_op, one, grid, pert)
        trace = frequency_trace(traj, weighted_circle_op)
        with pytest.raises(InvalidInputError):
            check_gradient_only(trace, 0.0)

    def test_default_tolerance_uses_provenance(self, flat_circle_op, two_mode):
        _, spectral_trace = two_mode
        assert default_tolerance(spectral_trace) == 1e-9
        geom = flat_circle_op.geometry
        u0 = Field(geom, np.sin(geom.coords[:, 0]))
        traj = evolve_cn(flat_circle_op, u0, TimeGrid(0.0, 1.0, 100))
        trace = frequency_trace(traj, flat_circle_op)
        h = TWO_PI / 128
        expected = 10.0 * (0.01**2 + h**2) * (1.0 + abs(trace.U[0]))
        assert abs(default_tolerance(trace) - expected) < 1e-12
        for scale in (1.0, 3.7):
            assert default_tolerance(trace, scale) == derivative_tolerance(trace, scale)

    def test_bound_forms_agree(self, advection):
        constant = check_general_frequency(advection, 0.5)
        forms = (lambda t: 0.5, np.full(advection.samples, 0.5), np.float64(0.5), [0.5])
        for form in forms:
            assert check_general_frequency(advection, form).to_dict() == constant.to_dict()
        assert check_general_frequency(advection).margin == constant.margin  # certificate
        with pytest.raises(InvalidInputError):
            check_general_frequency(advection, lambda t: np.inf)
