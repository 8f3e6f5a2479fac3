import numpy as np
import pytest

from parafreq import (
    PROVENANCE_SPECTRAL,
    DriftOperator,
    Field,
    PerturbationSpec,
    TimeGrid,
    Trajectory,
    assemble,
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
    make_circle,
    weighted_inner,
)
from parafreq import core, evolution, frequency
from parafreq.config import TRACE_CHECKS, read_check
from parafreq.core import ModalExpansion
from parafreq.frequency import FrequencyTrace
from parafreq.errors import DegenerateTraceError, InvalidInputError
from parafreq.reports import write_report
from parafreq.sampling import random_smooth_field

from conftest import dense_operator, peak_allocated

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
        zero = np.zeros((3, geom.node_count, 1))
        traj = Trajectory(grid=grid, geometry=geom, values=zero, provenance="analytic-oracle")
        with pytest.raises(DegenerateTraceError):
            frequency_trace(traj, flat_circle_op)

    @pytest.mark.parametrize("evolve", [evolve_exact, evolve_cn])
    def test_fewer_than_three_samples_rejected(self, flat_circle_op, evolve):
        geom = flat_circle_op.geometry
        traj = evolve(flat_circle_op, Field(geom, np.sin(geom.coords[:, 0])), TimeGrid(0.0, 1.0, 1))
        with pytest.raises(InvalidInputError, match="3 time samples"):
            frequency_trace(traj, flat_circle_op)


def hand_trace(times, I, U, gradient_only=False):
    """A spectral-provenance trace built from given I and U samples."""
    dt = float(times[1] - times[0])
    return FrequencyTrace(
        times=times, I=I, D=U * I, U=U,
        dlogI=np.gradient(np.log(I), dt, edge_order=2), dU=np.gradient(U, dt, edge_order=2),
        provenance=PROVENANCE_SPECTRAL, dt=dt, length_scale=0.1, gradient_only=gradient_only,
    )


def run_config_check(name, traj, trace, op, tol):
    """One check entry of a config, run as ``simulate`` runs it."""
    return TRACE_CHECKS[name][0](traj, trace, op, tol, read_check({"name": name}, "check"))


def materialized(traj):
    """The same flow as a plain value stack, traced sample by sample."""
    return Trajectory(
        grid=traj.grid, geometry=traj.geometry, values=traj.values, provenance=traj.provenance
    )


class TestClosedFormSpectralTrace:
    @pytest.mark.parametrize("path", ["dense", "krylov"])
    @pytest.mark.parametrize("components", [1, 2])
    @pytest.mark.parametrize(
        "operator", ["weighted_circle_op", "conformal_torus_op", "gauss_line_op"]
    )
    def test_matches_materialized_trace(self, request, operator, components, path):
        op = request.getfixturevalue(operator)
        geom = op.geometry
        if path == "krylov":
            request.getfixturevalue("krylov_only")
            op = assemble(geom)
        rng = np.random.default_rng(22)
        u0 = Field(geom, rng.standard_normal((geom.node_count, components)))
        traj = evolve_exact(op, u0, TimeGrid(0.0, 1.0, 40))
        assert ("eigensystem" in vars(op)) == (path == "dense")
        closed = frequency_trace(traj, op)
        sampled = frequency_trace(materialized(traj), op)
        assert np.max(np.abs(closed.I - sampled.I) / sampled.I) <= 1e-13
        u_scale = 1.0 + np.max(np.abs(sampled.U))
        assert np.max(np.abs(closed.U - sampled.U)) <= 1e-12 * u_scale
        assert closed.aux["d_expression_gap"] <= 1e-12
        assert sampled.aux["d_expression_gap"] <= 1e-12

    def test_trace_leaves_values_unmaterialized(self, conformal_torus_op, flat_circle_op):
        geom = conformal_torus_op.geometry
        u0 = Field(geom, np.cos(geom.coords[:, 0]) + np.sin(2.0 * geom.coords[:, 1]))
        traj = evolve_exact(conformal_torus_op, u0, TimeGrid(0.0, 1.0, 200))
        frequency_trace(traj, conformal_torus_op)
        assert "values" not in vars(traj) and "fields" not in vars(traj)
        # a non-rigid flow needs no residual, so rigidity does not build values either;
        # the flow is its own, since the shared two_mode flow may have built its values
        x = flat_circle_op.geometry.coords[:, 0]
        u0 = Field(flat_circle_op.geometry, np.sin(x) + np.sin(2.0 * x))
        two_mode_traj = evolve_exact(flat_circle_op, u0, TimeGrid(0.0, 1.0, 200))
        check_rigidity(two_mode_traj, 1e-9, flat_circle_op)
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

    def test_d_gap_detects_a_corrupted_operator_on_a_stepped_flow(self, weighted_circle_op):
        # a sampled trace compares the two expressions of D at u(a) only
        geom = weighted_circle_op.geometry
        u0 = random_smooth_field(geom, np.random.default_rng(24))
        traj = evolve_cn(weighted_circle_op, u0, TimeGrid(0.0, 1.0, 10))
        broken = weighted_circle_op.symmetric.toarray()
        k = int(np.argmax(np.abs(u0.values)))  # an entry that u(a) weighs
        broken[k, k] *= 2.0
        corrupted = DriftOperator(geometry=geom, symmetric=broken)
        assert frequency_trace(traj, weighted_circle_op).aux["d_expression_gap"] <= 1e-12
        assert frequency_trace(traj, corrupted).aux["d_expression_gap"] > 1e-3


class TestSharedModalGrowth:
    """Flows projected on one operator's eigensystem share its growth matrix per time grid."""

    @staticmethod
    def flow(op, seed, grid):
        u0 = Field(op.geometry, np.random.default_rng(seed).standard_normal(op.geometry.node_count))
        return evolve_exact(op, u0, grid)

    def test_dense_trace_equals_fresh_modal_sums(self, weighted_circle):
        op = dense_operator(weighted_circle)
        grid = TimeGrid(0.0, 1.0, 40)
        for seed in (25, 26):
            traj = self.flow(op, seed, grid)
            rates = traj.modal.rates
            weights = np.sum(traj.modal.coeffs**2, axis=1)
            growth = core._modal_factors(rates, grid.times - grid.a, power=2)
            I, D = core._modal_sums(growth, rates, weights)
            trace = frequency_trace(traj, op)
            assert np.array_equal(trace.I, I) and np.array_equal(trace.D, D)
            U = D / I
            dU = 2.0 * (((rates - U[:, None]) ** 2 * growth) @ weights) / I
            assert "dU" not in vars(trace)  # computed on its first read
            assert np.array_equal(trace.dU, dU) and not trace.dU.flags.writeable
        shared = op.modal_growth(rates, grid)
        assert shared is op.modal_growth(rates, grid) and not shared.flags.writeable

    def test_two_grids_do_not_share_a_growth_matrix(self, weighted_circle):
        op = dense_operator(weighted_circle)
        rates = op.eigensystem[0]
        short, long = TimeGrid(0.0, 1.0, 40), TimeGrid(0.0, 2.0, 40)
        for grid in (short, long, short):
            growth = op.modal_growth(rates, grid)
            assert np.array_equal(growth, core._modal_factors(rates, grid.times - grid.a, power=2))
            traj = self.flow(op, 27, grid)
            expected = frequency_trace(materialized(traj), op)
            trace = frequency_trace(traj, op)
            assert np.max(np.abs(trace.I / expected.I - 1.0)) <= 1e-13
        # one entry, the last grid's and step's; rates that are not the dense spectrum are never cached
        assert list(op._growth) == [(short, None)]
        other = op.modal_growth(rates.copy(), long)
        assert other is not op.modal_growth(rates.copy(), long)
        assert list(op._growth) == [(short, None)]
        # a trapezoid flow's r^(2k) is its own entry, never the semigroup's
        stepped = op.modal_growth(rates, short, short.dt)
        assert list(op._growth) == [(short, short.dt)] and not np.array_equal(stepped, growth)


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

    def test_reversed_trace_fails(self, flat_circle_op, two_mode):
        traj, _ = two_mode
        reversed_traj = Trajectory(
            grid=traj.grid,
            geometry=traj.geometry,
            values=traj.values[::-1],
            provenance=traj.provenance,
        )
        trace = frequency_trace(reversed_traj, flat_circle_op)
        assert not check_u_monotone(trace, 1e-10).passed

    def test_dlogi_identity_richardson(self, flat_circle_op):
        # the values of a spectral flow are differenced in time: the gap falls as dt^2
        geom = flat_circle_op.geometry
        x = geom.coords[:, 0]
        u0 = Field(geom, np.sin(x) + np.sin(2.0 * x))
        gaps = []
        for steps in (100, 200):
            traj = materialized(evolve_exact(flat_circle_op, u0, TimeGrid(0.0, 1.0, steps)))
            trace = frequency_trace(traj, flat_circle_op)
            rep = check_log_convexity(trace, 1e-8 / trace.dt**2)
            gaps.append(rep.aux["dlogI_vs_2U_gap"])
        assert gaps[0] / gaps[1] > 3.5

    def test_identity_gap_is_reported_not_gated(self, flat_circle_op, two_mode):
        traj, modal_trace = two_mode
        trace = frequency_trace(materialized(traj), flat_circle_op)
        rep = check_log_convexity(trace, 1e-8 / trace.dt**2)
        assert rep.passed
        assert rep.aux["dlogI_vs_2U_gap"] > 1e-15
        # the modal trace carries (log I)' = 2U exactly
        assert check_log_convexity(modal_trace, 1e-8 / trace.dt**2).aux["dlogI_vs_2U_gap"] == 0.0

    def test_huge_window_tolerance_is_an_input_error(self):
        # tol * dt^2 overflows a float here: an InvalidInputError, not an OverflowError
        op = assemble(make_circle(64, TWO_PI))
        u0 = Field(op.geometry, np.sin(op.geometry.coords[:, 0]))
        trace = frequency_trace(evolve_cn(op, u0, TimeGrid(0.0, 1e300, 5)), op)
        with pytest.raises(InvalidInputError, match="log-convexity tolerance inf is not finite"):
            check_log_convexity(trace, 1e-8)
        with pytest.raises(InvalidInputError, match="not finite"):
            check_log_convexity(trace)

    @pytest.mark.parametrize("tol", [None, 1.0])
    def test_underflowing_dt_squared_is_an_input_error(self, tol):
        # dt = 5e-303: dt^2 is 0, so no gate tol * dt^2 exists, the default or a given one
        op = assemble(make_circle(16, TWO_PI))
        u0 = Field(op.geometry, np.sin(op.geometry.coords[:, 0]))
        trace = frequency_trace(evolve_cn(op, u0, TimeGrid(0.0, 1e-300, 200)), op)
        with pytest.raises(InvalidInputError, match=r"dt = 5e-303 .* dt\^2 underflows to 0"):
            check_log_convexity(trace, tol)

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
        assert abs(rep.aux["final_margin"] - expected) < 1e-9
        # continuum value: log I(1) - log I(0) + 5
        assert abs(rep.aux["final_margin"] - 2.309) < 5e-3

    def test_margin_is_the_worst_sample_after_a(self, two_mode):
        _, trace = two_mode
        rep = check_hadamard_bound(trace, 1e-9)
        t = trace.times
        margins = np.log(trace.I) - np.log(trace.I[0]) - 2.0 * trace.U[0] * (t - t[0])
        assert margins[0] == 0.0
        assert rep.margin == margins[1:].min() > 0.0
        assert rep.location == t[1 + np.argmin(margins[1:])]
        assert rep.aux["final_margin"] == margins[-1]

    def test_interior_dip_fails_though_b_recovers(self):
        # log I falls 0.35 below the growth line at t = 0.5 and ends 0.1 above it
        times = np.linspace(0.0, 1.0, 11)
        log_i = -2.0 * times - 0.4 * np.sin(np.pi * times) + 0.1 * times
        rep = check_hadamard_bound(hand_trace(times, np.exp(log_i), np.full(11, -1.0)), 1e-9)
        assert rep.aux["final_margin"] > 0.09  # a check at t = b alone would pass
        assert not rep.passed
        assert rep.location == 0.5
        assert abs(rep.margin + 0.35) < 1e-12


class TestOperatorArgument:
    def test_trace_and_rigidity_need_the_operator(self, two_mode):
        traj, _ = two_mode
        with pytest.raises(TypeError):
            frequency_trace(traj)
        with pytest.raises(TypeError):
            check_rigidity(traj, 1e-9)

    def test_rigidity_checks_against_the_given_operator(self, flat_circle_op):
        pair = eigenpairs(flat_circle_op, 2)[1]
        traj = evolve_exact(flat_circle_op, pair.eigenfield, TimeGrid(0.0, 1.0, 50))
        assert check_rigidity(traj, 1e-9, flat_circle_op).passed
        scaled = DriftOperator(geometry=flat_circle_op.geometry, symmetric=1.01 * flat_circle_op.symmetric)
        rep = check_rigidity(traj, 1e-9, scaled, frequency_trace(traj, flat_circle_op))
        assert not rep.passed and rep.aux["eigen_residual"] > 1e-3

    def test_operator_on_another_geometry_is_rejected(self):
        # a flat circle-64 flow against a weighted circle-64 operator
        flat = assemble(make_circle(64, TWO_PI))
        x = flat.geometry.coords[:, 0]
        weighted = assemble(make_circle(64, TWO_PI, 0.3 * np.cos(x)))
        pair = eigenpairs(flat, 2)[1]
        traj = evolve_exact(flat, pair.eigenfield, TimeGrid(0.0, 1.0, 50))
        trace = frequency_trace(traj, flat)
        with pytest.raises(InvalidInputError, match="geometry"):
            frequency_trace(traj, weighted)
        with pytest.raises(InvalidInputError, match="geometry"):
            check_rigidity(traj, 1e-9, weighted)
        with pytest.raises(InvalidInputError, match="geometry"):
            check_rigidity(traj, 1e-9, weighted, trace)


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

    def test_two_mode_not_rigid(self, flat_circle_op, two_mode):
        traj, _ = two_mode
        rep = check_rigidity(traj, 1e-9, flat_circle_op)
        assert rep.passed and not rep.aux["is_eigenmode"]
        assert abs(rep.aux["u_variation"] - 1.491) < 5e-3

    @pytest.mark.parametrize("tol", [1e-9, 1e-3, None])
    def test_non_rigid_margin_is_the_variation_itself(self, flat_circle_op, two_mode, tol):
        # a non-rigid flow has no inequality to report: its margin carries no tolerance
        traj, trace = two_mode
        rep = check_rigidity(traj, tol, flat_circle_op, trace)
        assert rep.passed and not rep.aux["is_eigenmode"]
        assert rep.margin == rep.aux["u_variation"] == np.max(np.abs(trace.U - trace.U[0]))

    def test_separation_residual_matches_per_sample_reference(self, weighted_circle_op):
        geom = weighted_circle_op.geometry
        pair = eigenpairs(weighted_circle_op, 4)[3]
        traj = evolve_exact(weighted_circle_op, pair.eigenfield, TimeGrid(0.0, 1.0, 50))
        rep = check_rigidity(traj, 1e-9, weighted_circle_op)
        assert rep.aux["is_eigenmode"]
        lam = rep.aux["lambda_estimate"]
        u0 = Field(geom, traj.values[0])
        reference = max(
            np.sqrt(weighted_inner(diff, diff) / weighted_inner(u0, u0))
            for diff in (
                Field(geom, sample - np.exp(lam * t) * u0.values)
                for sample, t in zip(traj.values, traj.grid.times)
            )
        )
        assert abs(rep.aux["separation_residual"] - reference) <= 1e-15
        assert rep.aux["separation_residual"] < 1e-10

    @staticmethod
    def _sampled(traj):
        """The same flow from its value stack alone, without modal data."""
        return Trajectory(grid=traj.grid, values=traj.values, geometry=traj.geometry,
                          provenance=traj.provenance)

    @pytest.mark.parametrize("krylov", [False, True])
    @pytest.mark.parametrize(
        "operator", ["weighted_circle_op", "conformal_torus_op", "gauss_line_op"]
    )
    def test_modal_and_sampled_residuals_agree(self, request, operator, krylov):
        op = request.getfixturevalue(operator)
        pair = eigenpairs(op, 3)[2]
        if krylov:  # an operator without its eigensystem: the flow carries Ritz modes
            op = assemble(op.geometry)
        traj = evolve_exact(op, pair.eigenfield, TimeGrid(0.0, 1.0, 50))
        modal = check_rigidity(traj, 1e-9, op)
        assert "values" not in vars(traj)  # the modal branch built no values
        sampled = check_rigidity(self._sampled(traj), 1e-9, op)
        assert modal.aux["is_eigenmode"] and sampled.aux["is_eigenmode"]
        # both are round-off: the sampled ones from values rebuilt out of the modes, up
        # to eps * max|lambda| ~ 4e-13 relative on the weighted circle, where L is stiffest
        for key in ("separation_residual", "eigen_residual"):
            assert modal.aux[key] < 1e-10
            assert abs(modal.aux[key] - sampled.aux[key]) < 1e-12, key

    @pytest.mark.parametrize("branch", ["modal", "sampled"])
    def test_a_residual_beyond_the_tolerance_fails(self, flat_circle_op, branch):
        # the constant mode plus eps = 1.5 tol of the first oscillating mode: U varies by
        # about eps^2, so the flow is classed as an eigenmode, and its residuals sit near eps
        tol = 1e-6
        const, mode = (pair.eigenfield.values for pair in eigenpairs(flat_circle_op, 2))
        u0 = Field(flat_circle_op.geometry, const + 1.5 * tol * mode)
        traj = evolve_exact(flat_circle_op, u0, TimeGrid(0.0, 1.0, 50))
        if branch == "sampled":
            traj = self._sampled(traj)
        rep = check_rigidity(traj, tol, flat_circle_op)
        assert ("values" in vars(traj)) == (branch == "sampled")
        assert rep.aux["is_eigenmode"] and rep.aux["u_variation"] < 1e-11
        worst = max(rep.aux["separation_residual"], rep.aux["eigen_residual"])
        assert tol < worst < 2.0 * tol
        assert not rep.passed
        assert rep.margin == -worst

    def test_constant_field_rigid_at_zero(self, weighted_circle_op):
        one = Field.constant(weighted_circle_op.geometry)
        traj = evolve_exact(weighted_circle_op, one, TimeGrid(0.0, 1.0, 20))
        rep = check_rigidity(traj, 1e-9, weighted_circle_op)
        assert rep.passed and rep.aux["is_eigenmode"]
        assert abs(rep.aux["lambda_estimate"]) < 1e-10


class TestChunkedPasses:
    """Per-sample passes over a trajectory go a chunk of ``core.row_chunks`` at a time."""

    @pytest.mark.parametrize("components", [1, 3])
    @pytest.mark.parametrize(
        "operator", ["weighted_circle_op", "conformal_torus_op", "gauss_line_op"]
    )
    def test_traces_and_rigidity_do_not_depend_on_the_chunk(
        self, request, monkeypatch, operator, components
    ):
        op = request.getfixturevalue(operator)
        geom = op.geometry
        grid = TimeGrid(0.0, 0.5, 40)
        rough = Field(geom, np.random.default_rng(21).standard_normal((geom.node_count, components)))
        mode = eigenpairs(op, 3)[2].eigenfield.values
        eigen = Field(geom, mode * np.array([1.0, -2.0, 0.5])[:components])

        def outputs():
            traces = [frequency_trace(evolve_cn(op, u0, grid), op) for u0 in (rough, eigen)]
            reports = [check_rigidity(traj, None, op).to_dict()
                       for traj in (evolve_cn(op, eigen, grid), evolve_exact(op, eigen, grid))]
            assert all(report["aux"]["is_eigenmode"] for report in reports)
            return [(t.I.tobytes(), t.D.tobytes(), t.U.tobytes(), t.aux) for t in traces], reports

        monkeypatch.setattr(core, "CHUNK_VALUES", 1)
        assert len(list(core.row_chunks(grid.steps + 1, geom.node_count))) == grid.steps + 1
        one_row = outputs()
        monkeypatch.setattr(core, "CHUNK_VALUES", 2**62)
        assert len(list(core.row_chunks(grid.steps + 1, 2 * geom.node_count * components))) == 1
        assert outputs() == one_row

    @staticmethod
    def _stepped_circle_flow(u0):
        op = assemble(make_circle(4096, TWO_PI))
        grid = TimeGrid(0.0, 0.01, 2**22 // 4096 - 1)
        # nothing is factored yet: the factor and the steps wait for the first read of values.
        # evolve_cn would build this smooth flow's few Krylov modes and no value stack: the
        # stepped flow it gives way to is the one traced here
        u0 = Field(op.geometry, u0(op.geometry.coords[:, 0]))
        return op, evolution._stepped(op, u0, grid, None)

    def test_stepped_trace_adds_a_few_chunks_to_its_values(self):
        op, traj = self._stepped_circle_flow(lambda x: np.sin(x) + 0.5 * np.cos(3.0 * x))
        _, peak = peak_allocated(lambda: frequency_trace(traj, op))
        assert traj.values.size >= 2**22
        assert peak < traj.values.nbytes + 4 * 8 * core.CHUNK_VALUES

    def test_eigenmode_rigidity_adds_a_few_chunks_to_its_values(self):
        op, traj = self._stepped_circle_flow(lambda x: np.sin(3.0 * x))
        report, peak = peak_allocated(lambda: check_rigidity(traj, None, op))
        assert report.aux["is_eigenmode"]
        assert traj.values.size >= 2**22
        assert peak < traj.values.nbytes + 4 * 8 * core.CHUNK_VALUES


@pytest.fixture(scope="module")
def advection(flat_circle_op):
    geom = flat_circle_op.geometry
    grid = TimeGrid(0.0, 1.0, 200)
    pert = PerturbationSpec(geom, grid, b=0.5, bound=0.5)
    u0 = Field(geom, np.sin(geom.coords[:, 0]))
    traj = evolve_perturbed(flat_circle_op, u0, grid, pert)
    return frequency_trace(traj, flat_circle_op)


class TestPerturbedChecks:
    def test_zero_bound_reduces_to_monotonicity(self, two_mode):
        # a modal trace's derivatives are exact, so the gates hold at the 1e-9 default
        _, trace = two_mode
        rep = check_general_frequency(trace, 0.0)
        assert rep.passed and rep.tolerance == 1e-9
        lower = check_general_lower_bound(trace, 0.0)
        assert lower.passed and lower.tolerance == 1e-9
        assert lower.margin == 0.0  # (log I)' - 2U
        final = check_hadamard_bound(trace, 1e-9).aux["final_margin"]
        assert abs(lower.aux["statement_margin"] - final) < 1e-12
        # the proof-final display as printed loses the factor 2 on U at C=0;
        # its margin is reported, never gated, and the gap is exactly U(a)*(b-a)
        gap = lower.aux["proof_margin"] - final
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
        # the envelope is 0 at t = a by construction, so it is taken after a
        assert rep.margin == rep.aux["envelope_margin"] > 0.0
        assert rep.location == advection.times[1]

    def test_gradient_only_location_is_that_of_the_worst_part(self):
        times = np.linspace(0.0, 1.0, 11)
        # with C == 3, U 10% below the envelope exp(4.5 t) midway makes the envelope the worst part
        U = -(1.0 + 0.1 * np.sin(np.pi * times)) * np.exp(4.5 * times)
        rep = check_gradient_only(hand_trace(times, np.exp(-2.0 * times), U, True), 3.0)
        assert rep.margin == rep.aux["envelope_margin"] < rep.aux["rate_margin"] < 0.0
        assert rep.location == times[8]
        # I far below its closed-form bound at b makes the final bound the worst part
        I = np.exp(-4.0 * times)
        rep = check_gradient_only(hand_trace(times, I, np.full(11, -1.0), True), 0.0)
        assert rep.margin == rep.aux["final_bound_margin"] < 0.0
        assert rep.location == times[-1]

    def test_advection_proof_chain(self, advection):
        rep = check_general_lower_bound(advection, 0.5)
        assert rep.passed
        # (log I)' = 2U ~ -2 vs (2 + C/2) U - 3C/2 = -3: margin ~ 1
        assert abs(rep.margin - 1.0) < 5e-3

    def test_closed_forms_beyond_the_float_range_are_vacuous(self, tmp_path):
        # int C^2 = 900 at C = 30: exp(900) is past the float range, so both closed forms
        # are vacuous (None in aux and report.json, never 1e308); the gated margin is finite
        geom = make_circle(64, TWO_PI)
        op = assemble(geom)
        grid = TimeGrid(0.0, 1.0, 200)
        pert = PerturbationSpec(geom, grid, b=0.2 * np.sin(geom.coords[:, 0])[None, :, None], bound=30.0)
        trace = frequency_trace(evolve_perturbed(op, Field(geom, np.sin(geom.coords[:, 0])), grid, pert), op)
        lower = check_general_lower_bound(trace)
        assert lower.passed and np.isfinite(lower.margin)
        assert lower.aux["statement_margin"] is None and lower.aux["proof_margin"] is None
        # at C = 1e5 the envelope U(a) exp(C^2 t / 2) and the final bound on I(b) overflow too
        gradient = check_gradient_only(trace, 1e5)
        assert gradient.passed and gradient.margin == gradient.aux["rate_margin"] > 0.0
        assert gradient.aux["envelope_margin"] is None and gradient.aux["final_bound_margin"] is None
        lower_aux, gradient_aux = (check["aux"] for check in write_report(
            tmp_path / "report.json", [lower, gradient])["checks"])
        assert lower_aux["proof_margin"] is None and gradient_aux["final_bound_margin"] is None

    def test_gradient_only_needs_flag(self, two_mode):
        _, trace = two_mode
        with pytest.raises(InvalidInputError):
            check_gradient_only(trace, 0.0)

    def test_gradient_only_zero_bound_reduction(self, flat_circle_op):
        # with C == 0 the envelope collapses to U(t) >= U(a)
        geom = flat_circle_op.geometry
        grid = TimeGrid(0.0, 1.0, 100)
        pert = PerturbationSpec(geom, grid, bound=0.0)
        x = geom.coords[:, 0]
        u0 = Field(geom, np.sin(x) + np.sin(2.0 * x))
        traj = evolve_perturbed(flat_circle_op, u0, grid, pert)
        trace = frequency_trace(traj, flat_circle_op)
        rep = check_gradient_only(trace, 0.0)
        assert rep.passed
        assert abs(rep.aux["envelope_margin"] - (trace.U[1:].min() - trace.U[0])) < 1e-12

    def test_gradient_only_needs_negative_start(self, weighted_circle_op):
        one = Field.constant(weighted_circle_op.geometry)
        geom = weighted_circle_op.geometry
        grid = TimeGrid(0.0, 1.0, 20)
        pert = PerturbationSpec(geom, grid, bound=0.0)
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
        with pytest.raises(InvalidInputError, match="not finite"):
            default_tolerance(trace, np.inf)
        # the one rule is every check's default, perturbed checks included
        for check in (check_general_frequency, check_general_lower_bound):
            assert check(trace, 0.0).tolerance == default_tolerance(trace)
            assert check(spectral_trace, 0.0).tolerance == 1e-9

    def test_bound_forms_agree(self, advection):
        constant = check_general_frequency(advection, 0.5)
        forms = (np.full(advection.samples, 0.5), np.float64(0.5), [0.5])
        for form in forms:
            assert check_general_frequency(advection, form).to_dict() == constant.to_dict()
        assert check_general_frequency(advection).margin == constant.margin  # certificate
        bad_forms = (np.inf, np.full(advection.samples, np.nan),
                     np.full(advection.samples + 1, 0.5), lambda t: 0.5)
        for bad in bad_forms:
            with pytest.raises(InvalidInputError):
                check_general_frequency(advection, bad)

    @pytest.mark.parametrize(
        "check", [check_general_frequency, check_general_lower_bound, check_gradient_only]
    )
    def test_negative_bound_rejected(self, advection, check):
        # only C^2 enters some gates, so a negative C used to pass them
        dip = np.full(advection.samples, 0.5)
        dip[7] = -0.5
        for bad in (-5.0, dip):
            with pytest.raises(InvalidInputError, match="nonnegative"):
                check(advection, bad)
        # the certificate's slack: a C of -1e-13 is C = 0 up to round-off, and accepted
        assert check(advection, -1e-13).passed == check(advection, 0.0).passed
