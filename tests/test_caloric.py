import math

import numpy as np
import pytest

from parafreq import (
    CovSolution,
    TimeGrid,
    assemble,
    check_cov_residual,
    check_poon_convexity,
    check_poon_correspondence,
    check_u_monotone,
    frequency_trace,
    gauss_weighted_norm2,
    make_gauss_line,
    make_oracle,
    poon_h,
    sample_grid,
    trajectory_from_cov,
)
from parafreq.caloric import _gh_points
from parafreq.errors import InvalidInputError

S_GRID = np.linspace(0.2, 3.0, 21)


def oracle_set():
    return {
        "linear": make_oracle("linear", 1),
        "caloric-quadratic": make_oracle("caloric-quadratic", 1),
        "static-square": make_oracle(
            "custom-polynomial", 1, {"coeffs": [0.0, 0.0, 1.0], "complete": False}
        ),
        "cubic": make_oracle("custom-polynomial", 1, {"coeffs": [0.0, 0.0, 0.0, 1.0]}),
        "heat-kernel": make_oracle("heat-kernel", 1),
    }


class TestOracles:
    def test_linear_is_caloric(self):
        oracle = make_oracle("linear", 1)
        x = np.linspace(-3.0, 3.0, 11)[:, None]
        assert np.max(np.abs(oracle.residual(x, -0.5))) == 0.0
        assert np.max(np.abs(oracle.u(x, -0.5) - x[:, 0])) == 0.0

    def test_quadratic_is_caloric(self):
        oracle = make_oracle("caloric-quadratic", 1)
        x = np.linspace(-3.0, 3.0, 11)[:, None]
        assert np.max(np.abs(oracle.residual(x, -0.7))) < 1e-12
        assert np.max(np.abs(oracle.u(x, -0.7) - (x[:, 0] ** 2 - 1.4))) < 1e-12

    def test_cubic_completion(self):
        # caloric completion of x^3 is x^3 + 6 x t
        oracle = make_oracle("custom-polynomial", 1, {"coeffs": [0, 0, 0, 1]})
        x = np.linspace(-2.0, 2.0, 9)[:, None]
        t = -0.3
        expected = x[:, 0] ** 3 + 6.0 * x[:, 0] * t
        assert np.max(np.abs(oracle.u(x, t) - expected)) < 1e-12
        assert np.max(np.abs(oracle.residual(x, t))) < 1e-12
        assert oracle.caloric

    def test_static_square_is_not_caloric(self):
        oracle = make_oracle("custom-polynomial", 1, {"coeffs": [0, 0, 1], "complete": False})
        x = np.array([[1.0]])
        assert not oracle.caloric
        assert abs(oracle.residual(x, -1.0)[0] + 2.0) < 1e-14

    def test_heat_kernel_is_caloric(self):
        oracle = make_oracle("heat-kernel", 1)
        x = np.linspace(-3.0, 3.0, 13)[:, None]
        for t in (-0.9, -0.5, -0.05):
            assert np.max(np.abs(oracle.residual(x, t))) < 1e-12

    def test_heat_kernel_time_domain(self):
        oracle = make_oracle("heat-kernel", 1)
        with pytest.raises(InvalidInputError):
            oracle.u(np.array([[0.0]]), -1.5)

    def test_finite_difference_consistency(self):
        # independent cross-check of the hand-coded derivatives
        oracle = make_oracle("heat-kernel", 1)
        x = np.linspace(-2.0, 2.0, 7)[:, None]
        t, eps = -0.3, 1e-6
        fd_t = (oracle.u(x, t + eps) - oracle.u(x, t - eps)) / (2.0 * eps)
        assert np.max(np.abs(fd_t - oracle.u_t(x, t))) < 1e-8
        fd_x = (oracle.u(x + eps, t) - oracle.u(x - eps, t)) / (2.0 * eps)
        assert np.max(np.abs(fd_x - oracle.grad(x, t)[:, 0])) < 1e-8
        fd_xx = (
            oracle.u(x + eps, t) - 2.0 * oracle.u(x, t) + oracle.u(x - eps, t)
        ) / eps**2
        assert np.max(np.abs(fd_xx - oracle.lap(x, t))) < 1e-4

    def test_two_dimensional_polynomial(self):
        # p = x^2 y completes to x^2 y + 2 y t
        oracle = make_oracle("custom-polynomial", 2, {"coeffs": [[0, 0], [0, 0], [0, 1]]})
        pts = np.array([[1.5, -2.0], [0.3, 0.7]])
        t = -0.4
        expected = pts[:, 0] ** 2 * pts[:, 1] + 2.0 * pts[:, 1] * t
        assert np.max(np.abs(oracle.u(pts, t) - expected)) < 1e-12
        assert np.max(np.abs(oracle.residual(pts, t))) < 1e-12

    @pytest.mark.parametrize("complete", [True, False])
    def test_polynomial_in_x_alone_matches_one_dimension(self, complete):
        coeffs = [0.5, -1.0, 2.0, 0.0, 0.25]
        params = {"coeffs": coeffs, "complete": complete}
        line = make_oracle("custom-polynomial", 1, params)
        plane = make_oracle(
            "custom-polynomial", 2, dict(params, coeffs=[[c] for c in coeffs])
        )
        pts = np.array([[1.5, -2.0], [0.3, 0.7], [-1.1, 4.0]])
        for t in (-0.4, np.array([-0.1, -0.5, -2.0])):
            for name in ("u", "u_t", "lap"):
                expected = getattr(line, name)(pts[:, :1], t)
                assert np.array_equal(getattr(plane, name)(pts, t), expected)
            grad = plane.grad(pts, t)
            assert np.array_equal(grad[:, :1], line.grad(pts[:, :1], t))
            assert not grad[:, 1].any()
        assert plane.caloric == line.caloric == complete

    def test_harmonic_polynomial_is_caloric(self):
        # x^2 - y^2 and a linear 1D polynomial padded with zeros have lap == 0
        saddle = {"coeffs": [[0, 0, -1], [0, 0, 0], [1, 0, 0]], "complete": False}
        assert make_oracle("custom-polynomial", 2, saddle).caloric
        padded = {"coeffs": [1, 2, 0, 0], "complete": False}
        assert make_oracle("custom-polynomial", 1, padded).caloric

    def test_polynomial_needs_one_axis_per_coordinate(self):
        with pytest.raises(InvalidInputError):
            make_oracle("custom-polynomial", 1, {"coeffs": [[1.0, 2.0], [3.0, 4.0]]})

    def test_unsupported_kind(self):
        with pytest.raises(InvalidInputError):
            make_oracle("wavelet", 1)

    @pytest.mark.parametrize(
        ("kind", "params"),
        [("constant", {"value": 2.0}), ("linear", {"coeffs": [2.0]}), ("linear", {"offset": 1.0}),
         ("caloric-quadratic", {"complete": False}), ("heat-kernel", {"time_offset": 2.0}),
         ("custom-polynomial", {"coeffs": [1.0], "value": 1.0})],
    )
    def test_params_the_kind_does_not_take_are_rejected(self, kind, params):
        with pytest.raises(InvalidInputError, match="takes no parameter"):
            make_oracle(kind, 1, params)

    def test_unsupported_dimension(self):
        with pytest.raises(InvalidInputError):
            make_oracle("constant", 3)


class TestChangeOfVariables:
    def test_linear_substitution(self):
        cov = CovSolution(make_oracle("linear", 1))
        x = np.array([[1.5]])
        s = np.array([0.7])
        assert abs(cov.w(x, s)[0] - np.exp(-0.35) * 1.5) < 1e-14

    def test_quadratic_substitution(self):
        cov = CovSolution(make_oracle("caloric-quadratic", 1))
        x = np.array([[1.5]])
        s = np.array([0.7])
        expected = np.exp(-0.7) * 1.5**2 - 2.0 * np.exp(-0.7)
        assert abs(cov.w(x, s)[0] - expected) < 1e-14

    def test_kernel_matches_pointwise_substitution(self):
        oracle = make_oracle("heat-kernel", 1)
        cov = CovSolution(oracle)
        x, s = sample_grid(1)
        direct = oracle.u(x * np.exp(-s / 2.0)[:, None], -np.exp(-s))
        assert np.max(np.abs(cov.w(x, s) - direct)) < 1e-12

    def test_static_square_hand_values(self):
        # d_s w = -e^{-s} x^2, L w = 2 e^{-s} - x^2 e^{-s}, both sides -2 e^{-s}
        cov = CovSolution(
            make_oracle("custom-polynomial", 1, {"coeffs": [0, 0, 1], "complete": False})
        )
        x = np.array([[1.2]])
        s = np.array([0.9])
        assert abs(cov.ds_w(x, s)[0] + np.exp(-0.9) * 1.44) < 1e-14
        lw = cov.lap_w(x, s)[0] - 0.5 * 1.2 * cov.grad_w(x, s)[0, 0]
        assert abs(lw - (2.0 * np.exp(-0.9) - 1.44 * np.exp(-0.9))) < 1e-14
        assert abs(cov.heat_defect_rhs(x, s)[0] + 2.0 * np.exp(-0.9)) < 1e-14

    @pytest.mark.parametrize("name", list(oracle_set().keys()))
    def test_residual_identity(self, name):
        oracle = oracle_set()[name]
        rep = check_cov_residual(CovSolution(oracle), sample_grid(1), 1e-10)
        assert rep.passed, rep.aux

    def test_ds_w_matches_finite_difference(self):
        cov = CovSolution(make_oracle("heat-kernel", 1))
        x = np.linspace(-2.0, 2.0, 7)[:, None]
        s = np.full(7, 1.1)
        eps = 1e-6
        fd = (cov.w(x, s + eps) - cov.w(x, s - eps)) / (2.0 * eps)
        assert np.max(np.abs(fd - cov.ds_w(x, s))) < 1e-8

    def test_residual_identity_for_arbitrary_polynomials(self):
        # the identity is algebraic: caloric or not, completed or not
        rng = np.random.default_rng(31)
        points = sample_grid(1)
        for _ in range(20):
            coeffs = rng.uniform(-2.0, 2.0, rng.integers(2, 7))
            complete = bool(rng.integers(0, 2))
            oracle = make_oracle(
                "custom-polynomial", 1, {"coeffs": coeffs, "complete": complete}
            )
            rep = check_cov_residual(CovSolution(oracle), points, 1e-10)
            assert rep.passed, (coeffs, complete, rep.aux)


    def test_a_gap_beyond_the_tolerance_fails(self):
        # the margin is minus the gap, so a gap of 1.5 tol fails
        cov = CovSolution(make_oracle("caloric-quadratic", 1))
        gap = check_cov_residual(cov, sample_grid(1), 1e-10).aux["max_gap"]
        assert gap > 0.0
        rep = check_cov_residual(cov, sample_grid(1), 2.0 * gap / 3.0)
        assert not rep.passed
        assert rep.margin == -gap


class TestPoonFrequency:
    def test_constant_normalization(self):
        oracle = make_oracle("constant", 1)
        for radius in (0.3, 1.0, 4.2):
            assert abs(poon_h(oracle, radius) - 1.0) < 1e-13

    def test_linear_closed_form(self):
        oracle = make_oracle("linear", 1)
        for radius in (0.5, 1.0, 2.0):
            assert abs(poon_h(oracle, radius) - 2.0 * radius**2) < 1e-12 * radius**2

    def test_quadratic_closed_form(self):
        # H(R) = 8 R^4 for u = x^2 + 2t (Gaussian fourth-moment computation)
        oracle = make_oracle("caloric-quadratic", 1)
        for radius in (0.5, 1.3):
            assert abs(poon_h(oracle, radius) - 8.0 * radius**4) < 1e-12

    def test_kernel_against_trapezoid_oracle(self):
        oracle = make_oracle("heat-kernel", 1)
        radius = 0.6
        y = np.linspace(-30.0, 30.0, 200001)
        integrand = oracle.u(y[:, None], -(radius**2)) ** 2 * np.exp(
            -(y**2) / (4.0 * radius**2)
        )
        trapezoid = np.trapezoid(integrand, y) * (4.0 * np.pi * radius**2) ** -0.5
        assert abs(poon_h(oracle, radius) / trapezoid - 1.0) < 1e-8

    def test_degree_exactness(self):
        # order nodes integrate y^k e^{-y^2} exactly for k <= 2 order - 1: to Gamma((k+1)/2),
        # or 0 for odd k; the 2D rule is the tensor product of the 1D one
        for order in (4, 8, 64):
            k = np.arange(2 * order)
            moments = np.where(k % 2, 0.0, [math.gamma((j + 1) / 2) for j in k])
            points, weights = _gh_points(order, 1)
            terms = weights[:, None] * points**k
            # relative to the sum of |terms|, the scale of the summation's rounding
            gap = np.abs(terms.sum(axis=0) - moments)
            assert np.all(gap < 1e-13 * np.abs(terms).sum(axis=0)), order
            points2, weights2 = _gh_points(order, 2)
            y = points[:, 0]
            assert np.array_equal(weights2, np.outer(weights, weights).ravel())
            tensor = np.column_stack([np.repeat(y, order), np.tile(y, order)])
            assert np.array_equal(points2, tensor)

    @pytest.mark.parametrize("n", [1, 2])
    def test_quadrature_nodes_are_cached_read_only(self, n):
        points, weights = _gh_points(64, n)
        assert _gh_points(64, n)[0] is points
        assert points.shape == (64**n, n) and weights.shape == (64**n,)
        assert not points.flags.writeable and not weights.flags.writeable

    def test_invalid_radius(self):
        with pytest.raises(InvalidInputError):
            poon_h(make_oracle("constant", 1), 0.0)

    def test_kernel_radius_outside_domain(self):
        with pytest.raises(InvalidInputError):
            poon_h(make_oracle("heat-kernel", 1), 1.1)


class TestPoonChecks:
    def test_constant_flat(self):
        rep = check_poon_convexity(make_oracle("constant", 1), S_GRID, 1e-8)
        assert rep.passed
        assert abs(rep.aux["min_second_difference"]) < 1e-12

    def test_linear_affine(self):
        # log H(e^{s/2}) = log 2 + s
        oracle = make_oracle("linear", 1)
        values = [poon_h(oracle, np.exp(s / 2.0)) for s in S_GRID]
        expected = np.log(2.0) + S_GRID
        assert np.max(np.abs(np.log(values) - expected)) < 1e-12
        rep = check_poon_convexity(oracle, S_GRID, 1e-8)
        assert rep.passed

    def test_two_caloric_modes_strictly_convex(self):
        oracle = make_oracle("custom-polynomial", 1, {"coeffs": [0.0, 1.0, 1.0]})
        rep = check_poon_convexity(oracle, S_GRID, 1e-8)
        assert rep.passed
        assert rep.aux["min_second_difference"] > 1e-5

    def test_mirrored_parameterization_also_convex(self):
        rep = check_poon_convexity(make_oracle("linear", 1), S_GRID, 1e-8)
        assert rep.aux["mirrored_min_second_difference"] > -1e-12

    @pytest.mark.parametrize("name", ["constant", "linear", "caloric-quadratic"])
    def test_correspondence_ratio(self, name):
        rep = check_poon_correspondence(make_oracle(name, 1), S_GRID, 1e-8)
        assert rep.passed
        expected = np.sqrt(4.0 * np.pi)
        assert abs(rep.aux["expected_ratio"] - expected) < 1e-14
        assert abs(rep.aux["ratio_min"] - expected) < 1e-8
        assert abs(rep.aux["ratio_max"] - expected) < 1e-8

    def test_correspondence_hand_values(self):
        # u = x: I_w(s) = 4 sqrt(pi) e^{-s} and H(e^{-s/2}) = 2 e^{-s}
        cov = CovSolution(make_oracle("linear", 1))
        for s in (0.0, 0.8):
            assert abs(gauss_weighted_norm2(cov, s) - 4.0 * np.sqrt(np.pi) * np.exp(-s)) < 1e-12
        assert abs(poon_h(make_oracle("linear", 1), np.exp(-0.4)) - 2.0 * np.exp(-0.8)) < 1e-13

    def test_mismatched_convention_is_reported_not_gated(self):
        # against H(e^{+s/2}) the ratio varies with s: visible in aux
        rep = check_poon_correspondence(make_oracle("linear", 1), S_GRID, 1e-8)
        assert rep.aux["mismatched_ratio_max"] / rep.aux["mismatched_ratio_min"] > 2.0

    def test_correspondence_2d(self):
        rep = check_poon_correspondence(
            make_oracle("caloric-quadratic", 2), np.linspace(0.2, 2.0, 7), 1e-8
        )
        assert rep.passed
        assert abs(rep.aux["expected_ratio"] - 4.0 * np.pi) < 1e-12


    def test_a_deviation_beyond_the_tolerance_fails(self):
        # the margin is minus the worst relative deviation of the ratio, so 1.5 tol fails
        oracle = make_oracle("caloric-quadratic", 1)
        aux = check_poon_correspondence(oracle, S_GRID, 1e-8).aux
        gap = max(abs(aux[key] / aux["expected_ratio"] - 1.0) for key in ("ratio_min", "ratio_max"))
        assert gap > 0.0
        rep = check_poon_correspondence(oracle, S_GRID, 2.0 * gap / 3.0)
        assert not rep.passed
        assert rep.margin == -gap


class TestDriftFlowLink:
    def test_caloric_flows_have_monotone_frequency(self):
        geometry = make_gauss_line(48)
        grid = TimeGrid(0.3, 2.3, 80)
        for name in ("linear", "caloric-quadratic", "cubic"):
            traj = trajectory_from_cov(CovSolution(oracle_set()[name]), geometry, grid)
            trace = frequency_trace(traj, assemble(geometry))
            assert check_u_monotone(trace, 1e-9).passed, name

    def test_polynomial_flows_sit_on_eigenmodes(self):
        # degree-k caloric data decays at the k-th drift eigenvalue -k/2
        geometry = make_gauss_line(48)
        grid = TimeGrid(0.3, 2.3, 40)
        rates = {"linear": -0.5, "caloric-quadratic": -1.0, "cubic": -1.5}
        for name, rate in rates.items():
            traj = trajectory_from_cov(CovSolution(oracle_set()[name]), geometry, grid)
            trace = frequency_trace(traj, assemble(geometry))
            assert np.max(np.abs(trace.U - rate)) < 1e-10, name

    def test_kernel_flow_monotone_within_quadrature_budget(self):
        geometry = make_gauss_line(48)
        grid = TimeGrid(0.3, 2.3, 80)
        traj = trajectory_from_cov(
            CovSolution(oracle_set()["heat-kernel"]), geometry, grid
        )
        trace = frequency_trace(traj, assemble(geometry))
        assert check_u_monotone(trace, 1e-9).passed

    def test_requires_gauss_line(self, flat_circle):
        cov = CovSolution(make_oracle("linear", 1))
        with pytest.raises(InvalidInputError):
            trajectory_from_cov(cov, flat_circle, TimeGrid(0.0, 1.0, 4))
