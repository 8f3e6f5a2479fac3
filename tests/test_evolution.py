import dataclasses
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.integrate
import scipy.linalg
import scipy.sparse.linalg

from parafreq import (
    DriftOperator,
    Field,
    PerturbationSpec,
    TimeGrid,
    Trajectory,
    assemble,
    check_rigidity,
    evolve_cn,
    evolve_exact,
    evolve_perturbed,
    frequency_trace,
    gauge_transform,
    eigenpairs,
    make_circle,
    make_gauss_line,
    make_torus,
    weighted_norm,
)
from parafreq import core, evolution, suite
from parafreq.config import build_geometry
from parafreq.errors import (
    CertificationFailureError,
    DegenerateInputError,
    InvalidInputError,
    NumericalFailureError,
)
from parafreq.evolution import _in_blocks, project_flows
from parafreq.suite import SuiteContext
from parafreq.sampling import random_smooth_field

from conftest import dense_operator, peak_allocated

TWO_PI = 2.0 * np.pi


@pytest.fixture(scope="module")
def steep_circle():
    """A circle of weight phi = 20 cos(x + 1): mu spans 17 decades."""
    base = make_circle(128, TWO_PI)
    return make_circle(128, TWO_PI, 20.0 * np.cos(base.coords[:, 0] + 1.0))


def mu_distance(geometry, a, b):
    """The mu-distance of two samples' (nodes, N) values."""
    return weighted_norm(Field(geometry, a - b))


def sq_norms(traj) -> np.ndarray:
    """``|u(t)|_mu^2`` at every sample of a trajectory."""
    return np.einsum("snc,n,snc->s", traj.values, traj.geometry.mu, traj.values)


class TestSpectralEvolution:
    def test_initial_sample_is_exact(self, flat_circle_op):
        geom = flat_circle_op.geometry
        u0 = Field(geom, np.sin(geom.coords[:, 0]))
        traj = evolve_exact(flat_circle_op, u0, TimeGrid(0.0, 1.0, 1))
        assert np.max(np.abs(traj.values[0] - u0.values)) < 1e-12

    def test_eigenmode_decays_at_its_rate(self, flat_circle_op):
        pair = eigenpairs(flat_circle_op, 2)[1]
        grid = TimeGrid(0.0, 1.0, 50)
        traj = evolve_exact(flat_circle_op, pair.eigenfield, grid)
        for k, t in enumerate(grid.times):
            expected = np.exp(pair.eigenvalue * t) * pair.eigenfield.values
            gap = mu_distance(traj.geometry, traj.values[k], expected)
            assert gap < 1e-10

    def test_two_mode_norm_closed_form(self, flat_circle_op):
        # discrete rates from the dispersion relation, independent of eigh
        geom = flat_circle_op.geometry
        h = TWO_PI / 128
        rate = lambda k: -4.0 * np.sin(k * h / 2.0) ** 2 / h**2
        x = geom.coords[:, 0]
        u0 = Field(geom, np.sin(x) + np.sin(2.0 * x))
        grid = TimeGrid(0.0, 1.0, 100)
        traj = evolve_exact(flat_circle_op, u0, grid)
        t = grid.times
        expected = np.pi * (np.exp(2.0 * rate(1) * t) + np.exp(2.0 * rate(2) * t))
        assert np.max(np.abs(sq_norms(traj) / expected - 1.0)) < 1e-8

    def test_semigroup_property(self, weighted_circle_op):
        geom = weighted_circle_op.geometry
        rng = np.random.default_rng(11)
        u0 = Field(geom, rng.standard_normal(geom.node_count))
        full = evolve_exact(weighted_circle_op, u0, TimeGrid(0.0, 1.0, 10))
        first = evolve_exact(weighted_circle_op, u0, TimeGrid(0.0, 0.5, 5))
        second = evolve_exact(
            weighted_circle_op, Field(geom, first.values[-1]), TimeGrid(0.5, 1.0, 5)
        )
        assert mu_distance(geom, full.values[-1], second.values[-1]) < 1e-10

    def test_energy_dissipation(self, conformal_torus_op):
        geom = conformal_torus_op.geometry
        rng = np.random.default_rng(12)
        u0 = Field(geom, rng.standard_normal(geom.node_count))
        traj = evolve_exact(conformal_torus_op, u0, TimeGrid(0.0, 0.5, 40))
        norms = sq_norms(traj)
        assert np.all(norms[1:] <= norms[:-1] * (1.0 + 1e-12))

    def test_zero_initial_field_rejected(self, flat_circle_op):
        zero = Field.constant(flat_circle_op.geometry, 0.0)
        with pytest.raises(DegenerateInputError):
            evolve_exact(flat_circle_op, zero, TimeGrid(0.0, 1.0, 4))

    @pytest.mark.parametrize("path", ["dense", "krylov"])
    def test_componentwise_decoupling(self, request, weighted_circle_op, path):
        geom = weighted_circle_op.geometry
        if path == "dense":
            op = weighted_circle_op
        else:
            request.getfixturevalue("krylov_only")
            op = assemble(geom)
        rng = np.random.default_rng(13)
        values = rng.standard_normal((geom.node_count, 2))
        grid = TimeGrid(0.0, 0.3, 12)
        both = evolve_exact(op, Field(geom, values), grid)
        parts = [evolve_exact(op, Field(geom, values[:, j]), grid) for j in range(2)]
        assert ("eigensystem" in vars(op)) == (path == "dense")
        for j in range(2):
            assert np.max(np.abs(both.values[:, :, j] - parts[j].values[:, :, 0])) < 1e-12

    @pytest.mark.parametrize("components", [1, 2])
    def test_batched_samples_match_per_sample_formula(self, conformal_torus_op, components):
        geom = conformal_torus_op.geometry
        rng = np.random.default_rng(16)
        u0 = Field(geom, rng.standard_normal((geom.node_count, components)))
        grid = TimeGrid(0.2, 0.7, 15)
        traj = evolve_exact(conformal_torus_op, u0, grid)
        vals, vecs = conformal_torus_op.eigensystem
        coeffs = vecs.T @ (geom.mu[:, None] * u0.values)
        scale = np.max(np.abs(u0.values))
        assert traj.values.shape == (grid.steps + 1, geom.node_count, components)
        for sample, t in zip(traj.values, grid.times):
            expected = vecs @ (np.exp(vals * (t - grid.a))[:, None] * coeffs)
            assert np.max(np.abs(sample - expected)) <= 1e-13 * scale

    def test_trace_d_expressions_agree_on_conformal_torus(self, conformal_torus_op):
        geom = conformal_torus_op.geometry
        rng = np.random.default_rng(17)
        u0 = Field(geom, rng.standard_normal((geom.node_count, 2)))
        traj = evolve_exact(conformal_torus_op, u0, TimeGrid(0.0, 0.5, 20))
        trace = frequency_trace(traj, conformal_torus_op)
        assert trace.aux["d_expression_gap"] <= 1e-12


    def test_values_are_built_from_modal_data_on_first_access(self, weighted_circle_op):
        geom = weighted_circle_op.geometry
        vals, vecs = weighted_circle_op.eigensystem  # the dense path: the eigensystem is computed
        u0 = Field(geom, np.random.default_rng(18).standard_normal((geom.node_count, 2)))
        grid = TimeGrid(0.0, 0.4, 8)
        traj = evolve_exact(weighted_circle_op, u0, grid)
        modal = traj.modal
        assert "values" not in vars(traj)
        assert modal.initial is u0.values
        assert modal.rates is vals and modal.vectors is vecs
        assert np.array_equal(modal.coeffs, vecs.T @ (geom.mu[:, None] * u0.values))
        values = traj.values
        assert traj.values is values
        assert not values.flags.writeable
        assert np.array_equal(values, modal.sample(grid.times - grid.a))
        assert values.shape == (grid.steps + 1, geom.node_count, 2)


class TestKrylovFlows:
    """Spectral flows on an operator without its dense eigensystem."""

    def test_krylov_values_are_built_from_modal_data_on_first_access(self, weighted_circle, krylov_only):
        op = assemble(weighted_circle)
        geom, mu = op.geometry, weighted_circle.mu
        u0 = Field(geom, np.random.default_rng(18).standard_normal((geom.node_count, 2)))
        grid = TimeGrid(0.0, 0.4, 8)
        traj = evolve_exact(op, u0, grid)
        modal = traj.modal
        assert "eigensystem" not in vars(op)
        assert "values" not in vars(traj)
        assert modal.initial is u0.values
        k = modal.rates.size
        assert modal.vectors.shape == (geom.node_count, k) and modal.coeffs.shape == (k, 2)
        assert np.all(modal.rates <= 1e-12)
        # one Lanczos run per component: each mode carries one column's coefficient
        assert np.all(np.count_nonzero(modal.coeffs, axis=1) <= 1)
        for j in range(2):
            alone = evolve_exact(op, Field(geom, u0.values[:, j]), grid).modal
            vectors = alone.vectors
            gram = vectors.T @ (mu[:, None] * vectors)
            assert np.max(np.abs(gram - np.eye(alone.rates.size))) <= 1e-13
            projection = vectors.T @ (mu * u0.values[:, j])
            assert np.max(np.abs(alone.coeffs[:, 0] - projection)) <= 1e-12
        values = traj.values
        assert traj.values is values
        assert not values.flags.writeable
        assert np.array_equal(values, modal.sample(grid.times - grid.a))
        assert np.max(np.abs(values[0] - u0.values)) <= 1e-12 * np.max(np.abs(u0.values))

    def test_a_flow_without_the_eigensystem_leaves_it_uncomputed(self, weighted_circle):
        op = assemble(weighted_circle)
        u0 = Field(op.geometry, np.sin(op.geometry.coords[:, 0]) + 0.2)
        traj = evolve_exact(op, u0, TimeGrid(0.0, 1.0, 20))
        frequency_trace(traj, op)
        traj.values
        assert "eigensystem" not in vars(op)
        # the Krylov basis solves with the factor of I - gamma S at its window's shift (b - a)/8
        assert list(op._factor) == [0.125]
        # a step at the Krylov shift reuses the Krylov factor
        krylov = op._factor[0.125]
        evolve_cn(op, u0, TimeGrid(0.0, 1.0, 4)).values
        assert list(op._factor) == [0.125] and op._factor[0.125] is krylov
        # a stepped flow at another step size factors I - gamma S at its own shift dt/2,
        # which replaces the Krylov factor
        evolve_cn(op, u0, TimeGrid(0.0, 1.0, 20)).values
        assert list(op._factor) == [0.025]

    def test_repeated_krylov_flows_factor_once(self, weighted_circle, monkeypatch):
        calls = []
        splu = scipy.sparse.linalg.splu

        def counting(*args, **kwargs):
            calls.append(args[0].shape)
            return splu(*args, **kwargs)

        monkeypatch.setattr(scipy.sparse.linalg, "splu", counting)
        op = assemble(weighted_circle)
        x = weighted_circle.coords[:, 0]
        for data in (np.sin(x) + 0.2, np.exp(np.cos(x)), np.cos(2.0 * x) + np.sin(3.0 * x)):
            # windows of one length share the shift, wherever they start and however stepped
            for grid in (TimeGrid(0.0, 1.0, 20), TimeGrid(2.0, 3.0, 7)):
                evolve_exact(op, Field(weighted_circle, data), grid)
        assert "eigensystem" not in vars(op)
        assert len(calls) == 1 and list(op._factor) == [0.125]
        evolve_exact(op, Field(weighted_circle, np.sin(x)), TimeGrid(0.0, 2.0, 20))
        assert len(calls) == 2 and list(op._factor) == [0.25]

    def test_an_eigenvector_ends_the_run_at_one_mode(self, flat_circle):
        op = assemble(flat_circle)
        x = flat_circle.coords[:, 0]
        h = TWO_PI / 128
        traj = evolve_exact(op, Field(flat_circle, np.sin(x)), TimeGrid(0.0, 1.0, 20))
        assert traj.modal.rates.size == 1
        assert abs(traj.modal.rates[0] + 4.0 * np.sin(h / 2.0) ** 2 / h**2) <= 1e-12

    def test_dense_and_krylov_flows_agree(self, conformal_torus, krylov_only):
        dense, krylov = assemble(conformal_torus), assemble(conformal_torus)
        dense.eigensystem
        nodes = conformal_torus.node_count
        u0 = Field(conformal_torus, np.random.default_rng(22).standard_normal(nodes))
        grid = TimeGrid(0.0, 0.5, 20)
        a, b = (frequency_trace(evolve_exact(op, u0, grid), op) for op in (dense, krylov))
        assert np.max(np.abs(b.I / a.I - 1.0)) <= 1e-9
        assert np.max(np.abs(b.U / a.U - 1.0)) <= 1e-9
        assert np.max(np.abs(evolve_exact(krylov, u0, grid).values
                             - evolve_exact(dense, u0, grid).values)) <= 1e-9

    def test_data_that_needs_many_modes_takes_the_dense_path(self, weighted_circle):
        op = assemble(weighted_circle)
        nodes = weighted_circle.node_count
        rough = Field(weighted_circle, np.random.default_rng(23).standard_normal(nodes))
        grid = TimeGrid(0.0, 1.0, 50)
        traj = evolve_exact(op, rough, grid)
        # nodal noise needs more than a quarter of the modes: the eigensystem is computed and used
        vals, vecs = op.eigensystem
        assert traj.modal.rates is vals and traj.modal.vectors is vecs
        # an operator that holds it projects every later flow on it, smooth data too
        smooth = Field(weighted_circle, np.cos(weighted_circle.coords[:, 0]))
        assert evolve_exact(op, smooth, grid).modal.vectors is vecs
        fresh = assemble(weighted_circle)
        assert evolve_exact(fresh, smooth, grid).modal.rates.size <= nodes // 4
        assert "eigensystem" not in vars(fresh)

    def test_no_convergence_within_the_cap_is_a_numerical_failure(
        self, weighted_circle, monkeypatch
    ):
        op = assemble(weighted_circle)
        nodes = weighted_circle.node_count
        rough = Field(weighted_circle, np.random.default_rng(23).standard_normal(nodes))
        grid = TimeGrid(0.0, 1.0, 50)
        # a cap of 16 modes: nodal noise on 128 nodes needs more
        monkeypatch.setattr(evolution, "MAX_VALUES", 16 * weighted_circle.node_count)
        with pytest.raises(NumericalFailureError, match="did not converge within 16 modes"):
            evolve_exact(op, rough, grid)
        # smooth data converges within the same cap
        smooth = Field(weighted_circle, np.cos(weighted_circle.coords[:, 0]))
        assert evolve_exact(op, smooth, grid).modal.rates.size <= 16

    def test_the_semigroup_run_does_not_read_the_step(self, weighted_circle, monkeypatch):
        # a semigroup run's agreement test takes exp(2 rates s), _modal_factors with no step, and
        # its modes are the same bits whatever the grid's step; a trapezoid run of the same
        # size is the same Lanczos run, which its step only stops
        steps_seen = []
        factors = evolution._modal_factors

        def recorded(rates, offsets, step=None, power=1):
            steps_seen.append(step)
            return factors(rates, offsets, step, power)

        monkeypatch.setattr(evolution, "_modal_factors", recorded)
        x = weighted_circle.coords[:, 0]
        u = np.exp(np.cos(x)) + 0.3 * np.sin(2.0 * x)

        def run(grid, step=None):
            op = assemble(weighted_circle)
            return evolution._lanczos(op, u, grid, step)

        runs = [run(TimeGrid(0.0, 1.0, steps)) for steps in (20, 50, 400)]
        assert steps_seen and set(steps_seen) == {None}
        grid = TimeGrid(0.0, 1.0, 400)
        trapezoid = run(grid, grid.dt)
        for run in (*runs[1:], trapezoid):
            assert run[0].size == 16
            for got, want in zip(run, runs[0], strict=True):
                assert np.array_equal(got, want)

    def test_gauss_line_rates_are_exact(self, krylov_only):
        # mu spans 47 decades at order 64: plain solves with I - gamma L put the rates
        # 1e-2 off -k/2, while I - gamma S is well scaled
        gauss = make_gauss_line(64)
        op = assemble(gauss)
        u0 = Field(gauss, np.random.default_rng(22).standard_normal(64))
        rates = evolve_exact(op, u0, TimeGrid(0.0, 2.0, 40)).modal.rates
        # a basis of every node: the Ritz rates are the spectrum 0, -1/2, ..., -63/2
        assert rates.size == 64
        assert np.max(np.abs(np.sort(rates)[::-1] + 0.5 * np.arange(64))) <= 1e-12

    def test_high_order_gauss_line_keeps_the_expressions_of_D(self, krylov_only):
        gauss = make_gauss_line(256)
        op = assemble(gauss)
        u0 = Field(gauss, np.random.default_rng(22).standard_normal(256))
        trace = frequency_trace(evolve_exact(op, u0, TimeGrid(0.0, 1.0, 40)), op)
        assert "eigensystem" not in vars(op)
        assert trace.aux["d_expression_gap"] <= 1e-12

    @pytest.mark.parametrize("order", [64, 256, 370])
    def test_gauss_line_flows_over_a_long_window_match_the_basis_projection(self, krylov_only,
                                                                            order):
        # over [0, 1e4] solves with I - gamma L, even refined, left the gap at 2.1e-8
        # (order 256), 2.9e-9 (order 370) and 3.7e-10 (order 64)
        gauss = make_gauss_line(order)
        op = assemble(gauss)
        u0 = Field(gauss, np.random.default_rng(22).standard_normal(order))
        grid = TimeGrid(0.0, 1e4, 40)
        trace = frequency_trace(evolve_exact(op, u0, grid), op)
        assert "eigensystem" not in vars(op)
        assert trace.aux["d_expression_gap"] <= 1e-10
        # the exact flow: u0's coefficients in the eigenbasis B decay at the rates -k/2
        coeffs = gauss.basis.basis.T @ (gauss.mu * u0.values[:, 0])
        rates = -0.5 * np.arange(order)
        growth = np.exp(2.0 * np.outer(grid.times, rates))
        U = (growth @ (rates * coeffs**2)) / (growth @ coeffs**2)
        assert np.max(np.abs(trace.U - U)) <= 1e-10 * (1.0 + np.max(np.abs(U)))

    @pytest.mark.parametrize("data", ["noise", "smooth"])
    @pytest.mark.parametrize("geometry", ["weighted_circle", "conformal_torus", "steep_circle"])
    def test_plain_solves_match_the_dense_path(self, request, krylov_only, geometry, data):
        # steep_circle's mu spans 17 decades, where plain solves with I - gamma L lose digits
        geom = request.getfixturevalue(geometry)
        x = geom.coords[:, 0]
        if data == "noise":
            u0 = Field(geom, np.random.default_rng(24).standard_normal(geom.node_count))
        else:
            u0 = Field(geom, np.exp(np.cos(x)) + np.sin(3.0 * x))
        grid = TimeGrid(0.0, 1.0, 40)
        dense = dense_operator(geom)
        expected = frequency_trace(evolve_exact(dense, u0, grid), dense)
        op = assemble(geom)
        trace = frequency_trace(evolve_exact(op, u0, grid), op)
        assert "eigensystem" not in vars(op)
        assert np.max(np.abs(trace.I / expected.I - 1.0)) <= 1e-12
        u_scale = 1.0 + np.max(np.abs(expected.U))
        assert np.max(np.abs(trace.U - expected.U)) <= 1e-12 * u_scale

    @pytest.mark.parametrize("window", [(0.01, 2000), (10.0, 4)])
    def test_small_and_long_windows_stay_on_krylov_modes(self, window):
        # under the step's shift dt/2 the small window needed every mode and took the
        # dense path
        base = make_circle(1024, TWO_PI)
        geom = make_circle(1024, TWO_PI, np.cos(base.coords[:, 0]))
        x = geom.coords[:, 0]
        u0 = Field(geom, np.exp(np.cos(x)) + np.sin(3.0 * x))
        grid = TimeGrid(0.0, *window)
        op = assemble(geom)
        traj = evolve_exact(op, u0, grid)
        trace = frequency_trace(traj, op)
        assert "eigensystem" not in vars(op)
        assert traj.modal.rates.size <= 32
        assert trace.aux["d_expression_gap"] <= 1e-12
        dense = dense_operator(geom)
        expected = frequency_trace(evolve_exact(dense, u0, grid), dense)
        assert np.max(np.abs(trace.I / expected.I - 1.0)) <= 1e-9
        u_scale = 1.0 + np.max(np.abs(expected.U))
        assert np.max(np.abs(trace.U - expected.U)) <= 1e-9 * u_scale

    def test_u_that_decays_to_zero_converges_without_the_eigensystem(self, weighted_circle):
        # data with a mean: U(10) is about -5e-11, where successive bases differ by 3e-6
        # relative (2e-16 absolute); U held to its own size there measured round-off
        # and gave way to the eigensystem
        x = weighted_circle.coords[:, 0]
        u0 = Field(weighted_circle, np.exp(np.cos(x)) + np.sin(3.0 * x))
        grid = TimeGrid(0.0, 10.0, 4)
        op = assemble(weighted_circle)
        trace = frequency_trace(evolve_exact(op, u0, grid), op)
        assert "eigensystem" not in vars(op)
        dense = dense_operator(weighted_circle)
        expected = frequency_trace(evolve_exact(dense, u0, grid), dense)
        # within a few _KRYLOV_RTOL of the dense path (1.2e-12 in I, 6e-14 in U here)
        assert np.max(np.abs(trace.I / expected.I - 1.0)) <= 1e-11
        u_scale = 1.0 + np.max(np.abs(expected.U))
        assert np.max(np.abs(trace.U - expected.U)) <= 1e-11 * u_scale

    def test_an_invariant_space_ends_the_run_whatever_the_step(self):
        # three eigenmodes span an invariant space; under the step's shift dt/2 the
        # breakdown test missed it at 4095 steps and the run grew to 64 modes
        geom = make_circle(256, TWO_PI)
        x = geom.coords[:, 0]
        u0 = Field(geom, np.sin(x) + np.cos(3.0 * x) + 0.1 * np.sin(17.0 * x))
        traj = evolve_exact(assemble(geom), u0, TimeGrid(0.0, 1.0, 4095))
        assert traj.modal.rates.size == 3

    def test_sampling_k_modes_is_chunked_in_bounded_memory(self, weighted_circle, krylov_only):
        op = assemble(weighted_circle)
        geom = op.geometry
        x = geom.coords[:, 0]
        u0 = Field(geom, np.stack([np.exp(np.cos(x)), np.sin(2.0 * x) + 0.3, np.cos(x)], axis=1))
        grid = TimeGrid(0.0, 1.0, 2000)
        modal = evolve_exact(op, u0, grid).modal
        # a non-square basis: k modes on n nodes
        assert "eigensystem" not in vars(op) and modal.rates.size != geom.node_count
        offsets = grid.times - grid.a
        values, peak = peak_allocated(lambda: modal.sample(offsets))
        assert values.shape == (grid.steps + 1, geom.node_count, 3)
        # the values, plus a few blocks of at most SAMPLE_BLOCK_VALUES doubles
        assert peak <= values.nbytes + 4 * 8 * core.SAMPLE_BLOCK_VALUES
        decay = np.exp(np.outer(modal.rates, offsets))
        whole = np.einsum("nk,ks,kc->snc", modal.vectors, decay, modal.coeffs)
        assert np.max(np.abs(values - whole)) <= 1e-13 * np.max(np.abs(u0.values))


@pytest.fixture(scope="module")
def weighted_circle_512_op():
    base = make_circle(512, TWO_PI)
    return dense_operator(make_circle(512, TWO_PI, np.cos(base.coords[:, 0])))


class TestImplicitStepping:
    def test_one_factorization_per_operator_and_step(self, monkeypatch):
        calls = []
        splu = scipy.sparse.linalg.splu

        def counting(*args, **kwargs):
            calls.append(args[0].shape)
            return splu(*args, **kwargs)

        monkeypatch.setattr(scipy.sparse.linalg, "splu", counting)
        op = assemble(make_circle(32, TWO_PI))
        u0 = Field(op.geometry, np.sin(op.geometry.coords[:, 0]))
        grid = TimeGrid(0.0, 1.0, 20)
        first = evolve_cn(op, u0, grid)
        second = evolve_cn(op, u0, grid)
        zero = evolve_perturbed(op, u0, grid, PerturbationSpec(op.geometry, grid, bound=0.0))
        assert calls == [] and op._factor == {}  # nothing is factored before a step
        first.values
        assert len(calls) == 1
        assert np.array_equal(first.values, second.values)
        assert np.array_equal(first.values, zero.values)
        assert len(calls) == 1
        # a 40-step evolve_cn flow of this eigenvector would be one Krylov mode: the stepped
        # flow it gives way to is stepped here
        evolution._stepped(op, u0, TimeGrid(0.0, 1.0, 40), None).values
        assert len(calls) == 2 and list(op._factor) == [0.5 / 40]
        evolve_cn(assemble(op.geometry), u0, grid).values
        assert len(calls) == 3

    def test_stack_is_one_read_only_array(self, weighted_circle_op):
        geom = weighted_circle_op.geometry
        u0 = Field(geom, np.random.default_rng(19).standard_normal((geom.node_count, 2)))
        grid = TimeGrid(0.0, 0.5, 10)
        traj = evolve_cn(weighted_circle_op, u0, grid)
        assert traj.values.shape == (11, geom.node_count, 2)
        assert not traj.values.flags.writeable
        assert traj.modal is None
        assert np.array_equal(traj.values[0], u0.values)

    def test_constant_field_is_fixed(self, weighted_circle_op):
        one = Field.constant(weighted_circle_op.geometry)
        traj = evolve_cn(weighted_circle_op, one, TimeGrid(0.0, 1.0, 20))
        assert np.max(np.abs(traj.values[-1] - 1.0)) < 1e-12

    def test_eigenmode_richardson(self, flat_circle_op):
        # I(b)/I(a) converges to exp(2 lambda (b-a)) at second order
        pair = eigenpairs(flat_circle_op, 2)[1]
        errors = []
        for steps in (50, 100):
            traj = evolve_cn(flat_circle_op, pair.eigenfield, TimeGrid(0.0, 1.0, steps))
            ratio = sq_norms(traj)[-1]
            errors.append(abs(ratio - np.exp(2.0 * pair.eigenvalue)))
        assert errors[0] / errors[1] > 3.5

    def test_agreement_with_exact_is_second_order(self, weighted_circle_op):
        geom = weighted_circle_op.geometry
        rng = np.random.default_rng(14)
        u0 = Field(geom, np.sin(geom.coords[:, 0]) + 0.3 * rng.standard_normal())
        gaps = []
        for steps in (40, 80):
            grid = TimeGrid(0.0, 1.0, steps)
            exact = evolve_exact(weighted_circle_op, u0, grid)
            stepped = evolve_cn(weighted_circle_op, u0, grid)
            gaps.append(mu_distance(geom, exact.values[-1], stepped.values[-1]))
        assert gaps[0] / gaps[1] > 3.5

    @staticmethod
    def closed_form_case(circle_512_op, case: str):
        """(op, grid, starts, stiff): noise or smooth data on the weighted 512-node circle, or the
        first ten fields of a stepped lane of ``check all`` (the suite's weighted circle 128 or
        torus 32x32) at a seed."""
        kind, variant = case.split("/")
        if kind.startswith("suite-"):
            name, seed = kind.removeprefix("suite-"), int(variant)
            ctx = SuiteContext(seed=seed)
            op = ctx.operators[name]
            rng = suite._rng(seed, 3 if name == "circle" else 4)
            starts = [random_smooth_field(op.geometry, rng) for _ in range(10)]
            return op, ctx.window, starts, name == "circle"
        op = circle_512_op
        stiff = variant == "stiff"
        grid = TimeGrid(0.0, 1.0, 20) if stiff else TimeGrid(0.0, 2e-3, 40)
        x = op.geometry.coords[:, 0]
        if kind == "noise":
            u0 = np.random.default_rng(24).standard_normal(op.geometry.node_count)
        else:
            u0 = np.sin(x) + 0.5 * np.cos(3.0 * x) + 0.2
        return op, grid, [Field(op.geometry, u0)], stiff

    @pytest.mark.parametrize("case", [
        "noise/stiff", "smooth/stiff", "noise/mild", "smooth/mild",
        "suite-circle/0", "suite-circle/7", "suite-torus/0", "suite-torus/7",
    ])
    def test_stepped_I_is_the_modal_closed_form(self, weighted_circle_512_op, case):
        # the step multiplies mode j by r(dt lambda_j) = (1 + dt lambda_j / 2) / (1 - dt lambda_j / 2),
        # so I_k = sum_j w_j r_j^(2k) with w_j the squared mu-projection of u0; projecting the
        # flow on the eigensystem (project_flows) gives the stepped trace and values to round-off
        op, grid, starts, stiff = self.closed_form_case(weighted_circle_512_op, case)
        geom = op.geometry
        vals, vecs = op.eigensystem
        z = grid.dt * vals
        factor = (1.0 + 0.5 * z) / (1.0 - 0.5 * z)
        # stiff: dt |lambda_min| > 2, where the fastest modes' factors are negative
        assert (abs(z[-1]) > 2.0) == stiff == bool(np.any(factor < 0.0))
        steps = np.arange(grid.steps + 1)[:, None]
        stepped = _in_blocks(evolve_cn(op, u0, grid) for u0 in starts)
        projected = project_flows(evolve_cn(op, u0, grid) for u0 in starts)
        for u0, step, proj in zip(starts, stepped, projected, strict=True):
            weights = (vecs.T @ (geom.mu * u0.values[:, 0])) ** 2
            closed = (weights * factor ** (2 * steps)).sum(axis=1)
            trace, modal = frequency_trace(step, op), frequency_trace(proj, op)
            assert np.max(np.abs(trace.I / closed - 1.0)) <= 1e-11
            assert np.max(np.abs(modal.I / trace.I - 1.0)) <= 1e-11
            assert np.max(np.abs(modal.U - trace.U)) <= 1e-11 * np.max(np.abs(trace.U))
            gaps = [mu_distance(geom, a, b) for a, b in zip(proj.values, step.values)]
            assert max(gaps) <= 1e-11 * weighted_norm(u0)
            # a trapezoid flow has no exact derivative: its trace is differenced, as a stepped one
            assert modal.provenance == trace.provenance == "implicit-step"
            assert np.array_equal(modal.dU, np.gradient(modal.U, grid.dt, edge_order=2))

    @pytest.mark.parametrize("order", [64, 256, 370])
    @pytest.mark.parametrize("route", ["stepped", "evolve_cn"])
    def test_stepper_matches_the_gauss_line_trapezoid_oracle(self, order, route):
        # mu spans up to 307 decades: the factor of the row-scaled I - dt/2 L put I
        # 7.3e-6, 0.19 and 7.2e-3 off at orders 64, 256 and 370, that of I - dt/2 S 4.5e-14.
        # evolve_cn builds 32 Krylov modes at order 64 (I 2.2e-15 off) and gives way to
        # stepping at 256 and 370; "stepped" steps every order
        gauss = make_gauss_line(order)
        op = assemble(gauss)
        u0 = Field(gauss, np.random.default_rng(22).standard_normal(order))
        grid = TimeGrid(0.0, 1.0, 200)
        if route == "stepped":
            traj = evolution._stepped(op, u0, grid, None)
        else:
            traj = evolve_cn(op, u0, grid)
            assert (traj.modal is not None) == (order == 64)
        trace = frequency_trace(traj, op)
        assert "eigensystem" not in vars(op)
        # the oracle, with no eigensolve: u0's coefficients in the eigenbasis B, each
        # multiplied by r(dt lambda) per step at the rates lambda = -k/2
        coeffs = gauss.basis.basis.T @ (gauss.mu * u0.values[:, 0])
        rates = -0.5 * np.arange(order)
        z = grid.dt * rates
        factor = (1.0 + 0.5 * z) / (1.0 - 0.5 * z)
        growth = factor ** (2 * np.arange(grid.steps + 1)[:, None])
        I = growth @ coeffs**2
        U = (growth @ (rates * coeffs**2)) / I
        assert np.max(np.abs(trace.I / I - 1.0)) <= 1e-12
        assert np.max(np.abs(trace.U - U)) <= 1e-12 * (1.0 + np.max(np.abs(U)))

    def test_projection_steps_nothing_and_refuses_what_it_cannot_project(
        self, weighted_circle_op, monkeypatch
    ):
        geom = weighted_circle_op.geometry
        grid = TimeGrid(0.0, 1.0, 20)
        u0 = random_smooth_field(geom, np.random.default_rng(30))
        monkeypatch.setattr(evolution, "step_block", lambda members: pytest.fail("stepped"))
        (traj,) = project_flows([evolve_cn(weighted_circle_op, u0, grid)])
        assert traj.modal.step == grid.dt and traj.modal.rates is weighted_circle_op.eigensystem[0]
        assert traj.provenance == "implicit-step"
        zero = PerturbationSpec(geom, grid, bound=0.0)
        with pytest.raises(InvalidInputError, match="perturbed"):
            project_flows([evolve_perturbed(weighted_circle_op, u0, grid, zero)])
        fresh = assemble(geom)
        with pytest.raises(InvalidInputError, match="no eigensystem"):
            project_flows([evolve_cn(fresh, u0, grid)])
        assert fresh.computed_eigensystem() is None

    def test_projecting_no_flows_gives_none(self):
        assert project_flows([]) == [] and project_flows(iter(())) == []

    @pytest.mark.parametrize("where", ["weighted_circle_op", "conformal_torus_op"])
    def test_flows_projected_together_trace_as_each_alone(self, request, where):
        # one GEMM for k flows rounds apart from one GEMV per flow, at round-off only: each
        # flow's coefficients, taken as the exact semigroup, trace as a lone evolve_exact
        op = request.getfixturevalue(where)
        grid = TimeGrid(0.0, 1.0, 40)
        rng = np.random.default_rng(33)
        starts = [random_smooth_field(op.geometry, rng) for _ in range(7)]
        together = project_flows(evolve_cn(op, u0, grid) for u0 in starts)
        for u0, traj in zip(starts, together, strict=True):
            assert traj.modal.coeffs.shape == (op.geometry.node_count, 1)
            exact = Trajectory(grid=grid, geometry=op.geometry, provenance="spectral-exact",
                               modal=dataclasses.replace(traj.modal, step=None))
            alone, joint = frequency_trace(evolve_exact(op, u0, grid), op), frequency_trace(exact, op)
            assert np.max(np.abs(joint.I / alone.I - 1.0)) <= 1e-13
            assert np.max(np.abs(joint.U - alone.U)) <= 1e-13 * np.max(np.abs(alone.U))

    def test_projected_eigenmode_separates_at_the_trapezoid_factor(self, weighted_circle_op):
        # rigidity's separation residual of a projected flow compares r^k, not exp(lambda s),
        # with exp(U(a) s): it is the stepped flow's residual, not the semigroup's round-off
        pair = eigenpairs(weighted_circle_op, 3)[2]
        grid = TimeGrid(0.0, 1.0, 20)
        stepped = evolve_cn(weighted_circle_op, pair.eigenfield, grid)
        (projected,) = project_flows([evolve_cn(weighted_circle_op, pair.eigenfield, grid)])
        exact = evolve_exact(weighted_circle_op, pair.eigenfield, grid)
        residual = lambda traj: check_rigidity(traj, 1e-3, weighted_circle_op).aux[
            "separation_residual"]
        assert residual(exact) < 1e-13
        assert residual(stepped) > 1e-6
        assert abs(residual(projected) / residual(stepped) - 1.0) < 1e-8

    def test_provenance_tags(self, flat_circle_op):
        u0 = Field(flat_circle_op.geometry, np.sin(flat_circle_op.geometry.coords[:, 0]))
        grid = TimeGrid(0.0, 0.1, 4)
        assert evolve_exact(flat_circle_op, u0, grid).provenance == "spectral-exact"
        assert evolve_cn(flat_circle_op, u0, grid).provenance == "implicit-step"

    def test_periodic_paths_allocate_no_dense_operator(self):
        # a 64x64 torus: one dense n x n matrix would take 134 MB
        base = make_torus(64, 64, TWO_PI, TWO_PI)
        geom = make_torus(64, 64, TWO_PI, TWO_PI, 0.3 * np.cos(base.coords[:, 0]))
        u0 = Field(geom, np.sin(geom.coords[:, 0]) * np.cos(geom.coords[:, 1]))
        grid = TimeGrid(0.0, 0.01, 4)
        pert = PerturbationSpec(geom, grid, b=[0.2, 0.1], c=0.1)
        dense_bytes = 8 * geom.node_count**2

        def trace_both():
            op = assemble(geom)
            frequency_trace(evolve_cn(op, u0, grid), op)
            frequency_trace(evolve_perturbed(op, u0, grid, pert), op)

        _, peak = peak_allocated(trace_both)
        assert peak < dense_bytes / 16


# two flows in the style of the stepped ladder's plain flows: a smooth weight, zero-mean
# random data, [0, 1] in 400 steps
LADDER_GEOMETRIES = {
    "circle-2048": {"kind": "circle", "nodes": 2048, "length": TWO_PI,
                    "phi": "0.3*cos(x+0.4)+0.2*sin(3*x+1.1)+0.1*cos(2*x+2.5)"},
    "torus-48": {"kind": "torus2d", "nx": 48, "ny": 48, "lx": TWO_PI, "ly": TWO_PI,
                 "phi": "0.2*cos(x+2*y+0.3)+0.15*sin(3*x+0.7)+0.1*cos(2*y+1.9)"},
}


class TestKrylovTrapezoidFlows:
    """``evolve_cn`` without the eigensystem: Krylov modes, or stepping where they give way."""

    @pytest.mark.parametrize("rung", list(LADDER_GEOMETRIES))
    def test_krylov_flow_agrees_with_the_stepper(self, rung):
        # over data seeds 0-5 the Krylov flow's I is at most 1.05e-11 (relative) off the
        # stepper's on the circle and 6.6e-14 on the torus, its U 2.3e-13 and 5.9e-15 of
        # max|U|, its values 1.0e-12 and 3.7e-15 in the mu-norm: the gates 1e-10, 2e-12 and
        # 1e-11 leave about 10x headroom over the circle's figures
        geometry = build_geometry(LADDER_GEOMETRIES[rung])
        op = assemble(geometry)
        grid = TimeGrid(0.0, 1.0, 400)
        for seed in (0, 1):
            u0 = random_smooth_field(geometry, np.random.default_rng(seed), zero_mean=True)
            krylov = evolve_cn(op, u0, grid)
            assert krylov.stepping is None and krylov.provenance == "implicit-step"
            assert krylov.modal.step == grid.dt and krylov.modal.rates.size <= 64
            stepped = evolution._stepped(op, u0, grid, None)
            evolution.step_block([stepped.stepping])
            modal, steps = frequency_trace(krylov, op), frequency_trace(stepped, op)
            assert modal.provenance == steps.provenance
            assert np.max(np.abs(modal.I / steps.I - 1.0)) <= 1e-10
            assert np.max(np.abs(modal.U - steps.U)) <= 2e-12 * np.max(np.abs(steps.U))
            gaps = [mu_distance(geometry, a, b) for a, b in zip(krylov.values, stepped.values)]
            assert max(gaps) <= 1e-11 * weighted_norm(u0)
        assert "eigensystem" not in vars(op)

    def test_noise_short_grids_and_the_caps_give_way_to_the_stepper(self, weighted_circle,
                                                                    monkeypatch):
        # none of them computes the eigensystem: each steps, to the stepper's bits
        def refused(*args, **kwargs):
            raise AssertionError("the dense eigensolve ran")

        monkeypatch.setattr(scipy.linalg, "eigh", refused)
        nodes = weighted_circle.node_count
        noise = Field(weighted_circle, np.random.default_rng(23).standard_normal(nodes))
        smooth = Field(weighted_circle, np.sin(weighted_circle.coords[:, 0]) + 0.2)
        long_grid, short_grid = TimeGrid(0.0, 1.0, 400), TimeGrid(0.0, 1.0, 31)
        # past the Krylov regime: noise reads a frequency over the window of 705, and
        # fewer than 32 steps would pass a quarter of them with the first basis of 8 vectors
        assert not evolution._in_krylov_regime(noise, long_grid)
        assert not evolution._in_krylov_regime(smooth, short_grid)
        for u0, grid in ((noise, long_grid), (smooth, short_grid)):
            op = assemble(weighted_circle)
            traj = evolve_cn(op, u0, grid)
            assert isinstance(traj.stepping, evolution._PendingSteps)
            assert np.array_equal(traj.values, evolution._stepped(op, u0, grid, None).values)
            # no Krylov run started: the one factor is the stepper's
            assert list(op._factor) == [0.5 * grid.dt]
        # the smooth data converge on the long grid within 16 modes, but not within a cap
        # of 8, whether the cap is the basis values' or the trapezoid flows' own
        assert evolve_cn(assemble(weighted_circle), smooth, long_grid).modal.rates.size == 16
        for name, value in (("_TRAPEZOID_MODES", 8), ("MAX_VALUES", 8 * nodes)):
            with monkeypatch.context() as patched:
                patched.setattr(evolution, name, value)
                op = assemble(weighted_circle)
                traj = evolve_cn(op, smooth, long_grid)
            assert isinstance(traj.stepping, evolution._PendingSteps)
            assert np.array_equal(traj.values,
                                  evolution._stepped(op, smooth, long_grid, None).values)
            assert list(op._factor) == [0.5 * long_grid.dt]

    def test_every_krylov_run_shares_the_held_factor(self, weighted_circle):
        # trapezoid and spectral runs over one window solve with one factor of I - gamma S,
        # which the operator holds until a flow solves at another shift
        u0 = Field(weighted_circle, np.sin(weighted_circle.coords[:, 0]) + 0.2)
        grid = TimeGrid(0.0, 1.0, 400)
        op = assemble(weighted_circle)
        assert evolve_cn(op, u0, grid).modal is not None
        assert list(op._factor) == [0.125]
        kept = op._factor[0.125]
        assert evolve_exact(op, u0, grid).modal is not None
        assert evolve_cn(op, u0, grid).modal is not None
        assert list(op._factor) == [0.125] and op._factor[0.125] is kept
        # the perturbed steps' shift dt/2 replaces it
        evolve_perturbed(op, u0, grid, PerturbationSpec(weighted_circle, grid)).values
        assert list(op._factor) == [0.5 * grid.dt]

    def test_the_regime_is_the_datas_frequency_over_the_window(self, weighted_circle):
        x = weighted_circle.coords[:, 0]
        grid = TimeGrid(0.0, 1.0, 400)
        for mode, inside in ((1, True), (5, True), (6, False)):
            # |U(a)| of sin(k x) is about k^2 on this circle: 1.24, 24.9 and 35.7
            u0 = Field(weighted_circle, np.sin(mode * x))
            assert evolution._in_krylov_regime(u0, grid) is inside
            # the same data over a window a tenth as long is inside
            assert evolution._in_krylov_regime(u0, TimeGrid(0.0, 0.1, 400))
        # an operator whose entries are near the float limit reads an infinite frequency
        # (the energy overflows, quietly), which is outside the regime
        tiny = make_torus(16, 16, 1e-150, 1e-150)
        u0 = Field(tiny, np.sin(2.0 * np.pi * tiny.coords[:, 0] / 1e-150))
        assert not evolution._in_krylov_regime(u0, grid)

    def test_an_operator_with_its_eigensystem_keeps_the_flow_pending(self, weighted_circle_op,
                                                                    monkeypatch):
        monkeypatch.setattr(evolution, "_lanczos", lambda *args: pytest.fail("Krylov run"))
        u0 = random_smooth_field(weighted_circle_op.geometry, np.random.default_rng(5))
        traj = evolve_cn(weighted_circle_op, u0, TimeGrid(0.0, 1.0, 400))
        assert traj.modal is None and isinstance(traj.stepping, evolution._PendingSteps)
        assert "values" not in vars(traj)

    def test_only_pending_flows_are_projected_or_stepped_in_blocks(self, weighted_circle_op):
        geom = weighted_circle_op.geometry
        grid = TimeGrid(0.0, 1.0, 200)
        u0 = random_smooth_field(geom, np.random.default_rng(6))
        spectral = evolve_exact(weighted_circle_op, u0, grid)
        (projected,) = project_flows([evolve_cn(weighted_circle_op, u0, grid)])
        materialized = Trajectory(grid=grid, geometry=geom, values=spectral.values,
                                  provenance="implicit-step")
        # a Krylov trapezoid flow is refused as not pending, before its operator is looked at
        krylov = evolve_cn(assemble(geom), u0, grid)
        for traj in (spectral, projected, materialized, krylov):
            with pytest.raises(InvalidInputError, match="not a pending stepped flow"):
                project_flows([traj])
            with pytest.raises(InvalidInputError, match="not a pending stepped flow"):
                list(_in_blocks([traj]))
        assert krylov.modal is not None


class TestPerturbedFlow:
    def test_zero_perturbation_bit_matches_plain_stepping(self, weighted_circle_op):
        geom = weighted_circle_op.geometry
        grid = TimeGrid(0.0, 1.0, 30)
        pert = PerturbationSpec(geom, grid, bound=0.0)
        rng = np.random.default_rng(15)
        u0 = Field(geom, rng.standard_normal(geom.node_count))
        a = evolve_perturbed(weighted_circle_op, u0, grid, pert)
        b = evolve_cn(weighted_circle_op, u0, grid)
        assert np.array_equal(a.values, b.values)

    def test_non_finite_stack_rejected(self, flat_circle_op):
        # an explicit potential of 1e150 (a certificate whose square, 1e300, is finite)
        # overflows the stepped values to inf and nan; the steps, and so the finite
        # check, run when the values are first read
        geom = flat_circle_op.geometry
        grid = TimeGrid(0.0, 1.0, 4)
        pert = PerturbationSpec(geom, grid, c=1e150)
        u0 = Field(geom, np.sin(geom.coords[:, 0]))
        with pytest.raises(InvalidInputError, match="values must be finite"):
            evolve_perturbed(flat_circle_op, u0, grid, pert).values

    def test_advection_preserves_flat_norm(self, flat_circle_op):
        # traveling wave: I(t) = pi * exp(2 rate t) for u0 = sin(kx)
        geom = flat_circle_op.geometry
        grid = TimeGrid(0.0, 1.0, 400)
        beta = 0.5
        pert = PerturbationSpec(geom, grid, b=beta, bound=beta)
        u0 = Field(geom, np.sin(geom.coords[:, 0]))
        traj = evolve_perturbed(flat_circle_op, u0, grid, pert)
        h = TWO_PI / 128
        rate = -4.0 * np.sin(h / 2.0) ** 2 / h**2
        final = sq_norms(traj)[-1]
        expected = np.pi * np.exp(2.0 * rate)
        assert abs(final / expected - 1.0) < 1e-4

    def test_advection_travels(self, flat_circle_op):
        # the discrete drift shifts the phase by ~beta*t
        geom = flat_circle_op.geometry
        grid = TimeGrid(0.0, 1.0, 400)
        beta = 0.5
        pert = PerturbationSpec(geom, grid, b=beta, bound=beta)
        x = geom.coords[:, 0]
        traj = evolve_perturbed(flat_circle_op, Field(geom, np.sin(x)), grid, pert)
        h = TWO_PI / 128
        rate = -4.0 * np.sin(h / 2.0) ** 2 / h**2
        # discrete centered advection rotates at speed beta*sin(h)/h
        speed = beta * np.sin(h) / h
        expected = np.exp(rate) * np.sin(x + speed)
        assert np.max(np.abs(traj.values[-1, :, 0] - expected)) < 5e-4

    def test_constant_potential_is_gauge_factor(self, weighted_circle_op):
        geom = weighted_circle_op.geometry
        grid = TimeGrid(0.0, 1.0, 200)
        c0 = 0.4
        pert = PerturbationSpec(geom, grid, c=c0, bound=c0)
        rng = np.random.default_rng(16)
        u0 = Field(geom, np.sin(geom.coords[:, 0]) + 0.2 * rng.standard_normal())
        perturbed = evolve_perturbed(weighted_circle_op, u0, grid, pert)
        plain = evolve_cn(weighted_circle_op, u0, grid)
        scaled = np.exp(c0 * grid.times)[:, None, None] * plain.values
        gaps = [
            mu_distance(geom, a, b) / np.sqrt(norm)
            for a, b, norm in zip(perturbed.values, scaled, sq_norms(perturbed))
        ]
        assert max(gaps) < 1e-4

    def test_certification_failure(self, flat_circle_op):
        geom = flat_circle_op.geometry
        grid = TimeGrid(0.0, 1.0, 10)
        with pytest.raises(CertificationFailureError):
            PerturbationSpec(geom, grid, b=0.5, bound=0.3)

    def test_certified_at_construction(self, flat_circle_op):
        geom = flat_circle_op.geometry
        grid = TimeGrid(0.0, 1.0, 10)
        spec = PerturbationSpec(geom, grid, b=0.2, bound=0.3)
        big = np.full((grid.times.size, geom.node_count, 1), 0.5)
        with pytest.raises(CertificationFailureError):
            PerturbationSpec(geom, grid, b=big, c=None, bound=np.full(grid.times.size, 0.3))
        with pytest.raises(CertificationFailureError):
            dataclasses.replace(spec, b=big)

    def test_omitted_bound_is_the_tight_certificate(self, flat_circle_op):
        geom = flat_circle_op.geometry
        grid = TimeGrid(0.0, 1.0, 10)
        b = np.multiply.outer(grid.times, np.sin(geom.coords))
        c = np.full((grid.times.size, geom.node_count), 0.25)
        spec = PerturbationSpec(geom, grid, b=b, c=c, bound=None)
        assert np.array_equal(spec.bound, np.maximum(np.abs(b).max(axis=(1, 2)), 0.25))
        assert not any(arr.flags.writeable for arr in (spec.b, spec.c, spec.bound))
        # full-shaped float64 arrays are kept, not copied, and their callers' arrays go read-only
        assert np.shares_memory(spec.b, b) and np.shares_memory(spec.c, c)
        assert not (b.flags.writeable or c.flags.writeable)

    @pytest.mark.parametrize("top", [150, 200])
    def test_tight_bound_is_the_largest_root_bit_for_bit(self, top):
        # the root of the largest |b|^2 per sample is the largest per-node root, bit for bit;
        # |b| from 1e-160 (|b|^2 underflows) up to 1e150, or to 1e200 (|b|^2 overflows to inf)
        geom = make_torus(8, 8, TWO_PI, TWO_PI)
        grid = TimeGrid(0.0, 1.0, 10)
        scale = np.logspace(-160, top, grid.steps + 1)[:, None, None]
        b = scale * np.random.default_rng(13).standard_normal((grid.steps + 1, geom.node_count, 2))
        c = np.full((grid.steps + 1, geom.node_count), 1e-200)
        with np.errstate(over="ignore"):
            per_node_roots = np.sqrt((b**2).sum(axis=2)).max(axis=1)
        if top == 150:
            spec = PerturbationSpec(geom, grid, b=b, c=c)
            assert spec.bound.tobytes() == np.maximum(per_node_roots, 1e-200).tobytes()
        else:
            assert np.isinf(per_node_roots[-1])
            with pytest.raises(InvalidInputError, match=r"sup\|b\| must be finite"):
                PerturbationSpec(geom, grid, b=b, c=c)

    def test_constants_and_arrays_broadcast_to_the_same_spec(self, flat_circle_op):
        geom = flat_circle_op.geometry
        grid = TimeGrid(0.0, 1.0, 10)
        samples, nodes = grid.times.size, geom.node_count
        full = PerturbationSpec(
            geom, grid, b=np.full((samples, nodes, 1), 0.2), c=np.full((samples, nodes), 0.1),
            bound=np.full(samples, 0.3),
        )
        for b, c, bound in ((0.2, 0.1, 0.3), ([0.2], np.full(nodes, 0.1), np.float64(0.3)),
                            (np.full((nodes, 1), 0.2), np.full((samples, 1), 0.1), [0.3])):
            spec = PerturbationSpec(geom, grid, b=b, c=c, bound=bound)
            for got, want in ((spec.b, full.b), (spec.c, full.c), (spec.bound, full.bound)):
                assert got.shape == want.shape and np.array_equal(got, want)
                assert not got.flags.writeable

    @pytest.mark.parametrize(
        "fields",
        [
            {"b": np.nan}, {"c": np.inf}, {"b": 0.1, "bound": np.inf}, {"bound": np.nan},
            {"b": 1e200},  # finite, but its sup norm overflows
            {"c": 1e200},  # finite, but the square of its tight certificate overflows
            {"bound": 1e200}, {"b": 0.1, "bound": 1e155},  # C finite, C^2 not
            {"b": np.zeros(5)}, {"c": np.zeros((11, 3))}, {"bound": np.zeros(12)},
            {"b": lambda t: 0.1}, {"c": "high"},
        ],
    )
    def test_non_finite_mis_shaped_or_callable_fields_rejected(self, flat_circle_op, fields):
        grid = TimeGrid(0.0, 1.0, 10)
        with pytest.raises(InvalidInputError):
            PerturbationSpec(flat_circle_op.geometry, grid, **fields)

    def test_gradient_only_is_read_off_c(self, flat_circle_op):
        geom = flat_circle_op.geometry
        grid = TimeGrid(0.0, 1.0, 10)
        spike = np.zeros((grid.times.size, geom.node_count))
        spike[7, 3] = 1e-300
        assert PerturbationSpec(geom, grid, b=0.2).gradient_only
        assert PerturbationSpec(geom, grid, b=0.2, c=0.0).gradient_only
        assert PerturbationSpec(geom, grid, bound=0.0).gradient_only
        assert not PerturbationSpec(geom, grid, c=spike).gradient_only
        assert not PerturbationSpec(geom, grid, b=0.2, c=-0.1).gradient_only

    def test_grid_mismatch_rejected(self, flat_circle_op):
        geom = flat_circle_op.geometry
        pert = PerturbationSpec(geom, TimeGrid(0.0, 1.0, 10), bound=0.0)
        u0 = Field(geom, np.sin(geom.coords[:, 0]))
        with pytest.raises(InvalidInputError):
            evolve_perturbed(flat_circle_op, u0, TimeGrid(0.0, 1.0, 20), pert)

    def test_conformal_geometry_rejected(self, conformal_torus_op):
        geom = conformal_torus_op.geometry
        grid = TimeGrid(0.0, 1.0, 10)
        pert = PerturbationSpec(geom, grid, c=0.1, bound=0.1)
        rng = np.random.default_rng(17)
        u0 = Field(geom, rng.standard_normal(geom.node_count))
        with pytest.raises(InvalidInputError):
            evolve_perturbed(conformal_torus_op, u0, grid, pert)

    def test_certified_bound_recorded(self, flat_circle_op):
        geom = flat_circle_op.geometry
        grid = TimeGrid(0.0, 1.0, 10)
        pert = PerturbationSpec(geom, grid, b=0.2, bound=0.25)
        u0 = Field(geom, np.sin(geom.coords[:, 0]))
        traj = evolve_perturbed(flat_circle_op, u0, grid, pert)
        assert traj.certified_bound is not None
        assert np.allclose(traj.certified_bound, 0.25)

    def test_tight_bound_autocertification(self, flat_circle_op):
        geom = flat_circle_op.geometry
        grid = TimeGrid(0.0, 1.0, 10)
        pert = PerturbationSpec(geom, grid, b=0.2 * np.cos(grid.times)[:, None, None])
        assert np.allclose(pert.bound, 0.2 * np.abs(np.cos(grid.times)))


class TestBlockStepping:
    """Flows stepped together as one block of columns keep the bits of one-flow stepping."""

    @staticmethod
    def recurrence(op, u0, grid, pert=None, textbook=False, extrapolate=False):
        """The trapezoid recurrence of one flow written out, with no blocks.

        The state is ``v = R u``, ``R = M^{1/2}``, and each stage is
        ``solve(2v + dt R p) - v`` with the LU factor of ``I - dt/2 S``; with
        ``textbook`` it is ``solve((I + dt/2 S) v + dt R p)`` instead, with the
        forward operator built here.  The perturbation term is taken of
        ``u = v / R``.  A perturbed step predicts by a stage, or with
        ``extrapolate`` from the second step on by ``2 u_k - u_{k-1}``.
        """
        solver = op.factor(0.5 * grid.dt)
        root = np.sqrt(op.geometry.mu)[:, None]
        forward = scipy.sparse.eye_array(op.geometry.node_count) + 0.5 * grid.dt * op.symmetric

        def stage(v, p=None):
            rhs = forward @ v if textbook else 2.0 * v
            if p is not None:
                rhs = (grid.dt * root) * p + rhs
            return solver.solve(rhs) if textbook else solver.solve(rhs) - v

        def term(k, u):
            out = np.zeros_like(u)
            if pert.b is not None:
                out += np.einsum("nd,ndc->nc", pert.b[k], op.geometry.gradient(u))
            if pert.c is not None:
                out += pert.c[k][:, None] * u
            return out

        u = u0.values
        v = root * u
        values = [u]
        for k in range(grid.steps):
            if pert is None:
                v = stage(v)
            else:
                p_old = term(k, u)
                if extrapolate and k > 0:
                    predictor = 2.0 * u - values[-2]
                else:
                    predictor = stage(v, p_old) / root
                v = stage(v, 0.5 * (p_old + term(k + 1, predictor)))
            u = v / root
            values.append(u)
        return np.stack(values)

    @staticmethod
    def flows(kind, request):
        """(op, grid, [(u0, pert or None)]) of seven flows of one test case (one for stiff-noise)."""
        rng = np.random.default_rng(41)
        grid = TimeGrid(0.0, 0.5, 25)
        if kind == "circle-two-components":
            op = request.getfixturevalue("weighted_circle_op")
            starts = [random_smooth_field(op.geometry, rng, components=2) for _ in range(7)]
            return op, grid, [(u0, None) for u0 in starts]
        if kind == "conformal-torus":
            op = request.getfixturevalue("conformal_torus_op")
            return op, grid, [(random_smooth_field(op.geometry, rng), None) for _ in range(7)]
        if kind == "stiff-noise":
            # nodal noise weighs the stiffest modes (dt |lambda| up to 33 here) as
            # much as the smooth ones; their trapezoid factor is near -1
            op = request.getfixturevalue("weighted_circle_op")
            assert grid.dt * abs(op.eigensystem[0][-1]) > 2.0
            nodes = op.geometry.node_count
            return op, grid, [(Field(op.geometry, rng.standard_normal(nodes)), None)]
        if kind == "flat-torus-perturbed":
            op = assemble(make_torus(16, 16, TWO_PI, TWO_PI))
        elif kind == "weighted-circle-perturbed":
            op = request.getfixturevalue("weighted_circle_op")
        elif kind == "gauss-line-perturbed":
            op = request.getfixturevalue("gauss_line_op")
        else:
            op = request.getfixturevalue("flat_circle_op")
        geom = op.geometry
        dim, x = geom.dim, geom.coords[:, 0]
        t = grid.times[:, None]
        b = 0.3 * np.cos(x + t)[:, :, None] * np.ones(dim)
        c = 0.2 * np.sin(2.0 * x - t)
        perts = [  # gradient-only, drift and potential, potential only, zero
            PerturbationSpec(geom, grid, b=b),
            PerturbationSpec(geom, grid, b=b, c=c),
            PerturbationSpec(geom, grid, c=c),
            PerturbationSpec(geom, grid, bound=0.0),
        ]
        # N alternates 1, 2; each N's flows take the perturbations in turn, so no
        # block's members read the same in reverse
        return op, grid, [
            (random_smooth_field(geom, rng, components=1 + i % 2), perts[i // 2 % 4])
            for i in range(7)
        ]

    @staticmethod
    def evolve(op, grid, u0, pert):
        return evolve_cn(op, u0, grid) if pert is None else evolve_perturbed(op, u0, grid, pert)

    CASES = ["circle-two-components", "conformal-torus", "flat-circle-perturbed",
             "flat-torus-perturbed", "weighted-circle-perturbed"]
    # the Gauss line's gradient is two sparse products, so its blocks keep the bits too;
    # it is left out of the textbook-step test, whose nodal gate its end nodes would set:
    # 5.7e-10 relative where mu is 1.5e-22, against 7e-14 in the mu-norm
    BLOCK_CASES = [*CASES, "gauss-line-perturbed"]

    @pytest.mark.parametrize("kind", BLOCK_CASES)
    def test_block_of_one_is_the_one_flow_recurrence(self, request, kind):
        # the periodic cases' perturbed flows extrapolate (dt C max(1, C, sigma) <= 0.0085),
        # the Gauss line's solve
        op, grid, flows = self.flows(kind, request)
        for u0, pert in flows[:4]:
            traj = self.evolve(op, grid, u0, pert)
            extrapolate = traj.stepping.extrapolates()
            assert extrapolate == (pert is not None and kind != "gauss-line-perturbed")
            expected = self.recurrence(op, u0, grid, pert, extrapolate=extrapolate)
            assert np.array_equal(traj.values, expected)

    @pytest.mark.parametrize("kind", [*CASES, "stiff-noise"])
    def test_one_solve_stages_match_the_textbook_step(self, request, kind):
        op, grid, flows = self.flows(kind, request)
        for u0, pert in flows[:4]:
            traj = self.evolve(op, grid, u0, pert)
            expected = self.recurrence(op, u0, grid, pert, textbook=True,
                                       extrapolate=traj.stepping.extrapolates())
            got = traj.values
            assert np.max(np.abs(got - expected)) <= 1e-12 * np.max(np.abs(expected))

    def test_a_flow_inside_the_rule_extrapolates(self, flat_circle_op):
        # its recurrence differs from the solved predictor's from the second step on
        geom = flat_circle_op.geometry
        grid = TimeGrid(0.0, 1.0, 40)
        x, t = geom.coords[:, 0], grid.times[:, None]
        pert = PerturbationSpec(geom, grid, b=0.3 * np.cos(x + t)[:, :, None], c=0.2 * np.sin(2.0 * x - t))
        u0 = random_smooth_field(geom, np.random.default_rng(5))
        traj = evolve_perturbed(flat_circle_op, u0, grid, pert)
        assert traj.stepping.extrapolates()
        extrapolated = self.recurrence(flat_circle_op, u0, grid, pert, extrapolate=True)
        solved = self.recurrence(flat_circle_op, u0, grid, pert)
        assert np.array_equal(traj.values, extrapolated)
        assert np.array_equal(extrapolated[:2], solved[:2]) and not np.array_equal(extrapolated[2], solved[2])

    @staticmethod
    def steep_circle_op():
        """A circle of 128 nodes with the steep weight ``3 cos 8x``: sigma, its steepest edge, is 23.4."""
        x = make_circle(128, TWO_PI).coords[:, 0]
        return assemble(make_circle(128, TWO_PI, 3.0 * np.cos(8.0 * x)))

    @pytest.mark.parametrize("case", ["drift-30-circle-2048", "potential-400-circle-128",
                                      "steep-weight-circle-128"])
    def test_a_flow_outside_the_rule_keeps_the_solved_predictor(self, case):
        # dt C^2 = 2.25, dt C = 2, and dt C sigma = 5.8: the solved predictor's recurrence,
        # bit for bit; the extrapolated one would not decay (its roots pass the unit circle
        # past dt C^2 = 1/3 or dt |c| = 1, and the steep weight's drift acts as a potential
        # of up to C sigma / 2).  The steep case has dt C max(1, C) = 1/4: only its weight
        # puts it outside the rule
        if case == "drift-30-circle-2048":
            op, grid = assemble(make_circle(2048, TWO_PI)), TimeGrid(0.0, 1.0, 400)
            x = op.geometry.coords[:, 0]
            pert = PerturbationSpec(op.geometry, grid, b=30.0 * np.cos(x)[:, None])
        elif case == "potential-400-circle-128":
            op, grid = assemble(make_circle(128, TWO_PI)), TimeGrid(0.0, 1.0, 200)
            pert = PerturbationSpec(op.geometry, grid, c=-400.0)
        else:
            op, grid = self.steep_circle_op(), TimeGrid(0.0, 100.0, 400)
            x = op.geometry.coords[:, 0]
            pert = PerturbationSpec(op.geometry, grid, b=np.cos(x)[:, None], c=-1.0)
        u0 = random_smooth_field(op.geometry, np.random.default_rng(6))
        traj = evolve_perturbed(op, u0, grid, pert)
        assert not traj.stepping.extrapolates()
        assert np.array_equal(traj.values, self.recurrence(op, u0, grid, pert))
        growth = sq_norms(traj)[-1] / sq_norms(traj)[0]
        assert growth < 1.0
        extrapolated = self.recurrence(op, u0, grid, pert, extrapolate=True)
        assert np.sum(op.geometry.mu[:, None] * extrapolated[-1] ** 2) > 1e10 * sq_norms(traj)[0]

    @pytest.mark.parametrize("weight", ["flat", "steep"])
    def test_a_mixed_block_gives_each_member_its_bits_alone(self, flat_circle_op, monkeypatch, weight):
        # members inside and outside the rule share a block: the block solves every
        # predictor, and the members inside it take the extrapolation in their columns.
        # On the steep weight the last member's drift, of amplitude 3 (dt C max(1, C) =
        # 0.045), is outside the rule by its weight alone (dt C sigma = 0.35)
        op = flat_circle_op if weight == "flat" else self.steep_circle_op()
        geom = op.geometry
        grid = TimeGrid(0.0, 1.0, 200)
        x, t = geom.coords[:, 0], grid.times[:, None]
        perts = [
            PerturbationSpec(geom, grid, b=0.3 * np.cos(x + t)[:, :, None], c=0.2 * np.sin(2.0 * x - t)),
            PerturbationSpec(geom, grid, c=-400.0 * np.cos(x) ** 2),
            PerturbationSpec(geom, grid, bound=0.0),
            PerturbationSpec(geom, grid, b=(30.0 if weight == "flat" else 3.0) * np.sin(x)[:, None]),
        ]
        rng = np.random.default_rng(7)
        starts = [random_smooth_field(geom, rng, components=2) for _ in perts]
        trajs = [evolve_perturbed(op, u0, grid, pert) for u0, pert in zip(starts, perts)]
        assert [traj.stepping.extrapolates() for traj in trajs] == [True, False, True, False]
        blocks = []
        step_block = evolution.step_block
        monkeypatch.setattr(evolution, "step_block", lambda members: blocks.append(len(members))
                            or step_block(members))
        list(_in_blocks(trajs))
        assert blocks == [4]
        for traj, u0, pert, extrapolate in zip(trajs, starts, perts, [True, False, True, False]):
            alone = evolve_perturbed(op, u0, grid, pert).values
            assert np.array_equal(traj.values, alone)
            assert np.array_equal(alone, self.recurrence(op, u0, grid, pert, extrapolate=extrapolate))

    @pytest.mark.parametrize("geometry", ["flat-circle-128", "flat-torus-16"])
    @pytest.mark.parametrize("predictor", ["extrapolated", "solved"])
    def test_both_predictors_are_second_order(self, geometry, predictor, monkeypatch):
        # b and c both on; each flow against its own predictor's flow at a 16x finer step
        if predictor == "solved":
            monkeypatch.setattr(evolution, "_EXTRAPOLATION_REACH", -1.0)
        if geometry == "flat-circle-128":
            op = assemble(make_circle(128, TWO_PI))
        else:
            op = assemble(make_torus(16, 16, TWO_PI, TWO_PI))
        geom = op.geometry
        x, y = geom.coords[:, 0], geom.coords[:, -1]
        u0 = random_smooth_field(geom, np.random.default_rng(9))

        def final(steps):
            grid = TimeGrid(0.0, 1.0, steps)
            t = grid.times[:, None]
            b = np.stack([0.8 * np.cos(x + t), 0.5 * np.sin(y - 2.0 * t)][: geom.dim], axis=-1)
            pert = PerturbationSpec(geom, grid, b=b, c=0.6 * np.sin(2.0 * x - t) * np.cos(y))
            traj = evolve_perturbed(op, u0, grid, pert)
            assert traj.stepping.extrapolates() == (predictor == "extrapolated")
            return traj.values[-1]

        reference = final(16 * 20)
        errors = [mu_distance(geom, final(steps), reference) for steps in (20, 40)]
        assert np.log2(errors[0] / errors[1]) >= 1.8

    @pytest.mark.parametrize("kind", BLOCK_CASES)
    def test_block_matches_one_flow_stepping(self, request, monkeypatch, kind):
        op, grid, flows = self.flows(kind, request)
        # a budget of three members each, so the seven flows of a group fill 3 + 3 + 1
        sample_bytes = (grid.steps + 1) * op.geometry.node_count * 8
        perturbed = flows[0][1] is not None
        pert_bytes = 2 * sample_bytes * (op.geometry.dim + 1) if perturbed else 0
        counts = {}
        for u0, _ in flows:
            counts[u0.components] = counts.get(u0.components, 0) + 1
        trajs = [self.evolve(op, grid, u0, pert) for u0, pert in flows]
        for components in counts:
            budget = 3 * (sample_bytes * components + pert_bytes) + 1
            monkeypatch.setattr(evolution, "_BLOCK_BYTES", budget)
            list(_in_blocks(t for t in trajs if t.stepping.u0.shape[1] == components))
        for traj, (u0, pert) in zip(trajs, flows):
            assert "values" not in vars(traj)  # stepped, but not read yet
            alone = self.evolve(op, grid, u0, pert).values
            assert traj.values.flags.c_contiguous and not traj.values.flags.writeable
            assert np.array_equal(traj.values, alone)
        blocks = {}
        for traj in trajs:
            blocks[id(traj.values.base)] = blocks.get(id(traj.values.base), 0) + 1
        expected = [min(3, k - i) for k in counts.values() for i in range(0, k, 3)]
        assert sorted(blocks.values()) == sorted(expected)

    def test_realizing_fifty_torus_flows_holds_one_block(self):
        op = assemble(make_torus(32, 32, TWO_PI, TWO_PI))
        grid = TimeGrid(0.0, 1.0, 200)
        rng = np.random.default_rng(8)
        starts = [random_smooth_field(op.geometry, rng) for _ in range(50)]
        member_bytes = (grid.steps + 1) * op.geometry.node_count * 8
        op.factor(0.5 * grid.dt)  # factor I - dt/2 S before the traced window
        # map holds no trajectory past its call, so each block is dropped before the next; the
        # flows are the pending stepped flows evolve_cn gives way to (it would build these
        # flows' Krylov modes on an operator without its eigensystem)
        finals, peak = peak_allocated(lambda: list(map(
            lambda traj: traj.values[-1].copy(),
            _in_blocks(evolution._stepped(op, u0, grid, None) for u0 in starts),
        )))
        assert len(finals) == 50
        assert evolution._BLOCK_BYTES // member_bytes == 5
        assert peak < 1.25 * evolution._BLOCK_BYTES  # two blocks would take 16.5 MB

    def test_every_stepping_runs_in_step_block(self, weighted_circle_op, monkeypatch):
        # a public function, so a tracer that wraps the module's functions sees each block
        blocks = []
        step_block = evolution.step_block

        def counted(members):
            blocks.append(len(members))
            step_block(members)

        monkeypatch.setattr(evolution, "step_block", counted)
        geom = weighted_circle_op.geometry
        grid = TimeGrid(0.0, 0.5, 25)
        u0 = Field(geom, np.sin(geom.coords[:, 0]))
        evolve_cn(weighted_circle_op, u0, grid).values
        list(_in_blocks(evolve_cn(weighted_circle_op, u0, grid) for _ in range(3)))
        assert blocks == [1, 3]

    def test_a_perturbed_step_solves_once_past_the_first_unless_outside_the_rule(self, monkeypatch):
        # the stepper's cost model: a stage is one solve of the whole block, and a step has
        # one stage, or two (predictor and corrector) when it is perturbed, but a flow
        # inside the rule extrapolates its predictor from the second step on
        op = assemble(make_torus(16, 16, TWO_PI, TWO_PI))
        op.eigensystem  # so evolve_cn gives a pending stepped flow
        grid = TimeGrid(0.0, 0.5, 25)
        geom = op.geometry
        x, y, t = geom.coords[:, :1], geom.coords[:, 1], grid.times[:, None]
        pert = PerturbationSpec(geom, grid, b=0.3 * np.cos(x + t[:, None]), c=0.2 * np.sin(y - t))
        outside = PerturbationSpec(geom, grid, b=pert.b, c=30.0 * np.sin(y - t))  # dt C^2 = 18
        factor, solves = DriftOperator.factor, []

        def counted(self, gamma):
            lu = factor(self, gamma)
            return SimpleNamespace(solve=lambda rhs: solves.append(rhs.shape[1]) or lu.solve(rhs))

        monkeypatch.setattr(DriftOperator, "factor", counted)
        rng = np.random.default_rng(2)
        starts = [random_smooth_field(geom, rng) for _ in range(3)]
        evolve_cn(op, starts[0], grid).values
        assert solves == [1] * grid.steps
        solves.clear()
        evolve_perturbed(op, starts[0], grid, pert).values
        assert solves == [1] * (grid.steps + 1)
        solves.clear()
        evolve_perturbed(op, starts[0], grid, outside).values
        assert solves == [1] * (2 * grid.steps)
        solves.clear()
        list(_in_blocks(evolve_perturbed(op, u0, grid, pert) for u0 in starts))
        assert solves == [3] * (grid.steps + 1)
        solves.clear()
        # one member outside the rule: the block solves every predictor
        list(_in_blocks(evolve_perturbed(op, u0, grid, p) for u0, p in zip(starts, [pert, outside, pert])))
        assert solves == [3] * (2 * grid.steps)

    def test_realizing_a_perturbed_flow_holds_its_values_and_a_few_states(self):
        # A block of one steps on views of its spec's b and c.  Its peak is the values,
        # (steps + 1) (nodes, 1) states, plus the stepper's temporaries (the state, its
        # values and the previous sample's, which the extrapolated predictor reads, 2v,
        # right-hand sides, the solves' outputs, the predictor's values, the gradient's
        # (dim, nodes) stack and its gathers) and what the first step caches (the
        # neighbour indices, 4 states, and sqrt(mu)): 19.8 states in all.  The gate
        # allows 32; copies of b and c would add three times the values (4.9 MB).
        op = assemble(make_torus(32, 32, TWO_PI, TWO_PI))
        grid = TimeGrid(0.0, 1.0, 200)
        geom = op.geometry
        x, y = geom.coords[:, 0], geom.coords[:, 1]
        t = grid.times[:, None]
        b = np.stack([0.3 * np.cos(x + t), 0.2 * np.sin(y - t)], axis=-1)
        pert = PerturbationSpec(geom, grid, b=b, c=0.2 * np.sin(2.0 * x - t))
        u0 = random_smooth_field(geom, np.random.default_rng(3))
        op.factor(0.5 * grid.dt)  # factor I - dt/2 S before the traced window
        traj = evolve_perturbed(op, u0, grid, pert)
        state = geom.node_count * 8
        _, peak = peak_allocated(lambda: traj.values)
        assert peak < (grid.steps + 1 + 32) * state


class TestGauge:
    def test_identity_gauge(self, flat_circle_op):
        geom = flat_circle_op.geometry
        u0 = Field(geom, np.sin(geom.coords[:, 0]))
        traj = evolve_exact(flat_circle_op, u0, TimeGrid(0.0, 1.0, 20))
        same = gauge_transform(traj, 0.0)
        assert np.array_equal(traj.values, same.values)

    def test_matches_per_field_scaling(self, weighted_circle_op):
        geom = weighted_circle_op.geometry
        x = geom.coords[:, 0]
        u0 = Field(geom, np.stack([np.sin(x), np.cos(2.0 * x)], axis=1))
        grid = TimeGrid(0.0, 1.0, 20)
        traj = evolve_exact(weighted_circle_op, u0, grid)
        scaled = gauge_transform(traj, 0.3 - 0.5 * grid.times)
        integral = scipy.integrate.cumulative_trapezoid(
            0.3 - 0.5 * grid.times, grid.times, initial=0.0
        )
        for factor, before, after in zip(np.exp(-integral), traj.values, scaled.values):
            assert np.array_equal(after, factor * before)

    def test_constant_rate_scales_norm(self, flat_circle_op):
        geom = flat_circle_op.geometry
        u0 = Field(geom, np.sin(geom.coords[:, 0]))
        grid = TimeGrid(0.0, 1.0, 20)
        traj = evolve_exact(flat_circle_op, u0, grid)
        scaled = gauge_transform(traj, 0.7)
        base, now = sq_norms(traj), sq_norms(scaled)
        assert np.all(np.abs(now - np.exp(-2.0 * 0.7 * grid.times) * base) < 1e-10 * base)

    def test_gauged_equation_reduces_to_pure_flow(self, flat_circle_op):
        # solve u_t = L u + c0 u by perturbation, remove the gauge, compare
        geom = flat_circle_op.geometry
        grid = TimeGrid(0.0, 1.0, 200)
        c0 = 0.3
        pert = PerturbationSpec(geom, grid, c=c0, bound=c0)
        u0 = Field(geom, np.sin(geom.coords[:, 0]))
        gauged = evolve_perturbed(flat_circle_op, u0, grid, pert)
        removed = gauge_transform(gauged, c0)
        pure = evolve_cn(flat_circle_op, u0, grid)
        gap = mu_distance(geom, removed.values[-1], pure.values[-1])
        assert gap < 1e-4 * np.sqrt(sq_norms(pure)[-1])

    def test_gauge_drops_the_certificate(self, flat_circle_op):
        # v = exp(-int lambda) u solves v_t = L v + b . grad v + (c - lambda) v,
        # which the source's C(t) does not bound
        geom = flat_circle_op.geometry
        grid = TimeGrid(0.0, 1.0, 20)
        pert = PerturbationSpec(geom, grid, b=0.2 * np.sin(geom.coords))
        traj = evolve_perturbed(flat_circle_op, Field(geom, np.sin(geom.coords[:, 0])), grid, pert)
        assert traj.gradient_only and traj.certified_bound is not None
        gauged = gauge_transform(traj, 3.0)
        assert not gauged.gradient_only and gauged.certified_bound is None

    @pytest.mark.parametrize("rate", [np.inf, np.nan, np.zeros(20), lambda t: 0.0])
    def test_non_finite_mis_shaped_or_callable_rate_rejected(self, flat_circle_op, rate):
        geom = flat_circle_op.geometry
        traj = evolve_exact(flat_circle_op, Field(geom, np.sin(geom.coords[:, 0])),
                            TimeGrid(0.0, 1.0, 20))
        with pytest.raises(InvalidInputError):
            gauge_transform(traj, rate)
