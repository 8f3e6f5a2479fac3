import dataclasses

import numpy as np
import pytest
import scipy.integrate
import scipy.sparse.linalg

from parafreq import (
    Field,
    PerturbationSpec,
    TimeGrid,
    assemble,
    evolve_cn,
    evolve_exact,
    evolve_perturbed,
    frequency_trace,
    gauge_transform,
    eigenpairs,
    make_circle,
    make_torus,
    weighted_inner,
    weighted_norm,
)
from parafreq import evolution
from parafreq.errors import (
    CertificationFailureError,
    DegenerateInputError,
    InvalidInputError,
)
from parafreq.evolution import _in_blocks
from parafreq.sampling import random_smooth_field

from conftest import peak_allocated

TWO_PI = 2.0 * np.pi


def mu_distance(a, b):
    return weighted_norm(Field(a.geometry, a.values - b.values))


class TestSpectralEvolution:
    def test_initial_sample_is_exact(self, flat_circle_op):
        geom = flat_circle_op.geometry
        u0 = Field(geom, np.sin(geom.coords[:, 0]))
        traj = evolve_exact(flat_circle_op, u0, TimeGrid(0.0, 1.0, 1))
        assert np.max(np.abs(traj.fields[0].values - u0.values)) < 1e-12

    def test_eigenmode_decays_at_its_rate(self, flat_circle_op):
        pair = eigenpairs(flat_circle_op, 2)[1]
        grid = TimeGrid(0.0, 1.0, 50)
        traj = evolve_exact(flat_circle_op, pair.eigenfield, grid)
        for k, t in enumerate(grid.times):
            expected = np.exp(pair.eigenvalue * t) * pair.eigenfield.values
            gap = mu_distance(traj.fields[k], Field(traj.geometry, expected))
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
        for k, t in enumerate(grid.times):
            fld = traj.fields[k]
            expected = np.pi * (np.exp(2.0 * rate(1) * t) + np.exp(2.0 * rate(2) * t))
            assert abs(weighted_inner(fld, fld) / expected - 1.0) < 1e-8

    def test_semigroup_property(self, weighted_circle_op):
        geom = weighted_circle_op.geometry
        rng = np.random.default_rng(11)
        u0 = Field(geom, rng.standard_normal(geom.node_count))
        full = evolve_exact(weighted_circle_op, u0, TimeGrid(0.0, 1.0, 10))
        first = evolve_exact(weighted_circle_op, u0, TimeGrid(0.0, 0.5, 5))
        second = evolve_exact(
            weighted_circle_op, first.fields[-1], TimeGrid(0.5, 1.0, 5)
        )
        assert mu_distance(full.fields[-1], second.fields[-1]) < 1e-10

    def test_energy_dissipation(self, conformal_torus_op):
        geom = conformal_torus_op.geometry
        rng = np.random.default_rng(12)
        u0 = Field(geom, rng.standard_normal(geom.node_count))
        traj = evolve_exact(conformal_torus_op, u0, TimeGrid(0.0, 0.5, 40))
        norms = [weighted_inner(f, f) for f in traj.fields]
        assert all(b <= a * (1.0 + 1e-12) for a, b in zip(norms, norms[1:]))

    def test_zero_initial_field_rejected(self, flat_circle_op):
        zero = Field.constant(flat_circle_op.geometry, 0.0)
        with pytest.raises(DegenerateInputError):
            evolve_exact(flat_circle_op, zero, TimeGrid(0.0, 1.0, 4))

    def test_componentwise_decoupling(self, weighted_circle_op):
        geom = weighted_circle_op.geometry
        rng = np.random.default_rng(13)
        values = rng.standard_normal((geom.node_count, 2))
        grid = TimeGrid(0.0, 0.3, 12)
        both = evolve_exact(weighted_circle_op, Field(geom, values), grid)
        parts = [
            evolve_exact(weighted_circle_op, Field(geom, values[:, j]), grid)
            for j in range(2)
        ]
        for k in range(len(grid.times)):
            for j in range(2):
                gap = np.max(
                    np.abs(both.fields[k].values[:, j] - parts[j].fields[k].values[:, 0])
                )
                assert gap < 1e-12

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
        for fld, t in zip(traj.fields, grid.times):
            expected = vecs @ (np.exp(vals * (t - grid.a))[:, None] * coeffs)
            assert fld.values.shape == (geom.node_count, components)
            assert np.max(np.abs(fld.values - expected)) <= 1e-13 * scale

    def test_trace_d_expressions_agree_on_conformal_torus(self, conformal_torus_op):
        geom = conformal_torus_op.geometry
        rng = np.random.default_rng(17)
        u0 = Field(geom, rng.standard_normal((geom.node_count, 2)))
        traj = evolve_exact(conformal_torus_op, u0, TimeGrid(0.0, 0.5, 20))
        trace = frequency_trace(traj, conformal_torus_op)
        assert trace.aux["d_expression_gap"] <= 1e-12


    def test_values_are_built_from_modal_data_on_first_access(self, weighted_circle_op):
        geom = weighted_circle_op.geometry
        u0 = Field(geom, np.random.default_rng(18).standard_normal((geom.node_count, 2)))
        grid = TimeGrid(0.0, 0.4, 8)
        traj = evolve_exact(weighted_circle_op, u0, grid)
        modal = traj.modal
        assert "values" not in vars(traj)
        assert modal.initial is u0.values
        vals, vecs = weighted_circle_op.eigensystem
        assert modal.rates is vals and modal.vectors is vecs
        assert np.array_equal(modal.coeffs, vecs.T @ (geom.mu[:, None] * u0.values))
        values = traj.values
        assert traj.values is values
        assert not values.flags.writeable
        assert np.array_equal(values, modal.sample(grid.times - grid.a))
        for k, fld in enumerate(traj.fields):
            assert np.array_equal(fld.values, values[k])


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
        zero = evolve_perturbed(op, u0, grid, PerturbationSpec.build(op.geometry, grid, bound=0.0))
        assert len(calls) == 1
        assert np.array_equal(first.values, second.values)
        assert np.array_equal(first.values, zero.values)
        evolve_cn(op, u0, TimeGrid(0.0, 1.0, 40))
        assert len(calls) == 2
        evolve_cn(assemble(op.geometry), u0, grid)
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
        for k, fld in enumerate(traj.fields):
            assert np.shares_memory(fld.values, traj.values)
            assert np.array_equal(fld.values, traj.values[k])

    def test_constant_field_is_fixed(self, weighted_circle_op):
        one = Field.constant(weighted_circle_op.geometry)
        traj = evolve_cn(weighted_circle_op, one, TimeGrid(0.0, 1.0, 20))
        assert np.max(np.abs(traj.fields[-1].values - 1.0)) < 1e-12

    def test_eigenmode_richardson(self, flat_circle_op):
        # I(b)/I(a) converges to exp(2 lambda (b-a)) at second order
        pair = eigenpairs(flat_circle_op, 2)[1]
        errors = []
        for steps in (50, 100):
            traj = evolve_cn(flat_circle_op, pair.eigenfield, TimeGrid(0.0, 1.0, steps))
            ratio = weighted_inner(traj.fields[-1], traj.fields[-1])
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
            gaps.append(mu_distance(exact.fields[-1], stepped.fields[-1]))
        assert gaps[0] / gaps[1] > 3.5

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
        pert = PerturbationSpec.build(geom, grid, b=[0.2, 0.1], c=0.1)
        dense_bytes = 8 * geom.node_count**2

        def trace_both():
            op = assemble(geom)
            frequency_trace(evolve_cn(op, u0, grid), op)
            frequency_trace(evolve_perturbed(op, u0, grid, pert), op)

        _, peak = peak_allocated(trace_both)
        assert peak < dense_bytes / 16


class TestPerturbedFlow:
    def test_zero_perturbation_bit_matches_plain_stepping(self, weighted_circle_op):
        geom = weighted_circle_op.geometry
        grid = TimeGrid(0.0, 1.0, 30)
        pert = PerturbationSpec.build(geom, grid, bound=0.0)
        rng = np.random.default_rng(15)
        u0 = Field(geom, rng.standard_normal(geom.node_count))
        a = evolve_perturbed(weighted_circle_op, u0, grid, pert)
        b = evolve_cn(weighted_circle_op, u0, grid)
        for fa, fb in zip(a.fields, b.fields):
            assert np.array_equal(fa.values, fb.values)

    def test_non_finite_stack_rejected(self, flat_circle_op):
        # an explicit potential of 1e300 overflows the stepped values to inf and nan;
        # the steps, and so the finite check, run when the values are first read
        geom = flat_circle_op.geometry
        grid = TimeGrid(0.0, 1.0, 4)
        pert = PerturbationSpec.build(geom, grid, c=1e300)
        u0 = Field(geom, np.sin(geom.coords[:, 0]))
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(InvalidInputError, match="values must be finite"):
                evolve_perturbed(flat_circle_op, u0, grid, pert).values

    def test_advection_preserves_flat_norm(self, flat_circle_op):
        # traveling wave: I(t) = pi * exp(2 rate t) for u0 = sin(kx)
        geom = flat_circle_op.geometry
        grid = TimeGrid(0.0, 1.0, 400)
        beta = 0.5
        pert = PerturbationSpec.build(
            geom, grid, b=lambda t: np.full((geom.node_count, 1), beta),
            bound=beta, gradient_only=True,
        )
        u0 = Field(geom, np.sin(geom.coords[:, 0]))
        traj = evolve_perturbed(flat_circle_op, u0, grid, pert)
        h = TWO_PI / 128
        rate = -4.0 * np.sin(h / 2.0) ** 2 / h**2
        final = weighted_inner(traj.fields[-1], traj.fields[-1])
        expected = np.pi * np.exp(2.0 * rate)
        assert abs(final / expected - 1.0) < 1e-4

    def test_advection_travels(self, flat_circle_op):
        # the discrete drift shifts the phase by ~beta*t
        geom = flat_circle_op.geometry
        grid = TimeGrid(0.0, 1.0, 400)
        beta = 0.5
        pert = PerturbationSpec.build(
            geom, grid, b=lambda t: np.full((geom.node_count, 1), beta),
            bound=beta, gradient_only=True,
        )
        x = geom.coords[:, 0]
        traj = evolve_perturbed(flat_circle_op, Field(geom, np.sin(x)), grid, pert)
        h = TWO_PI / 128
        rate = -4.0 * np.sin(h / 2.0) ** 2 / h**2
        # discrete centered advection rotates at speed beta*sin(h)/h
        speed = beta * np.sin(h) / h
        expected = np.exp(rate) * np.sin(x + speed)
        assert np.max(np.abs(traj.fields[-1].values[:, 0] - expected)) < 5e-4

    def test_constant_potential_is_gauge_factor(self, weighted_circle_op):
        geom = weighted_circle_op.geometry
        grid = TimeGrid(0.0, 1.0, 200)
        c0 = 0.4
        pert = PerturbationSpec.build(
            geom, grid, c=lambda t: np.full(geom.node_count, c0), bound=c0
        )
        rng = np.random.default_rng(16)
        u0 = Field(geom, np.sin(geom.coords[:, 0]) + 0.2 * rng.standard_normal())
        perturbed = evolve_perturbed(weighted_circle_op, u0, grid, pert)
        plain = evolve_cn(weighted_circle_op, u0, grid)
        gaps = []
        for k, t in enumerate(grid.times):
            scaled = np.exp(c0 * t) * plain.fields[k].values
            gaps.append(
                mu_distance(perturbed.fields[k], Field(geom, scaled))
                / weighted_norm(perturbed.fields[k])
            )
        assert max(gaps) < 1e-4

    def test_certification_failure(self, flat_circle_op):
        geom = flat_circle_op.geometry
        grid = TimeGrid(0.0, 1.0, 10)
        with pytest.raises(CertificationFailureError):
            PerturbationSpec.build(
                geom, grid,
                b=lambda t: np.full((geom.node_count, 1), 0.5),
                bound=0.3,
            )

    def test_certified_at_construction(self, flat_circle_op):
        geom = flat_circle_op.geometry
        grid = TimeGrid(0.0, 1.0, 10)
        spec = PerturbationSpec.build(
            geom, grid, b=lambda t: np.full((geom.node_count, 1), 0.2), bound=0.3
        )
        big = np.full((grid.times.size, geom.node_count, 1), 0.5)
        with pytest.raises(CertificationFailureError):
            PerturbationSpec(geom, grid, b=big, c=None, bound=np.full(grid.times.size, 0.3))
        with pytest.raises(CertificationFailureError):
            dataclasses.replace(spec, b=big)
        with pytest.raises(InvalidInputError):
            dataclasses.replace(spec, c=np.full((grid.times.size, geom.node_count), 0.1),
                                gradient_only=True)

    def test_omitted_bound_is_the_tight_certificate(self, flat_circle_op):
        geom = flat_circle_op.geometry
        grid = TimeGrid(0.0, 1.0, 10)
        b = np.multiply.outer(grid.times, np.sin(geom.coords))
        c = np.full((grid.times.size, geom.node_count), 0.25)
        spec = PerturbationSpec(geom, grid, b=b, c=c, bound=None)
        assert np.array_equal(spec.bound, np.maximum(np.abs(b).max(axis=(1, 2)), 0.25))
        assert not any(arr.flags.writeable for arr in (spec.b, spec.c, spec.bound))
        assert np.array_equal(PerturbationSpec.build(geom, grid, b=b, c=c).bound, spec.bound)

    def test_gradient_only_requires_zero_potential(self, flat_circle_op):
        geom = flat_circle_op.geometry
        grid = TimeGrid(0.0, 1.0, 10)
        with pytest.raises(InvalidInputError):
            PerturbationSpec.build(
                geom, grid,
                c=lambda t: np.full(geom.node_count, 0.2),
                bound=0.2, gradient_only=True,
            )

    def test_grid_mismatch_rejected(self, flat_circle_op):
        geom = flat_circle_op.geometry
        pert = PerturbationSpec.build(geom, TimeGrid(0.0, 1.0, 10), bound=0.0)
        u0 = Field(geom, np.sin(geom.coords[:, 0]))
        with pytest.raises(InvalidInputError):
            evolve_perturbed(flat_circle_op, u0, TimeGrid(0.0, 1.0, 20), pert)

    def test_conformal_geometry_rejected(self, conformal_torus_op):
        geom = conformal_torus_op.geometry
        grid = TimeGrid(0.0, 1.0, 10)
        pert = PerturbationSpec.build(
            geom, grid, c=lambda t: np.full(geom.node_count, 0.1), bound=0.1
        )
        rng = np.random.default_rng(17)
        u0 = Field(geom, rng.standard_normal(geom.node_count))
        with pytest.raises(InvalidInputError):
            evolve_perturbed(conformal_torus_op, u0, grid, pert)

    def test_certified_bound_recorded(self, flat_circle_op):
        geom = flat_circle_op.geometry
        grid = TimeGrid(0.0, 1.0, 10)
        pert = PerturbationSpec.build(
            geom, grid, b=lambda t: np.full((geom.node_count, 1), 0.2), bound=0.25
        )
        u0 = Field(geom, np.sin(geom.coords[:, 0]))
        traj = evolve_perturbed(flat_circle_op, u0, grid, pert)
        assert traj.certified_bound is not None
        assert np.allclose(traj.certified_bound, 0.25)

    def test_tight_bound_autocertification(self, flat_circle_op):
        geom = flat_circle_op.geometry
        grid = TimeGrid(0.0, 1.0, 10)
        pert = PerturbationSpec.build(
            geom, grid, b=lambda t: np.full((geom.node_count, 1), 0.2 * np.cos(t))
        )
        assert np.allclose(pert.bound, 0.2 * np.abs(np.cos(grid.times)))


class TestBlockStepping:
    """Flows stepped together as one block of columns keep the bits of one-flow stepping."""

    @staticmethod
    def recurrence(op, u0, grid, pert=None):
        """The one-flow trapezoid recurrence written out, as stepped before blocks existed."""
        solver, forward = op.trapezoid_factors(grid.dt)

        def term(k, u):
            out = np.zeros_like(u)
            if pert.b is not None:
                out += np.einsum("nd,ndc->nc", pert.b[k], op.geometry.gradient(u))
            if pert.c is not None:
                out += pert.c[k][:, None] * u
            return out

        u = u0.values
        values = [u]
        for k in range(grid.steps):
            rhs = forward @ u
            if pert is None:
                u = solver.solve(rhs)
            else:
                p_old = term(k, u)
                predictor = solver.solve(rhs + grid.dt * p_old)
                u = solver.solve(rhs + grid.dt * (0.5 * (p_old + term(k + 1, predictor))))
            values.append(u)
        return np.stack(values)

    @staticmethod
    def flows(kind, request):
        """(op, grid, [(u0, pert or None)]) of seven flows of one test case."""
        rng = np.random.default_rng(41)
        grid = TimeGrid(0.0, 0.5, 25)
        if kind == "circle-two-components":
            op = request.getfixturevalue("weighted_circle_op")
            starts = [random_smooth_field(op.geometry, rng, components=2) for _ in range(7)]
            return op, grid, [(u0, None) for u0 in starts]
        if kind == "conformal-torus":
            op = request.getfixturevalue("conformal_torus_op")
            return op, grid, [(random_smooth_field(op.geometry, rng), None) for _ in range(7)]
        if kind == "flat-torus-perturbed":
            op = assemble(make_torus(16, 16, TWO_PI, TWO_PI))
        else:
            op = request.getfixturevalue("flat_circle_op")
        geom = op.geometry
        dim, x = geom.dim, geom.coords[:, 0]
        b = lambda t: 0.3 * np.cos(x + t)[:, None] * np.ones(dim)
        c = lambda t: 0.2 * np.sin(2.0 * x - t)
        perts = [  # gradient-only, drift and potential, potential only, zero
            PerturbationSpec.build(geom, grid, b=b, gradient_only=True),
            PerturbationSpec.build(geom, grid, b=b, c=c),
            PerturbationSpec.build(geom, grid, c=c),
            PerturbationSpec.build(geom, grid, bound=0.0),
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
             "flat-torus-perturbed"]

    @pytest.mark.parametrize("kind", CASES)
    def test_block_of_one_is_the_one_flow_recurrence(self, request, kind):
        op, grid, flows = self.flows(kind, request)
        for u0, pert in flows[:4]:
            expected = self.recurrence(op, u0, grid, pert)
            assert np.array_equal(self.evolve(op, grid, u0, pert).values, expected)

    @pytest.mark.parametrize("kind", CASES)
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
        evolve_cn(op, starts[0], grid)  # factor I - dt/2 L before the traced window
        # map holds no trajectory past its call, so each block is dropped before the next
        finals, peak = peak_allocated(lambda: list(map(
            lambda traj: traj.values[-1].copy(),
            _in_blocks(evolve_cn(op, u0, grid) for u0 in starts),
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


class TestGauge:
    def test_identity_gauge(self, flat_circle_op):
        geom = flat_circle_op.geometry
        u0 = Field(geom, np.sin(geom.coords[:, 0]))
        traj = evolve_exact(flat_circle_op, u0, TimeGrid(0.0, 1.0, 20))
        same = gauge_transform(traj, 0.0)
        for a, b in zip(traj.fields, same.fields):
            assert np.array_equal(a.values, b.values)

    def test_matches_per_field_scaling(self, weighted_circle_op):
        geom = weighted_circle_op.geometry
        x = geom.coords[:, 0]
        u0 = Field(geom, np.stack([np.sin(x), np.cos(2.0 * x)], axis=1))
        grid = TimeGrid(0.0, 1.0, 20)
        traj = evolve_exact(weighted_circle_op, u0, grid)
        scaled = gauge_transform(traj, lambda t: 0.3 - 0.5 * t)
        integral = scipy.integrate.cumulative_trapezoid(
            0.3 - 0.5 * grid.times, grid.times, initial=0.0
        )
        for factor, before, after in zip(np.exp(-integral), traj.fields, scaled.fields):
            assert np.array_equal(after.values, factor * before.values)

    def test_constant_rate_scales_norm(self, flat_circle_op):
        geom = flat_circle_op.geometry
        u0 = Field(geom, np.sin(geom.coords[:, 0]))
        grid = TimeGrid(0.0, 1.0, 20)
        traj = evolve_exact(flat_circle_op, u0, grid)
        scaled = gauge_transform(traj, 0.7)
        for k, t in enumerate(grid.times):
            base = weighted_inner(traj.fields[k], traj.fields[k])
            now = weighted_inner(scaled.fields[k], scaled.fields[k])
            assert abs(now - np.exp(-2.0 * 0.7 * t) * base) < 1e-10 * base

    def test_gauged_equation_reduces_to_pure_flow(self, flat_circle_op):
        # solve u_t = L u + c0 u by perturbation, remove the gauge, compare
        geom = flat_circle_op.geometry
        grid = TimeGrid(0.0, 1.0, 200)
        c0 = 0.3
        pert = PerturbationSpec.build(
            geom, grid, c=lambda t: np.full(geom.node_count, c0), bound=c0
        )
        u0 = Field(geom, np.sin(geom.coords[:, 0]))
        gauged = evolve_perturbed(flat_circle_op, u0, grid, pert)
        removed = gauge_transform(gauged, c0)
        pure = evolve_cn(flat_circle_op, u0, grid)
        gap = mu_distance(removed.fields[-1], pure.fields[-1])
        assert gap < 1e-4 * weighted_norm(pure.fields[-1])
