"""Property-based invariants with hypothesis-generated data."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from parafreq import (
    Field,
    TimeGrid,
    assemble,
    check_hadamard_bound,
    check_log_convexity,
    check_u_monotone,
    dirichlet_energy,
    energy_pairing,
    evolve_cn,
    evolve_exact,
    frequency_trace,
    gauge_transform,
    make_circle,
    make_torus,
    weighted_inner,
)
from parafreq.core import periodic_coords
from parafreq.expressions import compile_expression
from parafreq.sampling import random_smooth_field, random_weight

TWO_PI = 2.0 * np.pi
N_SMALL = 16

small_geometry = make_circle(N_SMALL, TWO_PI, 0.3 * np.sin(make_circle(N_SMALL, TWO_PI).coords[:, 0]))
small_operator = assemble(small_geometry)

finite_values = hnp.arrays(
    dtype=np.float64,
    shape=N_SMALL,
    elements=st.floats(min_value=-10.0, max_value=10.0, allow_nan=False),
)


class TestPairingProperties:
    @given(u=finite_values, v=finite_values)
    @settings(max_examples=100, deadline=None)
    def test_symmetry(self, u, v):
        fu, fv = Field(small_geometry, u), Field(small_geometry, v)
        assert weighted_inner(fu, fv) == pytest.approx(weighted_inner(fv, fu), abs=1e-12)

    @given(u=finite_values, v=finite_values, w=finite_values,
           a=st.floats(-3.0, 3.0), b=st.floats(-3.0, 3.0))
    @settings(max_examples=100, deadline=None)
    def test_bilinearity(self, u, v, w, a, b):
        fu, fv, fw = (Field(small_geometry, arr) for arr in (u, v, w))
        combo = Field(small_geometry, a * u + b * v)
        lhs = weighted_inner(combo, fw)
        rhs = a * weighted_inner(fu, fw) + b * weighted_inner(fv, fw)
        assert lhs == pytest.approx(rhs, abs=1e-10 * (1.0 + abs(rhs)))

    @given(u=finite_values)
    @settings(max_examples=100, deadline=None)
    def test_positivity(self, u):
        fu = Field(small_geometry, u)
        norm2 = weighted_inner(fu, fu)
        assert norm2 >= 0.0
        # strict positivity needs |u| above the denormal-squaring underflow
        if np.max(np.abs(u)) > 1e-100:
            assert norm2 > 0.0

    @given(u=finite_values)
    @settings(max_examples=100, deadline=None)
    def test_energy_nonnegative(self, u):
        assert dirichlet_energy(Field(small_geometry, u)) >= 0.0


class TestFlowProperties:
    @given(seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_random_spectral_flows_are_monotone(self, seed):
        rng = np.random.default_rng(seed)
        u0 = random_smooth_field(small_geometry, rng)
        traj = evolve_exact(small_operator, u0, TimeGrid(0.0, 1.0, 40))
        trace = frequency_trace(traj, small_operator)
        assert check_u_monotone(trace, 1e-10).passed
        assert check_log_convexity(trace, 1e-8 / trace.dt**2).passed
        assert check_hadamard_bound(trace, 1e-9).passed

    @given(seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_random_weights_keep_self_adjointness(self, seed):
        rng = np.random.default_rng(seed)
        base = make_circle(N_SMALL, TWO_PI)
        phi = random_weight(base.coords, (TWO_PI,), rng)
        geom = make_circle(N_SMALL, TWO_PI, phi)
        op = assemble(geom)
        u = Field(geom, rng.standard_normal(N_SMALL))
        v = Field(geom, rng.standard_normal(N_SMALL))
        asym = abs(weighted_inner(u, op.apply(v)) - weighted_inner(op.apply(u), v))
        scale = np.sqrt(weighted_inner(u, u) * weighted_inner(v, v))
        assert asym <= 1e-12 * scale

    @given(c0=st.floats(-2.0, 2.0), c1=st.floats(-2.0, 2.0))
    @settings(max_examples=25, deadline=None)
    def test_gauge_never_moves_u(self, c0, c1):
        rng = np.random.default_rng(5)
        u0 = random_smooth_field(small_geometry, rng)
        traj = evolve_exact(small_operator, u0, TimeGrid(0.0, 1.0, 20))
        base = frequency_trace(traj, small_operator)
        gauged = gauge_transform(traj, lambda t: c0 + c1 * np.sin(t))
        moved = frequency_trace(gauged, small_operator)
        assert np.max(np.abs(moved.U - base.U)) < 1e-12 * (1.0 + np.max(np.abs(base.U)))


_EVOLVE = {"spectral": evolve_exact, "stepped": evolve_cn}
_SCALES = st.one_of(st.floats(-1e3, -1e-3), st.floats(1e-3, 1e3))


def _relative_gap(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.max(np.abs(a - b)) / (1.0 + np.max(np.abs(b))))


class TestMetamorphicProperties:
    """U is a ratio of quadratic forms of an autonomous linear flow."""

    @given(seed=st.integers(0, 2**31 - 1), c=_SCALES, integrator=st.sampled_from(list(_EVOLVE)))
    @settings(max_examples=25, deadline=None)
    def test_u_invariant_under_scaling_of_the_data(self, seed, c, integrator):
        evolve = _EVOLVE[integrator]
        u0 = random_smooth_field(small_geometry, np.random.default_rng(seed))
        grid = TimeGrid(0.0, 1.0, 20)
        base = frequency_trace(evolve(small_operator, u0, grid), small_operator)
        scaled_u0 = Field(small_geometry, c * u0.values)
        scaled = frequency_trace(evolve(small_operator, scaled_u0, grid), small_operator)
        assert _relative_gap(scaled.U, base.U) < 1e-12

    @given(
        seed=st.integers(0, 2**31 - 1), shift=st.floats(-50.0, 50.0),
        integrator=st.sampled_from(list(_EVOLVE)),
    )
    @settings(max_examples=25, deadline=None)
    def test_u_invariant_under_a_shift_of_the_time_window(self, seed, shift, integrator):
        evolve = _EVOLVE[integrator]
        u0 = random_smooth_field(small_geometry, np.random.default_rng(seed))
        base = frequency_trace(evolve(small_operator, u0, TimeGrid(0.0, 1.0, 20)), small_operator)
        window = TimeGrid(shift, shift + 1.0, 20)
        moved = frequency_trace(evolve(small_operator, u0, window), small_operator)
        assert _relative_gap(moved.U, base.U) < 1e-10

    @given(seed=st.integers(0, 2**31 - 1), start=st.integers(1, 18))
    @settings(max_examples=25, deadline=None)
    def test_restarted_spectral_flow_continues_u(self, seed, start):
        u0 = random_smooth_field(small_geometry, np.random.default_rng(seed))
        grid = TimeGrid(0.0, 1.0, 20)
        traj = evolve_exact(small_operator, u0, grid)
        base = frequency_trace(traj, small_operator)
        restart = Field(small_geometry, traj.values[start])
        tail = TimeGrid(grid.times[start], 1.0, 20 - start)
        moved = frequency_trace(evolve_exact(small_operator, restart, tail), small_operator)
        assert _relative_gap(moved.U, base.U[start:]) < 1e-10


def _weighted_geometry(kind: str, rng: np.random.Generator):
    """A small circle or torus with random smooth phi (and psi on the torus)."""
    if kind == "circle":
        phi = random_weight(periodic_coords((N_SMALL,), (TWO_PI,)), (TWO_PI,), rng)
        return make_circle(N_SMALL, TWO_PI, phi)
    coords = periodic_coords((8, 6), (TWO_PI, 3.0))
    phi = random_weight(coords, (TWO_PI, 3.0), rng)
    psi = random_weight(coords, (TWO_PI, 3.0), rng, amplitude=0.3)
    return make_torus(8, 6, TWO_PI, 3.0, phi, psi)


class TestSummationByParts:
    @given(seed=st.integers(0, 2**31 - 1), kind=st.sampled_from(["circle", "torus"]))
    @settings(max_examples=50, deadline=None)
    def test_pairing_with_l_is_minus_the_energy_pairing(self, seed, kind):
        rng = np.random.default_rng(seed)
        geom = _weighted_geometry(kind, rng)
        op = assemble(geom)
        u = Field(geom, random_smooth_field(geom, rng).values)
        v = Field(geom, rng.standard_normal(geom.node_count))
        lv = op.apply(v)
        lhs = weighted_inner(u, lv)
        # round-off scale: the sum of the pairing's terms in absolute value
        scale = float(np.sum(np.abs(geom.mu[:, None] * u.values * lv.values)))
        assert abs(lhs + energy_pairing(u, v)) <= 1e-13 * scale
        assert abs(lhs - weighted_inner(op.apply(u), v)) <= 1e-13 * scale


class TestExpressionProperties:
    @given(
        a=st.floats(-4.0, 4.0), b=st.floats(-4.0, 4.0), k=st.integers(1, 4),
        x=hnp.arrays(np.float64, 8, elements=st.floats(-3.0, 3.0)),
    )
    @settings(max_examples=100, deadline=None)
    def test_generated_trig_polynomials(self, a, b, k, x):
        text = f"{a!r}*sin({k}*x) + {b!r}*cos(x)**2"
        fn = compile_expression(text, ("x",))
        expected = a * np.sin(k * x) + b * np.cos(x) ** 2
        np.testing.assert_allclose(fn(x=x), expected, rtol=1e-12, atol=1e-12)
