"""Property-based invariants with hypothesis-generated data."""

from unittest import mock

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
from parafreq import evolution
from parafreq.config import ExperimentConfig, build_geometry, build_initial
from parafreq.core import Trajectory, periodic_coords
from parafreq.errors import InvalidInputError
from parafreq.expressions import compile_expression
from parafreq.sampling import random_smooth_field, random_smooth_values, random_weight
from parafreq.suite import SuiteContext

from conftest import peak_allocated

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
        grid = TimeGrid(0.0, 1.0, 20)
        traj = evolve_exact(small_operator, u0, grid)
        base = frequency_trace(traj, small_operator)
        gauged = gauge_transform(traj, c0 + c1 * np.sin(grid.times))
        moved = frequency_trace(gauged, small_operator)
        assert np.max(np.abs(moved.U - base.U)) < 1e-12 * (1.0 + np.max(np.abs(base.U)))


N_ROUGH = 512
_rough_x = periodic_coords((N_ROUGH,), (TWO_PI,))[:, 0]
rough_operator = assemble(make_circle(N_ROUGH, TWO_PI, 0.3 * np.sin(_rough_x)))


class TestExactDerivatives:
    """A modal trace carries (log I)' = 2U and U' = 2 sum_k p_k (lambda_k - U)^2 exactly."""

    @given(
        seed=st.integers(0, 2**31 - 1),
        # None: nodal white noise; otherwise coefficients decaying as (1 + k)^-decay
        decay=st.one_of(st.none(), st.floats(0.0, 1.5)),
    )
    @settings(max_examples=25, deadline=None)
    def test_modal_derivatives_are_exact_and_differences_converge_to_them(self, seed, decay):
        rng = np.random.default_rng(seed)
        geom = rough_operator.geometry
        rates, vectors = rough_operator.eigensystem
        if decay is None:
            u0 = rng.standard_normal(N_ROUGH)
        else:
            slowest_first = np.argsort(np.argsort(-rates))
            u0 = vectors @ (rng.standard_normal(N_ROUGH) * (1.0 + slowest_first) ** -decay)
        # a window of half the fastest decay time, so that every mode is resolved in time
        span = 0.5 / np.max(np.abs(rates))
        errors = []
        for steps in (16, 32):
            traj = evolve_exact(rough_operator, Field(geom, u0), TimeGrid(0.0, span, steps))
            exact = frequency_trace(traj, rough_operator)
            assert np.all(exact.dU >= 0.0)
            assert np.array_equal(exact.dlogI, 2.0 * exact.U)
            sampled = frequency_trace(
                Trajectory(grid=traj.grid, geometry=geom, values=traj.values,
                           provenance=traj.provenance),
                rough_operator,
            )
            errors.append([
                np.max(np.abs(d - e)[1:-1]) / np.max(np.abs(e))
                for d, e in ((sampled.dlogI, exact.dlogI), (sampled.dU, exact.dU))
            ])
        ratios = np.divide(*errors)
        assert np.all(ratios > 3.5), ratios


def _krylov_geometries():
    x = periodic_coords((128,), (TWO_PI,))[:, 0]
    yield make_circle(128, TWO_PI, 0.4 * np.cos(x))
    x = periodic_coords((512,), (TWO_PI,))[:, 0]
    yield make_circle(512, TWO_PI, 0.3 * np.sin(2.0 * x))
    x, y = periodic_coords((16, 16), (TWO_PI, TWO_PI)).T
    yield make_torus(16, 16, TWO_PI, TWO_PI, 0.4 * np.sin(x) * np.cos(y), 0.3 * np.cos(x + y))


# (an operator left without its eigensystem, one that holds it) per geometry
_KRYLOV_PAIRS = [(assemble(geom), assemble(geom)) for geom in _krylov_geometries()]
for _, _dense in _KRYLOV_PAIRS:
    _dense.eigensystem


class TestKrylovFlows:
    """A flow on an operator without its eigensystem builds only the modes its data needs."""

    @given(
        pair=st.sampled_from(_KRYLOV_PAIRS),
        rough=st.booleans(),
        components=st.sampled_from([1, 2]),
        seed=st.integers(0, 2**31 - 1),
    )
    @settings(max_examples=30, deadline=None)
    def test_krylov_flows_match_the_dense_path(self, pair, rough, components, seed):
        krylov, dense = pair
        geom = krylov.geometry
        rng = np.random.default_rng(seed)
        if rough:  # nodal white noise
            u0 = Field(geom, rng.standard_normal((geom.node_count, components)))
        else:
            u0 = random_smooth_field(geom, rng, components=components)
        grid = TimeGrid(0.0, 1.0, 40)
        # Krylov runs that never give way to the dense eigensystem, which nodal noise would
        with mock.patch.object(evolution, "_KRYLOV_SHARE", 1.0):
            traj = evolve_exact(krylov, u0, grid)
            alone = [evolve_exact(krylov, Field(geom, u0.values[:, j]), grid).values[:, :, 0]
                     for j in range(components)]
        assert "eigensystem" not in vars(krylov)
        trace = frequency_trace(traj, krylov)
        values = traj.values
        own_i = np.einsum("snc,n,snc->s", values, geom.mu, values)
        assert np.max(np.abs(own_i / trace.I - 1.0)) <= 1e-12
        assert trace.aux["d_expression_gap"] <= 1e-12
        reference = frequency_trace(evolve_exact(dense, u0, grid), dense)
        assert np.max(np.abs(trace.I / reference.I - 1.0)) <= 1e-9
        assert np.max(np.abs(trace.U / reference.U - 1.0)) <= 1e-9
        # each component evolves alone
        scale = np.max(np.abs(u0.values))
        for j in range(components):
            assert np.max(np.abs(values[:, :, j] - alone[j])) <= 1e-12 * scale


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


def per_field_smooth_values(geometry, rng, max_mode=4):
    """Periodic-grid smooth data with the trigonometry computed per field, term by term.

    The reference for ``random_smooth_values``, which sums the same terms in
    another order: in per-axis matrix products, with ``sin(px + py)`` split
    into ``sin px cos py + cos px sin py``.
    """
    if geometry.dim == 1:
        x = geometry.coords[:, 0]
        length = geometry.node_count * geometry.stencil.spacings[0]
        out = rng.standard_normal() * np.ones_like(x)
        for k in range(1, max_mode + 1):
            freq = 2.0 * np.pi * k / length
            out += rng.standard_normal() * np.cos(freq * x)
            out += rng.standard_normal() * np.sin(freq * x)
    else:
        x, y = geometry.coords[:, 0], geometry.coords[:, 1]
        nx, ny = geometry.stencil.shape
        lx = nx * geometry.stencil.spacings[0]
        ly = ny * geometry.stencil.spacings[1]
        out = rng.standard_normal() * np.ones_like(x)
        for kx in range(max_mode + 1):
            for ky in range(max_mode + 1):
                if kx == 0 and ky == 0:
                    continue
                px = (2.0 * np.pi * kx / lx) * x
                py = (2.0 * np.pi * ky / ly) * y
                out += rng.standard_normal() * np.cos(px) * np.cos(py)
                out += rng.standard_normal() * np.sin(px + py)
    return out / np.max(np.abs(out))


def assert_agrees_with_per_field_sums(geom, max_mode, seed, fields=3):
    """Each of ``fields`` fields drawn in turn from one stream matches the reference to round-off.

    Both sides sum the same terms, one standard normal draw each, in another
    order, so after the max-modulus normalization they differ by at most
    ``terms * eps``.  The next draw after the fields is the same on both
    streams, so each field takes the reference's number of draws.
    """
    terms = 1 + 2 * max_mode if geom.dim == 1 else 2 * (max_mode + 1) ** 2 - 1
    rng, reference = np.random.default_rng(seed), np.random.default_rng(seed)
    for _ in range(fields):
        got = random_smooth_values(geom, rng, max_mode)
        want = per_field_smooth_values(geom, reference, max_mode)
        assert np.max(np.abs(got - want)) <= terms * np.finfo(float).eps
    assert rng.standard_normal() == reference.standard_normal()


@pytest.mark.parametrize("where", [
    "weighted_circle", "conformal_torus", "non-square torus", "check-all circle", "check-all torus",
    "torus 48",
])
def test_fields_agree_with_per_field_sums(request, where):
    # up to max_mode at the smallest axis count, the config's limit; nx != ny and lx != ly
    # catch a transposed axis, and check all's geometries at seed 0 and the stepped ladder's
    # flat 48^2 torus are the benchmarked ones
    geom, max_modes = {
        "weighted_circle": lambda: (request.getfixturevalue(where), (0, 1, 4, 128)),
        "conformal_torus": lambda: (request.getfixturevalue(where), (0, 1, 4, 16)),
        "non-square torus": lambda: (make_torus(12, 20, 1.5, 4.0), (1, 4, 12)),
        "check-all circle": lambda: (SuiteContext(seed=0).circle, (4,)),
        "check-all torus": lambda: (SuiteContext(seed=0).torus, (4,)),
        "torus 48": lambda: (make_torus(48, 48, TWO_PI, TWO_PI), (4, 48)),
    }[where]()
    for max_mode in max_modes:
        assert_agrees_with_per_field_sums(geom, max_mode, seed=35)


@given(
    shape=st.one_of(st.tuples(st.integers(4, 24)), st.tuples(st.integers(4, 24), st.integers(4, 24))),
    lengths=st.tuples(st.sampled_from([TWO_PI, 1.0, 3.7]), st.sampled_from([TWO_PI, 0.5, 9.0])),
    mode_share=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=60, deadline=None)
def test_generated_fields_agree_with_per_field_sums(shape, lengths, mode_share, seed):
    max_mode = round(mode_share * min(shape))
    if len(shape) == 1:
        geom = make_circle(shape[0], lengths[0])
    else:
        geom = make_torus(*shape, *lengths)
    assert_agrees_with_per_field_sums(geom, max_mode, seed, fields=2)


def test_a_field_at_the_largest_max_mode_allocates_its_axis_rows_alone():
    # torus 64^2 at max_mode 64, the config's limit: 8449 terms, whose full-grid rows would
    # take 277 MiB; a field needs only its per-axis rows and (65 x 65) draws, 0.4 MiB
    geometry = {"kind": "torus2d", "nx": 64, "ny": 64, "lx": TWO_PI, "ly": TWO_PI}
    geom = build_geometry(geometry)
    _, peak = peak_allocated(lambda: random_smooth_values(geom, np.random.default_rng(0), 64))
    assert peak < 2**20
    spec = ExperimentConfig.from_dict({
        "geometry": geometry, "initial": {"kind": "random", "seed": 0, "max_mode": 64},
        "time": {"a": 0.0, "b": 1.0, "steps": 4},
    }).initial
    op = assemble(geom)
    fld, peak = peak_allocated(lambda: build_initial(spec, geom, op))
    assert peak < 2**20 and abs(weighted_inner(fld, fld) - 1.0) < 1e-12


@pytest.mark.parametrize("geometry", ["weighted_circle", "conformal_torus", "gauss_line"])
def test_zero_mean_data_of_the_constant_mode_alone_are_refused(request, geometry):
    # max_mode 0 leaves the constant, whose zero-mean part is 0: normalizing it divided 0 by 0
    geom = request.getfixturevalue(geometry)
    with pytest.raises(InvalidInputError, match="max_mode >= 1"):
        random_smooth_field(geom, np.random.default_rng(4), 0, zero_mean=True)
    field = random_smooth_field(geom, np.random.default_rng(4), 1, zero_mean=True)
    assert np.all(np.isfinite(field.values))
