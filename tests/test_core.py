import numpy as np
import pytest
import scipy.integrate
import scipy.special

from parafreq import (
    PROVENANCE_IMPLICIT,
    Field,
    TimeGrid,
    Trajectory,
    dirichlet_energy,
    make_circle,
    make_gauss_line,
    make_torus,
    weighted_inner,
)
from parafreq import core
from parafreq.core import MAX_GAUSS_ORDER, cumulative_trapezoid, periodic_coords
from parafreq.errors import IncompatibleFieldsError, InvalidInputError

TWO_PI = 2.0 * np.pi


class TestCircleMeasure:
    def test_flat_measure_sums_to_length(self):
        geom = make_circle(128, TWO_PI)
        assert abs(geom.mu.sum() - TWO_PI) < 1e-12

    def test_cosine_weight_matches_bessel_identity(self):
        # trapezoid on a periodic analytic integrand is spectrally accurate,
        # and the integral of exp(-cos x) is 2*pi*I0(1)
        base = make_circle(256, TWO_PI)
        geom = make_circle(256, TWO_PI, np.cos(base.coords[:, 0]))
        expected = TWO_PI * scipy.special.i0(1.0)
        assert abs(geom.mu.sum() - expected) < 1e-9
        assert abs(expected - 7.954926521012845) < 1e-12

    def test_cosine_weight_matches_refined_trapezoid(self):
        geom = make_circle(256, TWO_PI, np.cos(make_circle(256, TWO_PI).coords[:, 0]))
        x = np.linspace(0.0, TWO_PI, 8193)[:-1]
        oracle = np.sum(np.exp(-np.cos(x))) * (TWO_PI / 8192)
        assert abs(geom.mu.sum() - oracle) < 1e-12

    def test_too_few_nodes_rejected(self):
        with pytest.raises(InvalidInputError):
            make_circle(3, TWO_PI)

    def test_non_finite_phi_rejected(self):
        phi = np.zeros(8)
        phi[3] = np.nan
        with pytest.raises(InvalidInputError):
            make_circle(8, TWO_PI, phi)

    def test_bad_length_rejected(self):
        with pytest.raises(InvalidInputError):
            make_circle(8, 0.0)


class TestTorusMeasure:
    def test_flat_measure(self):
        geom = make_torus(16, 16, TWO_PI, TWO_PI)
        assert abs(geom.mu.sum() - 4.0 * np.pi**2) < 1e-10

    def test_constant_conformal_scaling(self):
        c = 0.37
        geom = make_torus(16, 16, TWO_PI, TWO_PI, 0.0, c)
        assert abs(geom.mu.sum() - np.exp(2.0 * c) * 4.0 * np.pi**2) < 1e-9

    def test_conformal_area_matches_refined_quadrature(self):
        # 32x32 conformal area against a 512x512 trapezoid oracle
        base = make_torus(32, 32, TWO_PI, TWO_PI)
        x, y = base.coords[:, 0], base.coords[:, 1]
        geom = make_torus(32, 32, TWO_PI, TWO_PI, 0.0, 0.3 * np.sin(x) * np.cos(y))
        n = 512
        xs = np.linspace(0.0, TWO_PI, n, endpoint=False)
        xg, yg = np.meshgrid(xs, xs, indexing="ij")
        oracle = np.sum(np.exp(0.6 * np.sin(xg) * np.cos(yg))) * (TWO_PI / n) ** 2
        assert abs(geom.mu.sum() / oracle - 1.0) < 1e-6

    def test_too_few_nodes_rejected(self):
        with pytest.raises(InvalidInputError):
            make_torus(3, 16, TWO_PI, TWO_PI)

    def test_periodic_coords_are_the_geometry_coords(self):
        # weights evaluated on periodic_coords match a geometry built first, bit for bit
        assert np.array_equal(periodic_coords((12,), (TWO_PI,)), make_circle(12, TWO_PI).coords)
        assert np.array_equal(
            periodic_coords((5, 7), (2.0, 3.0)), make_torus(5, 7, 2.0, 3.0).coords
        )


class TestGaussLine:
    def test_total_mass_is_gaussian_integral(self, gauss_line):
        one = Field.constant(gauss_line)
        assert abs(weighted_inner(one, one) - 2.0 * np.sqrt(np.pi)) < 1e-12

    def test_second_moment(self, gauss_line):
        # closed form: integral of x^2 exp(-a x^2) = sqrt(pi/a^3)/2 with a = 1/4
        x = Field(gauss_line, gauss_line.coords[:, 0])
        assert abs(weighted_inner(x, x) - 4.0 * np.sqrt(np.pi)) < 1e-12

    def test_odd_moment_vanishes(self, gauss_line):
        x = Field(gauss_line, gauss_line.coords[:, 0])
        one = Field.constant(gauss_line)
        assert abs(weighted_inner(x, one)) < 1e-12

    @pytest.mark.parametrize("degree", range(7))
    def test_polynomial_exactness(self, gauss_line, degree):
        # Gaussian moments: int x^(2m) e^{-x^2/4} dx = (2m-1)!! 2^(m+1) sqrt(pi)
        coords = gauss_line.coords[:, 0]
        poly = Field(gauss_line, coords**degree)
        one = Field.constant(gauss_line)
        value = weighted_inner(poly, one)
        if degree % 2 == 1:
            expected = 0.0
        else:
            m = degree // 2
            double_fact = float(np.prod(np.arange(2 * m - 1, 0, -2))) if m else 1.0
            expected = double_fact * 2.0 ** (m + 1) * np.sqrt(np.pi)
        assert abs(value - expected) < 1e-10 * max(1.0, abs(expected))

    def test_low_order_rejected(self):
        with pytest.raises(InvalidInputError):
            make_gauss_line(3)

    def test_order_beyond_hermgauss_rejected_before_it_runs(self, monkeypatch):
        def overflow(order):
            raise AssertionError("hermgauss ran")

        monkeypatch.setattr(np.polynomial.hermite, "hermgauss", overflow)
        with pytest.raises(InvalidInputError, match=f"order <= {MAX_GAUSS_ORDER}"):
            make_gauss_line(MAX_GAUSS_ORDER + 1)


class TestWeightedInner:
    def test_constants_on_flat_circle(self, flat_circle):
        one = Field.constant(flat_circle)
        assert abs(weighted_inner(one, one) - TWO_PI) < 1e-12

    def test_orthogonality(self, flat_circle):
        x = flat_circle.coords[:, 0]
        s = Field(flat_circle, np.sin(x))
        c = Field(flat_circle, np.cos(x))
        assert abs(weighted_inner(s, c)) < 1e-12

    def test_two_mode_parseval(self, flat_circle):
        x = flat_circle.coords[:, 0]
        u = Field(flat_circle, np.sin(x) + np.sin(2.0 * x))
        assert abs(weighted_inner(u, u) - TWO_PI) < 1e-10

    def test_mismatched_geometries_rejected(self, flat_circle):
        other = make_circle(64, TWO_PI)
        with pytest.raises(IncompatibleFieldsError):
            weighted_inner(Field.constant(flat_circle), Field.constant(other))

    def test_mismatched_components_rejected(self, flat_circle):
        u = Field.constant(flat_circle, components=1)
        v = Field.constant(flat_circle, components=2)
        with pytest.raises(IncompatibleFieldsError):
            weighted_inner(u, v)


class TestDirichletEnergy:
    def test_constant_has_zero_energy(self, flat_circle):
        assert dirichlet_energy(Field.constant(flat_circle, 3.0)) == 0.0

    def test_single_mode(self, flat_circle):
        x = flat_circle.coords[:, 0]
        energy = dirichlet_energy(Field(flat_circle, np.sin(x)))
        # exact discrete value, then the continuum limit
        n, h = 128, TWO_PI / 128
        discrete = 2.0 * n * np.sin(h / 2.0) ** 2 / h
        assert abs(energy - discrete) < 1e-12
        assert abs(energy - np.pi) < 1e-3

    def test_two_modes(self, flat_circle):
        x = flat_circle.coords[:, 0]
        energy = dirichlet_energy(Field(flat_circle, np.sin(x) + np.sin(2.0 * x)))
        n, h = 128, TWO_PI / 128
        discrete = 2.0 * n * (np.sin(h / 2.0) ** 2 + np.sin(h) ** 2) / h
        assert abs(energy - discrete) < 1e-12
        assert abs(energy - 5.0 * np.pi) / (5.0 * np.pi) < 1e-3

    def test_refinement_is_second_order(self):
        errors = []
        for n in (64, 128):
            geom = make_circle(n, TWO_PI)
            u = Field(geom, np.sin(geom.coords[:, 0]))
            errors.append(abs(dirichlet_energy(u) - np.pi))
        assert errors[0] / errors[1] > 3.5

    def test_measure_refinement_stability(self):
        # doubling the grid moves smooth-integrand values by O(h^2) or better
        def total(n):
            base = make_circle(n, TWO_PI)
            return make_circle(n, TWO_PI, np.cos(base.coords[:, 0])).mu.sum()

        h2 = (TWO_PI / 64) ** 2
        assert abs(total(64) - total(128)) < h2

        def torus_total(n):
            base = make_torus(n, n, TWO_PI, TWO_PI)
            x, y = base.coords[:, 0], base.coords[:, 1]
            return make_torus(n, n, TWO_PI, TWO_PI, 0.0, 0.3 * np.sin(x) * np.cos(y)).mu.sum()

        assert abs(torus_total(16) - torus_total(32)) < (TWO_PI / 16) ** 2

    @pytest.mark.parametrize("geometry", ["weighted_circle", "conformal_torus", "gauss_line"])
    def test_energy_batch_chunks_keep_each_sample_bit_for_bit(self, request, geometry, monkeypatch):
        # two full chunks of 32 and a partial one of 11, 1 or 2 samples, against the
        # one-shot sum; a partial chunk of fewer than 4 samples accumulates its terms
        geom = request.getfixturevalue(geometry)
        G, C = geom.differences, geom.weights
        monkeypatch.setattr(core, "CHUNK_VALUES", 32 * G.shape[0] * 2)
        for samples in (75, 65, 66):
            stack = np.random.default_rng(34).standard_normal((samples, geom.node_count, 2))
            # G applied to the whole stack at once; term-major in memory, so the einsum
            # sums each sample's terms in order
            du = G @ stack.transpose(1, 0, 2).reshape(geom.node_count, -1)
            du = du.reshape(-1, samples, 2).transpose(1, 0, 2)
            expected = np.einsum("sec,e,sec->s", du, C, du)
            assert np.array_equal(geom.energy_batch(stack), expected)


class TestFieldAndGrids:
    def test_field_shape_validation(self, flat_circle):
        with pytest.raises(InvalidInputError):
            Field(flat_circle, np.zeros(5))

    def test_field_non_finite_rejected(self, flat_circle):
        values = np.zeros(flat_circle.node_count)
        values[0] = np.inf
        with pytest.raises(InvalidInputError):
            Field(flat_circle, values)

    def test_time_grid_ordering(self):
        with pytest.raises(InvalidInputError):
            TimeGrid(1.0, 0.0, 10)
        grid = TimeGrid(0.0, 1.0, 4)
        assert np.allclose(np.diff(grid.times), grid.dt)

    def test_geometry_arrays_are_frozen(self, flat_circle):
        with pytest.raises(ValueError):
            flat_circle.mu[0] = 2.0

    @pytest.mark.parametrize("geometry", ["conformal_torus", "gauss_line"])
    def test_dirichlet_form_is_frozen(self, request, geometry):
        geom = request.getfixturevalue(geometry)
        matrices = [geom.differences] + ([geom.basis.gradient] if geom.basis else [])
        arrays = [geom.weights] + [a for m in matrices for a in (m.data, m.indices, m.indptr)]
        for arr in arrays:
            with pytest.raises(ValueError):
                arr[0] = 1


def roll_gradient(geom, values):
    """Centered differences with np.roll, the reference for the nodal gradient."""
    values = values.reshape(geom.node_count, -1)
    grid = values.reshape(geom.stencil.shape + (values.shape[1],))
    out = np.empty((geom.node_count, geom.dim, values.shape[1]))
    for axis, h in enumerate(geom.stencil.spacings):
        diff = np.roll(grid, -1, axis=axis) - np.roll(grid, 1, axis=axis)
        out[:, axis, :] = diff.reshape(geom.node_count, -1) / (2.0 * h)
    return out


class TestGradient:
    @pytest.mark.parametrize("components", [1, 2])
    @pytest.mark.parametrize("geometry", ["weighted_circle", "conformal_torus"])
    def test_matches_roll_bit_for_bit(self, request, geometry, components):
        geom = request.getfixturevalue(geometry)
        values = np.random.default_rng(31).standard_normal((geom.node_count, components))
        grad = geom.gradient(values)
        assert grad.shape == (geom.node_count, geom.dim, components)
        assert np.array_equal(grad, roll_gradient(geom, values))

    @pytest.mark.parametrize("shape, lengths", [((96,), (3.0,)), ((12, 7), (TWO_PI, 2.5))])
    def test_matches_roll_sign_bits_included(self, shape, lengths):
        # the gather computes u[next] - u[prev] itself, so even the sign of an exact zero
        # (-0.0 - 0.0 is -0.0) is the roll formula's; non-square cells, several columns
        coords = periodic_coords(shape, lengths)
        phi = 0.3 * np.cos(TWO_PI * coords[:, 0] / lengths[0])
        geom = make_circle(shape[0], lengths[0], phi) if len(shape) == 1 else make_torus(
            *shape, *lengths, phi)
        rng = np.random.default_rng(34)
        values = rng.standard_normal((geom.node_count, 5))
        values[rng.random(values.shape) < 0.3] = 0.0
        values[rng.random(values.shape) < 0.3] = -0.0
        grad = geom.gradient(values)
        assert grad.shape == (geom.node_count, geom.dim, 5)
        assert np.any(np.signbit(grad) & (grad == 0.0))
        assert np.array_equal(grad.view(np.uint64), roll_gradient(geom, values).view(np.uint64))

    def test_one_dimensional_input(self, conformal_torus):
        values = np.random.default_rng(32).standard_normal(conformal_torus.node_count)
        assert np.array_equal(
            conformal_torus.gradient(values), roll_gradient(conformal_torus, values)
        )


class TestTrajectory:
    @pytest.fixture
    def stack(self, flat_circle):
        rng = np.random.default_rng(33)
        return rng.standard_normal((5, flat_circle.node_count, 2))

    def make(self, geom, values):
        return Trajectory(
            grid=TimeGrid(0.0, 1.0, 4), geometry=geom, values=values,
            provenance=PROVENANCE_IMPLICIT,
        )

    def test_fields_are_read_only_views_of_values(self, flat_circle, stack):
        traj = self.make(flat_circle, stack.copy())
        assert len(traj.fields) == 5
        for k, fld in enumerate(traj.fields):
            assert fld.geometry is flat_circle
            assert np.array_equal(fld.values, traj.values[k])
            assert np.shares_memory(fld.values, traj.values)
        with pytest.raises(ValueError):
            traj.values[0, 0, 0] = 1.0

    def test_field_keyword_construction_stacks_fields(self, flat_circle, stack):
        fields = tuple(Field(flat_circle, sample) for sample in stack)
        traj = Trajectory(
            grid=TimeGrid(0.0, 1.0, 4), fields=fields, provenance=PROVENANCE_IMPLICIT
        )
        assert traj.geometry is flat_circle
        assert traj.values.shape == (5, flat_circle.node_count, 2)
        assert np.array_equal(traj.values, stack)

    def test_non_finite_stack_rejected(self, flat_circle, stack):
        stack[3, 7, 1] = np.nan
        with pytest.raises(InvalidInputError):
            self.make(flat_circle, stack)

    @pytest.mark.parametrize("shape", [(4, 128, 1), (5, 127, 1), (5, 128)])
    def test_wrong_shape_rejected(self, flat_circle, shape):
        with pytest.raises(InvalidInputError):
            self.make(flat_circle, np.zeros(shape))

    def test_exactly_one_source(self, flat_circle, stack):
        grid = TimeGrid(0.0, 1.0, 4)
        with pytest.raises(InvalidInputError):
            Trajectory(grid=grid, provenance=PROVENANCE_IMPLICIT, geometry=flat_circle)
        with pytest.raises(InvalidInputError):
            Trajectory(grid=grid, values=stack, provenance=PROVENANCE_IMPLICIT)
        fields = tuple(Field(flat_circle, sample) for sample in stack)
        with pytest.raises(InvalidInputError):
            Trajectory(grid=grid, fields=fields, values=stack, provenance=PROVENANCE_IMPLICIT)

    def test_mixed_fields_rejected(self, flat_circle, weighted_circle, stack):
        fields = [Field(flat_circle, sample) for sample in stack]
        fields[2] = Field(weighted_circle, stack[2])
        with pytest.raises(IncompatibleFieldsError):
            Trajectory(
                grid=TimeGrid(0.0, 1.0, 4), fields=tuple(fields), provenance=PROVENANCE_IMPLICIT
            )


class TestCumulativeTrapezoid:
    """The numpy running trapezoid gives scipy's bits, so dropping scipy.integrate moves no output."""

    @staticmethod
    def assert_matches_scipy(y, x):
        ours = cumulative_trapezoid(y, x)
        assert ours[0] == 0.0
        assert np.array_equal(ours, scipy.integrate.cumulative_trapezoid(y, x, initial=0.0))

    @pytest.mark.parametrize("seed", range(20))
    def test_random_non_uniform_grid(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 400))
        x = np.cumsum(rng.exponential(size=n)) * 10.0 ** rng.uniform(-3, 3) + rng.normal()
        self.assert_matches_scipy(rng.normal(size=n) * 10.0 ** rng.uniform(-3, 3), x)

    @pytest.mark.parametrize(("a", "b", "steps"), [(0.0, 1.0, 20), (0.0, 1.0, 100),
                                                   (0.0, 1.0, 200), (0.25, 3.0, 400)])
    def test_time_grids_of_the_gauge_and_the_gradient_only_envelope(self, a, b, steps):
        times = TimeGrid(a, b, steps).times
        # gauge_transform integrates a rate; check_gradient_only integrates bound**2
        self.assert_matches_scipy(0.5 + 0.2 * np.sin(times), times)
        self.assert_matches_scipy(0.3 - 0.5 * times, times)
        self.assert_matches_scipy(np.full(times.size, 0.5) ** 2, times)
        self.assert_matches_scipy((0.4 + 0.1 * np.cos(3.0 * times)) ** 2, times)

    def test_two_samples(self):
        ours = cumulative_trapezoid(np.array([1.0, 3.0]), np.array([0.5, 1.5]))
        assert ours.tolist() == [0.0, 2.0]
        self.assert_matches_scipy(np.array([-0.7, 0.1]), np.array([0.0, 1e-3]))
