"""Weighted model geometries, grid fields, and the weighted measure structure.

Everything downstream (operators, flows, frequency traces) consumes the
quadrature measure ``mu`` and the one Dirichlet form of every kind,
``E(u, v) = sum_e C_e (G u)_e (G v)_e``: edge differences and midpoint-weighted
edge weights on periodic grids, the modal projection ``B^T M`` and negated
rates on the Gauss line.  The operator is ``L = -M^{-1} G^T C G``, so summation
by parts ``E(u, v) = -<u, L v>_mu`` holds by construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterator

import numpy as np
import scipy.sparse

from .errors import IncompatibleFieldsError, InvalidInputError

CIRCLE = "circle"
TORUS = "torus2d"
GAUSS_LINE = "gauss-line"

PROVENANCE_SPECTRAL = "spectral-exact"
PROVENANCE_IMPLICIT = "implicit-step"
PROVENANCE_ANALYTIC = "analytic-oracle"

# Largest Gauss-line order: numpy's hermgauss overflows from order 371 on
# (numpy 2.4.6); at 370 the smallest mu is 4.7e-308 and the largest basis entry
# 1.3e153, and the operator is still self-adjoint to round-off.
MAX_GAUSS_ORDER = 370
# doubles of one temporary in the passes over (samples, nodes, ...) arrays that
# go a chunk of rows at a time (2**16, 512 KiB): the per-sample passes over a
# trajectory (its finite check, the energies that give D, the <u, L u>_mu
# cross-check, the rigidity residual), sampling an expression on the
# space-time grid and certifying a perturbation
CHUNK_VALUES = 2**16
# doubles of one GEMM block of ModalExpansion.sample (2**16): a constant of its
# own, not CHUNK_VALUES, since a GEMM's last bits depend on its width and a
# trajectory's values must not depend on the chunk of the passes over them
SAMPLE_BLOCK_VALUES = 2**16
# WeightedGeometry.energy_batch: chunks of fewer samples sum their per-term
# energies by accumulating; on 2048 and 4608 terms a reduction over the terms
# has a fixed cost of about four samples' accumulation
_ACCUMULATE_BELOW = 4


def row_chunks(rows: int, row_values: int) -> Iterator[slice]:
    """Slices covering ``rows`` rows, each of at most ``CHUNK_VALUES`` values (at least one row)."""
    step = max(1, CHUNK_VALUES // max(row_values, 1))
    return (slice(start, min(start + step, rows)) for start in range(0, rows, step))


def per_row(fn: Callable[[slice], np.ndarray], rows: int, row_values: int) -> np.ndarray:
    """One value per row: ``fn(chunk)`` gives the values of each :func:`row_chunks` slice.

    ``fn``'s temporaries are freed before the next chunk's are made, so a pass
    holds one chunk's worth of them at a time.
    """
    out = np.empty(rows)
    for chunk in row_chunks(rows, row_values):
        out[chunk] = fn(chunk)
    return out


def cumulative_trapezoid(y: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Running trapezoid integral of samples ``y`` over the 1-D grid ``x``, starting at 0.0.

    The same formula, and so the same bits, as
    ``scipy.integrate.cumulative_trapezoid(y, x, initial=0.0)``.
    """
    return np.concatenate(([0.0], np.cumsum(np.diff(x) * (y[1:] + y[:-1]) / 2.0)))


def _as_node_array(values, nodes: int, name: str) -> np.ndarray:
    arr = np.broadcast_to(np.asarray(values, dtype=float), (nodes,)).copy()
    if not np.all(np.isfinite(arr)):
        raise InvalidInputError(f"{name} must be finite at every node")
    return arr


def _frozen_csr(matrix) -> scipy.sparse.csr_array:
    """``matrix`` (dense or sparse) as a float CSR array with read-only data and index arrays."""
    matrix = scipy.sparse.csr_array(matrix, dtype=float)
    for arr in (matrix.data, matrix.indices, matrix.indptr):
        arr.setflags(write=False)
    return matrix


@dataclass(frozen=True)
class _PeriodicStencil:
    """Box shape and per-axis spacings of a periodic grid, for the centered nodal gradient."""

    shape: tuple[int, ...]
    spacings: tuple[float, ...]


@dataclass(frozen=True)
class _SpectralBasis:
    """Collocation basis on the Gauss line.

    Columns of ``basis`` are mu-orthonormal polynomial eigenfunctions of the
    drift operator, column k at rate ``-k/2``.  ``gradient`` (read-only CSR)
    is ``basis`` times the derivative in coefficient space, so the nodal
    gradient is ``gradient @ (G u)``.
    """

    basis: np.ndarray
    gradient: scipy.sparse.csr_array


@dataclass(frozen=True)
class WeightedGeometry:
    """A discretized weighted model geometry.

    ``mu`` is the positive quadrature measure representing
    ``exp(-phi) dvol_g`` (with the conformal volume ``exp(2*psi) dx dy`` baked
    in for the torus).  ``differences`` ``G`` (read-only CSR, terms x nodes)
    and ``weights`` ``C`` are its Dirichlet form, and the drift operator is
    ``L = -M^{-1} G^T C G``; ``stencil`` or ``basis`` serve the nodal
    gradient.  Instances are immutable after construction and hold no state
    that other modules derive from them; the cached properties below are
    functions of the fields alone.
    """

    kind: str
    coords: np.ndarray
    phi: np.ndarray
    psi: np.ndarray
    mu: np.ndarray
    dim: int
    differences: scipy.sparse.csr_array
    weights: np.ndarray
    stencil: _PeriodicStencil | None = None
    basis: _SpectralBasis | None = None

    def __post_init__(self):
        for arr in (self.coords, self.phi, self.psi, self.mu, self.weights):
            arr.setflags(write=False)
        if not np.all(np.isfinite(self.mu) & (self.mu > 0.0)):
            raise InvalidInputError("measure entries must be finite and strictly positive")
        # every mu-norm and weighted mean sums mu, so a total beyond the float range
        # would overflow in them
        with np.errstate(over="ignore"):
            if not np.isfinite(self.mu.sum()):
                raise InvalidInputError("the total measure is out of floating-point range")

    @property
    def node_count(self) -> int:
        return self.coords.shape[0]

    def gradient(self, values: np.ndarray) -> np.ndarray:
        """Nodal gradient of per-node data, shape (nodes, dim, N).

        Periodic kinds average the two adjacent edge-midpoint differences
        (equivalently, a centered difference): ``(u[next] - u[prev]) / 2 h``
        per axis, gathered with the cached neighbour indices of every axis at
        once and returned as a (nodes, dim, N) view of the (dim, nodes, N)
        result.  The Gauss line differentiates in the collocation basis,
        ``basis.gradient @ (G u)``, a sparse product.  Either way each
        column's bits do not depend on the others.
        """
        values = np.asarray(values, dtype=float).reshape(self.node_count, -1)
        if self.basis is not None:
            return (self.basis.gradient @ (self.differences @ values))[:, None, :]
        successors, predecessors = self._neighbours
        out = values.take(successors, axis=0)
        out -= values.take(predecessors, axis=0)
        out /= self._two_spacings
        return out.transpose(1, 0, 2)

    @cached_property
    def _neighbours(self) -> tuple[np.ndarray, np.ndarray]:
        """Flat indices of each node's periodic successor and predecessor along each axis, (dim, nodes) each."""
        flat = np.arange(self.node_count).reshape(self.stencil.shape)
        return tuple(np.stack([np.roll(flat, shift, axis).ravel() for axis in range(self.dim)])
                     for shift in (-1, 1))

    @cached_property
    def _two_spacings(self) -> np.ndarray:
        """``2 h`` per axis, shaped to divide the (dim, nodes, N) stack of differences."""
        return (2.0 * np.array(self.stencil.spacings))[:, None, None]

    def energy_pairing(self, u_values: np.ndarray, v_values: np.ndarray) -> float:
        """Dirichlet pairing ``sum_e C_e (G u)_e (G v)_e``; equals ``-<u, L v>_mu`` exactly."""
        du = self.differences @ np.asarray(u_values, dtype=float).reshape(self.node_count, -1)
        dv = self.differences @ np.asarray(v_values, dtype=float).reshape(self.node_count, -1)
        return float(np.sum(self.weights[:, None] * du * dv))

    def energy_batch(self, stack: np.ndarray) -> np.ndarray:
        """Dirichlet energies of a (samples, nodes, N) stack of field values.

        Runs a chunk of samples at a time (:func:`row_chunks` of ``G u``), so
        no temporary outgrows a few ``CHUNK_VALUES``.  Each sample's sum is the
        same bits whatever the chunk: ``G`` acts on each column alone, and an
        energy is summed over components per term, then term by term in order,
        since the order of an einsum's full reduction depends on the shape of
        its operands.  The per-term energies are laid out (terms, samples), so
        a reduction over the terms adds row after row; a chunk of fewer than
        ``_ACCUMULATE_BELOW`` samples accumulates instead, since numpy sums a
        single column pairwise and a reduction over a few columns is slower.
        """
        samples, nodes, comps = stack.shape
        terms = self.differences.shape[0]

        def by_term(rows):
            # contiguous: scipy's product is several times slower on a strided operand
            columns = np.ascontiguousarray(stack[rows].transpose(1, 0, 2)).reshape(nodes, -1)
            diff = (self.differences @ columns).reshape(terms, -1, comps)
            per_term = np.einsum("esc,e,esc->es", diff, self.weights, diff)
            if per_term.shape[1] < _ACCUMULATE_BELOW:
                return np.add.accumulate(per_term, axis=0, out=per_term)[-1]
            return np.add.reduce(per_term, axis=0)

        return per_row(by_term, samples, terms * comps)

    @cached_property
    def length_scale(self) -> float:
        """Largest grid spacing; zero for the spectrally exact Gauss line."""
        if self.stencil is None:
            return 0.0
        return max(self.stencil.spacings)


@dataclass(frozen=True)
class Field:
    """An R^N-valued grid function on a fixed geometry."""

    geometry: WeightedGeometry
    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.ndim == 1:
            values = values[:, None]
        if values.ndim != 2 or values.shape[0] != self.geometry.node_count:
            raise InvalidInputError(
                f"field values must have shape (nodes, N); got {values.shape}"
            )
        if not np.all(np.isfinite(values)):
            raise InvalidInputError("field values must be finite")
        values.setflags(write=False)
        object.__setattr__(self, "values", values)

    @property
    def components(self) -> int:
        return self.values.shape[1]

    @staticmethod
    def constant(geometry: WeightedGeometry, value: float = 1.0, components: int = 1) -> "Field":
        return Field(geometry, np.full((geometry.node_count, components), value))


@dataclass(frozen=True)
class TimeGrid:
    """Uniform time samples on [a, b]."""

    a: float
    b: float
    steps: int

    def __post_init__(self):
        if not (np.isfinite(self.a) and np.isfinite(self.b)) or self.a >= self.b:
            raise InvalidInputError("time window requires a < b")
        steps = self.steps  # a bool is an int to Python, but never a step count
        if isinstance(steps, bool) or not isinstance(steps, (int, np.integer)) or steps < 1:
            raise InvalidInputError("steps must be a positive integer")

    @property
    def dt(self) -> float:
        return (self.b - self.a) / self.steps

    @cached_property
    def times(self) -> np.ndarray:
        t = np.linspace(self.a, self.b, self.steps + 1)
        t.setflags(write=False)
        return t


# named privately: bench/tracing.py wraps every package function with a public name,
# and these belong inside their callers' spans
def _modal_factors(rates: np.ndarray, offsets: np.ndarray, step: float | None = None,
                   power: int = 1) -> np.ndarray:
    """Each mode's factor ``g(s)**power`` at the ``offsets`` s, shape (samples, modes).

    With no ``step``, ``g(s) = exp(rates s)``, the exact semigroup.  With a
    step ``dt``, ``g(s) = r(dt rates)^k``, the trapezoid flow after
    ``k = s / dt`` steps (the offsets are multiples of ``dt``), with
    ``r(z) = (1 + z/2) / (1 - z/2)``; ``r < 0`` on modes with ``dt |rate| > 2``.
    A factor past the float range is inf, which the trace refuses.
    """
    with np.errstate(over="ignore"):
        if step is None:
            return np.exp(np.outer(power * offsets, rates))
        z = step * rates
        ratio = (1.0 + 0.5 * z) / (1.0 - 0.5 * z)
        return np.power(ratio, power * np.rint(offsets / step)[:, None])


def _modal_sums(growth: np.ndarray, rates: np.ndarray, weights: np.ndarray) -> tuple:
    """``I = growth @ w`` and ``D = growth @ (rates w)`` of a modal expansion with mode weights ``w = |c_k|^2``."""
    return growth @ weights, growth @ (rates * weights)


@dataclass(frozen=True)
class ModalExpansion:
    """Modal expansion of a flow, ``u(a + s) = V (g(s) * coeffs)``, each mode's factor ``g`` of its rate.

    ``vectors`` holds k modes ``V`` as columns, ``coeffs`` (k, N) their
    coefficients, and ``initial`` is ``u(a)``, (nodes, N).  The modes are
    either every mu-orthonormal eigenvector, with ``coeffs = V^T M u(a)``, or
    the Ritz vectors of one Krylov space per component: mu-orthonormal within
    a component, each with a coefficient in its own component's column only.
    ``step`` None makes ``g(s) = exp(rates s)``, the exact semigroup; a step
    ``dt`` makes it the trapezoid flow of that step (:func:`_modal_factors`).
    Every reader takes the factors from :func:`_modal_factors`, through
    :meth:`factors` or :meth:`DriftOperator.modal_growth`.
    """

    rates: np.ndarray
    vectors: np.ndarray
    coeffs: np.ndarray
    initial: np.ndarray
    step: float | None = None

    def __post_init__(self):
        for arr in (self.rates, self.vectors, self.coeffs, self.initial):
            arr.setflags(write=False)

    def factors(self, offsets: np.ndarray) -> np.ndarray:
        """``g(s)`` of every mode at the ``offsets`` s, shape (samples, modes)."""
        return _modal_factors(self.rates, offsets, self.step)

    def sample(self, offsets: np.ndarray) -> np.ndarray:
        """Values at the times ``a + offsets``, shape (samples, nodes, N).

        Built into one array a block of samples at a time, each block one
        GEMM of the (nodes, modes) vectors with its (modes, samples * N) modal
        data, of at most ``SAMPLE_BLOCK_VALUES`` doubles (at least one sample).
        """
        nodes, comps = self.initial.shape
        values = np.empty((offsets.size, nodes, comps))
        block = max(1, SAMPLE_BLOCK_VALUES // (max(nodes, self.rates.size) * comps))
        for start in range(0, offsets.size, block):
            rows = slice(start, start + block)
            decay = self.factors(offsets[rows]).T
            # in C order, so the GEMM's operand is laid out (modes, samples * N) row by row
            modal = np.multiply(decay[:, :, None], self.coeffs[:, None, :], order="C")
            chunk = self.vectors @ modal.reshape(self.rates.size, -1)
            values[rows] = chunk.reshape(nodes, -1, comps).transpose(1, 0, 2)
        return values


@dataclass(frozen=True, init=False, eq=False)
class Trajectory:
    """A time-indexed stack of field values produced by one integrator.

    ``values`` is one read-only array of shape (samples, nodes, N), checked
    finite once over the whole stack.  A spectral trajectory, or a trapezoid
    flow projected on an eigensystem or built from Krylov modes, may carry
    its ``modal`` expansion instead; its ``values`` are then built on first access
    and cached, so a caller that needs only modal quantities (the frequency
    trace) never materializes them.  A stepped trajectory carries its
    ``stepping`` instead: a callable that runs the steps (or hands over the
    values a block stepping already made) on first access, when the finite
    check also runs.  ``fields`` is a derived tuple of
    :class:`Field` views of ``values``, and the keyword form
    ``Trajectory(grid=..., fields=..., provenance=...)`` stacks given fields.
    """

    grid: TimeGrid
    provenance: str
    geometry: WeightedGeometry
    gradient_only: bool = False
    certified_bound: np.ndarray | None = None
    modal: ModalExpansion | None = None
    stepping: Callable[[], np.ndarray] | None = None

    def __init__(
        self,
        grid: TimeGrid,
        fields: tuple[Field, ...] | None = None,
        provenance: str | None = None,
        gradient_only: bool = False,
        certified_bound: np.ndarray | None = None,
        *,
        geometry: WeightedGeometry | None = None,
        values: np.ndarray | None = None,
        modal: ModalExpansion | None = None,
        stepping: Callable[[], np.ndarray] | None = None,
    ):
        sources = (fields, values, modal, stepping)
        if sum(source is not None for source in sources) != 1:
            raise InvalidInputError(
                "a trajectory needs exactly one of fields, values, modal or stepping"
            )
        if fields is not None:
            if len(fields) != grid.steps + 1:
                raise InvalidInputError("trajectory must hold one field per time sample")
            geometry = fields[0].geometry
            n_comp = fields[0].components
            for f in fields:
                if f.geometry is not geometry or f.components != n_comp:
                    raise IncompatibleFieldsError(
                        "all trajectory fields must share one geometry and one N"
                    )
            values = np.stack([f.values for f in fields])
        if geometry is None:
            raise InvalidInputError("a trajectory built without fields needs a geometry")
        if provenance not in (
            PROVENANCE_SPECTRAL,
            PROVENANCE_IMPLICIT,
            PROVENANCE_ANALYTIC,
        ):
            raise InvalidInputError(f"unknown provenance {provenance!r}")
        # frozen: fill the instance dict directly, as cached_property does
        vars(self).update(
            grid=grid, provenance=provenance, geometry=geometry,
            gradient_only=gradient_only, certified_bound=certified_bound, modal=modal,
            stepping=stepping,
        )
        if values is not None:
            vars(self)["values"] = self._checked(values)

    def _checked(self, values) -> np.ndarray:
        values = np.asarray(values, dtype=float)
        expected = (self.grid.steps + 1, self.geometry.node_count)
        if values.ndim != 3 or values.shape[:2] != expected:
            raise InvalidInputError(
                f"trajectory values must have shape {expected + ('N',)}; got {values.shape}"
            )
        rows = row_chunks(values.shape[0], values[0].size)
        if not all(np.isfinite(values[chunk]).all() for chunk in rows):
            raise InvalidInputError("trajectory values must be finite")
        values.setflags(write=False)
        return values

    @cached_property
    def values(self) -> np.ndarray:
        """Field values at every sample, (samples, nodes, N); built once from ``modal`` or ``stepping``."""
        if self.modal is not None:
            return self._checked(self.modal.sample(self.grid.times - self.grid.a))
        return self._checked(self.stepping())

    @cached_property
    def fields(self) -> tuple[Field, ...]:
        """One read-only :class:`Field` view of ``values`` per time sample."""
        return tuple(Field(self.geometry, sample) for sample in self.values)


def periodic_coords(shape, lengths) -> np.ndarray:
    """Node coordinates of the uniform periodic grid on a box, one row per node.

    They equal the ``coords`` of :func:`make_circle` or :func:`make_torus` on that box.
    """
    h = tuple(length / n for length, n in zip(lengths, shape))
    index = np.meshgrid(*(np.arange(n) for n in shape), indexing="ij")
    return np.column_stack([(i * step).ravel() for i, step in zip(index, h)])


def _periodic_grid(kind: str, shape, lengths, phi, psi) -> WeightedGeometry:
    """Uniform periodic grid on a box of the given side lengths.

    The measure is ``mu = prod(h) * exp(2*psi - phi)``.  Each node has one
    edge per axis to its periodic successor, one row of ``G`` with -1 at the
    node and +1 at the successor; the edge along an axis has the weight
    ``exp(-phi_mid) / (h_axis / prod(other h))``, with phi interpolated
    linearly to the midpoint.
    """
    h = tuple(length / n for length, n in zip(lengths, shape))
    coords = periodic_coords(shape, lengths)
    nodes = coords.shape[0]
    phi_arr = _as_node_array(phi, nodes, "phi")
    psi_arr = _as_node_array(psi, nodes, "psi")
    flat = np.arange(nodes).reshape(shape)
    edge_i = np.tile(flat.ravel(), len(shape))
    edge_j = np.concatenate([np.roll(flat, -1, axis).ravel() for axis in range(len(shape))])
    # spacings or weights beyond the float range give a measure that is not finite
    # and positive, which the geometry rejects, or weights the assembly rejects
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        phi_mid = 0.5 * (phi_arr[edge_i] + phi_arr[edge_j])
        ratio = np.repeat([step / np.prod(h[:a] + h[a + 1:]) for a, step in enumerate(h)], nodes)
        mu = np.prod(h) * np.exp(2.0 * psi_arr - phi_arr)
        weights = np.exp(-phi_mid) / ratio
    eye = scipy.sparse.eye_array(nodes, format="csr")
    return WeightedGeometry(
        kind=kind, coords=coords, phi=phi_arr, psi=psi_arr, mu=mu, dim=len(shape),
        differences=_frozen_csr(eye[edge_j] - eye[edge_i]), weights=weights,
        stencil=_PeriodicStencil(shape=shape, spacings=h),
    )


def make_circle(nodes: int, length: float, phi=0.0) -> WeightedGeometry:
    """Periodic uniform grid on a circle of the given length.

    The quadrature weight is ``mu_i = h * exp(-phi_i)`` (trapezoid rule on a
    periodic grid); edge weights interpolate phi linearly to the midpoint.
    """
    if nodes < 4:
        raise InvalidInputError("circle needs at least 4 nodes")
    if not (np.isfinite(length) and length > 0.0):
        raise InvalidInputError("length must be a positive real")
    return _periodic_grid(CIRCLE, (nodes,), (length,), phi, 0.0)


def make_torus(nx: int, ny: int, lx: float, ly: float, phi=0.0, psi=0.0) -> WeightedGeometry:
    """Flat torus with conformal metric ``exp(2*psi) * (dx^2 + dy^2)``.

    The measure bakes in the conformal area element:
    ``mu = hx*hy*exp(2*psi - phi)``.  The Dirichlet energy of a conformal 2D
    metric reduces to the flat one, so edges carry ``exp(-phi_mid)`` only.
    """
    if nx < 4 or ny < 4:
        raise InvalidInputError("torus needs at least 4 nodes per direction")
    if not (np.isfinite(lx) and lx > 0.0 and np.isfinite(ly) and ly > 0.0):
        raise InvalidInputError("side lengths must be positive reals")
    return _periodic_grid(TORUS, (nx, ny), (lx, ly), phi, psi)


def _gauss_basis(x: np.ndarray, count: int) -> np.ndarray:
    """Orthonormal polynomial eigenbasis for the weight exp(-x^2/4).

    Built by the three-term recurrence in normalized form so large orders stay
    in range; column k is an eigenfunction with rate -k/2.
    """
    z = x / np.sqrt(2.0)
    norm = (2.0 * np.sqrt(np.pi)) ** -0.5
    basis = np.empty((x.size, count))
    basis[:, 0] = norm
    if count > 1:
        basis[:, 1] = norm * z
    for k in range(1, count - 1):
        basis[:, k + 1] = (z * basis[:, k] - np.sqrt(k) * basis[:, k - 1]) / np.sqrt(k + 1)
    return basis


def make_gauss_line(order: int) -> WeightedGeometry:
    """Gauss-quadrature line for the weight ``exp(-x^2/4) dx``.

    ``order`` collocation nodes integrate polynomials up to degree
    ``2*order - 1`` exactly.  The weight exponent is ``phi = x^2/4``.  The
    Dirichlet form is modal: ``G = B^T M`` gives the coefficients in the
    eigenbasis ``B`` and ``C_k = k/2`` negates the rates.
    """
    if not 4 <= order <= MAX_GAUSS_ORDER:
        raise InvalidInputError(f"gauss line needs 4 <= order <= {MAX_GAUSS_ORDER}")
    y, w = np.polynomial.hermite.hermgauss(order)
    x = 2.0 * y
    mu = 2.0 * w
    basis = _gauss_basis(x, order)
    # d/dx of column k is sqrt(k/2) times column k - 1
    gradient = np.zeros((order, order))
    gradient[:, 1:] = basis[:, :-1] * np.sqrt(np.arange(1, order) / 2.0)
    return WeightedGeometry(
        kind=GAUSS_LINE,
        coords=x[:, None],
        phi=x**2 / 4.0,
        psi=np.zeros(order),
        mu=mu,
        dim=1,
        differences=_frozen_csr(basis.T * mu),
        weights=0.5 * np.arange(order, dtype=float),
        basis=_SpectralBasis(basis=basis, gradient=_frozen_csr(gradient)),
    )


def _check_compatible(u: Field, v: Field) -> None:
    if u.geometry is not v.geometry:
        raise IncompatibleFieldsError("fields live on different geometries")
    if u.components != v.components:
        raise IncompatibleFieldsError("fields have different component counts")


def weighted_inner(u: Field, v: Field) -> float:
    """Weighted L2 pairing ``sum_i mu_i <u_i, v_i>``; symmetric and bilinear."""
    _check_compatible(u, v)
    return float(np.sum(u.geometry.mu[:, None] * u.values * v.values))


def weighted_norm(u: Field) -> float:
    return float(np.sqrt(max(weighted_inner(u, u), 0.0)))


def dirichlet_energy(u: Field) -> float:
    """Nonnegative weighted Dirichlet energy of a field.

    Uses the same differences ``G`` and weights ``C`` as the operator
    assembly, so ``<u, L u>_mu == -dirichlet_energy(u)`` exactly in exact
    arithmetic.
    """
    return u.geometry.energy_pairing(u.values, u.values)


def energy_pairing(u: Field, v: Field) -> float:
    """Bilinear form of :func:`dirichlet_energy`."""
    _check_compatible(u, v)
    return u.geometry.energy_pairing(u.values, v.values)
