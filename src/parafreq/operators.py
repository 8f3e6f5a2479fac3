"""Divergence-form assembly of the discrete drift operator and its spectrum.

The operator is mu-self-adjoint by construction: on every geometry it is
``L = -M^{-1} G^T C G`` for the geometry's Dirichlet form, its differences
``G`` and weights ``C >= 0`` (the edge-difference matrix and edge weights of a
periodic grid, the modal projection and negated rates of the Gauss line).
Self-adjointness is structural, never a post-hoc symmetrization.

One sparse (CSR) matrix is stored, ``S = R L R^{-1} = -W^T W`` with ``R = M^{1/2}``
and ``W = C^{1/2} G R^{-1}``: symmetric bit for bit, well scaled however many
decades mu spans, and ``L = R^{-1} S R``.  Only the eigensystem is dense, and
it is refused above :data:`MAX_DENSE_NODES` nodes.  It comes from LAPACK's
divide-and-conquer ``dsyevd``, which overwrites a dense ``S`` with the
eigenvectors; with its workspace the solve peaks at about 3 n^2 doubles.  The
eigenvectors ``V`` stay in that Fortran-ordered array, their columns reversed
in place into nonincreasing order of the eigenvalues, so ``V`` and ``V^T``
have positive strides and every product with them is one BLAS call.  The
eigensystem is computed only when read: by ``eigen``, ``eigenmode`` data and
the check suite.  A spectral flow on an operator that has not computed it
builds Krylov modes instead, unless its data needs so many that the
eigensolve is cheaper (``evolution.evolve_exact``); a plain trapezoid flow
builds them too, or is stepped (``evolution.evolve_cn``).
Every solve is with a sparse LU factor of ``I - gamma S``: a Krylov flow's
shift is taken from its time window, an implicit step's of size ``dt`` is
``dt/2``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.linalg
import scipy.sparse
import scipy.sparse.linalg

from .core import (
    Field, TimeGrid, WeightedGeometry, _frozen_csr, _modal_factors, energy_pairing, weighted_inner,
)
from .errors import IncompatibleFieldsError, InvalidInputError, NumericalFailureError
from .reports import CheckReport, passing

# Largest node count for the dense eigensolve (a torus of 64^2): beyond it the
# n x n eigenvector matrices alone would take more than 130 MB each.
MAX_DENSE_NODES = 4096
# The most doubles one array of a run may hold (2**24, 128 MiB, the size of the
# largest dense eigenvector matrix): the trajectory's (steps + 1) x nodes x
# components values and a Krylov flow's basis.
MAX_VALUES = MAX_DENSE_NODES**2
# random field pairs of each self-adjointness audit
SELF_ADJOINT_TRIALS = 50


@dataclass(frozen=True)
class EigenPair:
    """One eigenvalue (nonpositive up to round-off) with its unit eigenfield."""

    eigenvalue: float
    eigenfield: Field


@dataclass(frozen=True)
class DriftOperator:
    """The discrete drift operator, stored as its symmetric form ``S = R L R^{-1}``.

    ``symmetric`` may be given dense or sparse; it is stored as a read-only CSR
    array, and ``L`` is applied as ``R^{-1} S R`` with ``R = M^{1/2}``
    (:attr:`root`).  The LU factor of ``I - gamma S`` is cached per shift for
    the operator's lifetime (:meth:`factor`), and the modal growth of its dense
    spectrum for the last time grid and step (:meth:`modal_growth`).
    """

    geometry: WeightedGeometry
    symmetric: scipy.sparse.csr_array
    _factors: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    _growth: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "symmetric", _frozen_csr(self.symmetric))

    @cached_property
    def root(self) -> np.ndarray:
        """``sqrt(mu)``, the diagonal of ``R = M^{1/2}`` that takes ``u`` to ``v = R u``; read-only."""
        root = np.sqrt(self.geometry.mu)
        root.setflags(write=False)
        return root

    def apply(self, u: Field) -> Field:
        if u.geometry is not self.geometry:
            raise IncompatibleFieldsError("field does not live on the operator geometry")
        return Field(self.geometry, self.symmetric @ (self.root[:, None] * u.values) / self.root[:, None])

    def factor(self, gamma: float, keep: bool = True) -> scipy.sparse.linalg.SuperLU:
        """``splu(I - gamma S)``, factored once per shift ``gamma``: every solve's.

        Krylov flows over a window of one length share a shift
        (``evolution._lanczos``), and so do the stepped flows of one step size
        ``dt``, at ``gamma = dt/2`` (``evolution.step_block``); a step and a
        Krylov flow at the same shift share one factor.  With ``keep`` False a
        factor not yet held is made for the caller alone and not kept (a
        trapezoid Krylov run, whose finished flow never solves again).
        """
        if gamma in self._factors:
            return self._factors[gamma]
        eye = scipy.sparse.eye_array(self.geometry.node_count, format="csr")
        try:
            # I - gamma S has a symmetric pattern: minimum degree on A^T + A fills in less than COLAMD
            factor = scipy.sparse.linalg.splu(
                (eye - gamma * self.symmetric).tocsc(), permc_spec="MMD_AT_PLUS_A"
            )
        except RuntimeError as exc:
            raise NumericalFailureError(f"implicit factorization failed: {exc}") from exc
        if keep:
            self._factors[gamma] = factor
        return factor

    def computed_eigensystem(self) -> tuple[np.ndarray, np.ndarray] | None:
        """:attr:`eigensystem` if it has been computed, else None; never runs the eigensolve."""
        return vars(self).get("eigensystem")  # there once the cached property has run

    def modal_growth(self, rates: np.ndarray, grid: TimeGrid, step: float | None = None) -> np.ndarray:
        """The squared modal factors at the grid's samples, shape (samples, modes).

        ``exp(2 rates (t - a))`` for the exact semigroup (``step`` None), and
        ``r(step rates)^(2k)`` for the trapezoid flow of that step
        (``core._modal_factors``).  When ``rates`` is this operator's dense
        spectrum (the ``rates`` of every flow projected on its eigensystem),
        the read-only matrix of the last grid and step asked for is kept and
        shared, so one cache entry serves every such flow over one grid.
        Other rates, a Krylov flow's, get a new matrix each call.
        """
        dense = self.computed_eigensystem()
        if dense is None or rates is not dense[0]:
            return _modal_factors(rates, grid.times - grid.a, step, 2)
        key = grid, step
        if key not in self._growth:
            growth = _modal_factors(rates, grid.times - grid.a, step, 2)
            growth.setflags(write=False)
            self._growth.clear()
            self._growth[key] = growth
        return self._growth[key]

    @cached_property
    def eigensystem(self) -> tuple[np.ndarray, np.ndarray]:
        """Full spectrum, nonincreasing from ~0, with mu-orthonormal columns.

        The eigenvectors ``V`` are Fortran-ordered with positive strides.

        Raises :class:`InvalidInputError` above :data:`MAX_DENSE_NODES` nodes,
        before anything dense is allocated, and :class:`NumericalFailureError`
        when LAPACK reports a failure.
        """
        n = self.geometry.node_count
        if n > MAX_DENSE_NODES:
            raise InvalidInputError(
                f"the dense eigensolve is limited to {MAX_DENSE_NODES} nodes; "
                f"this geometry has {n}"
            )
        try:
            # the transpose is Fortran-ordered, so dsyevd writes the eigenvectors into it
            vals, vecs = scipy.linalg.eigh(self.symmetric.toarray().T, driver="evd", overwrite_a=True)
        except scipy.linalg.LinAlgError as exc:
            raise NumericalFailureError(f"the dense eigensolve failed: {exc}") from exc
        vecs /= self.root[:, None]
        _reverse_columns(vecs)
        vals = vals[::-1]
        vals.setflags(write=False)
        vecs.setflags(write=False)
        return vals, vecs


def _reverse_columns(a: np.ndarray) -> None:
    """Reverse the order of the columns of ``a`` in place, 64 pairs at a time.

    A reversed view would keep a negative column stride, which numpy's matmul
    does not hand to BLAS, and a reversed copy is a second n x n array: over
    repeated ``check all`` passes that allocation left the heap 8 MB larger
    in some processes (resident 105 MB against 94-97 MB).
    """
    n = a.shape[1]
    for j in range(0, n // 2, 64):
        k = min(64, n // 2 - j)
        left = a[:, j:j + k].copy()
        a[:, j:j + k] = a[:, n - j - k:n - j][:, ::-1]
        a[:, n - j - k:n - j] = left[:, ::-1]


def assemble(geometry: WeightedGeometry) -> DriftOperator:
    """Assemble the drift operator ``L = -M^{-1} G^T C G`` of a geometry's Dirichlet form.

    It is stored as ``S = -W^T W``, one sparse product of ``W = C^{1/2} G R^{-1}``
    (``R = M^{1/2}``, the column scaling where the conformal prefactor enters)
    with itself.  On a periodic grid ``G`` and ``C`` are the second-order
    divergence-form stencil with edge-midpoint weights.  An operator with a
    non-finite entry raises :class:`InvalidInputError`.
    """
    G, C = geometry.differences, geometry.weights
    with np.errstate(over="ignore", invalid="ignore"):
        W = scipy.sparse.csr_array(np.sqrt(C)[:, None] * (G / np.sqrt(geometry.mu)))
        op = DriftOperator(geometry=geometry, symmetric=-(W.T @ W))
    if not np.all(np.isfinite(op.symmetric.data)):
        raise InvalidInputError("the drift operator has non-finite entries: the grid "
                                "spacing or the weights are out of floating-point range")
    return op


def eigenpairs(op: DriftOperator, k: int) -> list[EigenPair]:
    """The k algebraically largest eigenvalues with mu-orthonormal eigenfields."""
    n = op.geometry.node_count
    if not 1 <= k <= n:
        raise InvalidInputError(f"k must be between 1 and {n}")
    vals, vecs = op.eigensystem
    return [
        EigenPair(eigenvalue=float(vals[j]), eigenfield=Field(op.geometry, vecs[:, j]))
        for j in range(k)
    ]


def check_self_adjoint(op: DriftOperator, seed: int = 0) -> CheckReport:
    """Randomized self-adjointness and summation-by-parts audit.

    For :data:`SELF_ADJOINT_TRIALS` random field pairs, measures the
    normalized asymmetry ``|<u, Lv> - <Lu, v>|`` and the pairing defect
    ``|<u, Lv> + dirichlet_pairing(u, v)|``, both divided by
    ``|u|_mu |v|_mu``.  The margin is minus the worst of them, which passes
    up to 1e-10.
    """
    rng = np.random.default_rng(seed)
    n = op.geometry.node_count
    worst_asym = 0.0
    worst_defect = 0.0
    for _ in range(SELF_ADJOINT_TRIALS):
        u = Field(op.geometry, rng.standard_normal(n))
        v = Field(op.geometry, rng.standard_normal(n))
        scale = np.sqrt(weighted_inner(u, u) * weighted_inner(v, v))
        lu, lv = op.apply(u), op.apply(v)
        asym = abs(weighted_inner(u, lv) - weighted_inner(lu, v)) / scale
        defect = abs(weighted_inner(u, lv) + energy_pairing(u, v)) / scale
        worst_asym = max(worst_asym, asym)
        worst_defect = max(worst_defect, defect)
    return passing(
        "self-adjoint", -max(worst_asym, worst_defect), 1e-10,
        max_asymmetry=worst_asym, max_pairing_defect=worst_defect, trials=SELF_ADJOINT_TRIALS,
    )
