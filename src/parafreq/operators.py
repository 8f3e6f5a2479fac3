"""Divergence-form assembly of the discrete drift operator and its spectrum.

The operator is mu-self-adjoint by construction: on periodic grids it is
``L = -M^{-1} G^T C G`` for the edge-difference matrix ``G`` and the positive
edge weights ``C``; on the Gauss line it is diagonal in the collocation
basis.  Self-adjointness is structural, never a post-hoc symmetrization.

The operator is stored sparse (CSR): a periodic stencil has 3 (circle) or 5
(torus) nonzeros per row.  Only the eigensystem is dense, and it is refused
above :data:`MAX_DENSE_NODES` nodes.  It comes from LAPACK's divide-and-conquer
``dsyevd``, which overwrites the dense symmetrized matrix with the eigenvectors;
with its workspace the solve peaks at about 3 n^2 doubles.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.linalg
import scipy.sparse
import scipy.sparse.linalg

from .core import Field, WeightedGeometry, energy_pairing, weighted_inner
from .errors import IncompatibleFieldsError, InvalidInputError, NumericalFailureError
from .reports import CheckReport

# Largest node count for the dense eigensolve (a torus of 64^2): beyond it the
# n x n eigenvector matrices alone would take more than 130 MB each.
MAX_DENSE_NODES = 4096
# random field pairs of each self-adjointness audit
SELF_ADJOINT_TRIALS = 50


@dataclass(frozen=True)
class EigenPair:
    """One eigenvalue (nonpositive up to round-off) with its unit eigenfield."""

    eigenvalue: float
    eigenfield: Field


@dataclass(frozen=True)
class DriftOperator:
    """Sparse CSR realization of the discrete drift operator.

    ``matrix`` may be given dense or sparse; it is stored as a read-only CSR
    array.  The LU factors of implicit trapezoid steps are cached per step
    size for the operator's lifetime (:meth:`trapezoid_factors`).
    """

    geometry: WeightedGeometry
    matrix: scipy.sparse.csr_array
    _trapezoid: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        matrix = scipy.sparse.csr_array(self.matrix, dtype=float)
        for arr in (matrix.data, matrix.indices, matrix.indptr):
            arr.setflags(write=False)
        object.__setattr__(self, "matrix", matrix)

    def apply(self, u: Field) -> Field:
        if u.geometry is not self.geometry:
            raise IncompatibleFieldsError("field does not live on the operator geometry")
        return Field(self.geometry, self.matrix @ u.values)

    def trapezoid_factors(self, dt: float):
        """``(splu(I - dt/2 L), I + dt/2 L)`` for trapezoidal steps of size ``dt``.

        Factored once per step size, so every flow stepped on one operator
        and grid shares one LU factorization.
        """
        factors = self._trapezoid.get(dt)
        if factors is None:
            eye = scipy.sparse.eye_array(self.geometry.node_count, format="csr")
            half_step = 0.5 * dt * self.matrix
            try:
                # I - dt/2 L has a symmetric pattern: minimum degree on A^T + A fills in less than COLAMD
                solver = scipy.sparse.linalg.splu(
                    (eye - half_step).tocsc(), permc_spec="MMD_AT_PLUS_A"
                )
            except RuntimeError as exc:
                raise NumericalFailureError(f"implicit factorization failed: {exc}") from exc
            factors = self._trapezoid[dt] = (solver, eye + half_step)
        return factors

    @property
    def symmetrized(self) -> np.ndarray:
        """Dense similarity transform ``M^{1/2} L M^{-1/2}``, plainly symmetric."""
        root = np.sqrt(self.geometry.mu)
        dense = self.matrix.toarray()
        dense *= root[:, None]
        dense /= root[None, :]
        return dense

    @cached_property
    def eigensystem(self) -> tuple[np.ndarray, np.ndarray]:
        """Full spectrum, nonincreasing from ~0, with mu-orthonormal columns.

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
        sym = self.symmetrized
        try:
            # sym.T is Fortran-ordered, so dsyevd writes the eigenvectors into sym itself
            vals, vecs = scipy.linalg.eigh(sym.T, driver="evd", overwrite_a=True)
        except scipy.linalg.LinAlgError as exc:
            raise NumericalFailureError(f"the dense eigensolve failed: {exc}") from exc
        vals, vecs = vals[::-1], vecs[:, ::-1]
        vecs /= np.sqrt(self.geometry.mu)[:, None]
        vals.setflags(write=False)
        vecs.setflags(write=False)
        return vals, vecs


def assemble(geometry: WeightedGeometry) -> DriftOperator:
    """Assemble the drift operator for a geometry.

    Periodic kinds get the second-order divergence-form stencil with
    edge-midpoint weights (the conformal prefactor enters through division by
    ``mu``), summed straight from the edge list into CSR; the Gauss line gets
    the diagonal collocation representation.  An operator with a non-finite
    entry raises :class:`InvalidInputError`.
    """
    if geometry.basis is not None:
        basis = geometry.basis.basis
        weighted = geometry.mu[:, None] * basis
        matrix = basis @ (geometry.basis.rates[:, None] * weighted.T)
    else:
        n = geometry.node_count
        st = geometry.stencil
        coef = st.edge_coef
        rows = np.concatenate([st.edge_i, st.edge_j, st.edge_i, st.edge_j])
        cols = np.concatenate([st.edge_i, st.edge_j, st.edge_j, st.edge_i])
        entries = np.concatenate([coef, coef, -coef, -coef])
        matrix = scipy.sparse.coo_array((entries, (rows, cols)), shape=(n, n)).tocsr()
        row_of = np.repeat(np.arange(n), np.diff(matrix.indptr))
        with np.errstate(over="ignore", invalid="ignore"):
            matrix.data = -matrix.data / geometry.mu[row_of]
    op = DriftOperator(geometry=geometry, matrix=matrix)
    if not np.all(np.isfinite(op.matrix.data)):
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
    ``|u|_mu |v|_mu``.  Passes when the worst value is <= 1e-10.
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
    tol = 1e-10
    worst = max(worst_asym, worst_defect)
    return CheckReport(
        name="self-adjoint",
        passed=worst <= tol,
        margin=tol - worst,
        tolerance=tol,
        aux={"max_asymmetry": worst_asym, "max_pairing_defect": worst_defect,
             "trials": SELF_ADJOINT_TRIALS},
    )
