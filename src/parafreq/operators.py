"""Divergence-form assembly of the discrete drift operator and its spectrum.

The operator is mu-self-adjoint by construction: on every geometry it is
``L = -M^{-1} G^T C G`` for the geometry's Dirichlet form, its differences
``G`` and weights ``C`` (the edge-difference matrix and edge weights of a
periodic grid, the modal projection and negated rates of the Gauss line).
Self-adjointness is structural, never a post-hoc symmetrization.

The operator is stored sparse (CSR): a periodic stencil has 3 (circle) or 5
(torus) nonzeros per row.  Only the eigensystem is dense, and it is refused
above :data:`MAX_DENSE_NODES` nodes.  It comes from LAPACK's divide-and-conquer
``dsyevd``, which overwrites the dense symmetrized matrix with the eigenvectors;
with its workspace the solve peaks at about 3 n^2 doubles.  It is computed
only when read: by ``eigen``, ``eigenmode`` data and the check suite.  A
spectral flow on an operator that has not computed it builds Krylov modes
instead, unless its data needs so many that the eigensolve is cheaper
(``evolution.evolve_exact``).  Both those modes and the implicit steps
solve with a sparse LU factor of ``I - gamma L``
(:meth:`DriftOperator.shifted_factor`): a step of size ``dt`` takes
``gamma = dt/2``, a Krylov flow a shift taken from its time window.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.linalg
import scipy.sparse
import scipy.sparse.linalg

from .core import Field, WeightedGeometry, _frozen_csr, energy_pairing, weighted_inner
from .errors import IncompatibleFieldsError, InvalidInputError, NumericalFailureError
from .reports import CheckReport

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
    """Sparse CSR realization of the discrete drift operator.

    ``matrix`` may be given dense or sparse; it is stored as a read-only CSR
    array.  The LU factor of ``I - gamma L`` is cached per shift ``gamma``
    for the operator's lifetime (:meth:`shifted_factor`).
    """

    geometry: WeightedGeometry
    matrix: scipy.sparse.csr_array
    _factors: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "matrix", _frozen_csr(self.matrix))

    def apply(self, u: Field) -> Field:
        if u.geometry is not self.geometry:
            raise IncompatibleFieldsError("field does not live on the operator geometry")
        return Field(self.geometry, self.matrix @ u.values)

    def shifted_factor(self, gamma: float) -> scipy.sparse.linalg.SuperLU:
        """``splu(I - gamma L)``, factored once per shift ``gamma``.

        A trapezoid step of size ``dt`` is ``2 (I - dt/2 L)^{-1} - I``, so every
        flow stepped on one operator and grid shares the factor of
        ``gamma = dt/2``.  A Krylov flow asks for the shift of its time window
        (``evolution._lanczos``), so a caller that both steps and runs Krylov
        flows on one operator pays two factorizations, unless the two shifts
        coincide.
        """
        if gamma not in self._factors:
            eye = scipy.sparse.eye_array(self.geometry.node_count, format="csr")
            try:
                # I - gamma L has a symmetric pattern: minimum degree on A^T + A fills in less than COLAMD
                self._factors[gamma] = scipy.sparse.linalg.splu(
                    (eye - gamma * self.matrix).tocsc(), permc_spec="MMD_AT_PLUS_A"
                )
            except RuntimeError as exc:
                raise NumericalFailureError(f"implicit factorization failed: {exc}") from exc
        return self._factors[gamma]

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
    """Assemble the drift operator ``L = -M^{-1} G^T C G`` of a geometry's Dirichlet form.

    ``G^T C G`` is one sparse product of the differences ``G`` and weights
    ``C`` (on a periodic grid, the second-order divergence-form stencil with
    edge-midpoint weights); each row is then divided by ``mu``, which is where
    the conformal prefactor enters.  An operator with a non-finite entry
    raises :class:`InvalidInputError`.
    """
    G, C = geometry.differences, geometry.weights
    matrix = scipy.sparse.csr_array(G.T @ (C[:, None] * G))
    row_of = np.repeat(np.arange(geometry.node_count), np.diff(matrix.indptr))
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
