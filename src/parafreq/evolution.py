"""Time evolution of the drift heat equation and its perturbed variants.

Two integrators on purpose: the spectral path is the exact semigroup of the
semidiscrete operator (theorem-grade trajectories), the implicit trapezoid
path carries O(dt^2) stepping error (tolerance-budgeted trajectories).
Perturbations are treated explicitly with midpoint averaging; the zeroth-order
gauge is removed by an exact scalar factor.

Every trajectory is one read-only (samples, nodes, N) array, and neither
integrator builds it when the flow is created.  The spectral path keeps its
modal data and builds the array with one GEMM only when a caller reads it.
The stepped paths check their inputs, factor ``I - dt/2 L`` (once per
operator and step size) and keep their initial data and perturbation; the
steps run on first read of ``values``.  :func:`_in_blocks` steps many
pending flows that share an operator and a grid as one block of columns:
each step is one sparse product and one multi-right-hand-side solve for the
whole block.  SuperLU and the CSR products treat columns independently, so a
flow's values are the same bits whether it is stepped alone (a block of one)
or with others.  A block is laid out member-major, (members, samples, nodes,
N), so each flow's values are a contiguous view of it, and its size comes
from the fixed byte budget ``_BLOCK_BYTES``, which counts the values and,
for perturbed flows, the perturbation samples and their column-stacked
copies.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from .core import (
    PROVENANCE_IMPLICIT,
    PROVENANCE_SPECTRAL,
    Field,
    ModalExpansion,
    TimeGrid,
    Trajectory,
    WeightedGeometry,
    cumulative_trapezoid,
    row_chunks,
    weighted_inner,
)
from .errors import (
    CertificationFailureError,
    DegenerateInputError,
    InvalidInputError,
)
from .operators import DriftOperator

_CERT_SLACK = 1e-12
# bytes of one block of flows stepped together: on circle 128 with 201 samples
# that is 40 plain or 8 perturbed flows, on torus 32x32 five plain flows
_BLOCK_BYTES = 8 * 2**20


def _sample_time_function(fn, times: np.ndarray, shape: tuple, name: str) -> np.ndarray:
    """Sample a callable/array/scalar onto the grid; result has ``(K+1,) + shape``.

    An array is broadcast against ``(K+1,) + shape``: one row per sample, or
    one value for all of them.
    """
    out = np.empty((times.size,) + shape)
    if callable(fn):
        for k, t in enumerate(times):
            out[k] = np.broadcast_to(np.asarray(fn(t), dtype=float), shape)
    else:
        out[:] = np.asarray(fn, dtype=float)
    if not np.all(np.isfinite(out)):
        raise InvalidInputError(f"{name} must be finite at every sample")
    return out


@dataclass(frozen=True)
class PerturbationSpec:
    """Drift/potential perturbation ``b . grad u + c u`` with certified bound.

    Arrays are sampled per time: ``b`` (samples, nodes, dim), ``c`` (samples,
    nodes), ``bound`` (samples,).  Construction checks the sufficient sup-norm
    condition ``|b|, |c| <= C(t)`` at every sampled (node, time) pair, fills
    in the tight certificate when ``bound`` is None, requires ``c == 0`` when
    gradient_only, and makes the arrays read-only so the certificate holds.
    """

    geometry: WeightedGeometry
    grid: TimeGrid
    b: np.ndarray | None
    c: np.ndarray | None
    bound: np.ndarray | None
    gradient_only: bool = False

    def __post_init__(self):
        times = self.grid.times
        if self.gradient_only and self.c is not None and np.any(self.c != 0.0):
            raise InvalidInputError("gradient_only perturbations require c == 0")
        # sup norms per sample, a chunk of samples at a time so temporaries stay bounded
        b_sup, c_sup = np.zeros(times.size), np.zeros(times.size)
        for rows in row_chunks(times.size, self.geometry.node_count * self.geometry.dim):
            if self.b is not None:
                b_sup[rows] = np.sqrt((self.b[rows] ** 2).sum(axis=2)).max(axis=1)
            if self.c is not None:
                c_sup[rows] = np.abs(self.c[rows]).max(axis=1)
        if self.bound is None:
            object.__setattr__(self, "bound", np.maximum(b_sup, c_sup))
        else:
            if np.any(self.bound < -_CERT_SLACK):
                raise InvalidInputError("bound C(t) must be nonnegative")
            bad = (b_sup > self.bound + _CERT_SLACK) | (c_sup > self.bound + _CERT_SLACK)
            if np.any(bad):
                k = int(np.argmax(bad))
                raise CertificationFailureError(
                    f"perturbation exceeds its certified bound at t={times[k]:.6g}: "
                    f"sup|b|={b_sup[k]:.6g}, sup|c|={c_sup[k]:.6g}, C={self.bound[k]:.6g}"
                )
        for arr in (self.b, self.c, self.bound):
            if arr is not None:
                arr.setflags(write=False)

    @staticmethod
    def build(
        geometry: WeightedGeometry,
        grid: TimeGrid,
        b=None,
        c=None,
        bound=None,
        gradient_only: bool = False,
    ) -> "PerturbationSpec":
        """Sample a perturbation on a grid; construction certifies it.

        ``b`` maps t to per-node coefficient vectors (nodes, dim), ``c`` maps
        t to per-node scalars; either may be an array over the whole grid, a
        constant, or None.  ``bound`` is C(t); when omitted the tight sup-norm
        certificate is used.  A callable is called once per sample and an
        array is copied; a caller that already holds the (samples, ...)
        arrays, as ``config.build_perturbation`` does, constructs the spec
        from them directly.
        """
        times = grid.times
        nodes, dim = geometry.node_count, geometry.dim
        return PerturbationSpec(
            geometry=geometry,
            grid=grid,
            b=None if b is None else _sample_time_function(b, times, (nodes, dim), "b"),
            c=None if c is None else _sample_time_function(c, times, (nodes,), "c"),
            bound=None if bound is None else _sample_time_function(bound, times, (), "bound"),
            gradient_only=gradient_only,
        )

    def is_zero(self) -> bool:
        return (self.b is None or not np.any(self.b)) and (
            self.c is None or not np.any(self.c)
        )


def _check_initial(op: DriftOperator, u0: Field) -> None:
    if u0.geometry is not op.geometry:
        raise InvalidInputError("initial field does not live on the operator geometry")
    if weighted_inner(u0, u0) == 0.0:
        raise DegenerateInputError("initial field is identically zero")


def evolve_exact(op: DriftOperator, u0: Field, grid: TimeGrid) -> Trajectory:
    """Exact semigroup of the discrete operator, kept in its eigenbasis.

    The trajectory carries the modal data (eigenvalues, eigenvectors,
    ``c = V^T M u0`` and ``u0``); its ``values`` are built from them with one
    GEMM on first access.
    """
    _check_initial(op, u0)
    vals, vecs = op.eigensystem
    coeffs = vecs.T @ (op.geometry.mu[:, None] * u0.values)
    modal = ModalExpansion(rates=vals, vectors=vecs, coeffs=coeffs, initial=u0.values)
    return Trajectory(
        grid=grid, geometry=op.geometry, modal=modal, provenance=PROVENANCE_SPECTRAL
    )


@dataclass(eq=False)
class _PendingSteps:
    """Inputs of a stepped flow whose steps have not run yet.

    Calling it returns the flow's (samples, nodes, N) values; a flow that no
    block has stepped yet is stepped as a block of one.
    """

    op: DriftOperator
    grid: TimeGrid
    u0: np.ndarray
    pert: PerturbationSpec | None
    values: np.ndarray | None = None

    def __call__(self) -> np.ndarray:
        if self.values is None:
            step_block([self])
        return self.values

    def block_size(self) -> int:
        """Members per block: as many as fit in ``_BLOCK_BYTES``, at least one.

        A Gauss-line block holds one member, because its gradient is a GEMM
        whose rounding may depend on the number of columns.
        """
        geometry = self.op.geometry
        if geometry.basis is not None:
            return 1
        sample_bytes = (self.grid.steps + 1) * geometry.node_count * 8
        member = sample_bytes * self.u0.shape[1]
        if self.pert is not None:
            # the spec's b and c samples and their column-stacked copies
            member += 2 * sample_bytes * (geometry.dim + 1)
        return max(1, _BLOCK_BYTES // member)


class _BlockTerm:
    """``b . grad u + c u`` of a block's members, each member's b and c stacked by column.

    ``b`` is (samples, nodes, dim, M) and ``c`` is (samples, nodes, M); a
    member without b or c has zeros there, and a part that no member has is
    left out.  The sums run in the order of the one-flow formula
    ``einsum("nd,ndc->nc", b, grad) + c u``, so every column gets its own bits.
    """

    def __init__(self, geometry: WeightedGeometry, perts: list[PerturbationSpec]):
        self.geometry = geometry
        self.b = self._stack([p.b for p in perts])
        self.c = self._stack([p.c for p in perts])

    @staticmethod
    def _stack(arrays: list) -> np.ndarray | None:
        present = [a for a in arrays if a is not None]
        if not present:
            return None
        if len(arrays) == 1:
            return present[0][..., None]  # a block of one steps on a view, not a copy
        zero = np.zeros_like(present[0])
        return np.stack([zero if a is None else a for a in arrays], axis=-1)

    def __call__(self, k: int, u: np.ndarray) -> np.ndarray:
        """The term at time sample k of a (nodes, M, N) block state."""
        out = np.zeros_like(u)
        if self.b is not None:
            nodes, members, comps = u.shape
            grad = self.geometry.gradient(u.reshape(nodes, -1))
            grad = grad.reshape(nodes, self.geometry.dim, members, comps)
            coef = self.b[k][..., None]
            acc = coef[:, 0] * grad[:, 0]
            for axis in range(1, self.geometry.dim):
                acc += coef[:, axis] * grad[:, axis]
            out += acc
        if self.c is not None:
            out += self.c[k][:, :, None] * u
        return out


def step_block(members: list[_PendingSteps]) -> None:
    """Trapezoidal steps of one block, implicit in L, midpoint-averaged in the perturbation.

    The members share one operator, grid, step kind and N.  The state is a
    (nodes, M * N) matrix, a column per member and component; each member's
    values become a contiguous view of one (M, samples, nodes, N) array.
    """
    first = members[0]
    op, grid = first.op, first.grid
    nodes, comps = first.u0.shape
    dt = grid.dt
    solver, forward = op.trapezoid_factors(dt)
    term = None if first.pert is None else _BlockTerm(op.geometry, [m.pert for m in members])
    block = np.empty((len(members), grid.steps + 1, nodes, comps))
    for member, values in zip(members, block):
        values[0] = member.u0
    state = (nodes, len(members), comps)
    u = block[:, 0].transpose(1, 0, 2).reshape(nodes, -1)
    for k in range(grid.steps):
        rhs = forward @ u
        if term is None:
            u = solver.solve(rhs)
        else:
            p_old = term(k, u.reshape(state)).reshape(rhs.shape)
            predictor = solver.solve(rhs + dt * p_old)
            p_new = term(k + 1, predictor.reshape(state)).reshape(rhs.shape)
            u = solver.solve(rhs + dt * (0.5 * (p_old + p_new)))
        block[:, k + 1] = u.reshape(state).transpose(1, 0, 2)
    for member, values in zip(members, block):
        member.values = values


def _in_blocks(flows: Iterable[Trajectory]) -> Iterator[Trajectory]:
    """The trajectories of ``flows``, stepped together one block at a time.

    ``flows`` may be a lazy iterable (a generator of ``evolve_cn`` calls, say):
    a block's flows are created only when the block is taken, so random draws
    keep their order, and once the caller drops each trajectory before asking
    for the next, only one block's values are alive at a time.  The flows are
    pending stepped flows that share an operator, a grid, a step kind (plain
    or perturbed) and N, so each block of ``block_size`` of them goes to
    :func:`step_block` whole.
    """
    flows = iter(flows)
    for first in flows:
        block = [first, *itertools.islice(flows, first.stepping.block_size() - 1)]
        step_block([traj.stepping for traj in block])
        yield from block


def _stepped(op: DriftOperator, u0: Field, grid: TimeGrid, pert: PerturbationSpec | None,
             **tags) -> Trajectory:
    """A deferred stepped trajectory; the factorization is made now, so its failure is raised here."""
    op.trapezoid_factors(grid.dt)
    return Trajectory(
        grid=grid, geometry=op.geometry, provenance=PROVENANCE_IMPLICIT,
        stepping=_PendingSteps(op, grid, u0.values, pert), **tags,
    )


def evolve_cn(op: DriftOperator, u0: Field, grid: TimeGrid) -> Trajectory:
    """Unconditionally stable implicit trapezoid stepping, O(dt^2) accurate.

    The steps run on first read of ``values``, or with a block in
    :func:`_in_blocks`.
    """
    _check_initial(op, u0)
    return _stepped(op, u0, grid, None)


def evolve_perturbed(
    op: DriftOperator, u0: Field, grid: TimeGrid, pert: PerturbationSpec
) -> Trajectory:
    """Step ``u_t = L u + b . grad u + c u`` with the certified perturbation.

    The drift part is implicit, the perturbation explicit with midpoint
    averaging; the realized bound C(t_k) is recorded on the trajectory.  The
    inputs are checked now; the steps run as for :func:`evolve_cn`.
    """
    _check_initial(op, u0)
    if pert.geometry is not op.geometry:
        raise InvalidInputError("perturbation geometry does not match the operator")
    if pert.grid != grid:
        raise InvalidInputError("perturbation was certified on a different time grid")
    if op.geometry.psi.any() and not pert.is_zero():
        raise InvalidInputError(
            "perturbed flows are supported on flat geometries only (psi == 0)"
        )
    return _stepped(
        op, u0, grid, pert, gradient_only=pert.gradient_only, certified_bound=pert.bound
    )


def gauge_transform(traj: Trajectory, rate) -> Trajectory:
    """Multiply by ``exp(-integral_a^t lambda)`` (trapezoid in time).

    ``rate`` is lambda(t): a callable of time, an array over the grid, or a
    constant.  If the source solves the gauged equation
    ``u_t = L u + lambda(t) u``, the result solves the pure drift heat
    equation; the frequency U is invariant either way because the scalar
    factor cancels in D/I.
    """
    times = traj.grid.times
    rates = _sample_time_function(rate, times, (), "lambda")
    integral = cumulative_trapezoid(rates, times)
    factors = np.exp(-integral)
    return Trajectory(
        grid=traj.grid,
        geometry=traj.geometry,
        values=factors[:, None, None] * traj.values,
        provenance=traj.provenance,
        gradient_only=traj.gradient_only,
        certified_bound=traj.certified_bound,
    )
