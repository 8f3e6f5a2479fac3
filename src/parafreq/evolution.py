"""Time evolution of the drift heat equation and its perturbed variants.

Two integrators on purpose: the spectral path is the exact semigroup of the
semidiscrete operator (theorem-grade trajectories), the implicit trapezoid
path carries O(dt^2) stepping error (tolerance-budgeted trajectories).
Perturbations are treated explicitly with midpoint averaging; the zeroth-order
gauge is removed by an exact scalar factor.  A plain trapezoid flow has a
modal form, ``u_k = V r(dt Lambda)^k V^T M u0`` with
``r(z) = (1 + z/2)/(1 - z/2)``: on an operator that holds its dense
eigensystem it can be projected on it instead of stepped
(:func:`project_flows`), the same flow to round-off, kept as a modal
expansion with the step.  Every projection, of one spectral flow or of many
trapezoid flows, is :func:`_projections`: the coefficients of all its flows
are one GEMM.

Without the dense eigensystem both flows are modal expansions on the modes
the initial data needs, the Ritz pairs of shift-and-invert Lanczos on
``(I - gamma S)^{-1}``, ``S = M^{1/2} L M^{-1/2}`` the operator's symmetric
form (:func:`_lanczos`), which grows its Krylov basis until I and U at every
sample, of the exact or of the trapezoid flow, have converged.  The shift is
an eighth of the time window, ``gamma = (b - a)/8``, so the modes a flow
needs depend on its data and its window, not on the step.  ``S`` is well
scaled however many decades mu spans (the Gauss line), so each solve is one
plain SuperLU solve.  A spectral flow whose data needs more than a quarter
of the modes, where the dense eigensolve is the cheaper, computes the
eigensystem and projects on it.  A trapezoid flow (``evolve_cn``) pays a
solve and its orthogonalization per basis vector, stepping a solve per
step, so it never computes the eigensystem, and it takes Krylov modes only
in the regime they were measured in, the stepped ladder's plain flows
(circle 128 to 2048, torus 16^2 to 48^2, [0, 1] in 400 steps, seeds 0, 3,
7, 41, 112): data whose frequency over the window, ``(b - a)|U(a)|``, is at
most 32 (the ladder's read at most 15.3; nodal noise reads hundreds or
more), on a grid of 32 steps or more.  There every flow converged within 64
modes, its I agreeing with stepping to 1.5e-11 (relative) and its U to
2.6e-13 of max|U|.  Other data is stepped at once, and a run is stepped
instead when its basis would pass 64 modes or a quarter of the steps, or
when it fails.  On an operator that holds its eigensystem ``evolve_cn``
still returns a pending stepped flow, so that :func:`project_flows` and
:func:`_in_blocks` can take it.

Every trajectory is one read-only (samples, nodes, N) array, and neither
integrator builds it when the flow is created.  A modal flow keeps its
modal data and builds the array from it, a chunk of samples per GEMM, only
when a caller reads it.
The stepped paths check their inputs and keep their initial data and
perturbation; the steps and the factor of ``I - dt/2 S`` (the Krylov flows'
form, :meth:`DriftOperator.factor`) wait for the first read of ``values``.
Each stage is one solve in ``v = M^{1/2} u``, ``v <- (I - dt/2 S)^{-1} (2v +
dt M^{1/2} p) - v``, the trapezoid step with the perturbation term ``p`` and
no forward operator.
:func:`_in_blocks` steps many pending flows that share an operator and a
grid as one block of columns, one multi-right-hand-side solve per stage
(:func:`step_block`).
SuperLU treats columns independently, so a flow's values are the same bits
whether it is stepped alone (a block of one) or with others.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterable, Iterator

import numpy as np
import scipy.linalg

from .core import (
    PROVENANCE_IMPLICIT,
    PROVENANCE_SPECTRAL,
    Field,
    ModalExpansion,
    TimeGrid,
    Trajectory,
    WeightedGeometry,
    cumulative_trapezoid,
    dirichlet_energy,
    _modal_factors,
    _modal_sums,
    row_chunks,
    weighted_inner,
)
from .errors import (
    CertificationFailureError,
    DegenerateInputError,
    InvalidInputError,
    NumericalFailureError,
)
from .operators import MAX_DENSE_NODES, MAX_VALUES, DriftOperator

_CERT_SLACK = 1e-12
# bytes of one block of flows stepped together: check all's Richardson flows (10 plain
# circle-128 flows, one block per grid) and random perturbed suite (7 blocks of up to 8
# flows); a flow read alone, as the stepped ladder's perturbed flows, is a block of one
_BLOCK_BYTES = 8 * 2**20
# Krylov flows: the first basis size (it doubles from there), the agreement of
# I and U between two successive sizes that ends the doubling (:func:`_agree`),
# and the share of ``A q_j`` below which a Lanczos step's new direction marks
# an invariant subspace
_KRYLOV_START = 8
_KRYLOV_RTOL = 1e-12
_BREAKDOWN = 1e-12
# the shift as a share of the time window, gamma = (b - a) * _SHIFT_SHARE: on
# the benchmark's [0, 1] flows (seeds 0 and 41) a quarter or an eighth needs 32
# modes on circle 2048 and 64 on torus 48^2, half what the step's dt/2 needs;
# half the window or all of it needs 128 on torus 48^2 at seed 41
_SHIFT_SHARE = 0.125
# the largest share of the nodes a Krylov basis grows to when the dense
# eigensystem is allowed: with one BLAS thread, a run on nodal noise on a
# weighted 2048-node circle over [0, 0.01] in 2000 steps, its convergence test
# off, took 0.39 s to 512 modes, 1.4 s to 1024 and 5.6 s to all 2048, against
# 1.15 s for the dense eigensolve (on 1024 nodes: 0.04 s to 256 modes, 0.18 s
# to 512, eigh 0.17 s); with the test on, that flow converges at 512 modes
_KRYLOV_SHARE = 0.25
# trapezoid flows built from Krylov modes (:func:`_in_krylov_regime`), the
# regime measured on the stepped ladder's plain flows (circle 128 to 2048,
# torus 16^2 to 48^2, [0, 1] in 400 steps, seeds 0, 3, 7, 41, 112): the data's
# frequency over the window, (b - a)|U(a)|, read at most 15.3 there, and every
# flow converged within 64 modes.  Past _TRAPEZOID_REACH the basis grows with
# the data's frequency (nodal noise reads 2e2 to 2e5 and needs 128 to 512
# modes), so such data is stepped at once.  A flow within it still gives way
# to stepping before its basis passes _TRAPEZOID_MODES, or _STEPS_SHARE of the
# steps (a basis vector costs about a solve, a step a solve), so a flow that
# does not converge wastes at most the factor of I - gamma S and 64 solves
_TRAPEZOID_REACH = 32.0
_TRAPEZOID_MODES = 64
_STEPS_SHARE = 0.25


def _over_samples(value, shape: tuple, name: str) -> np.ndarray:
    """``value``, a constant or an array, as a float64 array of ``shape`` (samples first).

    A float64 array of that shape is returned as it is; anything else is
    broadcast into a new array.  A value that is not numeric or does not
    broadcast is an :class:`InvalidInputError`.
    """
    try:
        arr = np.asarray(value, dtype=float)
        return arr if arr.shape == shape else np.broadcast_to(arr, shape).copy()
    except (TypeError, ValueError):
        raise InvalidInputError(
            f"{name} must be a constant or an array that broadcasts to {shape}"
        ) from None


def _certificate(bound):
    """``bound`` if it is a certificate C(t), finite and >= 0 (to ``_CERT_SLACK``), else an error."""
    if not np.all(np.isfinite(bound)) or np.any(bound < -_CERT_SLACK):
        raise InvalidInputError("bound C(t) must be finite and nonnegative at every sample")
    return bound


@dataclass(frozen=True)
class PerturbationSpec:
    """Drift/potential perturbation ``b . grad u + c u`` with certified bound.

    ``b``, ``c`` and ``bound`` are each None, a constant, or an array that
    broadcasts to (samples, nodes, dim), (samples, nodes) and (samples,); the
    spec keeps them as read-only arrays of those shapes, a full-shaped
    float64 array without a copy.  Construction checks that they are finite
    and the sufficient sup-norm condition ``|b|, |c| <= C(t)`` at every
    sampled (node, time) pair, and fills in the tight certificate when
    ``bound`` is None.  ``gradient_only`` is read off ``c``: None or zero.
    """

    geometry: WeightedGeometry
    grid: TimeGrid
    b: np.ndarray | None = None
    c: np.ndarray | None = None
    bound: np.ndarray | None = None
    gradient_only: bool = field(init=False)

    def __post_init__(self):
        times = self.grid.times
        nodes, dim = self.geometry.node_count, self.geometry.dim
        shapes = {"b": (times.size, nodes, dim), "c": (times.size, nodes), "bound": times.shape}
        for name, shape in shapes.items():
            if getattr(self, name) is not None:
                object.__setattr__(self, name, _over_samples(getattr(self, name), shape, name))
        # sup norms per sample, a chunk of samples at a time so temporaries stay
        # bounded; a non-finite b or c gives a non-finite sup, and so does a
        # finite b whose |b|^2 overflows.  sqrt is monotone and correctly
        # rounded, so the root of the largest |b|^2 is the largest |b|, bit for bit
        b_sup, c_sup = np.zeros(times.size), np.zeros(times.size)
        for rows in row_chunks(times.size, nodes * dim):
            if self.b is not None:
                with np.errstate(over="ignore"):
                    b_sup[rows] = np.sqrt((self.b[rows] ** 2).sum(axis=2).max(axis=1))
            if self.c is not None:
                c_sup[rows] = np.abs(self.c[rows]).max(axis=1)
        for name, sup in (("b", b_sup), ("c", c_sup)):
            if not np.all(np.isfinite(sup)):
                raise InvalidInputError(f"sup|{name}| must be finite at every sample")
        # max |c| is 0 at every sample exactly when c is 0 everywhere
        object.__setattr__(self, "gradient_only", not c_sup.any())
        if self.bound is None:
            object.__setattr__(self, "bound", np.maximum(b_sup, c_sup))
        else:
            _certificate(self.bound)
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
    """Exact semigroup of the discrete operator, kept as a modal expansion.

    When ``op`` already holds its dense eigensystem, the flow projects onto
    it (:func:`_projections`).  Otherwise it builds only the modes its data
    needs (:func:`_krylov_expansion`), unless that would cost more than the
    eigensystem, which it then computes and projects on.  Either way the
    trajectory's ``values`` are built from the modal data on first access.
    """
    _check_initial(op, u0)
    dense = op.computed_eigensystem()
    modal = _krylov_expansion(op, u0.values, grid) if dense is None else None
    if modal is None:
        return _projections(op, grid, [u0.values])[0]
    return Trajectory(
        grid=grid, geometry=op.geometry, modal=modal, provenance=PROVENANCE_SPECTRAL
    )


def project_flows(flows: Iterable[Trajectory]) -> list[Trajectory]:
    """The trapezoid flows of pending plain ``flows``, projected on their operator's eigensystem, not stepped.

    ``flows`` are pending ``evolve_cn`` flows that share an operator, a grid
    and N; their coefficients are one GEMM (:func:`_projections`), and each
    flow becomes a modal expansion with the grid's step
    (``ModalExpansion.step``) and the provenance of a stepped flow, so its
    trace and its gates are those of stepping it, to round-off.  A flow that
    is not pending (:func:`_pending`), a perturbed flow, or an operator that
    does not hold its eigensystem, is an :class:`InvalidInputError`: nothing
    is stepped or solved here.
    """
    pending = [_pending(traj) for traj in flows]
    op, grid = pending[0].op, pending[0].grid
    if any(p.pert is not None for p in pending):
        raise InvalidInputError("a perturbed flow has no modal expansion: step it")
    if op.computed_eigensystem() is None:
        raise InvalidInputError("the operator holds no eigensystem to project a flow on")
    return _projections(op, grid, [p.u0 for p in pending], grid.dt)


def _projections(op: DriftOperator, grid: TimeGrid, starts: list[np.ndarray],
                 step: float | None = None) -> list[Trajectory]:
    """The flows from each (nodes, N) array of ``starts``, projected on ``op``'s eigensystem.

    The coefficients ``V^T M [u0_1 ... u0_k]`` of all of them are one GEMM,
    on BLAS since ``V`` has positive strides.  With ``step`` None each flow
    is the exact semigroup (spectral provenance); with a step ``dt`` it is
    the trapezoid flow of that step (implicit provenance).
    """
    vals, vecs = op.eigensystem
    coeffs = vecs.T @ (op.geometry.mu[:, None] * np.concatenate(starts, axis=1))
    columns = np.split(coeffs, np.cumsum([u0.shape[1] for u0 in starts])[:-1], axis=1)
    provenance = PROVENANCE_SPECTRAL if step is None else PROVENANCE_IMPLICIT
    return [
        Trajectory(grid=grid, geometry=op.geometry, provenance=provenance, modal=ModalExpansion(
            rates=vals, vectors=vecs, coeffs=c, initial=u0, step=step))
        for u0, c in zip(starts, columns)
    ]


def _krylov_expansion(op: DriftOperator, u0: np.ndarray, grid: TimeGrid,
                      step: float | None = None) -> ModalExpansion | None:
    """The modes of a flow from ``u0`` that Krylov spaces of ``u0`` resolve.

    One :func:`_lanczos` run per component, every run solving with one factor
    of ``I - gamma S``.  With ``step`` None the flow is ``e^{tL} u0``, and the
    factor is kept on the operator for its later Krylov flows over a window of
    this length (``op.factor``); with a step ``dt`` it is the trapezoid flow of
    that step, and the factor is dropped with the run, since a finished modal
    flow never solves again.  Component j's modes carry coefficients in column
    j only, so the components stay decoupled.  None when a run gives way: a
    semigroup run to the dense eigensystem, a trapezoid run to stepping, which
    it also does where a semigroup run would raise :class:`NumericalFailureError`.
    """
    runs = []
    try:
        solver = op.factor((grid.b - grid.a) * _SHIFT_SHARE, keep=step is None)
        for column in u0.T:
            run = _lanczos(op, solver, column, grid, step)
            if run is None:
                return None
            runs.append(run)
    except NumericalFailureError:
        if step is None:
            raise
        return None
    rates, vectors, coeffs = zip(*runs)
    return ModalExpansion(
        rates=np.concatenate(rates), vectors=np.concatenate(vectors, axis=1),
        coeffs=scipy.linalg.block_diag(*(c[:, None] for c in coeffs)), initial=u0, step=step,
    )


def _lanczos(op: DriftOperator, solver, u: np.ndarray, grid: TimeGrid,
             step: float | None = None):
    """Rates, mu-orthonormal vectors and coefficients of the Krylov modes of one component ``u``.

    Lanczos in the symmetric coordinates ``v = M^{1/2} u``, Euclidean, on
    ``A = (I - gamma S)^{-1}``, ``gamma = (b - a) * _SHIFT_SHARE``, from
    ``q_0 = v / |v|``.  Each ``A q`` is one solve with ``solver``, the LU
    factor of ``I - gamma S`` (:func:`_krylov_expansion`).
    Each new direction is orthogonalized against the whole basis twice.  The
    basis size doubles from ``_KRYLOV_START``; at each size the tridiagonal
    ``T = Y diag(sigma) Y^T`` gives the rates ``theta = (1 - 1/sigma) / gamma``,
    the vectors ``M^{-1/2} Q Y`` (mu-orthonormal) and the coefficients
    ``|v| Y[0, :]``.
    The run ends when I and U at the grid's samples, of the flow with
    ``step`` (:func:`_modal_factors`), agree with those of the previous size
    to ``_KRYLOV_RTOL`` (:func:`_agree`), or at an invariant subspace (a new
    direction that keeps at most ``_BREAKDOWN`` of ``A q``, or a basis of
    every node), where the expansion is exact.  Past
    ``min(nodes, MAX_VALUES // nodes)`` vectors it raises
    :class:`NumericalFailureError`.  It gives way (returns None) before the
    basis would pass a budget: on at most ``MAX_DENSE_NODES`` nodes,
    ``_KRYLOV_SHARE`` of the nodes for the semigroup (``step`` None), where
    the dense eigensolve costs less than the next size; for a trapezoid flow
    ``_TRAPEZOID_MODES``, or ``_STEPS_SHARE`` of the grid's steps where that
    is fewer, past which stepping it costs less.
    """
    gamma, nodes = (grid.b - grid.a) * _SHIFT_SHARE, u.size
    cap = min(nodes, MAX_VALUES // nodes)
    if step is None:
        budget = _KRYLOV_SHARE * nodes if nodes <= MAX_DENSE_NODES else np.inf
    else:
        budget = min(_TRAPEZOID_MODES, _STEPS_SHARE * grid.steps)
    root = op.root
    v = root * u
    norm = np.sqrt(v @ v)
    if norm == 0.0:
        return np.empty(0), np.empty((nodes, 0)), np.empty(0)
    size = min(_KRYLOV_START, cap)
    basis = np.empty((size, nodes))  # rows q_0, q_1, ...; grown with the size
    basis[0] = v / norm
    alpha, beta = [], []
    previous = None
    while True:
        m = len(alpha)
        w = solver.solve(basis[m])
        scale = np.sqrt(w @ w)
        diagonal = 0.0
        for _ in range(2):
            h = basis[: m + 1] @ w
            w -= h @ basis[: m + 1]
            diagonal += h[m]
        alpha.append(diagonal)
        b = np.sqrt(w @ w)
        invariant = m + 1 == nodes or b <= _BREAKDOWN * scale
        if invariant or m + 1 == size:
            sigma, y = scipy.linalg.eigh_tridiagonal(np.array(alpha), np.array(beta))
            if sigma[0] <= 0.0:
                reach = gamma * np.max(np.abs(op.symmetric.diagonal()))
                if reach * np.finfo(float).eps >= 1.0:  # I is lost in rounding: the factor failed
                    raise NumericalFailureError(
                        f"I - gamma S is singular in floating point (gamma max|S_ii| = {reach:.3g} "
                        "is past 1/eps): the operator's entries are out of the float range")
                raise NumericalFailureError("the shift-and-invert Lanczos run lost definiteness")
            rates, coeffs = (1.0 - 1.0 / sigma[::-1]) / gamma, norm * y[0, ::-1]
            I, D = _modal_sums(_modal_factors(rates, grid.times - grid.a, step, 2), rates, coeffs**2)
            # U is 0 where I underflows to 0: there the trace will raise, as on the dense path
            trace = I, np.divide(D, I, out=np.zeros_like(I), where=I > 0.0)
            if invariant or (previous is not None and _agree(previous, trace)):
                return rates, basis[: m + 1].T @ y[:, ::-1] / root[:, None], coeffs
            if size == cap:
                raise NumericalFailureError(
                    f"the Krylov flow did not converge within {cap} modes "
                    f"(at most {MAX_VALUES} basis values on {nodes} nodes)"
                )
            if 2 * size > budget:
                return None
            previous = trace
            size = min(2 * size, cap)
            basis = np.concatenate([basis, np.empty((size - basis.shape[0], nodes))])
        beta.append(b)
        basis[m + 1] = w / b


def _agree(old: tuple, new: tuple) -> bool:
    """Two expansions' I and U equal at every sample to ``_KRYLOV_RTOL``: I relative, U of max|U|.

    U is held to the scale of its largest value, not its own: where it decays
    toward 0 (data with a mean on a weighted circle), a relative test would
    measure round-off.
    """
    (old_i, old_u), (new_i, new_u) = old, new
    return bool(np.all(np.abs(new_i - old_i) <= _KRYLOV_RTOL * new_i)
                and np.all(np.abs(new_u - old_u) <= _KRYLOV_RTOL * np.max(np.abs(new_u))))


def _pending(traj: Trajectory) -> "_PendingSteps":
    """The steps of a pending stepped flow; any other flow is an :class:`InvalidInputError`."""
    if not isinstance(traj.stepping, _PendingSteps):
        raise InvalidInputError("not a pending stepped flow: a modal or materialized flow "
                                "is neither projected nor stepped")
    return traj.stepping


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
        """Members per block: as many as fit in ``_BLOCK_BYTES``, at least one."""
        geometry = self.op.geometry
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
    left out.  The gradient is one call per term for the whole block
    (:meth:`WeightedGeometry.gradient`), and the sums run in the order of the
    one-flow formula ``sum_d b_d grad_d u + c u``, so every column gets its
    own bits.
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
        """The term at time sample k of a (nodes, M, N) block state, in a new array."""
        if self.b is None:
            return np.zeros_like(u) if self.c is None else self.c[k][:, :, None] * u
        nodes, members, comps = u.shape
        grad = self.geometry.gradient(u.reshape(nodes, -1))
        grad = grad.reshape(nodes, self.geometry.dim, members, comps)
        coef = self.b[k][..., None]
        out = coef[:, 0] * grad[:, 0]
        for axis in range(1, self.geometry.dim):
            out += coef[:, axis] * grad[:, axis]
        if self.c is not None:
            out += self.c[k][:, :, None] * u
        return out


def step_block(members: list[_PendingSteps]) -> None:
    """Trapezoidal steps of one block, implicit in L, midpoint-averaged in the perturbation.

    The steps run on ``v = R u``, ``R = M^{1/2}``, where L is ``S`` and every
    solve is with ``op.factor(dt/2)``.  Every stage (a plain step, a predictor, a
    corrector) is ``solve(2v + dt R p) - v``, its sums taken in place, with the
    perturbation term ``p`` taken of ``u = v / R``.  The members share one
    operator, grid, step kind and N.  The state is a (nodes, M * N) matrix, a
    column per member and component; each member's values become a contiguous
    view of one (M, samples, nodes, N) array.
    """
    first = members[0]
    op, grid = first.op, first.grid
    nodes, comps = first.u0.shape
    solver = op.factor(0.5 * grid.dt)
    root = op.root[:, None]
    dt_root = grid.dt * root
    term = None if first.pert is None else _BlockTerm(op.geometry, [m.pert for m in members])
    block = np.empty((len(members), grid.steps + 1, nodes, comps))
    for member, values in zip(members, block):
        values[0] = member.u0
    state = (nodes, len(members), comps)
    v = root * block[:, 0].transpose(1, 0, 2).reshape(nodes, -1)
    # a flow that leaves the float range fails the finite check when its values are read
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(grid.steps):
            rhs = twice = 2.0 * v
            if term is not None:
                p_old = term(k, block[:, k].transpose(1, 0, 2)).reshape(v.shape)
                rhs = dt_root * p_old
                rhs += twice
                predictor = solver.solve(rhs)
                predictor -= v
                predictor /= root
                # (p_new + p_old), then times 0.5 and dt R: the bits of dt R (0.5 (p_old + p_new))
                rhs = term(k + 1, predictor.reshape(state)).reshape(v.shape)
                rhs += p_old
                rhs *= 0.5
                rhs *= dt_root
                rhs += twice
            step = solver.solve(rhs)
            step -= v
            v = step
            np.divide(v.reshape(state), root[:, :, None], out=block[:, k + 1].transpose(1, 0, 2))
    for member, values in zip(members, block):
        member.values = values


def _in_blocks(flows: Iterable[Trajectory]) -> Iterator[Trajectory]:
    """The trajectories of ``flows``, stepped together one block at a time.

    ``flows`` may be a lazy iterable (a generator of ``evolve_cn`` calls, say):
    a block's flows are created only when the block is taken, so random draws
    keep their order, and once the caller drops each trajectory before asking
    for the next, only one block's values are alive at a time.  The flows are
    pending stepped flows (:func:`_pending`) that share an operator, a grid, a
    step kind (plain or perturbed) and N, so each block of ``block_size`` of them goes to
    :func:`step_block` whole (``check all``'s Richardson and random perturbed
    flows, see ``_BLOCK_BYTES``; its stepped lane is projected, :func:`project_flows`).
    """
    flows = iter(flows)
    for first in flows:
        block = [first, *itertools.islice(flows, _pending(first).block_size() - 1)]
        step_block([_pending(traj) for traj in block])
        yield from block


def _stepped(op: DriftOperator, u0: Field, grid: TimeGrid, pert: PerturbationSpec | None,
             **tags) -> Trajectory:
    """A deferred stepped trajectory: nothing is factored or stepped until a block steps it."""
    return Trajectory(
        grid=grid, geometry=op.geometry, provenance=PROVENANCE_IMPLICIT,
        stepping=_PendingSteps(op, grid, u0.values, pert), **tags,
    )


def evolve_cn(op: DriftOperator, u0: Field, grid: TimeGrid) -> Trajectory:
    """The implicit trapezoid flow, unconditionally stable and O(dt^2) accurate.

    The route depends on the operator's cached state as well as on the
    inputs.  On an operator that holds its dense eigensystem
    (``op.computed_eigensystem()``) the flow is always a pending stepped one,
    so that :func:`project_flows` and :func:`_in_blocks` can take it.  On one
    that does not, data in the Krylov regime (:func:`_in_krylov_regime`)
    builds the flow from the Krylov modes it needs (:func:`_krylov_expansion`
    with the grid's step), a modal expansion traced in closed form like a
    projected flow; other data, and a run that gives way, are stepped.  A
    stepped flow's steps run on first read of ``values``, or with a block in
    :func:`_in_blocks`.
    """
    _check_initial(op, u0)
    if op.computed_eigensystem() is None and _in_krylov_regime(u0, grid):
        modal = _krylov_expansion(op, u0.values, grid, grid.dt)
        if modal is not None:
            return Trajectory(
                grid=grid, geometry=op.geometry, modal=modal, provenance=PROVENANCE_IMPLICIT
            )
    return _stepped(op, u0, grid, None)


def _in_krylov_regime(u0: Field, grid: TimeGrid) -> bool:
    """Whether a trapezoid flow from ``u0`` is built from Krylov modes: the regime they were measured in.

    The data's frequency over the window, ``(b - a)|U(a)|`` with ``U(a) =
    -E(u0)/|u0|^2`` (one sparse product), is at most ``_TRAPEZOID_REACH``,
    and a first basis of ``_KRYLOV_START`` vectors stays within
    ``_STEPS_SHARE`` of the steps (32 steps or more).  A frequency that is not
    finite (an operator's entries near the float limit) is outside it.
    """
    if _KRYLOV_START > _STEPS_SHARE * grid.steps:
        return False
    with np.errstate(over="ignore", invalid="ignore"):
        reach = (grid.b - grid.a) * dirichlet_energy(u0) / weighted_inner(u0, u0)
    return bool(reach <= _TRAPEZOID_REACH)


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

    ``rate`` is lambda(t): a constant or an array over the grid's samples.
    If the source solves the gauged equation ``u_t = L u + lambda(t) u``,
    the result solves the pure drift heat equation; the frequency U is
    invariant either way because the scalar factor cancels in D/I.  The
    result carries no certified bound and is not gradient-only: gauging a
    perturbed flow adds ``-lambda`` to its potential, which the source's
    certificate does not bound.
    """
    times = traj.grid.times
    rates = _over_samples(rate, times.shape, "lambda")
    if not np.all(np.isfinite(rates)):
        raise InvalidInputError("lambda must be finite at every sample")
    integral = cumulative_trapezoid(rates, times)
    factors = np.exp(-integral)
    return Trajectory(
        grid=traj.grid,
        geometry=traj.geometry,
        values=factors[:, None, None] * traj.values,
        provenance=traj.provenance,
    )
