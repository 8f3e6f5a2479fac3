"""Time evolution of the drift heat equation and its perturbed variants.

Two integrators on purpose: the spectral path is the exact semigroup of the
semidiscrete operator (theorem-grade trajectories), the implicit trapezoid
path carries O(dt^2) stepping error (tolerance-budgeted trajectories).
Perturbations are treated explicitly with midpoint averaging; the zeroth-order
gauge is removed by an exact scalar factor.

Every trajectory is one read-only (samples, nodes, N) array.  The stepped
paths fill it step by step with one cached LU factorization per operator and
step size; the spectral path keeps its modal data and builds the array with
one GEMM only when a caller reads it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.integrate

from .core import (
    PROVENANCE_IMPLICIT,
    PROVENANCE_SPECTRAL,
    Field,
    ModalExpansion,
    TimeGrid,
    Trajectory,
    WeightedGeometry,
    weighted_inner,
)
from .errors import (
    CertificationFailureError,
    DegenerateInputError,
    InvalidInputError,
)
from .operators import DriftOperator

_CERT_SLACK = 1e-12


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
        zero = np.zeros(times.size)
        b_sup = zero if self.b is None else np.sqrt((self.b**2).sum(axis=2)).max(axis=1)
        c_sup = zero if self.c is None else np.abs(self.c).max(axis=1)
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
        certificate is used.
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

    def term(self, k: int, values: np.ndarray) -> np.ndarray:
        """Evaluate ``b . grad u + c u`` at time sample k."""
        out = np.zeros_like(values)
        if self.b is not None:
            grad = self.geometry.gradient(values)
            out += np.einsum("nd,ndc->nc", self.b[k], grad)
        if self.c is not None:
            out += self.c[k][:, None] * values
        return out

    def is_zero(self) -> bool:
        return (self.b is None or not np.any(self.b)) and (
            self.c is None or not np.any(self.c)
        )


@dataclass(frozen=True)
class GaugeSpec:
    """Scalar zeroth-order coefficient lambda(t), a function of time only."""

    rate: Callable[[float], float] | np.ndarray | float

    def sample(self, times: np.ndarray) -> np.ndarray:
        return _sample_time_function(self.rate, times, (), "lambda")


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


def _imex_steps(
    op: DriftOperator, u0: Field, grid: TimeGrid, pert: PerturbationSpec | None
) -> np.ndarray:
    """Trapezoidal stepping, implicit in L, midpoint-averaged in the perturbation.

    Returns the (samples, nodes, N) stack of every step.
    """
    dt = grid.dt
    solver, forward = op.trapezoid_factors(dt)
    values = np.empty((grid.steps + 1,) + u0.values.shape)
    values[0] = u0.values
    u = u0.values
    for k in range(grid.steps):
        rhs = forward @ u
        if pert is None:
            u = solver.solve(rhs)
        else:
            p_old = pert.term(k, u)
            predictor = solver.solve(rhs + dt * p_old)
            p_mid = 0.5 * (p_old + pert.term(k + 1, predictor))
            u = solver.solve(rhs + dt * p_mid)
        values[k + 1] = u
    return values


def evolve_cn(op: DriftOperator, u0: Field, grid: TimeGrid) -> Trajectory:
    """Unconditionally stable implicit trapezoid stepping, O(dt^2) accurate."""
    _check_initial(op, u0)
    values = _imex_steps(op, u0, grid, None)
    return Trajectory(
        grid=grid, geometry=op.geometry, values=values, provenance=PROVENANCE_IMPLICIT
    )


def evolve_perturbed(
    op: DriftOperator, u0: Field, grid: TimeGrid, pert: PerturbationSpec
) -> Trajectory:
    """Step ``u_t = L u + b . grad u + c u`` with the certified perturbation.

    The drift part is implicit, the perturbation explicit with midpoint
    averaging; the realized bound C(t_k) is recorded on the trajectory.
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
    return Trajectory(
        grid=grid,
        geometry=op.geometry,
        values=_imex_steps(op, u0, grid, pert),
        provenance=PROVENANCE_IMPLICIT,
        gradient_only=pert.gradient_only,
        certified_bound=pert.bound,
    )


def gauge_transform(traj: Trajectory, gauge: GaugeSpec) -> Trajectory:
    """Multiply by ``exp(-integral_a^t lambda)`` (trapezoid in time).

    If the source solves the gauged equation ``u_t = L u + lambda(t) u``, the
    result solves the pure drift heat equation; the frequency U is invariant
    either way because the scalar factor cancels in D/I.
    """
    times = traj.grid.times
    rates = gauge.sample(times)
    integral = scipy.integrate.cumulative_trapezoid(rates, times, initial=0.0)
    factors = np.exp(-integral)
    return Trajectory(
        grid=traj.grid,
        geometry=traj.geometry,
        values=factors[:, None, None] * traj.values,
        provenance=traj.provenance,
        gradient_only=traj.gradient_only,
        certified_bound=traj.certified_bound,
    )
