"""Closed-form heat-equation oracles on R^n and the drift change of variables.

Oracles carry hand-coded evaluators for u, u_t, grad u, lap u (no automatic
differentiation).  The change of variables ``w(x, s) = u(e^{-s/2} x, -e^{-s})``
turns heat flow into Gaussian-weighted drift heat flow; its residual identity
and the scaled-frequency correspondence are verified by quadrature that is
exact on polynomial data.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Callable

import numpy as np
from numpy.polynomial import polynomial as npoly

from .core import TimeGrid, Trajectory, PROVENANCE_ANALYTIC, WeightedGeometry
from .errors import InvalidInputError
from .reports import CheckReport, passing

@dataclass(frozen=True)
class HeatOracle:
    """Closed-form function on R^n x (t_min, 0) with consistent derivatives."""

    kind: str
    n: int
    u: Callable
    u_t: Callable
    grad: Callable
    lap: Callable
    t_min: float = -np.inf
    caloric: bool = True

    def residual(self, x: np.ndarray, t) -> np.ndarray:
        """Heat-equation defect ``u_t - lap u``; zero for caloric kinds."""
        return self.u_t(x, t) - self.lap(x, t)


def _points(x, n: int) -> np.ndarray:
    pts = np.asarray(x, dtype=float)
    if pts.ndim == 1:
        pts = pts[:, None]
    if pts.shape[1] != n:
        raise InvalidInputError(f"sample points must have {n} coordinates")
    return pts


def _polyval(pts: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Evaluate a power series with one coefficient axis per coordinate."""
    return (npoly.polyval, npoly.polyval2d)[c.ndim - 1](*pts.T, c)


def _polyder(c: np.ndarray, axis: int, m: int = 1) -> np.ndarray:
    if c.shape[axis] > m:
        return npoly.polyder(c, m, axis=axis)
    return np.zeros((1,) * c.ndim)


def _lap_coeffs(c: np.ndarray) -> np.ndarray:
    parts = [_polyder(c, axis, 2) for axis in range(c.ndim)]
    out = np.zeros(np.max([p.shape for p in parts], axis=0))
    for p in parts:
        out[tuple(slice(k) for k in p.shape)] += p
    return out


def _time_sum(parts, pts: np.ndarray, t, shift: int = 0) -> np.ndarray:
    """``sum_j d^shift/dt^shift (t^j) * p_j(x)`` over the coefficient arrays."""
    t = np.asarray(t, dtype=float)
    out = np.zeros(pts.shape[0])
    for j, c in enumerate(parts[shift:], start=shift):
        out += (j if shift else 1.0) * t ** (j - shift) * _polyval(pts, c)
    return out


def _polynomial_oracle(n: int, coeffs, complete: bool) -> HeatOracle:
    """``sum_j t^j lap^j p / j!``: the caloric completion of p, or p alone."""
    coeffs = np.asarray(coeffs, dtype=float)
    coeffs = coeffs.reshape((1,) * (n - coeffs.ndim) + coeffs.shape)  # np.atleast_<n>d
    if coeffs.ndim != n:
        raise InvalidInputError(f"polynomial coefficients need {n} axes, got {coeffs.ndim}")
    terms = [coeffs]
    lap = _lap_coeffs(coeffs)
    caloric = not np.any(lap)
    while complete and np.any(lap):
        terms.append(lap / len(terms))
        lap = _lap_coeffs(terms[-1])
    d_terms = [[_polyder(c, axis) for c in terms] for axis in range(n)]
    l_terms = [_lap_coeffs(c) for c in terms]
    return HeatOracle(
        kind="custom-polynomial",
        n=n,
        u=lambda x, t: _time_sum(terms, _points(x, n), t),
        u_t=lambda x, t: _time_sum(terms, _points(x, n), t, shift=1),
        grad=lambda x, t: np.stack([_time_sum(d, _points(x, n), t) for d in d_terms], axis=1),
        lap=lambda x, t: _time_sum(l_terms, _points(x, n), t),
        caloric=complete or caloric,
    )


def make_oracle(kind: str, n: int = 1, params: dict | None = None) -> HeatOracle:
    """Build a closed-form oracle.

    Kinds: ``constant`` (1), ``linear`` (``x_1``), ``caloric-quadratic``
    (``|x|^2 + 2 n t``), ``heat-kernel`` (the kernel at ``t + 1``, valid for
    t > -1), and ``custom-polynomial`` (params ``coeffs``, calorically
    completed unless ``complete`` is False).  A params key the kind does not
    take raises :class:`InvalidInputError`.
    """
    params = dict(params or {})
    if n not in (1, 2):
        raise InvalidInputError("oracle dimension must be 1 or 2")
    taken = ("coeffs", "complete") if kind == "custom-polynomial" else ()
    for key in params:
        if key not in taken:
            raise InvalidInputError(f"oracle kind {kind!r} takes no parameter {key!r}")
    degree = {"constant": 0, "linear": 1, "caloric-quadratic": 2}.get(kind)
    if degree is not None:
        coeffs = np.zeros((degree + 1,) * n)
        if kind == "caloric-quadratic":
            coeffs[tuple(2 * np.eye(n, dtype=int))] = 1.0
        else:
            coeffs[(degree,) + (0,) * (n - 1)] = 1.0
        return replace(_polynomial_oracle(n, coeffs, complete=True), kind=kind)
    if kind == "heat-kernel":
        def kernel(x, t):
            pts = _points(x, n)
            tau = np.broadcast_to(
                1.0 + np.asarray(t, dtype=float), (pts.shape[0],)
            ).astype(float)
            if np.any(tau <= 0.0):
                raise InvalidInputError("heat-kernel sampled outside its time domain")
            r2 = (pts**2).sum(axis=1)
            return (4.0 * np.pi * tau) ** (-n / 2.0) * np.exp(-r2 / (4.0 * tau)), tau, r2

        def k_u(x, t):
            return kernel(x, t)[0]

        def k_ut(x, t):
            val, tau, r2 = kernel(x, t)
            return val * (r2 / (4.0 * tau**2) - n / (2.0 * tau))

        def k_grad(x, t):
            val, tau, _ = kernel(x, t)
            return -_points(x, n) * (val / (2.0 * tau))[:, None]

        def k_lap(x, t):
            return k_ut(x, t)

        return HeatOracle(
            kind=kind, n=n, u=k_u, u_t=k_ut, grad=k_grad, lap=k_lap, t_min=-1.0
        )
    if kind == "custom-polynomial":
        coeffs = params.get("coeffs")
        if coeffs is None:
            raise InvalidInputError("custom-polynomial needs 'coeffs'")
        return _polynomial_oracle(n, coeffs, bool(params.get("complete", True)))
    raise InvalidInputError(f"unsupported oracle kind {kind!r}")


@dataclass(frozen=True)
class CovSolution:
    """The change of variables ``w(x, s) = u(e^{-s/2} x, -e^{-s})``.

    All derivatives come from the chain rule applied to the oracle's
    closed-form evaluators; nothing is differenced numerically.
    """

    oracle: HeatOracle

    def _broadcast(self, x, s) -> tuple[np.ndarray, np.ndarray]:
        pts = _points(x, self.oracle.n)
        s_arr = np.broadcast_to(np.asarray(s, dtype=float), (pts.shape[0],)).astype(float)
        return pts, s_arr

    def mapped(self, x: np.ndarray, s) -> tuple[np.ndarray, np.ndarray]:
        pts, s_arr = self._broadcast(x, s)
        xi = pts * np.exp(-s_arr / 2.0)[:, None]
        return xi, -np.exp(-s_arr)

    def w(self, x, s) -> np.ndarray:
        xi, t = self.mapped(x, s)
        return self.oracle.u(xi, t)

    def ds_w(self, x, s) -> np.ndarray:
        pts, s_arr = self._broadcast(x, s)
        xi, t = self.mapped(x, s)
        grad_term = np.einsum("nd,nd->n", self.oracle.grad(xi, t), pts)
        return -0.5 * np.exp(-s_arr / 2.0) * grad_term + np.exp(-s_arr) * self.oracle.u_t(xi, t)

    def grad_w(self, x, s) -> np.ndarray:
        pts, s_arr = self._broadcast(x, s)
        xi, t = self.mapped(x, s)
        return self.oracle.grad(xi, t) * np.exp(-s_arr / 2.0)[:, None]

    def lap_w(self, x, s) -> np.ndarray:
        pts, s_arr = self._broadcast(x, s)
        xi, t = self.mapped(x, s)
        return np.exp(-s_arr) * self.oracle.lap(xi, t)

    def drift_residual(self, x, s) -> np.ndarray:
        """``(d_s - L) w`` with ``L = lap - <x, grad>/2`` for the Gauss weight."""
        pts = _points(x, self.oracle.n)
        drift = self.lap_w(x, s) - 0.5 * np.einsum(
            "nd,nd->n", self.grad_w(x, s), pts
        )
        return self.ds_w(x, s) - drift

    def heat_defect_rhs(self, x, s) -> np.ndarray:
        """``e^{-s} (u_t - lap u)`` at the mapped point: the identity's RHS."""
        pts, s_arr = self._broadcast(x, s)
        xi, t = self.mapped(x, s)
        return np.exp(-s_arr) * self.oracle.residual(xi, t)


def sample_grid(n: int):
    """Tensor (x, s) samples for residual checks, 20 per axis of ``[-3, 3]^n x [0.2, 3]``."""
    xs = np.linspace(-3.0, 3.0, 20)
    ss = np.linspace(0.2, 3.0, 20)
    *xg, sg = np.meshgrid(*[xs] * n, ss, indexing="ij")
    return np.column_stack([g.ravel() for g in xg]), sg.ravel()


def check_cov_residual(cov: CovSolution, points, tol: float = 1e-10) -> CheckReport:
    """Residual identity of the change of variables at the samples, margin minus the worst gap."""
    x, s = points
    gap = np.abs(cov.drift_residual(x, s) - cov.heat_defect_rhs(x, s))
    worst = int(np.argmax(gap))
    return passing(
        "cov-residual",
        -float(gap[worst]),
        tol,
        location=float(np.asarray(s).ravel()[worst]),
        max_gap=float(gap[worst]),
        samples=int(np.asarray(s).size),
    )


# Gauss-Hermite nodes per axis of every H(R) and I_w quadrature
GAUSS_HERMITE_ORDER = 64


@lru_cache(maxsize=None)
def _gh_points(order: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Tensor Gauss-Hermite nodes (order**n, n) and weights, read-only and cached."""
    y, w = np.polynomial.hermite.hermgauss(order)
    pts = np.meshgrid(*[y] * n, indexing="ij")
    wts = np.meshgrid(*[w] * n, indexing="ij")
    points = np.column_stack([p.ravel() for p in pts])
    weights = np.prod(wts, axis=0).ravel()
    points.setflags(write=False)
    weights.setflags(write=False)
    return points, weights


def poon_h(oracle: HeatOracle, radius: float) -> float:
    """Parabolically scaled Gaussian frequency of the oracle at time -R^2.

    ``H(R) = (4 pi R^2)^{-n/2} * integral of u^2(y, -R^2) exp(-|y|^2/(4R^2))``
    with the positive normalization, evaluated by Gauss quadrature scaled to
    the weight (exact for polynomial oracles within the quadrature degree).
    """
    if radius <= 0.0:
        raise InvalidInputError("radius must be positive")
    t = -(radius**2)
    if t <= oracle.t_min:
        raise InvalidInputError(
            f"oracle is not defined at time {t:.6g} (needs t > {oracle.t_min:.6g})"
        )
    pts, wts = _gh_points(GAUSS_HERMITE_ORDER, oracle.n)
    vals = oracle.u(2.0 * radius * pts, t)
    return float(np.pi ** (-oracle.n / 2.0) * np.sum(wts * vals**2))


def gauss_weighted_norm2(cov: CovSolution, s: float) -> float:
    """``I_w(s) = integral of w^2(x, s) exp(-|x|^2/4) dx`` by Gauss quadrature."""
    pts, wts = _gh_points(GAUSS_HERMITE_ORDER, cov.oracle.n)
    vals = cov.w(2.0 * pts, np.full(pts.shape[0], float(s)))
    return float(2.0 ** cov.oracle.n * np.sum(wts * vals**2))


def check_poon_convexity(
    oracle: HeatOracle, s_grid: np.ndarray, tol: float = 1e-8
) -> CheckReport:
    """Convexity of ``s -> log H(e^{s/2})`` by second differences.

    The mirrored parameterization ``log H(e^{-s/2})`` is reported in aux; it
    is convex exactly when the primary one is (affine reparameterization).
    """
    s_grid = np.asarray(s_grid, dtype=float)
    if s_grid.size < 3:
        raise InvalidInputError("convexity needs at least 3 samples")
    log_plus = np.log([poon_h(oracle, np.exp(s / 2.0)) for s in s_grid])
    d2_plus = log_plus[2:] - 2.0 * log_plus[1:-1] + log_plus[:-2]
    # mirrored radii can leave a bounded time domain (e.g. the heat kernel)
    if np.exp(-s_grid.min()) < -oracle.t_min:
        log_minus = np.log([poon_h(oracle, np.exp(-s / 2.0)) for s in s_grid])
        d2_minus = log_minus[2:] - 2.0 * log_minus[1:-1] + log_minus[:-2]
        mirrored = float(d2_minus.min())
    else:
        mirrored = None
    worst = int(np.argmin(d2_plus))
    return passing(
        "poon-convexity",
        float(d2_plus[worst]),
        tol,
        location=float(s_grid[1 + worst]),
        min_second_difference=float(d2_plus.min()),
        mirrored_min_second_difference=mirrored,
    )


def check_poon_correspondence(
    oracle: HeatOracle, s_grid: np.ndarray, tol: float = 1e-8
) -> CheckReport:
    """The weighted norm of w reproduces H up to the Gaussian normalization.

    Gates on ``I_w(s) / H(e^{-s/2}) == (4 pi)^{n/2}`` (the substitution
    ``R = e^{-s/2}`` is the self-consistent convention), with the margin
    minus the worst relative deviation; the ratio against
    ``H(e^{+s/2})`` is reported in aux so the sign discrepancy stays visible.
    """
    s_grid = np.asarray(s_grid, dtype=float)
    cov = CovSolution(oracle)
    iw = np.array([gauss_weighted_norm2(cov, s) for s in s_grid])
    h_minus = np.array([poon_h(oracle, np.exp(-s / 2.0)) for s in s_grid])
    h_plus = np.array([poon_h(oracle, np.exp(s / 2.0)) for s in s_grid])
    expected = (4.0 * np.pi) ** (oracle.n / 2.0)
    ratio = iw / h_minus
    rel_dev = np.abs(ratio / expected - 1.0)
    worst = int(np.argmax(rel_dev))
    ratio_plus = iw / h_plus
    return passing(
        "poon-correspondence",
        -float(rel_dev[worst]),
        tol,
        location=float(s_grid[worst]),
        expected_ratio=expected,
        ratio_min=float(ratio.min()),
        ratio_max=float(ratio.max()),
        mismatched_ratio_min=float(ratio_plus.min()),
        mismatched_ratio_max=float(ratio_plus.max()),
    )


POON_ORACLES = ("constant", "linear", "caloric-quadratic")
POON_S_GRID = np.linspace(0.2, 3.0, 21)
POON_S_GRID.setflags(write=False)


def poon_reports(tol: float) -> list[CheckReport]:
    """Scaled-frequency correspondence and convexity for the standard oracle set."""
    reports = []
    for name in POON_ORACLES:
        oracle = make_oracle(name, 1)
        reports.append(
            check_poon_correspondence(oracle, POON_S_GRID, tol).renamed(
                f"poon-correspondence/{name}"
            )
        )
        reports.append(
            check_poon_convexity(oracle, POON_S_GRID, tol).renamed(f"poon-convexity/{name}")
        )
    return reports


def trajectory_from_cov(
    cov: CovSolution, geometry: WeightedGeometry, grid: TimeGrid
) -> Trajectory:
    """Sample w on the Gauss line as an analytic-oracle trajectory in s."""
    if geometry.basis is None or cov.oracle.n != 1:
        raise InvalidInputError("cov trajectories sample 1D oracles on the gauss line")
    values = np.stack(
        [cov.w(geometry.coords, np.full(geometry.node_count, s)) for s in grid.times]
    )[:, :, None]
    return Trajectory(
        grid=grid, geometry=geometry, values=values, provenance=PROVENANCE_ANALYTIC
    )
