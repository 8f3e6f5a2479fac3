"""Frequency traces I, D, U of a flow and the monotonicity/rigidity checks.

A spectral trajectory is traced in closed form from its modal data: with
``w_k = |c_k|^2``, ``I(t) = sum_k w_k exp(2 lambda_k (t - a))`` and
``D(t) = sum_k lambda_k w_k exp(2 lambda_k (t - a))``, so its field values are
never built, and its derivatives ``(log I)' = 2 U`` and ``U'`` are exact; U'
is computed only when a check reads it.  Flows projected on one operator's
dense eigensystem over one time grid share that operator's growth matrix
``exp(2 lambda_k (t - a))``.  A trapezoid flow projected on the eigensystem
(``evolution.project_flows`` with a step), or built from Krylov modes
(``evolution.evolve_cn`` without the eigensystem), is traced from its modal data too, with
``r_k^(2k)``, ``r_k = r(dt lambda_k)``, in place of the exponential; it has
no exact derivative in time, so its (log I)' and U' are differenced as for a
stepped flow.  Every other trajectory is traced from its value
stack and differenced in time (second-order centered, one-sided at the
endpoints); a stepped trajectory's stack is built when the trace first reads
it, by running its steps, unless a block stepping (``evolution._in_blocks``)
has already filled it.

On either kind of trace, ``aux['d_expression_gap']`` compares D with
``<u, L u>_mu`` at u(a) only: the two differ only where L and its Dirichlet
form disagree, so later samples would add only round-off.

Checks read derivatives from the trace only and gate them on interior
samples.  One rule, :func:`default_tolerance`, gives every check its default:
round-off for exact traces, ``10 * (dt^2 + h^2) * (1 + |U(a)|)`` for
implicit-step ones.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass, field as dc_field
from typing import Callable

import numpy as np

from .core import PROVENANCE_IMPLICIT, Trajectory, _modal_sums, cumulative_trapezoid, per_row
from .errors import DegenerateTraceError, InvalidInputError, NumericalFailureError
from .evolution import _certificate, _over_samples
from .operators import DriftOperator
from .reports import CheckReport, passing, passing_at_worst


@dataclass(frozen=True)
class FrequencyTrace:
    """Sampled I(t), D(t), U(t) = D/I with the derivatives (log I)' and U'.

    ``dU`` is given as an array, or as a function of no arguments that
    returns it, called on the first read of ``trace.dU``: a modal trace's U'
    is a pass over its (samples, modes) growth, and most checks never read it.
    """

    times: np.ndarray
    I: np.ndarray
    D: np.ndarray
    U: np.ndarray
    dlogI: np.ndarray
    dU: InitVar[np.ndarray | Callable[[], np.ndarray]]
    provenance: str
    dt: float
    length_scale: float
    gradient_only: bool = False
    certified_bound: np.ndarray | None = None
    aux: dict = dc_field(default_factory=dict)

    def __post_init__(self, dU):
        for arr in (self.times, self.I, self.D, self.U, self.dlogI):
            arr.setflags(write=False)
        vars(self)["_dU"] = dU

    def __getattr__(self, name: str):
        # reached only while "dU" is not yet in the instance dict: on its first read
        if name != "dU" or "_dU" not in vars(self):
            raise AttributeError(name)
        dU = vars(self).pop("_dU")
        dU = dU() if callable(dU) else dU
        dU.setflags(write=False)
        vars(self)["dU"] = dU
        return dU

    @property
    def samples(self) -> int:
        return self.times.size


def frequency_trace(traj: Trajectory, op: DriftOperator) -> FrequencyTrace:
    """Build the frequency trace of a trajectory on the operator ``op`` it evolved under.

    ``aux['d_expression_gap']`` is the worst gap between two expressions of D
    at u(a), relative to ``energy + I``.  With modal data it compares the
    closed-form D(a) with both the negated Dirichlet energy and
    ``<u, L u>_mu`` of u(a) (one sparse apply); otherwise D is the negated
    Dirichlet energy of every sample, and the first one is compared with
    ``<u, L u>_mu``.  Raises
    :class:`DegenerateTraceError` when I(t) vanishes at any sample (the
    backward-uniqueness regime), and :class:`InvalidInputError` when ``op``
    does not act on the flow's geometry or there are fewer than 3 samples.
    """
    if op.geometry is not traj.geometry:
        raise InvalidInputError("the operator does not act on the flow's geometry")
    if traj.grid.steps < 2:
        raise InvalidInputError("a frequency trace needs at least 3 time samples")
    dt = traj.grid.dt
    if traj.modal is not None:
        I, D, U, dU, d_gap = _modal_trace(traj, op)
    else:
        I, D, d_gap = _sampled_trace(traj, op)
        U, dU = D / I, None
    if dU is None:  # no exact U': a stepped or trapezoid flow, differenced in time
        dlogI = np.gradient(np.log(I), dt, edge_order=2)
        dU = np.gradient(U, dt, edge_order=2)
    else:
        dlogI = 2.0 * U
    return FrequencyTrace(
        times=traj.grid.times,
        I=I,
        D=D,
        U=U,
        dlogI=dlogI,
        dU=dU,
        provenance=traj.provenance,
        dt=dt,
        length_scale=traj.geometry.length_scale,
        gradient_only=traj.gradient_only,
        certified_bound=traj.certified_bound,
        aux={"d_expression_gap": d_gap},
    )


def _modal_trace(traj: Trajectory, op: DriftOperator):
    """Closed-form I, D and U of a modal flow, U' of a semigroup one, and the D(a) cross-check.

    The growth, ``exp(2 lambda_k (t - a))`` or a trapezoid flow's
    ``r_k^(2k)``, is ``op``'s shared one when the flow projects on its
    eigensystem (:meth:`DriftOperator.modal_growth`).  For the semigroup,
    ``U' = 2 sum_k p_k (lambda_k - U)^2``, ``p_k = w_k exp(2 lambda_k (t - a)) / I``, is
    a variance, >= 0; ``2 (D_2 / I - U^2)`` would cancel on rough data.  It is
    returned as a function, called on the trace's first read of ``dU``.  A
    trapezoid flow has no such derivative, and its U' is None.
    """
    modal = traj.modal
    weights = np.sum(modal.coeffs**2, axis=1)
    growth = op.modal_growth(modal.rates, traj.grid, modal.step)
    I, D = _modal_sums(growth, modal.rates, weights)
    I = _nonvanishing(I, traj.grid.times)
    U = D / I

    def dU():
        return 2.0 * (((modal.rates - U[:, None]) ** 2 * growth) @ weights) / I

    u0 = modal.initial
    energy = traj.geometry.energy_pairing(u0, u0)
    d_gap = max(abs(D[0] + energy), abs(D[0] - _paired_with_l(op, u0))) / (energy + abs(I[0]))
    return I, D, U, dU if modal.step is None else None, float(d_gap)


def _sampled_trace(traj: Trajectory, op: DriftOperator) -> tuple[np.ndarray, np.ndarray, float]:
    """I and D (the negated Dirichlet energy) of every materialized sample, and the D gap at u(a)."""
    mu = traj.geometry.mu
    stack = traj.values
    I = _nonvanishing(np.einsum("snc,n,snc->s", stack, mu, stack), traj.grid.times)
    energy = traj.geometry.energy_batch(stack)
    d_gap = abs(_paired_with_l(op, stack[0]) + energy[0]) / (energy[0] + abs(I[0]))
    return I, -energy, float(d_gap)


def _paired_with_l(op: DriftOperator, u: np.ndarray) -> float:
    """``<u, L u>_mu = v . S v``, ``v = R u``, of one (nodes, N) sample: the second expression of D."""
    v = op.root[:, None] * u
    return float(np.sum(v * (op.symmetric @ v)))


def _nonvanishing(I: np.ndarray, times: np.ndarray) -> np.ndarray:
    finite = np.isfinite(I)
    if not finite.all():
        raise NumericalFailureError(f"I(t) overflowed at t={times[np.argmin(finite)]:.6g}")
    if np.any(I <= 0.0):
        k = int(np.argmin(I))
        raise DegenerateTraceError(
            f"I(t) vanished at t={times[k]:.6g}; backward-uniqueness regime"
        )
    return I


def default_tolerance(trace: FrequencyTrace, scale: float = 1.0) -> float:
    """The default tolerance of every check: budgeted for stepped flows, tight otherwise.

    Raises :class:`InvalidInputError` when it is not finite.
    """
    tol = 1e-9 * scale
    if trace.provenance == PROVENANCE_IMPLICIT:
        with np.errstate(over="ignore"):
            base = np.float64(trace.dt) ** 2 + trace.length_scale**2
            tol = 10.0 * scale * base * (1.0 + abs(trace.U[0]))
    if not np.isfinite(tol):
        raise InvalidInputError(f"the default tolerance {tol} is not finite")
    return float(tol)


def _sample_bound(C, trace: FrequencyTrace) -> np.ndarray:
    """Resolve a bound argument (constant/array over the samples/None), held to the certificate rule."""
    if C is None and trace.certified_bound is None:
        raise InvalidInputError("no bound C(t): pass one or use a certified trace")
    C = trace.certified_bound if C is None else C
    return _certificate(_over_samples(C, trace.times.shape, "bound"))


def check_u_monotone(trace: FrequencyTrace, tol: float | None = None) -> CheckReport:
    """U(t) must be nondecreasing sample to sample."""
    if tol is None:
        tol = default_tolerance(trace)
    diffs = np.diff(trace.U)
    return passing_at_worst("u-monotone", diffs, trace.times[1:], tol, min_increment=float(diffs.min()))


def check_log_convexity(trace: FrequencyTrace, tol: float | None = None) -> CheckReport:
    """Second differences of log I must be >= -tol * dt^2.

    ``tol * dt^2`` is computed in float64; a ``dt^2`` that underflows to 0,
    or a gate that is not finite, raises :class:`InvalidInputError`.

    Also reports the drift-flow identity ``(log I)' = 2 U`` on interior
    samples, ungated: 0 on a modal trace, and on a differenced one an
    O(dt^2) gap with a flow-dependent constant.
    """
    with np.errstate(over="ignore"):
        dt2 = np.float64(trace.dt) ** 2
        if not dt2 > 0.0:
            raise InvalidInputError(
                f"dt = {trace.dt} is too small for log-convexity: dt^2 underflows to 0"
            )
        if tol is None:
            tol = default_tolerance(trace) / dt2
        gate = tol * dt2
    if not np.isfinite(gate):
        raise InvalidInputError(f"the log-convexity tolerance {gate} is not finite")
    log_i = np.log(trace.I)
    second = log_i[2:] - 2.0 * log_i[1:-1] + log_i[:-2]
    return passing_at_worst(
        "log-convexity",
        second,
        trace.times[1:-1],
        float(gate),
        min_second_difference=float(second.min()),
        dlogI_vs_2U_gap=float(np.max(np.abs(trace.dlogI[1:-1] - 2.0 * trace.U[1:-1]))),
    )


def check_hadamard_bound(trace: FrequencyTrace, tol: float | None = None) -> CheckReport:
    """Hadamard-type growth bound ``log I(t) - log I(a) >= 2 U(a) (t - a)`` at every sample.

    The bound gives backward uniqueness.  The margin is the worst over the
    samples after ``t = a``, where it is 0 by construction;
    ``aux['final_margin']`` is the margin at ``t = b``.
    """
    if tol is None:
        tol = default_tolerance(trace)
    predicted = 2.0 * trace.U[0] * (trace.times - trace.times[0])
    margins = np.log(trace.I) - np.log(trace.I[0]) - predicted
    return passing_at_worst(
        "hadamard-bound",
        margins[1:],
        trace.times[1:],
        tol,
        log_ratio=float(np.log(trace.I[-1] / trace.I[0])),
        predicted=float(predicted[-1]),
        final_margin=float(margins[-1]),
    )


def check_rigidity(
    traj: Trajectory, tol: float | None, op: DriftOperator, trace: FrequencyTrace | None = None
) -> CheckReport:
    """Classify a trajectory as an eigenmode flow and verify the equality case.

    When U is constant to within tol the flow must be a separated eigenmode:
    ``u(t) = exp(lambda t) u(a)`` and ``L u(a) = lambda u(a)`` with
    ``lambda = U(a)``, and the margin is minus the worse of the two relative
    residuals; an eigen-residual that overflows is a :class:`NumericalFailureError`.
    Non-constant U is non-rigid, and passes at margin ``max |U - U(a)|``.  A flow
    with modal data has its separation residual taken from the modal
    coefficients, so its values are never built; any other flow's is taken
    from its value stack.  ``op`` is the operator the flow evolved under (one
    on another geometry is an :class:`InvalidInputError`); ``trace`` is
    ``frequency_trace(traj, op)``, traced here when not given, and ``tol``
    the provenance-aware default when None.
    """
    if op.geometry is not traj.geometry:
        raise InvalidInputError("the operator does not act on the flow's geometry")
    if trace is None:
        trace = frequency_trace(traj, op)
    if tol is None:
        tol = default_tolerance(trace)
    u_dev = float(np.max(np.abs(trace.U - trace.U[0])))
    lam = float(trace.U[0])
    is_eigenmode = u_dev <= tol
    if is_eigenmode:
        mu = traj.geometry.mu
        offsets = trace.times - trace.times[0]
        factors = np.exp(lam * offsets)
        if traj.modal is not None:
            # the modes are mu-orthonormal, so with w_k = |c_k|^2 and g_k the modal factors
            # |u(a + s) - e^{lam s} u(a)|^2 = sum_k w_k (g_k(s) - e^{lam s})^2
            modal = traj.modal
            u0 = modal.initial
            weights = np.sum(modal.coeffs**2, axis=1)
            norm0 = float(np.sqrt(np.sum(weights)))
            sep_sq = (modal.factors(offsets) - factors[:, None]) ** 2 @ weights
        else:
            values = traj.values
            u0 = values[0]
            norm0 = float(np.sqrt(np.sum(mu[:, None] * u0 * u0)))

            def separation(rows):
                diff = values[rows] - factors[rows, None, None] * u0
                return np.einsum("snc,n,snc->s", diff, mu, diff)

            sep_sq = per_row(separation, values.shape[0], u0.size)
        sep_res = float(np.sqrt(np.max(sep_sq))) / norm0
        v0 = op.root[:, None] * u0  # |S v0 - lam v0|_2 is the mu-norm of L u0 - lam u0
        with np.errstate(over="ignore", invalid="ignore"):
            eig_res = float(np.linalg.norm(op.symmetric @ v0 - lam * v0)) / norm0
        if not np.isfinite(eig_res):
            raise NumericalFailureError("the rigidity eigen-residual overflowed near the float limit")
        margin = -max(sep_res, eig_res)
        aux = {"separation_residual": sep_res, "eigen_residual": eig_res}
    else:
        margin = u_dev
        aux = {}
    return passing(
        "rigidity", float(margin), tol, location=trace.times[0],
        is_eigenmode=is_eigenmode, lambda_estimate=lam, u_variation=u_dev, **aux,
    )


def check_general_frequency(
    trace: FrequencyTrace, C=None, tol: float | None = None
) -> CheckReport:
    """Perturbed-flow frequency inequalities.

    At every interior sample: ``U' >= C^2 (U - 1)`` and
    ``[log(1 - U)]' = -U' / (1 - U) <= C^2``.
    """
    if tol is None:
        tol = default_tolerance(trace)
    bound = _sample_bound(C, trace)
    sl = slice(1, -1)
    c2 = bound[sl] ** 2
    m1 = trace.dU[sl] - c2 * (trace.U[sl] - 1.0)
    m2 = c2 + trace.dU[sl] / (1.0 - trace.U[sl])
    return passing_at_worst(
        "general-frequency",
        np.minimum(m1, m2),
        trace.times[sl],
        tol,
        min_u_rate_margin=float(m1.min()),
        min_log_one_minus_u_margin=float(m2.min()),
    )


def check_general_lower_bound(
    trace: FrequencyTrace, C=None, tol: float | None = None
) -> CheckReport:
    """Perturbed-flow lower bound on the decay of I.

    Gates on the stepwise inequality
    ``(log I)' >= (2 + C/2) U - 3C/2`` at interior samples.  The two displayed
    closed forms (the prefactor ``2 + sup C`` multiplying the bracket versus
    sitting inside the exponential) disagree with each other; both margins are
    reported in aux without gating, each None where its closed form leaves
    the float range (a vacuous bound).
    """
    if tol is None:
        tol = default_tolerance(trace)
    bound = _sample_bound(C, trace)
    sl = slice(1, -1)
    stepwise = trace.dlogI[sl] - (
        (2.0 + 0.5 * bound[sl]) * trace.U[sl] - 1.5 * bound[sl]
    )
    span = trace.times[-1] - trace.times[0]
    sup_c = float(bound.max())
    int_c2 = float(np.trapezoid(bound**2, trace.times))
    delta_log_i = float(np.log(trace.I[-1]) - np.log(trace.I[0]))
    u0 = float(trace.U[0])
    with np.errstate(over="ignore"):  # exp of a large integral of C^2 is +inf: vacuous
        bracket = np.exp(int_c2) * (u0 - 1.0) + 1.0 - 1.5 * sup_c
        statement_rhs = span * (2.0 + sup_c) * bracket
        proof_rhs = span * (np.exp((2.0 + sup_c) * int_c2) * (u0 - 1.0) + 1.0 - 1.5 * sup_c)
    return passing_at_worst(
        "general-lower-bound",
        stepwise,
        trace.times[sl],
        tol,
        statement_margin=_finite_or_none(delta_log_i - statement_rhs),
        proof_margin=_finite_or_none(delta_log_i - proof_rhs),
        sup_c=sup_c,
        int_c_squared=int_c2,
    )


def check_gradient_only(
    trace: FrequencyTrace, C=None, tol: float | None = None
) -> CheckReport:
    """Sharper bounds for gradient-only perturbations (c == 0).

    Requires a gradient-only trace with U(a) < 0.  Verifies
    ``[log(-U)]' = U' / U <= C^2 / 2`` on interior samples where U < 0,
    ``U(t) >= U(a) exp(0.5 * int_a^t C^2)`` on samples after ``t = a``, and
    the closed-form lower bound on I(b) (with sup C standing in for a
    time-varying C).  ``location`` is that of the worst of the three, and
    ``aux['not_applicable_from']`` the first sample where U >= 0, if any.
    A closed form that leaves the float range is vacuous: its margin is
    +inf, and None in aux.
    """
    if not trace.gradient_only:
        raise InvalidInputError("trace does not come from a gradient-only perturbation")
    if trace.U[0] >= 0.0:
        raise InvalidInputError("gradient-only bounds need U(a) < 0")
    if tol is None:
        tol = default_tolerance(trace)
    bound = _sample_bound(C, trace)
    negative = trace.U < 0.0
    log_rate = np.divide(trace.dU, trace.U, out=np.zeros(trace.samples), where=negative)
    gaps = np.where(negative, 0.5 * bound**2 - log_rate, np.inf)[1:-1]

    cum_c2 = cumulative_trapezoid(bound**2, trace.times)
    span = trace.times[-1] - trace.times[0]
    sup_c = float(bound.max())
    int_c2 = float(cum_c2[-1])
    u0 = float(trace.U[0])
    with np.errstate(over="ignore"):  # U(a) < 0, so an overflow gives -inf, a vacuous bound
        envelope = trace.U[0] * np.exp(0.5 * cum_c2)
        final_rhs = span * (
            2.0 * u0 * np.exp(0.5 * int_c2) - sup_c * np.sqrt(-u0) * np.exp(0.25 * int_c2)
        )
    env_margins = (trace.U - envelope)[1:]  # 0 at t = a by construction
    final_margin = float(np.log(trace.I[-1]) - np.log(trace.I[0]) - final_rhs)

    # the three parts in turn, so that a tie between parts reports the earlier one
    return passing_at_worst(
        "gradient-only",
        np.concatenate([gaps, env_margins, [final_margin]]),
        np.concatenate([trace.times[1:-1], trace.times[1:], trace.times[-1:]]),
        tol,
        rate_margin=_finite_or_none(gaps.min()),
        envelope_margin=_finite_or_none(env_margins.min()),
        final_bound_margin=_finite_or_none(final_margin),
        not_applicable_from=None if negative.all() else float(trace.times[~negative][0]),
    )


def _finite_or_none(value) -> float | None:
    """An aux margin as a float, or None where it is not finite (a bound that is vacuous or not applicable)."""
    return float(value) if np.isfinite(value) else None
