"""Check reports and the stable on-disk formats (CSV schemas, report JSON)."""

from __future__ import annotations

import json
from dataclasses import dataclass, field as dc_field, replace
from pathlib import Path

import numpy as np

REPORT_SCHEMA = "parafreq-report/1"

TRACE_CSV_HEADER = "t,I,D,U"
TRAJECTORY_CSV_HEADER = "t,node,component,value"
SPECTRUM_CSV_HEADER = "index,eigenvalue"
POON_CSV_HEADER = "s,R,H,logH"


@dataclass(frozen=True)
class CheckReport:
    """Outcome of one verification check.

    ``margin`` is the signed slack of the line's own inequality, without the
    tolerance: negative where the inequality is violated, and minus the
    defect for a line that measures one (a gap, residual or asymmetry that
    should vanish).  ``passed`` is ``margin >= -tolerance``, and
    :func:`passing` is the one builder that sets it.  ``location`` is the
    time (or parameter) sample where the worst margin occurred.
    """

    name: str
    passed: bool
    margin: float
    tolerance: float
    location: float | None = None
    aux: dict = dc_field(default_factory=dict)

    def to_dict(self) -> dict:
        aux = {}
        for key, value in self.aux.items():
            if isinstance(value, (np.floating, np.integer)):
                value = value.item()
            if isinstance(value, float):
                value = _json_finite(value)
            aux[key] = value
        return {
            "check": self.name,
            "pass": bool(self.passed),
            "margin": _json_finite(float(self.margin)),
            "tolerance": float(self.tolerance),
            "location": None if self.location is None else float(self.location),
            "aux": aux,
        }

    def renamed(self, name: str) -> "CheckReport":
        return replace(self, name=name)


def _json_finite(value: float) -> float:
    """Clamp so failing reports still serialize under allow_nan=False."""
    if np.isnan(value):
        return -1.0e308
    return float(np.clip(value, -1.0e308, 1.0e308))


def passing(name: str, margin: float, tol: float, location=None, **aux) -> CheckReport:
    """The report of a line with slack ``margin``: it passes when ``margin >= -tol``."""
    return CheckReport(
        name=name,
        passed=bool(margin >= -tol),
        margin=float(margin),
        tolerance=float(tol),
        location=None if location is None else float(location),
        aux=aux,
    )


def write_report(path, reports, *, seed=None, extra=None) -> dict:
    """Write the consolidated report document; returns the payload.

    The body is deterministic for a fixed seed: no timestamps, sorted keys.
    """
    payload = {
        "schema": REPORT_SCHEMA,
        "seed": seed,
        "passed": all(r.passed for r in reports),
        "checks": [r.to_dict() for r in reports],
    }
    if extra:
        payload.update(extra)
    text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
    Path(path).write_text(text + "\n")
    return payload


def write_trace_csv(path, trace) -> None:
    _write_csv(path, TRACE_CSV_HEADER, [trace.times, trace.I, trace.D, trace.U])


def write_trajectory_csv(path, traj) -> None:
    """One row per (sample, component, node), formatted a bounded block of rows at a time."""
    values = traj.values
    _, nodes, comps = values.shape
    per_sample = nodes * comps
    stamps = _ascii([f"{t!r}," for t in traj.grid.times.tolist()])
    keys = _ascii([f"{float(node)!r},{float(comp)!r}," for comp in range(comps) for node in range(nodes)])
    flat = values.reshape(-1)
    with open(path, "wb") as fh:
        fh.write(TRAJECTORY_CSV_HEADER.encode() + b"\n")
        for first in range(0, values.size, _BLOCK_ROWS):
            row = np.arange(first, min(first + _BLOCK_ROWS, values.size))
            sample = row // per_sample
            key = row - sample * per_sample  # comp * nodes + node
            comp = key // nodes
            node = key - comp * nodes
            value = flat.take(row - key + node * comps + comp)
            fh.write(_lines([stamps.take(sample, axis=0), keys.take(key, axis=0), _repr_bytes(value)]))


def write_spectrum_csv(path, eigenvalues) -> None:
    vals = np.asarray(eigenvalues, dtype=float)
    _write_csv(path, SPECTRUM_CSV_HEADER, [np.arange(vals.size, dtype=float), vals])


def write_poon_csv(path, s, radii, h_values) -> None:
    s = np.asarray(s, dtype=float)
    _write_csv(path, POON_CSV_HEADER, [s, radii, h_values, np.log(h_values)])


def _write_csv(path, header: str, columns) -> None:
    columns = [np.asarray(col, dtype=float) for col in columns]
    rows = _BLOCK_ROWS // len(columns)  # one formatter call per block: its cost is mostly fixed
    with open(path, "wb") as fh:
        fh.write(header.encode() + b"\n")
        for first in range(0, columns[0].size, rows):
            block = np.stack([col[first : first + rows] for col in columns])
            fields = _repr_bytes(block).reshape(*block.shape, -1)
            comma = np.full((block.shape[1], 1), ord(","), np.uint8)
            fh.write(_lines([part for field in fields for part in (comma, field)][1:]))


def _ascii(strings) -> np.ndarray:
    """The strings as rows of ASCII bytes, NUL-padded to the longest."""
    table = np.array(strings, dtype=bytes)
    return table.view(np.uint8).reshape(table.size, table.itemsize)


def _lines(fields) -> bytes:
    """One line per row of the NUL-padded byte fields put side by side, without the NULs."""
    rows = np.hstack([*fields, np.full((len(fields[0]), 1), ord("\n"), np.uint8)])
    return rows[rows != 0].tobytes()


# Every float in a CSV file is ``repr(float(v))``, byte for byte: the shortest
# decimal that reads back as ``v`` (the nearest such, if several), positional
# for 1e-4 <= |v| < 1e16.  ``_repr_bytes`` makes those bytes for a whole array,
# in the manner of Ryu (Adams 2018).  With ``X = |x| 10^k`` scaled to 17
# integer digits and ``H`` the half-width of the interval of reals that round
# to ``x``, in the same scale, the digits are the multiple of ``10^j`` nearest
# ``X`` for the largest ``j`` that has one in ``[X - H, X + H]``.
#
# All of it is exact.  ``X = whole + frac`` is an integer plus a fraction
# from Dekker's two-product.  With ``x = m 2^e``, ``frac`` and ``H`` are
# multiples of ``2^(e+k-1) >= 2^-47`` below 12 in size, so the interval's ends
# less ``whole``, ``frac -+ H``, are doubles too.  An end on a multiple of
# ``10^j``, ``j >= 1``, needs ``x >= 2^53`` and ``j = 1``, and then ``X`` is
# a multiple of 10 itself: whether the ends belong to the interval (iff ``m``
# is even) never changes the digits.  Midway between two integers
# (``|frac| = 1/2``) ``whole`` is the even one, since ``hi >= 1e16`` is even
# and ``rint`` rounds halves to even: repr rounds half to even as well.  A tie
# between two multiples of 10 goes to ``repr``, as does all that lies outside
# the positional range (zeros, subnormals, NaN, infinities) or has a lopsided
# interval (powers of two).

_FIELD = 24  # len(repr(-2.2250738585072014e-308)), the longest repr of a float64
# CSV rows formatted at a time: the temporaries stay a few MB whatever the size of the table
_BLOCK_ROWS = 1 << 14
_POWERS = np.array([float(f"1e{k}") for k in range(-5, 23)])  # exact from 1e0 to 1e22
_TENS = 10 ** np.arange(18)
_VELTKAMP = 134217729.0  # 2**27 + 1 splits a double into two 26-bit halves
# canvas columns: NUL, '.', '0', '-', the 17 digits d0..d16 at 7..23
_NUL, _POINT, _ZERO, _MINUS, _DIGIT = 0, 1, 2, 3, 7
_HEAD = np.frombuffer(b"\0.0-0000", np.uint64)[0]  # canvas bytes 0..7, with d0 = '0'
# _QUADS[i]: the ASCII of i as four digits; _KEEP[k]: a word that keeps the first k of 8 bytes
_PAIRS = np.array([f"{i:02d}" for i in range(100)], "S2").view(np.uint16)
_QUADS = np.stack(np.broadcast_arrays(_PAIRS[:, None], _PAIRS[None, :]), axis=-1).copy().view(np.uint32).ravel()
_KEEP = np.frombuffer(b"".join(b"\xff" * k + b"\0" * (8 - k) for k in range(9)), np.uint64)


def _layout(negative: int, point: int) -> list[int]:
    """Canvas columns of repr's positional form with the decimal point after digit ``point``."""
    digits = list(range(_DIGIT, _DIGIT + 17))  # NUL past the last printed digit
    if point <= 0:
        body = [_ZERO, _POINT] + [_ZERO] * -point + digits
    else:
        body = digits[:point] + [_POINT] + digits[point:]
    cols = [_MINUS] * negative + body
    return cols + [_NUL] * (_FIELD - len(cols))


# one row per sign and point from -3 to 16
_LAYOUTS = np.array([_layout(negative, point) for negative in (0, 1) for point in range(-3, 17)], np.uint8)
_WIDTHS = np.count_nonzero(_LAYOUTS, axis=1)  # _NUL is column 0


def _halves(a):
    big = _VELTKAMP * a
    upper = big - (big - a)
    return upper, a - upper


def _repr_bytes(x) -> np.ndarray:
    """``repr(float(v))`` of every element as ASCII, one NUL-padded row each."""
    x = np.ascontiguousarray(x, dtype=float).ravel()
    n = x.size
    ax = np.abs(x)
    fast = (ax >= 1e-4) & (ax < 1e16) & (x.view(np.uint64) << 12 != 0)
    ax[~fast] = 1.5  # a stand-in for what repr prints: no NaN or zero reaches log10 or a cast
    # X = |x| 10**(16 - exp10) = whole + frac, exactly
    exp10 = np.floor(np.log10(ax)).astype(np.int64)
    exp10 += ax >= _POWERS[exp10 + 6]  # _POWERS[i] is 1e(i - 5)
    exp10 -= ax < _POWERS[exp10 + 5]
    scale = _POWERS[21 - exp10]  # 10**(16 - exp10), exact
    hi = ax * scale
    a1, a2 = _halves(ax)
    s1, s2 = _halves(scale)
    lo = ((a1 * s1 - hi) + a1 * s2 + a2 * s1) + a2 * s2
    carry = np.rint(lo)
    whole = hi.astype(np.int64) + carry.astype(np.int64)
    frac = lo - carry  # |frac| <= 1/2
    half = np.ldexp(scale, np.frexp(ax)[1] - 54)  # 10**k ulp(x) / 2
    least = whole + np.floor(frac - half).astype(np.int64) + 1  # the integers in the interval
    most = whole + np.floor(frac + half).astype(np.int64)

    trim = np.zeros(n, np.int64)  # the largest j with a multiple of 10**j in the interval
    live = np.flatnonzero(fast)
    for j in range(1, 18):
        live = live[most.take(live) // 10**j * 10**j >= least.take(live)]
        if not live.size:
            break
        trim[live] = j
    unit = _TENS.take(trim)
    # the nearest multiple of unit, floor((X + unit / 2) / unit) unit, with 2 |frac| <= 1
    digits = (2 * whole + unit - (frac < 0)) // (2 * unit) * unit
    # X midway between two multiples of 10, both in the interval (wider ones never fit twice)
    fast &= ~((trim == 1) & (frac == 0) & (whole % 10 == 5))
    top = digits == 10**17
    digits[top] = 10**16
    trim[top] = 16
    exp10 += top

    # the ASCII digits, then each row's layout of sign, point and digits
    canvas = np.empty((n, _FIELD), np.uint8)
    words = canvas.view(np.uint64)
    words[:, 0] = _HEAD
    lead = digits // 10**16
    canvas[:, _DIGIT] += lead.astype(np.uint8)
    rest = digits - lead * 10**16
    octets = np.empty((n, 2), np.int64)
    octets[:, 0] = rest // 10**8
    octets[:, 1] = rest - octets[:, 0] * 10**8
    quads = np.empty((n, 4), np.int64)
    quads[:, ::2] = octets // 10000
    quads[:, 1::2] = octets - quads[:, ::2] * 10000
    canvas.view(np.uint32)[:, 2:] = _QUADS.take(quads)
    # NUL for the digits past the last printed one: the significant ones, and zeros up to the point
    shown = np.maximum(17 - trim, exp10 + 2) - 1
    words[:, 1] &= _KEEP.take(np.minimum(shown, 8))
    words[:, 2] &= _KEEP.take(np.maximum(shown - 8, 0))

    # the layouts are gathered one (sign, point) group at a time
    code = (np.signbit(x) * 20 + exp10 + 4).astype(np.int8)
    code[~fast] = 4  # the narrowest layout: repr overwrites these rows
    order = np.argsort(code, kind="stable")
    ranked, codes = canvas.take(order, axis=0), code.take(order)
    cuts = [0, *(np.flatnonzero(codes[1:] != codes[:-1]) + 1).tolist(), n]
    for a, b in zip(cuts, cuts[1:]):
        ranked[a:b] = ranked[a:b][:, _LAYOUTS[codes[a]]]
    rank = np.empty_like(order)
    rank[order] = np.arange(n)
    out = ranked.take(rank, axis=0)
    width = int(_WIDTHS[codes[cuts[:-1]]].max(initial=0))
    slow = np.flatnonzero(~fast)
    if slow.size:
        text = [repr(v) for v in x[slow].tolist()]
        out[slow] = np.array(text, f"S{_FIELD}").view(np.uint8).reshape(-1, _FIELD)
        width = max(width, *map(len, text))
    return out[:, :width]
