"""Seeded random smooth fields and weights for the property suites.

Band-limited data keeps every active mode well inside the stable region of
the implicit integrator, so the budgeted tolerances of the stepped lane stay
meaningful; smoothness of the weights keeps the quadrature well conditioned.

On periodic grids a smooth field is a random combination of fixed Fourier
modes.  The modes are computed once per geometry and ``max_mode`` and kept on
the geometry (:func:`_fourier_modes`), so each field pays only for its draws
and one weighted sum; the sum runs term by term in the order of the draws,
so a field's bits are those of adding the terms one at a time.
"""

from __future__ import annotations

import numpy as np

from .core import CIRCLE, GAUSS_LINE, TORUS, Field, WeightedGeometry, weighted_inner
from .errors import InvalidInputError


def random_smooth_values(
    geometry: WeightedGeometry,
    rng: np.random.Generator,
    max_mode: int = 4,
) -> np.ndarray:
    """Random band-limited per-node data with maximum modulus 1."""
    if geometry.kind == GAUSS_LINE:
        count = min(max_mode + 1, geometry.node_count)
        coeffs = rng.standard_normal(count)
        out = geometry.basis.basis[:, :count] @ coeffs
    else:
        modes, left, right = _fourier_modes(geometry, max_mode)
        terms = modes[left]
        terms *= rng.standard_normal(left.size)[:, None]
        terms *= modes[right]
        # a reduction over the leading axis adds row after row
        out = np.add.reduce(terms, axis=0)
    scale = np.max(np.abs(out))
    return out / (scale if scale > 0 else 1.0)


def _fourier_modes(geometry: WeightedGeometry, max_mode: int) -> tuple[np.ndarray, ...]:
    """The mode rows of :func:`random_smooth_values` and each term's two rows, cached on the geometry.

    Term j of a field is ``(r_j * modes[left_j]) * modes[right_j]`` with one
    standard normal draw ``r_j`` each, in draw order: the constant, then per
    circle frequency ``k`` its cosine and sine; on the torus, per
    ``(kx, ky) != (0, 0)``, ``cos px * cos py`` and ``sin(px + py)``.  Row 0
    is 1, the second factor of a term with one factor (multiplying by 1 is
    exact); each row is held once, the torus's ``cos px`` and ``cos py`` too.
    """
    key = ("fourier", max_mode)
    if key in geometry._derived:
        return geometry._derived[key]
    modes = [np.ones(geometry.node_count)]
    if geometry.kind == CIRCLE:
        x = geometry.coords[:, 0]
        length = geometry.node_count * geometry.stencil.spacings[0]
        for k in range(1, max_mode + 1):
            freq = 2.0 * np.pi * k / length
            modes += [np.cos(freq * x), np.sin(freq * x)]
        left, right = list(range(len(modes))), [0] * len(modes)
    elif geometry.kind == TORUS:
        x, y = geometry.coords[:, 0], geometry.coords[:, 1]
        nx, ny = geometry.stencil.shape
        lx = nx * geometry.stencil.spacings[0]
        ly = ny * geometry.stencil.spacings[1]
        # the frequency first, as on the circle: 2 pi k x would overflow before / l on a huge side
        px = [(2.0 * np.pi * kx / lx) * x for kx in range(max_mode + 1)]
        py = [(2.0 * np.pi * ky / ly) * y for ky in range(max_mode + 1)]
        modes += [np.cos(p) for p in px + py]  # rows 1 + kx and 2 + max_mode + ky
        left, right = [0], [0]
        for kx in range(max_mode + 1):
            for ky in range(max_mode + 1):
                if kx == 0 and ky == 0:
                    continue
                left += [1 + kx, len(modes)]
                right += [2 + max_mode + ky, 0]
                modes.append(np.sin(px[kx] + py[ky]))
    else:  # pragma: no cover - kinds are closed
        raise ValueError(f"unknown geometry kind {geometry.kind!r}")
    cached = np.array(modes), np.array(left), np.array(right)
    for arr in cached:
        arr.setflags(write=False)
    geometry._derived[key] = cached
    return cached


def random_smooth_field(
    geometry: WeightedGeometry,
    rng: np.random.Generator,
    max_mode: int = 4,
    components: int = 1,
    zero_mean: bool = False,
) -> Field:
    """Unit mu-norm random smooth field, optionally with zero weighted mean.

    Data of ``max_mode`` 0 are constant, so zero-mean ones are refused
    (:class:`InvalidInputError`): they would vanish.
    """
    if zero_mean and max_mode == 0:
        raise InvalidInputError("zero-mean random data need max_mode >= 1: mode 0 is the constant")
    values = np.column_stack(
        [random_smooth_values(geometry, rng, max_mode) for _ in range(components)]
    )
    if zero_mean:
        mean = (geometry.mu[:, None] * values).sum(axis=0) / geometry.mu.sum()
        values = values - mean
    fld = Field(geometry, values)
    norm = np.sqrt(weighted_inner(fld, fld))
    return Field(geometry, values / norm)


def random_weight(
    geometry_coords: np.ndarray,
    lengths: tuple[float, ...],
    rng: np.random.Generator,
    amplitude: float = 0.4,
) -> np.ndarray:
    """Random smooth weight exponent on a periodic coordinate box, modes 1 to 3 per axis."""
    out = np.zeros(geometry_coords.shape[0])
    for axis, length in enumerate(lengths):
        coord = geometry_coords[:, axis]
        for k in range(1, 4):
            freq = 2.0 * np.pi * k / length
            out += rng.standard_normal() * np.cos(freq * coord)
            out += rng.standard_normal() * np.sin(freq * coord)
    if len(lengths) == 2:
        px = 2.0 * np.pi * geometry_coords[:, 0] / lengths[0]
        py = 2.0 * np.pi * geometry_coords[:, 1] / lengths[1]
        out += rng.standard_normal() * np.sin(px) * np.cos(py)
    scale = np.max(np.abs(out))
    return amplitude * out / (scale if scale > 0 else 1.0)
