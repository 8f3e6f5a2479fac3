"""Seeded random smooth fields and weights for the property suites.

Band-limited data keeps every active mode well inside the stable region of
the implicit integrator, so the budgeted tolerances of the stepped lane stay
meaningful; smoothness of the weights keeps the quadrature well conditioned.

On periodic grids a smooth field is a random combination of Fourier modes.
Each mode separates on the axes, so a field is a few small matrix products of
per-axis rows of cosines and sines, made for each field and kept nowhere:
``O((nx + ny) * max_mode)`` memory, not a row per mode over the whole grid.
"""

from __future__ import annotations

import numpy as np

from .core import GAUSS_LINE, Field, WeightedGeometry, weighted_inner
from .errors import InvalidInputError


def random_smooth_values(
    geometry: WeightedGeometry,
    rng: np.random.Generator,
    max_mode: int = 4,
) -> np.ndarray:
    """Random band-limited per-node data with maximum modulus 1.

    A periodic field draws one standard normal per term, in order: the
    constant, then per circle frequency ``k`` its cosine and sine; on the
    torus, per ``(kx, ky) != (0, 0)``, ``cos px * cos py`` and
    ``sin(px + py) = sin px cos py + cos px sin py``.  With the draws laid
    out as the ``(kx, ky)`` matrices ``A`` (cosines, the constant at
    ``(0, 0)``) and ``B`` (sines, 0 at ``(0, 0)``), the grid of values is
    ``Cx^T A Cy + Sx^T B Cy + Cx^T B Sy``; the circle is the torus whose
    y axis has one node, at 0, and ``ky = 0`` alone.
    """
    if geometry.kind == GAUSS_LINE:
        count = min(max_mode + 1, geometry.node_count)
        coeffs = rng.standard_normal(count)
        out = geometry.basis.basis[:, :count] @ coeffs
    else:
        (cx, sx), (cy, sy) = (_axis_rows(geometry, axis, max_mode) for axis in (0, 1))
        draws = rng.standard_normal(2 * cx.shape[0] * cy.shape[0] - 1)
        a, b = np.zeros((2, cx.shape[0], cy.shape[0]))
        a.flat[0], a.flat[1:], b.flat[1:] = draws[0], draws[1::2], draws[2::2]
        out = (cx.T @ (a @ cy + b @ sy) + sx.T @ (b @ cy)).ravel()
    scale = np.max(np.abs(out))
    return out / (scale if scale > 0 else 1.0)


def _axis_rows(geometry: WeightedGeometry, axis: int, max_mode: int) -> tuple[np.ndarray, np.ndarray]:
    """Cosines and sines of ``p = (2 pi k / l) * x`` at the nodes of one axis, (modes, nodes) each.

    ``k`` runs over 0 to ``max_mode``.  The frequency comes first, as in
    ``2 pi k / l`` times ``x``: ``2 pi k x`` would overflow before its
    division by ``l`` on a side near the float maximum.  An axis the geometry
    lacks (the circle's y) is one node at 0 with ``k = 0`` alone.
    """
    if axis >= geometry.dim:
        return np.ones((1, 1)), np.zeros((1, 1))
    n, h = geometry.stencil.shape[axis], geometry.stencil.spacings[axis]
    freqs = 2.0 * np.pi * np.arange(max_mode + 1) / (n * h)
    phases = freqs[:, None] * (np.arange(n) * h)
    return np.cos(phases), np.sin(phases)


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
