"""Seeded random smooth fields and weights for the property suites.

Band-limited data keeps every active mode well inside the stable region of
the implicit integrator, so the budgeted tolerances of the stepped lane stay
meaningful; smoothness of the weights keeps the quadrature well conditioned.
"""

from __future__ import annotations

import numpy as np

from .core import CIRCLE, GAUSS_LINE, TORUS, Field, WeightedGeometry, weighted_inner


def random_smooth_values(
    geometry: WeightedGeometry,
    rng: np.random.Generator,
    max_mode: int = 4,
) -> np.ndarray:
    """Random band-limited per-node data with maximum modulus 1."""
    if geometry.kind == CIRCLE:
        x = geometry.coords[:, 0]
        length = geometry.node_count * geometry.stencil.spacings[0]
        out = rng.standard_normal() * np.ones_like(x)
        for k in range(1, max_mode + 1):
            freq = 2.0 * np.pi * k / length
            out += rng.standard_normal() * np.cos(freq * x)
            out += rng.standard_normal() * np.sin(freq * x)
    elif geometry.kind == TORUS:
        x, y = geometry.coords[:, 0], geometry.coords[:, 1]
        nx, ny = geometry.stencil.shape
        lx = nx * geometry.stencil.spacings[0]
        ly = ny * geometry.stencil.spacings[1]
        out = rng.standard_normal() * np.ones_like(x)
        for kx in range(max_mode + 1):
            for ky in range(max_mode + 1):
                if kx == 0 and ky == 0:
                    continue
                px = 2.0 * np.pi * kx * x / lx
                py = 2.0 * np.pi * ky * y / ly
                out += rng.standard_normal() * np.cos(px) * np.cos(py)
                out += rng.standard_normal() * np.sin(px + py)
    elif geometry.kind == GAUSS_LINE:
        count = min(max_mode + 1, geometry.node_count)
        coeffs = rng.standard_normal(count)
        out = geometry.basis.basis[:, :count] @ coeffs
    else:  # pragma: no cover - kinds are closed
        raise ValueError(f"unknown geometry kind {geometry.kind!r}")
    scale = np.max(np.abs(out))
    return out / (scale if scale > 0 else 1.0)


def random_smooth_field(
    geometry: WeightedGeometry,
    rng: np.random.Generator,
    max_mode: int = 4,
    components: int = 1,
    zero_mean: bool = False,
) -> Field:
    """Unit mu-norm random smooth field, optionally with zero weighted mean."""
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
