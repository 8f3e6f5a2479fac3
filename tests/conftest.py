import gc
import tracemalloc

import numpy as np
import pytest

from parafreq import assemble, evolution, make_circle, make_gauss_line, make_torus

TWO_PI = 2.0 * np.pi


def peak_allocated(fn):
    """Call ``fn()`` under tracemalloc: its result, and the peak bytes allocated during the call."""
    tracemalloc.start()
    try:
        result = fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak


def retained_by(fn) -> int:
    """Bytes that ``fn()`` allocates and leaves allocated once its result is dropped (tracemalloc)."""
    tracemalloc.start()
    try:
        fn()
        gc.collect()
        return tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()


def dense_operator(geometry):
    """An operator that holds its dense eigensystem.

    Spectral flows on it project on the eigensystem whatever ran before, so
    the shared operators below keep every test on the same path.
    """
    op = assemble(geometry)
    op.eigensystem
    return op


@pytest.fixture
def krylov_only(monkeypatch):
    """Krylov flows that never give way to the dense eigensystem: they grow to every node if they must."""
    monkeypatch.setattr(evolution, "_KRYLOV_SHARE", 1.0)


@pytest.fixture(scope="session")
def flat_circle():
    return make_circle(128, TWO_PI)


@pytest.fixture(scope="session")
def flat_circle_op(flat_circle):
    return dense_operator(flat_circle)


@pytest.fixture(scope="session")
def weighted_circle():
    base = make_circle(128, TWO_PI)
    return make_circle(128, TWO_PI, np.cos(base.coords[:, 0]))


@pytest.fixture(scope="session")
def weighted_circle_op(weighted_circle):
    return dense_operator(weighted_circle)


@pytest.fixture(scope="session")
def conformal_torus():
    base = make_torus(16, 16, TWO_PI, TWO_PI)
    x, y = base.coords[:, 0], base.coords[:, 1]
    phi = 0.4 * np.sin(x) * np.cos(y) + 0.2 * np.cos(2.0 * x)
    psi = 0.3 * np.sin(x) * np.cos(y)
    return make_torus(16, 16, TWO_PI, TWO_PI, phi, psi)


@pytest.fixture(scope="session")
def conformal_torus_op(conformal_torus):
    return dense_operator(conformal_torus)


@pytest.fixture(scope="session")
def gauss_line():
    return make_gauss_line(32)


@pytest.fixture(scope="session")
def gauss_line_op(gauss_line):
    return dense_operator(gauss_line)
