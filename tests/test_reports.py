"""The CSV writers against the row-at-a-time writer they replaced."""

from types import SimpleNamespace

import numpy as np
import pytest

from parafreq import Field, TimeGrid, make_circle
from parafreq.core import PROVENANCE_SPECTRAL, Trajectory
from parafreq.reports import (
    POON_CSV_HEADER,
    SPECTRUM_CSV_HEADER,
    TRACE_CSV_HEADER,
    TRAJECTORY_CSV_HEADER,
    write_poon_csv,
    write_spectrum_csv,
    write_trace_csv,
    write_trajectory_csv,
)

# signed zero, extreme magnitudes, a subnormal and values whose repr needs 17 digits
SPECIAL = np.array([-0.0, 1e-300, 1e300, -1e300, 0.1, -2.5, 1.0 / 3.0, 5e-324])
NODES = 8


def reference_csv(header, rows) -> str:
    """One repr(float(v)) per numpy scalar, every line joined at the end."""
    lines = [header]
    for row in rows:
        lines.append(",".join(repr(float(v)) for v in row))
    return "\n".join(lines) + "\n"


def reference_trajectory_rows(traj) -> np.ndarray:
    times = traj.grid.times
    chunks = []
    n_nodes = traj.geometry.node_count
    for k, fld in enumerate(traj.fields):
        for comp in range(fld.components):
            chunk = np.column_stack(
                [
                    np.full(n_nodes, times[k]),
                    np.arange(n_nodes, dtype=float),
                    np.full(n_nodes, float(comp)),
                    fld.values[:, comp],
                ]
            )
            chunks.append(chunk)
    return np.vstack(chunks)


@pytest.mark.parametrize("components", [1, 2])
def test_trajectory_csv_matches_row_reference(tmp_path, components):
    geom = make_circle(NODES, 2.0 * np.pi)
    grid = TimeGrid(-0.0, 1.0 / 3.0, 3)
    rng = np.random.default_rng(components)
    fields = tuple(
        Field(geom, rng.permutation(np.resize(SPECIAL, NODES * components)).reshape(NODES, components))
        for _ in grid.times
    )
    traj = Trajectory(grid=grid, fields=fields, provenance=PROVENANCE_SPECTRAL)
    path = tmp_path / "trajectory.csv"
    write_trajectory_csv(path, traj)
    expected = reference_csv(TRAJECTORY_CSV_HEADER, reference_trajectory_rows(traj))
    assert path.read_text() == expected
    assert "-0.0" in expected and "1e-300" in expected and "1e+300" in expected


def test_table_writers_match_row_reference(tmp_path):
    flipped = SPECIAL[::-1].copy()
    positive = np.abs(SPECIAL) + 1e-300
    trace = SimpleNamespace(times=SPECIAL, I=positive, D=flipped, U=SPECIAL * 0.5)

    write_trace_csv(tmp_path / "trace.csv", trace)
    rows = np.column_stack([trace.times, trace.I, trace.D, trace.U])
    assert (tmp_path / "trace.csv").read_text() == reference_csv(TRACE_CSV_HEADER, rows)

    write_spectrum_csv(tmp_path / "spectrum.csv", SPECIAL)
    rows = np.column_stack([np.arange(SPECIAL.size, dtype=float), SPECIAL])
    assert (tmp_path / "spectrum.csv").read_text() == reference_csv(SPECTRUM_CSV_HEADER, rows)

    write_poon_csv(tmp_path / "poon.csv", SPECIAL, flipped, positive)
    rows = np.column_stack([SPECIAL, flipped, positive, np.log(positive)])
    assert (tmp_path / "poon.csv").read_text() == reference_csv(POON_CSV_HEADER, rows)
