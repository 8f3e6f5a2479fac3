"""One builder for every check report; the CSV writers against the row-at-a-time writer they
replaced, and their formatter against repr."""

import ast
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import parafreq
from parafreq import TimeGrid, make_circle
from parafreq.core import PROVENANCE_SPECTRAL, Trajectory
from parafreq.reports import (
    POON_CSV_HEADER,
    SPECTRUM_CSV_HEADER,
    TRACE_CSV_HEADER,
    TRAJECTORY_CSV_HEADER,
    _repr_bytes,
    write_poon_csv,
    write_spectrum_csv,
    write_trace_csv,
    write_trajectory_csv,
)

from conftest import peak_allocated


def _report_builds() -> list:
    """(module, top-level definition, name keyword) of each call that builds or re-flags a report.

    That is every ``CheckReport(...)`` call, and every ``replace(...)`` that sets
    a report's verdict fields.
    """
    verdict = {"passed", "margin", "tolerance"}
    found = []
    for path in sorted(Path(parafreq.__file__).parent.glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            owner = getattr(top, "name", None)
            for node in ast.walk(top):
                if not isinstance(node, ast.Call):
                    continue
                called = getattr(node.func, "id", getattr(node.func, "attr", None))
                keywords = {kw.arg: kw.value for kw in node.keywords}
                if called == "CheckReport" or (called == "replace" and verdict & set(keywords)):
                    name = keywords.get("name")
                    found.append((path.name, owner, getattr(name, "value", None)))
    return found


def test_only_passing_and_the_negative_controls_build_a_report():
    # one verdict rule: pass is margin >= -tolerance, set in reports.passing; a negative
    # control passes when its inner check fails, so the two of them build theirs by hand
    assert sorted(_report_builds()) == [
        ("reports.py", "passing", None),
        ("suite.py", "monotonicity_reports", "negative-control/reversed-monotone"),
        ("suite.py", "rigidity_reports", "negative-control/two-mode-rigidity"),
    ]


# signed zero, extreme magnitudes, a subnormal, values whose repr needs 17 digits, and
# the edges of repr's positional form (1e-4 <= |v| < 1e16) with a power of two inside it
SPECIAL = np.array([
    -0.0, 1e-300, 1e300, -1e300, 0.1, -2.5, 1.0 / 3.0, 5e-324,
    1e-4, 9.999999999999999e-05, 1e16, 9999999999999998.0, 2.0**-14, 0.30000000000000004,
])
NON_FINITE = np.array([np.nan, np.inf, -np.inf])
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
    samples, n_nodes, comps = traj.values.shape
    for k, sample in enumerate(traj.values):
        for comp in range(comps):
            chunk = np.column_stack(
                [
                    np.full(n_nodes, times[k]),
                    np.arange(n_nodes, dtype=float),
                    np.full(n_nodes, float(comp)),
                    sample[:, comp],
                ]
            )
            chunks.append(chunk)
    return np.vstack(chunks)


def printed(values) -> list[str]:
    """The formatter's text for each value: its row without the NUL padding."""
    return [row.tobytes().replace(b"\0", b"").decode() for row in _repr_bytes(values)]


def reprs(values) -> list[str]:
    return [repr(float(v)) for v in values]


# 3000 nodes x 2 components x 5 samples is 30000 rows: a block boundary falls inside a column
@pytest.mark.parametrize("nodes, components, steps", [(NODES, 1, 2), (NODES, 2, 2), (3000, 2, 4)])
def test_trajectory_csv_matches_row_reference(tmp_path, nodes, components, steps):
    geom = make_circle(nodes, 2.0 * np.pi)
    grid = TimeGrid(-0.0, 1.0 / 3.0, steps)
    rng = np.random.default_rng(components)
    pool = np.concatenate([SPECIAL, rng.standard_normal(64)])
    shape = (steps + 1, nodes, components)
    values = rng.permutation(np.resize(pool, np.prod(shape))).reshape(shape)  # every SPECIAL value
    traj = Trajectory(grid=grid, values=values, geometry=geom, provenance=PROVENANCE_SPECTRAL)
    path = tmp_path / "trajectory.csv"
    write_trajectory_csv(path, traj)
    expected = reference_csv(TRAJECTORY_CSV_HEADER, reference_trajectory_rows(traj))
    assert path.read_text() == expected
    assert "-0.0" in expected and "1e-300" in expected and "1e+300" in expected


def test_table_writers_match_row_reference(tmp_path):
    special = np.concatenate([SPECIAL, NON_FINITE])
    flipped = special[::-1].copy()
    positive = np.abs(special) + 1e-300
    trace = SimpleNamespace(times=special, I=positive, D=flipped, U=special * 0.5)

    write_trace_csv(tmp_path / "trace.csv", trace)
    rows = np.column_stack([trace.times, trace.I, trace.D, trace.U])
    assert (tmp_path / "trace.csv").read_text() == reference_csv(TRACE_CSV_HEADER, rows)

    write_spectrum_csv(tmp_path / "spectrum.csv", special)
    rows = np.column_stack([np.arange(special.size, dtype=float), special])
    assert (tmp_path / "spectrum.csv").read_text() == reference_csv(SPECTRUM_CSV_HEADER, rows)

    write_poon_csv(tmp_path / "poon.csv", special, flipped, positive)
    rows = np.column_stack([special, flipped, positive, np.log(positive)])
    text = (tmp_path / "poon.csv").read_text()
    assert text == reference_csv(POON_CSV_HEADER, rows)
    assert "nan" in text and "-inf" in text


def test_table_writer_spans_blocks(tmp_path):
    # 20000 rows of two columns are three blocks of 8192 rows
    rng = np.random.default_rng(4)
    values = rng.standard_normal(20000) * 10.0 ** rng.integers(-6, 18, 20000)
    write_spectrum_csv(tmp_path / "spectrum.csv", values)
    rows = np.column_stack([np.arange(values.size, dtype=float), values])
    assert (tmp_path / "spectrum.csv").read_text() == reference_csv(SPECTRUM_CSV_HEADER, rows)


# any bit pattern, or one of a value in the positional range, of either sign
POSITIONAL = tuple(int(np.float64(v).view(np.uint64)) for v in (1e-4, 1e16))
BIT_PATTERNS = (
    st.integers(0, 2**64 - 1)
    | st.integers(*POSITIONAL)
    | st.integers(POSITIONAL[0] + 2**63, POSITIONAL[1] + 2**63)
)


@settings(max_examples=300, deadline=None)
@given(st.lists(BIT_PATTERNS, min_size=1, max_size=64))
def test_every_bit_pattern_prints_as_repr(patterns):
    values = np.array(patterns, dtype=np.uint64).view(np.float64)
    assert printed(values) == reprs(values)


def decision_cases(rng) -> np.ndarray:
    """Values at each decision the formatter makes itself, with their neighbours."""
    powers_of_two = np.ldexp(1.0, np.arange(-1074, 1024))
    powers_of_ten = np.array([float(f"1e{k}") for k in range(-30, 31)])
    near_tens = np.concatenate([np.nextafter(powers_of_ten, 0.0), np.nextafter(powers_of_ten, np.inf)])
    # k significant digits with the decimal point anywhere from 1e-6 to 1e17
    short = [
        float(f"{digits}e{point - k}")
        for k in range(1, 18)
        for point in range(-5, 18)
        for digits in rng.integers(10 ** (k - 1), 10**k, 8).tolist()
    ]
    # X = x 10^k an odd multiple of 5 whose interval holds the multiples of 10 on both sides
    midway = [
        2.0**binade + (2 * i + 1) / 2.0**k
        for k in range(2, 17)
        for binade in [int(np.ceil(np.log2(10.0 ** (1 - k)))) + 52]
        for i in range(20)
    ]
    # X = 10 x midway between two integers
    half_integers = [2.0**50 + (2 * i + 1) / 4.0 for i in range(20)]
    integers = np.concatenate([rng.integers(1, 2**53, 2000), rng.integers(1, 1000, 500)]).astype(float)
    found = np.concatenate([powers_of_two, powers_of_ten, near_tens, short, midway, half_integers, integers])
    return np.concatenate([found, -found])


def test_decisions_print_as_repr():
    values = decision_cases(np.random.default_rng(0))
    assert printed(values) == reprs(values)


def test_trajectory_writer_peak_memory_is_one_block(tmp_path):
    # rows are formatted 16384 at a time: 201 and 401 samples of 2048 nodes are 25 and
    # 50 blocks, and the writer's peak is a few blocks' temporaries (about 7 MB), the same
    # for both; a copy of the 401 samples alone would add 6.6 MB
    geom = make_circle(2048, 2.0 * np.pi)
    rng = np.random.default_rng(3)
    peaks = []
    for steps in (200, 400):
        values = rng.standard_normal((steps + 1, 2048, 1))
        traj = Trajectory(grid=TimeGrid(0.0, 1.0, steps), values=values, geometry=geom,
                          provenance=PROVENANCE_SPECTRAL)
        _, peak = peak_allocated(lambda: write_trajectory_csv(tmp_path / "t.csv", traj))
        peaks.append(peak)
    assert peaks[1] < 10e6, peaks
    assert abs(peaks[1] - peaks[0]) < 0.05 * peaks[0], peaks
