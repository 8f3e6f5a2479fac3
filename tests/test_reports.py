"""One builder for every check report; the CSV writers against the row-at-a-time writer they
replaced, and their formatter against repr."""

import ast
import inspect
import threading
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import parafreq
from parafreq import TimeGrid, caloric, frequency, make_circle, reports
from parafreq.core import PROVENANCE_IMPLICIT, PROVENANCE_SPECTRAL, Trajectory
from parafreq.reports import (
    POON_CSV_HEADER,
    SPECTRUM_CSV_HEADER,
    TRACE_CSV_HEADER,
    TRAJECTORY_CSV_HEADER,
    _repr_bytes,
    passing,
    passing_at_worst,
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


def test_only_passing_builds_a_report():
    # one verdict rule, set in reports.passing: pass is margin >= -tolerance, and for a
    # negative control, which reports minus its inner line's slack, margin > tolerance
    assert _report_builds() == [("reports.py", "passing", None)]


# an inner line that passes, one that fails, one at its gate (which passes it) and a NaN one
@pytest.mark.parametrize("inner, passed", [
    (0.5, False), (-0.3, True), (-1e-10, False), (np.nan, False),
])
def test_a_negative_control_passes_only_when_its_inner_line_fails(inner, passed):
    control = passing("negative-control/x", inner, 1e-10, expect_fail=True, inner_margin=inner)
    assert control.passed is passed
    assert control.aux == {"inner_margin": inner}
    if not np.isnan(inner):  # a NaN inner line fails, and so does its control
        assert passing("inner", inner, 1e-10).passed is not passed
        assert control.margin == -inner and control.tolerance == 1e-10


def test_equal_worst_margins_report_the_first_ones_location():
    rep = passing_at_worst("line", np.array([0.5, -1.0, 2.0, -1.0]), np.array([0.0, 0.1, 0.2, 0.3]), 1e-9,
                           seen=4)
    assert rep.to_dict() == {"check": "line", "pass": False, "margin": -1.0, "tolerance": 1e-9,
                             "location": 0.1, "aux": {"seen": 4}}


def test_a_nan_margin_is_the_worst():
    rep = passing_at_worst("line", np.array([-5.0, np.nan, -7.0, np.nan]), np.arange(4.0), 1e-9)
    assert np.isnan(rep.margin) and rep.location == 1.0 and not rep.passed


def test_a_tuple_of_margins_works():
    rep = passing_at_worst("line", (0.3, 0.1, 0.2), (1.0, 2.0, 3.0), 1e-9)
    assert (rep.margin, rep.location, rep.passed) == (0.1, 2.0, True)


def _hand_built_trace(**fields) -> frequency.FrequencyTrace:
    """Six unit-spaced samples of a gradient-only trace with C = 1/2, each check's worst sample set by hand.

    U dips by 1/2 at t = 2 and t = 4 (u-monotone reports the first); log I's
    second difference is least at t = 2 (log-convexity), and its slack over
    ``2 U(a) t`` at t = 3 (hadamard-bound); ``U' / (1 - U)`` is least at t = 3
    (general-frequency), and so is ``U' / |U|`` (gradient-only's rate part);
    (log I)' is lowest against its bound at t = 4 (general-lower-bound).
    """
    U = np.array([-4.0, -3.0, -3.5, -2.0, -2.5, -1.0])
    log_i = np.array([0.0, -2.0, -8.0, -20.0, -23.0, -28.0])
    values = dict(
        times=np.arange(6.0), I=np.exp(log_i), D=U * np.exp(log_i), U=U,
        dlogI=np.array([-3.0, -2.5, -3.0, -3.5, -5.0, -2.0]),
        dU=np.array([1.0, 0.25, 0.75, 0.05, 0.5, 1.5]),
        provenance=PROVENANCE_IMPLICIT, dt=1.0, length_scale=0.1, gradient_only=True,
        certified_bound=np.full(6, 0.5),
    )
    return frequency.FrequencyTrace(**{**values, **fields})


# s -> u = exp(-|s - 1|) at t = -e^s, constant in x: log H(e^{s/2}) = -2|s - 1| + const kinks at s = 1
_KINKED = caloric.HeatOracle(kind="kinked", n=1, u=lambda x, t: np.full(len(x), np.exp(-abs(np.log(-t) - 1.0))),
                             u_t=None, grad=None, lap=None)
_S_GRID = np.array([0.0, 0.5, 1.0, 1.5, 2.0])
# the deviation of I_w / H(e^{-s/2}) from (4 pi)^{1/2} at each s of _S_GRID: largest at s = 1
_DEVIATIONS = {0.0: 1e-9, 0.5: -2e-9, 1.0: 4e-9, 1.5: -3e-9, 2.0: 0.0}


def _nine_checks():
    """Each check on its hand-built input: (name, call)."""
    tol = 1e-9
    trace = _hand_built_trace()
    # U drops below its envelope U(a) exp(t / 8) at t = 4, and is positive at t = 5
    dipped = _hand_built_trace(U=np.array([-4.0, -3.0, -3.5, -2.0, -7.0, 0.5]))
    # gaps of 1, 3, 3 and 2 (times 1e-12) at s = 0.2 to 0.8: the first 3 is reported
    cov = SimpleNamespace(drift_residual=lambda x, s: np.array([1.0, 3.0, -3.0, 2.0]) * 1e-12,
                          heat_defect_rhs=lambda x, s: np.zeros(4))
    return [
        ("u-monotone", lambda: frequency.check_u_monotone(trace, tol)),
        ("log-convexity", lambda: frequency.check_log_convexity(trace, tol)),
        ("hadamard-bound", lambda: frequency.check_hadamard_bound(trace, tol)),
        ("general-frequency", lambda: frequency.check_general_frequency(trace, None, tol)),
        ("general-lower-bound", lambda: frequency.check_general_lower_bound(trace, None, tol)),
        ("gradient-only/rate", lambda: frequency.check_gradient_only(trace, None, tol)),
        ("gradient-only/envelope", lambda: frequency.check_gradient_only(dipped, None, tol)),
        ("cov-residual", lambda: caloric.check_cov_residual(cov, (np.zeros((4, 1)), np.array([0.2, 0.4, 0.6, 0.8])))),
        ("poon-convexity", lambda: caloric.check_poon_convexity(_KINKED, _S_GRID)),
        ("poon-correspondence", lambda: caloric.check_poon_correspondence(_KINKED, _S_GRID)),
    ]


# the reports of the per-check selection the shared rule replaced, on the inputs above
_WORST_SAMPLE_REPORTS = {
    "u-monotone": {"check": "u-monotone", "pass": False, "margin": -0.5, "tolerance": 1e-09, "location": 2.0,
                   "aux": {"min_increment": -0.5}},
    "log-convexity": {"check": "log-convexity", "pass": False, "margin": -6.0, "tolerance": 1e-09, "location": 2.0,
                      "aux": {"min_second_difference": -6.0, "dlogI_vs_2U_gap": 4.0}},
    "hadamard-bound": {"check": "hadamard-bound", "pass": True, "margin": 4.0, "tolerance": 1e-09, "location": 3.0,
                       "aux": {"log_ratio": -28.0, "predicted": -40.0, "final_margin": 12.0}},
    "general-frequency": {"check": "general-frequency", "pass": True, "margin": 0.26666666666666666,
                          "tolerance": 1e-09, "location": 3.0,
                          "aux": {"min_u_rate_margin": 0.8, "min_log_one_minus_u_margin": 0.26666666666666666}},
    "general-lower-bound": {"check": "general-lower-bound", "pass": True, "margin": 1.375, "tolerance": 1e-09,
                            "location": 4.0,
                            "aux": {"statement_margin": 187.02143484136508, "proof_margin": 539.7473773381682,
                                    "sup_c": 0.5, "int_c_squared": 1.25}},
    "gradient-only/rate": {"check": "gradient-only", "pass": True, "margin": 0.15, "tolerance": 1e-09,
                           "location": 3.0,
                           "aux": {"rate_margin": 0.15, "envelope_margin": 1.5325938122673053,
                                   "final_bound_margin": 53.56402800315787, "not_applicable_from": None}},
    "gradient-only/envelope": {"check": "gradient-only", "pass": False, "margin": -0.4051149171994872,
                               "tolerance": 1e-09, "location": 4.0,
                               "aux": {"rate_margin": 0.15, "envelope_margin": -0.4051149171994872,
                                       "final_bound_margin": 53.56402800315787, "not_applicable_from": 5.0}},
    "cov-residual": {"check": "cov-residual", "pass": True, "margin": -3e-12, "tolerance": 1e-10, "location": 0.4,
                     "aux": {"max_gap": 3e-12, "samples": 4}},
    "poon-convexity": {"check": "poon-convexity", "pass": False, "margin": -2.000000000000001, "tolerance": 1e-08,
                       "location": 1.0,
                       "aux": {"min_second_difference": -2.000000000000001,
                               "mirrored_min_second_difference": -4.440892098500626e-16}},
    "poon-correspondence": {"check": "poon-correspondence", "pass": True, "margin": -4.000000108916879e-09,
                            "tolerance": 1e-08, "location": 1.0,
                            "aux": {"expected_ratio": 3.5449077018110318, "ratio_min": 3.5449076911763084,
                                    "ratio_max": 3.544907715990663, "mismatched_ratio_min": 0.06492724916548172,
                                    "mismatched_ratio_max": 3.5449077053559397}},
}


_NINE_CHECKS = _nine_checks()


@pytest.mark.parametrize("name, check", _NINE_CHECKS, ids=[name for name, _ in _NINE_CHECKS])
def test_each_check_reports_its_worst_sample(monkeypatch, name, check):
    def weighted_norm(cov, s):  # I_w read off _DEVIATIONS
        return (4.0 * np.pi) ** 0.5 * caloric.poon_h(cov.oracle, np.exp(-s / 2.0)) * (1.0 + _DEVIATIONS[s])

    monkeypatch.setattr(caloric, "gauss_weighted_norm2", weighted_norm)
    assert check().to_dict() == _WORST_SAMPLE_REPORTS[name]


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


# blocks are 16384 rows, formatted two at a time: 4096 nodes x 1 component x 4, 8 and 12
# samples (and x 2 components x 6) are exactly 1, 2 and 3 blocks, the last with no partner;
# 3000 nodes x 2 components x 5 samples is 30000 rows, so the last block is partial
@pytest.mark.parametrize("nodes, components, steps", [
    (NODES, 1, 2), (NODES, 2, 2), (4096, 1, 3), (4096, 1, 7), (4096, 1, 11), (4096, 2, 5), (3000, 2, 4),
])
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
    # rows are formatted 16384 at a time, two blocks in flight (one on the helper thread):
    # 201 and 401 samples of 2048 nodes are 25 and 50 blocks, and the writer's peak is the
    # two blocks' temporaries (about 8.3 MB), the same for both; a copy of the 401 samples
    # alone would add 6.6 MB.  A run whose two threads' temporaries happen not to overlap
    # reads lower (6.5-6.8 MB, about one run in 60), so each size's peak is the larger of
    # three runs
    geom = make_circle(2048, 2.0 * np.pi)
    rng = np.random.default_rng(3)
    peaks = []
    for steps in (200, 400):
        values = rng.standard_normal((steps + 1, 2048, 1))
        traj = Trajectory(grid=TimeGrid(0.0, 1.0, steps), values=values, geometry=geom,
                          provenance=PROVENANCE_SPECTRAL)
        peaks.append(max(peak_allocated(lambda: write_trajectory_csv(tmp_path / "t.csv", traj))[1]
                         for _ in range(3)))
    assert peaks[1] < 10e6, peaks
    assert abs(peaks[1] - peaks[0]) < 0.05 * peaks[0], peaks


def _circle_trajectory(nodes, steps, seed=0):
    values = np.random.default_rng(seed).standard_normal((steps + 1, nodes, 1))
    return Trajectory(grid=TimeGrid(0.0, 1.0, steps), values=values,
                      geometry=make_circle(nodes, 2.0 * np.pi), provenance=PROVENANCE_SPECTRAL)


def test_an_error_in_the_helper_block_is_raised_and_no_thread_is_left(tmp_path, monkeypatch):
    def failing_off_the_main_thread(values):
        if threading.current_thread() is not threading.main_thread():
            raise ZeroDivisionError("injected")
        return _repr_bytes(values)

    monkeypatch.setattr(reports, "_repr_bytes", failing_off_the_main_thread)
    traj = _circle_trajectory(4096, 7)  # two blocks: the second is the helper's
    threads = threading.active_count()
    with pytest.raises(ZeroDivisionError, match="injected"):
        write_trajectory_csv(tmp_path / "t.csv", traj)
    assert threading.active_count() == threads


def test_the_helper_thread_calls_no_public_function(tmp_path, monkeypatch):
    # a tracer wraps the package's public functions and keeps one stack of open spans,
    # which is not thread-safe: every public call must stay on the main thread
    threads = []

    def recorded(fn):
        def call(*args, **kwargs):
            threads.append((fn.__name__, threading.current_thread()))
            return fn(*args, **kwargs)
        return call

    public = [name for name, value in vars(reports).items()
              if inspect.isfunction(value) and value.__module__ == reports.__name__
              and not name.startswith("_")]
    for name in [*public, "_repr_bytes"]:
        monkeypatch.setattr(reports, name, recorded(getattr(reports, name)))
    reports.write_trajectory_csv(tmp_path / "t.csv", _circle_trajectory(4096, 11))  # 3 blocks
    reports.write_spectrum_csv(tmp_path / "s.csv", np.arange(30000.0))  # 4 blocks
    main = threading.main_thread()
    off_main = {name for name, thread in threads if thread is not main}
    assert off_main == {"_repr_bytes"}  # the helper ran, and only private code ran there
    assert {"write_trajectory_csv", "write_spectrum_csv"} <= {name for name, _ in threads}
