"""Check reports and the stable on-disk formats (CSV schemas, report JSON)."""

from __future__ import annotations

import json
from dataclasses import dataclass, field as dc_field
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

    ``margin`` is signed slack: negative means the inequality under test was
    violated beyond round-off, and ``passed`` is equivalent to
    ``margin >= -tolerance``.  ``location`` is the time (or parameter) sample
    where the worst margin occurred.
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
        return CheckReport(
            name=name,
            passed=self.passed,
            margin=self.margin,
            tolerance=self.tolerance,
            location=self.location,
            aux=self.aux,
        )


def _json_finite(value: float) -> float:
    """Clamp so failing reports still serialize under allow_nan=False."""
    if np.isnan(value):
        return -1.0e308
    return float(np.clip(value, -1.0e308, 1.0e308))


def passing(name: str, margin: float, tol: float, location=None, **aux) -> CheckReport:
    """Build a report whose pass flag follows the margin/tolerance convention."""
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
    rows = np.column_stack([trace.times, trace.I, trace.D, trace.U])
    _write_csv(path, TRACE_CSV_HEADER, rows)


def write_trajectory_csv(path, traj) -> None:
    """One row per (sample, component, node), streamed one sample at a time."""
    middles = [
        [f",{float(node)!r},{float(comp)!r}," for node in range(traj.geometry.node_count)]
        for comp in range(traj.values.shape[2])
    ]
    with open(path, "w") as fh:
        fh.write(TRAJECTORY_CSV_HEADER + "\n")
        for stamp, sample in zip(map(repr, traj.grid.times.tolist()), traj.values):
            for middle, column in zip(middles, sample.T.tolist()):
                fh.write("".join([f"{stamp}{mid}{v!r}\n" for mid, v in zip(middle, column)]))


def write_spectrum_csv(path, eigenvalues) -> None:
    vals = np.asarray(eigenvalues, dtype=float)
    rows = np.column_stack([np.arange(vals.size, dtype=float), vals])
    _write_csv(path, SPECTRUM_CSV_HEADER, rows)


def write_poon_csv(path, s, radii, h_values) -> None:
    s = np.asarray(s, dtype=float)
    rows = np.column_stack([s, radii, h_values, np.log(h_values)])
    _write_csv(path, POON_CSV_HEADER, rows)


def _write_csv(path, header: str, rows: np.ndarray) -> None:
    with open(path, "w") as fh:
        fh.write(header + "\n")
        fh.write("".join([",".join(map(repr, row)) + "\n" for row in rows.tolist()]))
