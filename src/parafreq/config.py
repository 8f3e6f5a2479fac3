"""Experiment configuration: key tables, their reader, and object construction.

A config is one JSON document (see README for the schema).  Each object in it
has a key table (``CONFIG_KEYS`` and the tables it points to), and one reader
checks an object against its table, so a whole document, or a whole sweep
file, is checked before anything is built.  Weight exponents, initial data,
perturbation coefficients, and the gauge rate are expression strings over the
coordinate names ``x``, ``y`` and time ``t``; randomized descriptors must
carry a seed so runs stay reproducible.
"""

from __future__ import annotations

import copy
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .core import (
    CIRCLE, GAUSS_LINE, TORUS, Field, TimeGrid, WeightedGeometry, make_circle,
    make_gauss_line, make_torus, periodic_coords,
)
from .errors import ConfigError
from .evolution import GaugeSpec, PerturbationSpec
from .expressions import compile_expression, evaluate_on_nodes
from .frequency import (
    FrequencyTrace,
    check_general_frequency,
    check_general_lower_bound,
    check_gradient_only,
    check_hadamard_bound,
    check_log_convexity,
    check_rigidity,
    check_u_monotone,
    default_tolerance,
    vanishing_order_surrogate,
)
from .operators import DriftOperator, eigenpairs
from .sampling import random_smooth_field

INTEGRATORS = ("spectral-exact", "implicit-step")
_MAX = float(np.finfo(float).max)


def _parser(ok, what: str):
    """Parser of the values for which ``ok(value)`` holds, described as ``what``."""

    # named privately: bench/tracing.py wraps every package function with a public name
    def _parse(value, context: str):
        if not ok(value):
            raise ConfigError(f"{context}: expected {what}, got {value!r}")
        return value

    return _parse


def _integer(least: int):
    """Parser of an integer >= ``least`` (true and false are not integers)."""
    return _parser(
        lambda v: isinstance(v, int) and not isinstance(v, bool) and v >= least,
        f"an integer >= {least}",
    )


_object = _parser(lambda v: isinstance(v, dict), "an object")
_string = _parser(lambda v: isinstance(v, str), "a string")
_boolean = _parser(lambda v: isinstance(v, bool), "true or false")
_integrator = _parser(lambda v: v in INTEGRATORS, f"one of {INTEGRATORS}")
# a sweep entry's name names its output directory
_run_name = _parser(
    lambda v: isinstance(v, str) and v not in ("", ".", "..") and not set(v) & set("/\\\0"),
    "a nonempty string with no path separator, other than '.' and '..'",
)


def _read(raw, table: dict, context: str) -> dict:
    """``raw`` checked against a key table, with every default filled in.

    ``table`` maps each key to its parser, ``parse(value, context)``, which
    returns the checked value; an optional key maps to ``(parse, default)``
    instead.  An unknown key is an error, and ``null`` means omitted.
    """
    for key in _object(raw, context):
        if key not in table:
            raise ConfigError(f"{context}: unknown key {key!r} (known: {', '.join(table)})")
    out = {}
    for key, rule in table.items():
        optional = isinstance(rule, tuple)
        parse, default = rule if optional else (rule, None)
        if raw.get(key) is not None:
            out[key] = parse(raw[key], f"{context}.{key}")
        elif not optional:
            raise ConfigError(f"{context}: missing required field {key!r}")
        else:
            out[key] = default
    return out


def _table(table: dict):
    """Parser of an object with the keys of ``table``."""
    return lambda raw, context: _read(raw, table, context)


def _variant(tables: dict, tag: str):
    """Parser of an object whose ``tag`` value picks its key table from ``tables``."""

    def _parse(raw, context: str) -> dict:
        choice = _object(raw, context).get(tag)
        if not isinstance(choice, str) or choice not in tables:
            raise ConfigError(
                f"{context}.{tag}: expected one of {', '.join(tables)}, got {choice!r}"
            )
        return _read(raw, {tag: _string, **tables[choice]}, context)

    return _parse


def _list_of(parse, nonempty: bool = False):
    """Parser of a list (a nonempty one if ``nonempty``), each item checked by ``parse``."""

    def _parse_list(value, context: str) -> list:
        if not isinstance(value, list) or (nonempty and not value):
            what = "a nonempty list" if nonempty else "a list"
            raise ConfigError(f"{context}: expected {what}, got {value!r}")
        return [parse(item, f"{context}[{i}]") for i, item in enumerate(value)]

    return _parse_list


def _finite_real(value, context: str) -> float:
    # an exact comparison: also false for NaN and for integers beyond the float range
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not abs(value) <= _MAX:
        raise ConfigError(f"{context}: expected a finite number, got {value!r}")
    return float(value)


def _expression(value, context: str) -> str:
    """An expression string, parsed now over the names x, y and t, or a finite number.

    A number becomes its exact ``repr``, so one path evaluates both.  A name
    the geometry lacks (``y`` on a circle) is reported by the builder.
    """
    if not isinstance(value, str):
        value = repr(_finite_real(value, context))
    compile_expression(value, ("x", "y", "t"))
    return value


_expression_list = _list_of(_expression, nonempty=True)


def _expressions(value, context: str) -> list:
    """One expression string, or a nonempty list of expressions."""
    return _expression_list([value] if isinstance(value, str) else value, context)


def _time(raw, context: str) -> dict:
    spec = _read(raw, TIME_KEYS, context)
    if not (spec["a"] < spec["b"] and np.isfinite(spec["b"] - spec["a"])):
        raise ConfigError(f"{context}: requires a < b with a finite b - a")
    return spec


_TOL = {"tol": (_finite_real, None)}
_BOUND = {**_TOL, "bound": (_finite_real, None)}

# config check name -> (check(traj, trace, op, tol, entry), the keys of its entry);
# ``tol`` is resolved by run_trace_checks, and ``entry`` is read through the keys
TRACE_CHECKS = {
    "u-monotone": (lambda traj, trace, op, tol, entry: check_u_monotone(trace, tol), _TOL),
    "log-convexity": (
        lambda traj, trace, op, tol, entry: check_log_convexity(trace, tol / trace.dt**2), _TOL
    ),
    "hadamard-bound": (lambda traj, trace, op, tol, entry: check_hadamard_bound(trace, tol), _TOL),
    "rigidity": (lambda traj, trace, op, tol, entry: check_rigidity(traj, tol, op, trace), _TOL),
    "general-frequency": (
        lambda traj, trace, op, tol, entry: check_general_frequency(trace, entry["bound"], tol),
        _BOUND,
    ),
    "general-lower-bound": (
        lambda traj, trace, op, tol, entry: check_general_lower_bound(trace, entry["bound"], tol),
        _BOUND,
    ),
    "gradient-only": (
        lambda traj, trace, op, tol, entry: check_gradient_only(trace, entry["bound"], tol),
        _BOUND,
    ),
    "vanishing-order": (
        lambda traj, trace, op, tol, entry: vanishing_order_surrogate(trace, entry["rate"], tol),
        {**_TOL, "rate": (_finite_real, 0.0)},
    ),
}

# key tables: key -> parser of a required key, or (parser, default) of an
# optional one; the "kind" of an object (a check entry's "name") picks its table
GEOMETRY_KEYS = {
    CIRCLE: {"nodes": _integer(4), "length": _finite_real, "phi": (_expression, "0.0")},
    TORUS: {
        "nx": _integer(4), "ny": _integer(4), "lx": _finite_real, "ly": _finite_real,
        "phi": (_expression, "0.0"), "psi": (_expression, "0.0"),
    },
    GAUSS_LINE: {"order": _integer(4)},
}
TIME_KEYS = {"a": _finite_real, "b": _finite_real, "steps": _integer(1)}
INITIAL_KEYS = {
    "expression": {"expression": _expressions},
    "eigenmode": {"index": (_integer(0), 0)},
    "random": {
        "seed": _integer(0), "max_mode": (_integer(0), 4), "components": (_integer(1), 1),
        "zero_mean": (_boolean, False),
    },
}
PERTURBATION_KEYS = {
    "b": (_expressions, None), "c": (_expression, None), "bound": (_expression, None),
    "gradient_only": (_boolean, False),
}
CHECK_KEYS = {name: keys for name, (_, keys) in TRACE_CHECKS.items()}
_read_geometry = _variant(GEOMETRY_KEYS, "kind")
_read_initial = _variant(INITIAL_KEYS, "kind")
_read_check = _variant(CHECK_KEYS, "name")
CONFIG_KEYS = {
    "geometry": _read_geometry, "initial": _read_initial, "time": _time,
    "integrator": (_integrator, "spectral-exact"),
    "perturbation": (_table(PERTURBATION_KEYS), None), "gauge": (_expression, None),
    "checks": (_list_of(_read_check), []), "output": (_string, None),
}
SWEEP_ENTRY_KEYS = {"name": _run_name, "overrides": (_object, {})}
SWEEP_KEYS = {"base": _object, "sweep": _list_of(_table(SWEEP_ENTRY_KEYS), nonempty=True)}


def check_tolerance(entry: dict, trace: FrequencyTrace, tol_scale: float) -> float:
    """The entry's ``tol`` times ``tol_scale``, or the trace's provenance-aware default."""
    tol = entry.get("tol")
    return default_tolerance(trace, tol_scale) if tol is None else float(tol) * tol_scale


def run_trace_checks(entries, traj, trace, op, tol_scale: float) -> list:
    """Run config check entries on one traced flow, in order."""
    entries = [_read_check(entry, "check") for entry in entries]
    return [
        TRACE_CHECKS[entry["name"]][0](
            traj, trace, op, check_tolerance(entry, trace, tol_scale), entry
        )
        for entry in entries
    ]


def build_geometry(spec: dict) -> WeightedGeometry:
    spec = _read_geometry(spec, "geometry")
    if spec["kind"] == GAUSS_LINE:
        return make_gauss_line(spec["order"])
    if spec["kind"] == CIRCLE:
        coords = periodic_coords((spec["nodes"],), (spec["length"],))
        return make_circle(spec["nodes"], spec["length"], evaluate_on_nodes(spec["phi"], coords))
    coords = periodic_coords((spec["nx"], spec["ny"]), (spec["lx"], spec["ly"]))
    phi, psi = (evaluate_on_nodes(spec[key], coords) for key in ("phi", "psi"))
    return make_torus(spec["nx"], spec["ny"], spec["lx"], spec["ly"], phi, psi)


def build_time(spec: dict) -> TimeGrid:
    return TimeGrid(**_time(spec, "time"))


def build_initial(spec: dict, geometry: WeightedGeometry, op: DriftOperator) -> Field:
    spec = _read_initial(spec, "initial")
    if spec["kind"] == "expression":
        values = [evaluate_on_nodes(e, geometry.coords) for e in spec["expression"]]
        return Field(geometry, np.column_stack(values))
    if spec["kind"] == "eigenmode":
        return eigenpairs(op, spec["index"] + 1)[spec["index"]].eigenfield
    rng = np.random.default_rng(spec["seed"])
    return random_smooth_field(
        geometry, rng, spec["max_mode"], spec["components"], spec["zero_mean"]
    )


def _space_time_expression(text: str, coords: np.ndarray):
    """A checked expression over the coordinates and t, as ``t -> per-node values``."""
    names = ("x", "y")[: coords.shape[1]] + ("t",)
    fn = compile_expression(text, names)
    env = {name: coords[:, i] for i, name in enumerate(names[:-1])}
    return lambda t: np.broadcast_to(fn(**env, t=t), (coords.shape[0],)).astype(float)


def _time_expression(text: str):
    """A checked expression in t alone, as a float-valued callable."""
    fn = compile_expression(text, ("t",))
    return lambda t: float(fn(t=t))


def build_perturbation(
    spec: dict, geometry: WeightedGeometry, grid: TimeGrid
) -> PerturbationSpec:
    spec = _read(spec, PERTURBATION_KEYS, "perturbation")
    b = c = bound = None
    if spec["b"] is not None:
        if len(spec["b"]) != geometry.dim:
            raise ConfigError(
                f"perturbation.b: expected {geometry.dim} component expression(s), "
                f"got {spec['b']!r}"
            )
        samplers = [_space_time_expression(part, geometry.coords) for part in spec["b"]]
        b = lambda t: np.column_stack([s(t) for s in samplers])
    if spec["c"] is not None:
        c = _space_time_expression(spec["c"], geometry.coords)
    if spec["bound"] is not None:
        bound = _time_expression(spec["bound"])
    return PerturbationSpec.build(
        geometry, grid, b=b, c=c, bound=bound, gradient_only=spec["gradient_only"]
    )


def build_gauge(spec) -> GaugeSpec:
    return GaugeSpec(rate=_time_expression(_expression(spec, "gauge")))


@dataclass(frozen=True)
class ExperimentConfig:
    """A config read through :data:`CONFIG_KEYS`: every object checked, defaults filled in."""

    geometry: dict
    initial: dict
    time: dict
    integrator: str
    checks: tuple[dict, ...]
    perturbation: dict | None = None
    gauge: str | None = None
    output: str | None = None

    @staticmethod
    def from_dict(raw: dict) -> "ExperimentConfig":
        spec = _read(raw, CONFIG_KEYS, "config")
        if spec["perturbation"] is not None and spec["integrator"] != "implicit-step":
            raise ConfigError("config: perturbations require the implicit-step integrator")
        return ExperimentConfig(**{**spec, "checks": tuple(spec["checks"])})

    @staticmethod
    def load(path) -> "ExperimentConfig":
        return ExperimentConfig.from_dict(load_json(path))


def sweep_configs(raw) -> dict[str, ExperimentConfig]:
    """Validate a whole sweep file into one config per entry name, in file order.

    The file has a ``base`` config and a ``sweep`` list of ``{name, overrides}``
    entries; each override key is a dotted path into the base, and no two
    entries share a name.  Every entry is read before any of them runs.
    """
    sweep = _read(raw, SWEEP_KEYS, "sweep file")
    runs = {}
    for entry in sweep["sweep"]:
        name = entry["name"]
        if name in runs:
            raise ConfigError(f"sweep entry name {name!r} is used twice")
        merged = copy.deepcopy(sweep["base"])
        for key, value in entry["overrides"].items():
            node = merged
            *path, last = key.split(".")
            for part in path:
                node = _object(node.setdefault(part, {}), f"sweep entry {name!r}: {key!r}")
            node[last] = value
        try:
            runs[name] = ExperimentConfig.from_dict(merged)
        except ConfigError as exc:
            raise ConfigError(f"sweep entry {name!r}: {exc}") from None
    return runs


def load_json(path):
    """Parse a JSON config file; a missing or malformed file is a ConfigError."""
    try:
        return json.loads(Path(path).read_text())
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from None
