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
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .core import (
    CIRCLE, GAUSS_LINE, TORUS, Field, TimeGrid, WeightedGeometry, make_circle,
    make_gauss_line, make_torus, periodic_coords,
)
from .errors import ConfigError
from .evolution import PerturbationSpec
from .expressions import COORDINATES, compile_expression, evaluate_on_grid
from .frequency import (
    check_general_frequency,
    check_general_lower_bound,
    check_gradient_only,
    check_hadamard_bound,
    check_log_convexity,
    check_rigidity,
    check_u_monotone,
    default_tolerance,
)
from .operators import MAX_DENSE_NODES, DriftOperator, eigenpairs
from .sampling import random_smooth_field

INTEGRATORS = ("spectral-exact", "implicit-step")
_MAX = float(np.finfo(float).max)
# The most doubles one array of a run may hold (2**24, 128 MiB, the size of the
# largest dense eigenvector matrix): the trajectory's (steps + 1) x nodes x
# components values, and the Gauss line's order x order basis.
MAX_VALUES = MAX_DENSE_NODES**2


def _parser(ok, what: str):
    """Parser of the values for which ``ok(value)`` holds, described as ``what``."""

    # named privately: bench/tracing.py wraps every package function with a public name
    def _parse(value, context: str):
        if not ok(value):
            raise ConfigError(f"{context}: expected {what}, got {value!r}")
        return value

    return _parse


def _integer(least: int, most: float = np.inf):
    """Parser of an integer from ``least`` to ``most`` (true and false are not integers)."""
    return _parser(
        lambda v: isinstance(v, int) and not isinstance(v, bool) and least <= v <= most,
        f"an integer >= {least}" + (f" and <= {most}" if most < np.inf else ""),
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
    """An expression string, or a finite number as its exact ``repr``, so one path evaluates both.

    :func:`_check_on_geometry` parses it over the names its key allows on the
    geometry (no ``y`` on a circle, no ``t`` in a weight).
    """
    return value if isinstance(value, str) else repr(_finite_real(value, context))


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
    # the every-sample growth bound under its backward-uniqueness name
    "vanishing-order": (
        lambda traj, trace, op, tol, entry: (
            check_hadamard_bound(trace, tol).renamed("vanishing-order")
        ),
        _TOL,
    ),
}

# key tables: key -> parser of a required key, or (parser, default) of an
# optional one; the "kind" of an object (a check entry's "name") picks its table
_nodes = _integer(4, MAX_VALUES)
GEOMETRY_KEYS = {
    CIRCLE: {"nodes": _nodes, "length": _finite_real, "phi": (_expression, "0.0")},
    TORUS: {
        "nx": _nodes, "ny": _nodes, "lx": _finite_real, "ly": _finite_real,
        "phi": (_expression, "0.0"), "psi": (_expression, "0.0"),
    },
    GAUSS_LINE: {"order": _integer(4, MAX_DENSE_NODES)},
}
TIME_KEYS = {"a": _finite_real, "b": _finite_real, "steps": _integer(1, MAX_VALUES)}
INITIAL_KEYS = {
    "expression": {"expression": _expressions},
    "eigenmode": {"index": (_integer(0), 0)},
    "random": {
        "seed": _integer(0), "max_mode": (_integer(0), 4),
        "components": (_integer(1, MAX_VALUES), 1),
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
read_check = _variant(CHECK_KEYS, "name")
CONFIG_KEYS = {
    "geometry": _read_geometry, "initial": _read_initial, "time": _time,
    "integrator": (_integrator, "spectral-exact"),
    "perturbation": (_table(PERTURBATION_KEYS), None), "gauge": (_expression, None),
    "checks": (_list_of(read_check), []), "output": (_string, None),
}
SWEEP_ENTRY_KEYS = {"name": _run_name, "overrides": (_object, {})}
SWEEP_KEYS = {"base": _object, "sweep": _list_of(_table(SWEEP_ENTRY_KEYS), nonempty=True)}


def _axis_nodes(geometry: dict) -> list:
    """The node count along each axis of a read geometry spec."""
    return [geometry[key] for key in ("nodes", "nx", "ny", "order") if key in geometry]


def _values(spec: dict) -> int:
    """The doubles of a read config's trajectory: (steps + 1) x nodes x components."""
    initial = spec["initial"]
    # an expression list is never empty; eigenmode data have one component
    components = len(initial.get("expression", ())) or initial.get("components", 1)
    return (spec["time"]["steps"] + 1) * math.prod(_axis_nodes(spec["geometry"])) * components


def _check_b_length(b: list, dim: int) -> None:
    if len(b) != dim:
        raise ConfigError(
            f"perturbation.b: expected {dim} component expression(s), got {b!r}"
        )


def _check_on_geometry(spec: dict) -> None:
    """The checks of a read config that need its geometry's kind and sizes, not its arrays.

    Each expression is parsed over the names its key allows: the coordinates
    in ``phi``, ``psi`` and initial data, the coordinates and ``t`` in ``b``
    and ``c``, and ``t`` alone in ``bound`` and ``gauge``.  ``b`` has one
    expression per coordinate, an ``eigenmode`` index is below the node
    count, and ``max_mode`` is at most the smallest axis node count (higher
    modes only alias).
    """
    geometry, initial = spec["geometry"], spec["initial"]
    perturbation = spec["perturbation"] or {}
    space = COORDINATES[: 2 if geometry["kind"] == TORUS else 1]
    expressions = [
        ("geometry.phi", geometry.get("phi"), space),
        ("geometry.psi", geometry.get("psi"), space),
        *((f"initial.expression[{i}]", text, space)
          for i, text in enumerate(initial.get("expression", ()))),
        *((f"perturbation.b[{i}]", text, space + ("t",))
          for i, text in enumerate(perturbation.get("b") or ())),
        ("perturbation.c", perturbation.get("c"), space + ("t",)),
        ("perturbation.bound", perturbation.get("bound"), ("t",)),
        ("gauge", spec["gauge"], ("t",)),
    ]
    for context, text, names in expressions:
        if text is not None:
            try:
                compile_expression(text, names)
            except ConfigError as exc:
                raise ConfigError(f"{context}: {exc}") from None
    if perturbation.get("b") is not None:
        _check_b_length(perturbation["b"], len(space))
    nodes = math.prod(_axis_nodes(geometry))
    if initial["kind"] == "eigenmode" and initial["index"] >= nodes:
        raise ConfigError(
            f"initial.index: expected an integer below the node count {nodes}, "
            f"got {initial['index']}"
        )
    axis_nodes = min(_axis_nodes(geometry))
    if initial["kind"] == "random" and initial["max_mode"] > axis_nodes:
        raise ConfigError(
            f"initial.max_mode: expected at most {axis_nodes}, the smallest axis node "
            f"count, got {initial['max_mode']}"
        )


def run_trace_checks(entries, traj, trace, op, tol_scale: float) -> list:
    """Run check entries, as :func:`read_check` returns them, on one traced flow, in order.

    Returns ``(tol, report)`` per entry, ``tol`` being the entry's ``tol``
    times ``tol_scale``, or the trace's provenance-aware default.
    """
    out = []
    for entry in entries:
        tol = entry["tol"]
        tol = default_tolerance(trace, tol_scale) if tol is None else tol * tol_scale
        out.append((tol, TRACE_CHECKS[entry["name"]][0](traj, trace, op, tol, entry)))
    return out


def build_geometry(spec: dict) -> WeightedGeometry:
    spec = _read_geometry(spec, "geometry")
    if spec["kind"] == GAUSS_LINE:
        return make_gauss_line(spec["order"])
    if spec["kind"] == CIRCLE:
        coords = periodic_coords((spec["nodes"],), (spec["length"],))
        return make_circle(spec["nodes"], spec["length"], evaluate_on_grid(spec["phi"], coords))
    coords = periodic_coords((spec["nx"], spec["ny"]), (spec["lx"], spec["ly"]))
    phi, psi = (evaluate_on_grid(spec[key], coords) for key in ("phi", "psi"))
    return make_torus(spec["nx"], spec["ny"], spec["lx"], spec["ly"], phi, psi)


def build_time(spec: dict) -> TimeGrid:
    return TimeGrid(**_time(spec, "time"))


def build_initial(spec: dict, geometry: WeightedGeometry, op: DriftOperator) -> Field:
    spec = _read_initial(spec, "initial")
    if spec["kind"] == "expression":
        values = [evaluate_on_grid(e, geometry.coords) for e in spec["expression"]]
        return Field(geometry, np.column_stack(values))
    if spec["kind"] == "eigenmode":
        return eigenpairs(op, spec["index"] + 1)[spec["index"]].eigenfield
    rng = np.random.default_rng(spec["seed"])
    return random_smooth_field(
        geometry, rng, spec["max_mode"], spec["components"], spec["zero_mean"]
    )


def _over_times(text: str, times: np.ndarray) -> np.ndarray:
    """An expression in t alone, evaluated once over the sample times."""
    out = np.empty(times.size)
    out[:] = compile_expression(text, ("t",))(t=times)
    return out


def build_perturbation(
    spec: dict, geometry: WeightedGeometry, grid: TimeGrid
) -> PerturbationSpec:
    """Sample a perturbation's expressions on the grid; construction certifies it.

    Each ``b`` component and ``c`` is evaluated once over the whole (samples,
    nodes) grid, in bounded chunks of time rows, straight into the arrays the
    spec keeps, and ``bound`` once over the sample times.
    """
    spec = _read(spec, PERTURBATION_KEYS, "perturbation")
    times, coords = grid.times, geometry.coords
    b = c = bound = None
    if spec["b"] is not None:
        _check_b_length(spec["b"], geometry.dim)
        b = np.empty((times.size, geometry.node_count, geometry.dim))
        for i, part in enumerate(spec["b"]):
            evaluate_on_grid(part, coords, times, out=b[:, :, i])
    if spec["c"] is not None:
        c = evaluate_on_grid(spec["c"], coords, times)
    if spec["bound"] is not None:
        bound = _over_times(spec["bound"], times)
    return PerturbationSpec(
        geometry=geometry, grid=grid, b=b, c=c, bound=bound, gradient_only=spec["gradient_only"]
    )


def build_gauge(spec, grid: TimeGrid) -> np.ndarray:
    """The gauge rate lambda(t) at the sample times of ``grid``."""
    return _over_times(_expression(spec, "gauge"), grid.times)


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
        values = _values(spec)
        if values > MAX_VALUES:
            raise ConfigError(
                f"config: the trajectory would hold {values} values ((steps + 1) x nodes x "
                f"components); the limit is {MAX_VALUES}"
            )
        _check_on_geometry(spec)
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
        if runs[name].output is not None:
            raise ConfigError(
                f"sweep entry {name!r}: config.output: a sweep writes each entry to "
                f"<out>/{name}/, so 'output' is not allowed"
            )
    return runs


def load_json(path):
    """Parse a JSON config file; a missing or malformed file is a ConfigError."""
    try:
        return json.loads(Path(path).read_text())
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from None
