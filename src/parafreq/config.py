"""Experiment configuration: schema validation and object construction.

A config is one JSON document (see README for the schema).  Weight exponents,
initial data, perturbation coefficients, and the gauge rate are expression
strings over the coordinate names ``x``, ``y`` and time ``t``; randomized
descriptors must carry a seed so runs stay reproducible.
"""

from __future__ import annotations

import copy
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .core import CIRCLE, GAUSS_LINE, TORUS, Field, TimeGrid, WeightedGeometry
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

# config check name -> check(traj, trace, op, tol, entry); ``tol`` is resolved
# by run_trace_checks, ``entry`` is the config entry with its optional number keys
TRACE_CHECKS = {
    "u-monotone": lambda traj, trace, op, tol, entry: check_u_monotone(trace, tol),
    "log-convexity": lambda traj, trace, op, tol, entry: check_log_convexity(
        trace, tol / trace.dt**2
    ),
    "hadamard-bound": lambda traj, trace, op, tol, entry: check_hadamard_bound(trace, tol),
    "rigidity": lambda traj, trace, op, tol, entry: check_rigidity(traj, tol, op),
    "general-frequency": lambda traj, trace, op, tol, entry: check_general_frequency(
        trace, entry.get("bound"), tol
    ),
    "general-lower-bound": lambda traj, trace, op, tol, entry: check_general_lower_bound(
        trace, entry.get("bound"), tol
    ),
    "gradient-only": lambda traj, trace, op, tol, entry: check_gradient_only(
        trace, entry.get("bound"), tol
    ),
    "vanishing-order": lambda traj, trace, op, tol, entry: vanishing_order_surrogate(
        trace, float(entry.get("rate") or 0.0), tol
    ),
}


def check_tolerance(entry: dict, trace: FrequencyTrace, tol_scale: float) -> float:
    """The entry's ``tol`` times ``tol_scale``, or the trace's provenance-aware default."""
    tol = entry.get("tol")
    return default_tolerance(trace, tol_scale) if tol is None else float(tol) * tol_scale


def run_trace_checks(entries, traj, trace, op, tol_scale: float) -> list:
    """Run config check entries on one traced flow, in order."""
    return [
        TRACE_CHECKS[entry["name"]](traj, trace, op, check_tolerance(entry, trace, tol_scale), entry)
        for entry in entries
    ]


def _object(value, context: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(f"{context}: expected an object, got {value!r}")
    return value


def _require(mapping: dict, key: str, context: str):
    if key not in mapping:
        raise ConfigError(f"{context}: missing required field {key!r}")
    return mapping[key]


def _integer(value, context: str, least: int = 1) -> int:
    if not isinstance(value, int) or isinstance(value, bool) or value < least:
        raise ConfigError(f"{context}: expected an integer >= {least}, got {value!r}")
    return value


def _boolean(value, context: str) -> bool:
    if not isinstance(value, bool):
        raise ConfigError(f"{context}: expected true or false, got {value!r}")
    return value


def _finite_real(value, context: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not np.isfinite(value):
        raise ConfigError(f"{context}: expected a finite number, got {value!r}")
    return float(value)


def _node_values(spec, coords: np.ndarray, context: str) -> np.ndarray:
    """Per-node values from an expression string or a number."""
    if isinstance(spec, str):
        return evaluate_on_nodes(spec, coords)
    return np.full(coords.shape[0], _finite_real(spec, context))


def build_geometry(spec: dict) -> WeightedGeometry:
    from .core import make_circle, make_gauss_line, make_torus

    kind = _require(spec, "kind", "geometry")
    if kind == CIRCLE:
        nodes = _integer(_require(spec, "nodes", "geometry"), "geometry.nodes")
        length = _finite_real(_require(spec, "length", "geometry"), "geometry.length")
        base = make_circle(nodes, length)
        phi = _node_values(spec.get("phi", 0.0), base.coords, "geometry.phi")
        return make_circle(nodes, length, phi)
    if kind == TORUS:
        nx = _integer(_require(spec, "nx", "geometry"), "geometry.nx")
        ny = _integer(_require(spec, "ny", "geometry"), "geometry.ny")
        lx = _finite_real(_require(spec, "lx", "geometry"), "geometry.lx")
        ly = _finite_real(_require(spec, "ly", "geometry"), "geometry.ly")
        base = make_torus(nx, ny, lx, ly)
        phi = _node_values(spec.get("phi", 0.0), base.coords, "geometry.phi")
        psi = _node_values(spec.get("psi", 0.0), base.coords, "geometry.psi")
        return make_torus(nx, ny, lx, ly, phi, psi)
    if kind == GAUSS_LINE:
        order = _integer(_require(spec, "order", "geometry"), "geometry.order")
        return make_gauss_line(order)
    raise ConfigError(f"geometry: unknown kind {kind!r}")


def build_time(spec: dict) -> TimeGrid:
    a = _finite_real(_require(spec, "a", "time"), "time.a")
    b = _finite_real(_require(spec, "b", "time"), "time.b")
    steps = _integer(_require(spec, "steps", "time"), "time.steps")
    if a >= b:
        raise ConfigError("time: requires a < b")
    return TimeGrid(a, b, steps)


def build_initial(spec: dict, geometry: WeightedGeometry, op: DriftOperator) -> Field:
    kind = _require(spec, "kind", "initial")
    if kind == "expression":
        text = _require(spec, "expression", "initial")
        exprs = [text] if isinstance(text, str) else text
        if not isinstance(exprs, list) or not exprs:
            raise ConfigError("initial.expression: expected a string or a nonempty list")
        values = np.column_stack(
            [_node_values(e, geometry.coords, "initial.expression") for e in exprs]
        )
        return Field(geometry, values)
    if kind == "eigenmode":
        index = _integer(spec.get("index", 0), "initial.index", least=0)
        pairs = eigenpairs(op, index + 1)
        return pairs[index].eigenfield
    if kind == "random":
        if "seed" not in spec:
            raise ConfigError("initial: random descriptors require a seed")
        rng = np.random.default_rng(_integer(spec["seed"], "initial.seed", least=0))
        return random_smooth_field(
            geometry,
            rng,
            max_mode=_integer(spec.get("max_mode", 4), "initial.max_mode", least=0),
            components=_integer(spec.get("components", 1), "initial.components"),
            zero_mean=_boolean(spec.get("zero_mean", False), "initial.zero_mean"),
        )
    raise ConfigError(f"initial: unknown kind {kind!r}")


def _time_expression(text, context: str):
    """Compile an expression in t alone into a float-valued callable."""
    if isinstance(text, (int, float)) and not isinstance(text, bool):
        value = _finite_real(text, context)
        return lambda t: value
    fn = compile_expression(text, ("t",))
    return lambda t: float(fn(t=t))


def _space_time_expression(text, coords: np.ndarray, context: str):
    if isinstance(text, (int, float)) and not isinstance(text, bool):
        value = _finite_real(text, context)
        return lambda t: np.full(coords.shape[0], value)
    names = ("x", "y")[: coords.shape[1]] + ("t",)
    fn = compile_expression(text, names)
    env = {name: coords[:, i] for i, name in enumerate(names[:-1])}

    def sample(t):
        return np.broadcast_to(fn(**env, t=t), (coords.shape[0],)).astype(float)

    return sample


def build_perturbation(
    spec: dict, geometry: WeightedGeometry, grid: TimeGrid
) -> PerturbationSpec:
    b_spec = spec.get("b")
    c_spec = spec.get("c")
    b = None
    if b_spec is not None:
        if isinstance(b_spec, (str, int, float)):
            b_spec = [b_spec]
        if not isinstance(b_spec, list) or len(b_spec) != geometry.dim:
            raise ConfigError(
                f"perturbation.b: expected {geometry.dim} component expression(s), got {b_spec!r}"
            )
        samplers = [
            _space_time_expression(component, geometry.coords, "perturbation.b")
            for component in b_spec
        ]
        b = lambda t: np.column_stack([s(t) for s in samplers])
    c = None
    if c_spec is not None:
        c = _space_time_expression(c_spec, geometry.coords, "perturbation.c")
    bound = spec.get("bound")
    if bound is not None:
        bound = _time_expression(bound, "perturbation.bound")
    return PerturbationSpec.build(
        geometry,
        grid,
        b=b,
        c=c,
        bound=bound,
        gradient_only=_boolean(spec.get("gradient_only", False), "perturbation.gradient_only"),
    )


def build_gauge(spec, context: str = "gauge") -> GaugeSpec:
    return GaugeSpec(rate=_time_expression(spec, context))


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated experiment description (raw dict form plus accessors)."""

    geometry: dict
    initial: dict
    time: dict
    integrator: str
    checks: tuple[dict, ...]
    perturbation: dict | None = None
    gauge: object = None
    output: str | None = None

    @staticmethod
    def from_dict(raw: dict) -> "ExperimentConfig":
        if not isinstance(raw, dict):
            raise ConfigError("config root must be an object")
        geometry = _object(_require(raw, "geometry", "config"), "config.geometry")
        initial = _object(_require(raw, "initial", "config"), "config.initial")
        time = _object(_require(raw, "time", "config"), "config.time")
        integrator = raw.get("integrator", "spectral-exact")
        if integrator not in INTEGRATORS:
            raise ConfigError(
                f"config.integrator: expected one of {INTEGRATORS}, got {integrator!r}"
            )
        perturbation = raw.get("perturbation")
        if perturbation is not None:
            _object(perturbation, "config.perturbation")
            if integrator != "implicit-step":
                raise ConfigError("config: perturbations require the implicit-step integrator")
        output = raw.get("output")
        if output is not None and not isinstance(output, str):
            raise ConfigError(f"config.output: expected a directory path, got {output!r}")
        checks = raw.get("checks", [])
        if not isinstance(checks, list):
            raise ConfigError("config.checks must be a list")
        for i, entry in enumerate(checks):
            if not isinstance(entry, dict) or "name" not in entry:
                raise ConfigError("config.checks entries need a 'name'")
            if not isinstance(entry["name"], str) or entry["name"] not in TRACE_CHECKS:
                raise ConfigError(
                    f"config.checks: unknown check {entry['name']!r} "
                    f"(known: {', '.join(TRACE_CHECKS)})"
                )
            for key in ("tol", "bound", "rate"):
                if entry.get(key) is not None:
                    _finite_real(entry[key], f"config.checks[{i}].{key}")
        return ExperimentConfig(
            geometry=geometry,
            initial=initial,
            time=time,
            integrator=integrator,
            checks=tuple(checks),
            perturbation=perturbation,
            gauge=raw.get("gauge"),
            output=output,
        )

    @staticmethod
    def load(path) -> "ExperimentConfig":
        return ExperimentConfig.from_dict(load_json(path))


def sweep_configs(raw) -> dict[str, ExperimentConfig]:
    """Validate a sweep file into one config per entry name, in file order.

    The file has a ``base`` config and a ``sweep`` list of ``{name, overrides}``
    entries; each override key is a dotted path into the base.  A name names an
    output directory, so it must be a nonempty string with no path separator,
    other than ``.`` and ``..``, and unique.
    """
    raw = raw if isinstance(raw, dict) else {}
    base, entries = raw.get("base"), raw.get("sweep")
    if not isinstance(base, dict) or not isinstance(entries, list) or not entries:
        raise ConfigError("sweep configs need a 'base' object and a nonempty 'sweep' list")
    runs = {}
    for entry in entries:
        name = _object(entry, "sweep entry").get("name")
        if not isinstance(name, str) or name in ("", ".", "..") or set(name) & set("/\\\0"):
            raise ConfigError(
                f"sweep entry name {name!r}: expected a nonempty string with no path "
                "separator, other than '.' and '..'"
            )
        if name in runs:
            raise ConfigError(f"sweep entry name {name!r} is used twice")
        merged = copy.deepcopy(base)
        for key, value in _object(entry.get("overrides", {}), f"sweep {name!r} overrides").items():
            node = merged
            parts = key.split(".")
            for part in parts[:-1]:
                node = _object(node.setdefault(part, {}), f"sweep {name!r} override {key!r}")
            node[parts[-1]] = value
        runs[name] = ExperimentConfig.from_dict(merged)
    return runs


def load_json(path):
    """Parse a JSON config file; a missing or malformed file is a ConfigError."""
    try:
        return json.loads(Path(path).read_text())
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from None
