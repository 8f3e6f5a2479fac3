import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from parafreq import TimeGrid, assemble, eigenpairs, weighted_inner
from parafreq.config import (
    CHECK_KEYS,
    CONFIG_KEYS,
    GEOMETRY_KEYS,
    INITIAL_KEYS,
    PERTURBATION_KEYS,
    SWEEP_ENTRY_KEYS,
    SWEEP_KEYS,
    TIME_KEYS,
    TRACE_CHECKS,
    ExperimentConfig,
    build_gauge,
    build_geometry,
    build_initial,
    build_perturbation,
    build_time,
    sweep_configs,
)
from parafreq.errors import ConfigError, ExpressionError, ParafreqError
from parafreq.expressions import compile_expression, evaluate_on_nodes

TWO_PI = 2.0 * np.pi
README = Path(__file__).resolve().parent.parent / "README.md"


def _required_and_optional(table: dict) -> tuple[list, list]:
    """A key table's required keys (bare parsers) and optional ones ((parser, default) pairs)."""
    return (
        [key for key, rule in table.items() if not isinstance(rule, tuple)],
        [key for key, rule in table.items() if isinstance(rule, tuple)],
    )


class TestReadmeSchema:
    def readme_rows(self) -> dict:
        """(object, kind or check name) -> the required and optional keys README lists."""
        text = README.read_text()
        lines = text[text.index("| object | required keys |"):].splitlines()[2:]
        rows = {}
        for line in lines[: lines.index("")]:
            label, required, optional = (cell.strip() for cell in line.strip("|").split("|"))
            keys = (re.findall(r"`([^`]+)`", required), re.findall(r"`([^`]+)`", optional))
            for tag in re.findall(r"`([^`]+)`", label) or [None]:
                rows[label.split(",")[0], tag] = keys
        return rows

    def test_readme_lists_every_key_table(self):
        tables = {
            ("config", None): CONFIG_KEYS, ("time", None): TIME_KEYS,
            ("perturbation", None): PERTURBATION_KEYS, ("sweep file", None): SWEEP_KEYS,
            ("sweep entry", None): SWEEP_ENTRY_KEYS,
            **{("geometry", kind): keys for kind, keys in GEOMETRY_KEYS.items()},
            **{("initial", kind): keys for kind, keys in INITIAL_KEYS.items()},
            **{("check entry", name): keys for name, keys in CHECK_KEYS.items()},
        }
        expected = {row: _required_and_optional(keys) for row, keys in tables.items()}
        assert self.readme_rows() == expected


class TestExpressions:
    def test_arithmetic_matches_numpy(self):
        fn = compile_expression("0.3*sin(2*x) + cos(x)**2 - exp(-x/2)", ("x",))
        x = np.linspace(-2.0, 5.0, 40)
        expected = 0.3 * np.sin(2 * x) + np.cos(x) ** 2 - np.exp(-x / 2)
        assert np.max(np.abs(fn(x=x) - expected)) < 1e-14

    def test_pi_constant(self):
        fn = compile_expression("sin(pi/2)", ())
        assert abs(fn() - 1.0) < 1e-15

    def test_unknown_name_reports_position(self):
        with pytest.raises(ExpressionError) as err:
            compile_expression("sin(x) + q", ("x",))
        assert "q" in str(err.value)
        assert err.value.position == 9

    def test_syntax_error_reports_position(self):
        with pytest.raises(ExpressionError) as err:
            compile_expression("sin(x", ("x",))
        assert err.value.position is not None

    def test_attribute_access_rejected(self):
        with pytest.raises(ExpressionError):
            compile_expression("x.__class__", ("x",))

    def test_call_of_unknown_function_rejected(self):
        with pytest.raises(ExpressionError):
            compile_expression("open(x)", ("x",))

    def test_non_finite_value_rejected(self):
        fn = compile_expression("1/x", ("x",))
        with pytest.raises(ExpressionError):
            fn(x=np.array([0.0, 1.0]))

    def test_evaluate_on_nodes_with_time(self):
        coords = np.linspace(0.0, 1.0, 5)[:, None]
        values = evaluate_on_nodes("x*t", coords, t=2.0)
        assert np.max(np.abs(values - 2.0 * coords[:, 0])) < 1e-15


class TestGeometryConfig:
    def test_circle_with_expression_weight(self):
        geom = build_geometry(
            {"kind": "circle", "nodes": 64, "length": TWO_PI, "phi": "cos(x)"}
        )
        assert geom.node_count == 64
        assert np.max(np.abs(geom.phi - np.cos(geom.coords[:, 0]))) < 1e-14

    def test_torus_round_trip(self):
        spec = {
            "kind": "torus2d", "nx": 8, "ny": 8, "lx": TWO_PI, "ly": TWO_PI,
            "phi": "0.2*sin(x)*cos(y)", "psi": 0.1,
        }
        geom = build_geometry(spec)
        assert geom.dim == 2
        assert np.allclose(geom.psi, 0.1)

    def test_gauss_line(self):
        geom = build_geometry({"kind": "gauss-line", "order": 16})
        assert geom.node_count == 16

    def test_missing_field(self):
        with pytest.raises(ConfigError) as err:
            build_geometry({"kind": "circle", "nodes": 64})
        assert "length" in str(err.value)

    def test_unknown_kind(self):
        with pytest.raises(ConfigError):
            build_geometry({"kind": "klein-bottle"})


class TestInitialConfig:
    def test_expression_field(self, flat_circle, flat_circle_op):
        fld = build_initial(
            {"kind": "expression", "expression": "sin(x)+sin(2*x)"},
            flat_circle, flat_circle_op,
        )
        assert abs(weighted_inner(fld, fld) - TWO_PI) < 1e-10

    def test_vector_expression_field(self, flat_circle, flat_circle_op):
        fld = build_initial(
            {"kind": "expression", "expression": ["sin(x)", "cos(x)"]},
            flat_circle, flat_circle_op,
        )
        assert fld.components == 2

    def test_eigenmode_field(self, flat_circle, flat_circle_op):
        fld = build_initial({"kind": "eigenmode", "index": 1}, flat_circle, flat_circle_op)
        pair = eigenpairs(flat_circle_op, 2)[1]
        lhs = flat_circle_op.apply(fld).values
        assert np.max(np.abs(lhs - pair.eigenvalue * fld.values)) < 1e-8

    def test_random_requires_seed(self, flat_circle, flat_circle_op):
        with pytest.raises(ConfigError):
            build_initial({"kind": "random"}, flat_circle, flat_circle_op)

    def test_random_is_reproducible(self, flat_circle, flat_circle_op):
        a = build_initial({"kind": "random", "seed": 7}, flat_circle, flat_circle_op)
        b = build_initial({"kind": "random", "seed": 7}, flat_circle, flat_circle_op)
        assert np.array_equal(a.values, b.values)


class TestExperimentConfig:
    def base(self):
        return {
            "geometry": {"kind": "circle", "nodes": 32, "length": TWO_PI},
            "initial": {"kind": "expression", "expression": "sin(x)"},
            "time": {"a": 0.0, "b": 1.0, "steps": 20},
            "checks": [{"name": "u-monotone"}],
        }

    def test_valid_config(self):
        config = ExperimentConfig.from_dict(self.base())
        assert config.integrator == "spectral-exact"

    def test_time_validation(self):
        raw = self.base()
        raw["time"]["steps"] = 0
        with pytest.raises(ConfigError) as err:
            build_time(raw["time"])
        assert "steps" in str(err.value)

    def test_unknown_check_rejected(self):
        raw = self.base()
        raw["checks"] = [{"name": "entropy"}]
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict(raw)

    def test_perturbation_needs_implicit(self):
        raw = self.base()
        raw["perturbation"] = {"b": "0.1", "bound": 0.1}
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict(raw)

    def test_perturbation_built_from_expressions(self, flat_circle):
        grid = TimeGrid(0.0, 1.0, 10)
        pert = build_perturbation(
            {"b": ["0.2*sin(x)*cos(t)"], "c": "0.1", "bound": "0.3"},
            flat_circle, grid,
        )
        assert pert.b.shape == (11, flat_circle.node_count, 1)
        assert np.allclose(pert.c, 0.1)
        assert np.allclose(pert.bound, 0.3)


# hypothesis documents: configs that are mostly well formed, with junk values,
# dropped keys and stray keys mixed in.  Integers stay in -2..16 and lists stay
# short, so no example builds more than a 16 x 16 torus or 17 time samples.


def _usually(good, bad, odds: int = 30):
    """``good``, or about one time in ``odds`` ``bad`` (hypothesis favours drawing 0)."""
    return st.integers(0, odds - 1).flatmap(lambda r: bad if r == odds - 1 else good)


_EXTREME_FLOATS = st.sampled_from(
    [5e-324, 1e-300, 1e-160, 1e-8, 1e8, 1e160, 1e300, 1.7976931348623157e308]
)
_FLOATS = _usually(st.sampled_from([0.5, 1.0, 2.0, TWO_PI]), st.floats() | _EXTREME_FLOATS, 4)
_INTS = _usually(st.integers(4, 16), st.integers(-2, 3), 6)
_EXPRESSIONS = _usually(
    st.sampled_from(["sin(x)", "0.3*cos(x)*sin(y)", "x*t", "0*x", "pi*y", "cos(t)"]),
    st.sampled_from(["exp(800*x)", "1/x", "1e308*1e10", "-800+0*x", "sin(x", "q", "x.y", ""]),
    4,
)
_EXPR_OR_NUMBER = st.one_of(_EXPRESSIONS, _FLOATS)
_EXPR_LIST = st.one_of(_EXPRESSIONS, st.lists(_EXPR_OR_NUMBER, max_size=3))
_JUNK = st.recursive(
    st.one_of(st.none(), st.booleans(), _INTS, _FLOATS, _EXPRESSIONS, st.text(max_size=4)),
    lambda inner: st.one_of(
        st.lists(inner, max_size=3), st.dictionaries(st.text(max_size=4), inner, max_size=3)
    ),
    max_leaves=6,
)


def _mostly(good):
    return _usually(good, _JUNK)


def _obj(required, optional=None):
    """An object with the required keys and any of the optional ones, values mostly
    well typed; now and then its first key is dropped or a stray key is added."""
    fixed = st.fixed_dictionaries(
        {k: _mostly(v) for k, v in required.items()},
        optional={k: _mostly(v) for k, v in (optional or {}).items()},
    )

    def mutate(obj, roll):  # the top rolls, which hypothesis draws least often
        if roll == 39 and obj:
            return dict(list(obj.items())[1:])
        return {**obj, "stray": 0} if roll == 38 else obj

    return _mostly(st.builds(mutate, fixed, st.integers(0, 39)))


_GEOMETRY = st.one_of(
    _obj({"kind": st.just("circle"), "nodes": _INTS, "length": _FLOATS}, {"phi": _EXPR_OR_NUMBER}),
    _obj(
        {"kind": st.just("torus2d"), "nx": _INTS, "ny": _INTS, "lx": _FLOATS, "ly": _FLOATS},
        {"phi": _EXPR_OR_NUMBER, "psi": _EXPR_OR_NUMBER},
    ),
    _obj({"kind": st.just("gauss-line"), "order": _INTS}),
)
_INITIAL = st.one_of(
    _obj({"kind": st.just("expression"), "expression": _EXPR_LIST}),
    _obj({"kind": st.just("eigenmode")}, {"index": _INTS}),
    _obj(
        {"kind": st.just("random"), "seed": _INTS},
        {"max_mode": _INTS, "components": st.integers(-1, 3), "zero_mean": st.booleans()},
    ),
)
_CHECK = st.sampled_from(list(TRACE_CHECKS)).flatmap(
    lambda name: _obj({"name": st.just(name)}, {"tol": _FLOATS, "bound": _FLOATS, "rate": _FLOATS})
)
DOCUMENTS = _obj(
    {
        "geometry": _GEOMETRY,
        "initial": _INITIAL,
        "time": _obj({
            "a": _usually(st.just(0.0), _FLOATS, 3), "b": _FLOATS,
            "steps": _usually(st.integers(1, 16), st.integers(-2, 0), 10),
        }),
    },
    {
        "integrator": st.sampled_from(["spectral-exact", "implicit-step"]),
        "perturbation": _obj(
            {}, {"b": _EXPR_LIST, "c": _EXPR_OR_NUMBER, "bound": _EXPR_OR_NUMBER,
                 "gradient_only": st.booleans()},
        ),
        "gauge": _EXPR_OR_NUMBER,
        "checks": st.lists(_CHECK, max_size=3),
        "output": st.text(max_size=4),
    },
)


def _build(raw):
    """Load a document and run every builder on it, as ``simulate`` does before evolving."""
    config = ExperimentConfig.from_dict(raw)
    geometry = build_geometry(config.geometry)
    op = assemble(geometry)
    assert np.all(np.isfinite(op.matrix.data))
    grid = build_time(config.time)
    build_initial(config.initial, geometry, op)
    if config.perturbation is not None:
        build_perturbation(config.perturbation, geometry, grid)
    if config.gauge is not None:
        build_gauge(config.gauge).sample(grid.times)


class TestConfigFuzz:
    @given(raw=DOCUMENTS)
    @settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_documents_load_and_build_or_raise_package_errors(self, raw):
        try:
            _build(raw)
        except ParafreqError:
            pass

    @given(
        base=DOCUMENTS,
        entries=st.lists(
            _obj(
                {"name": st.text(max_size=3)},
                {"overrides": st.dictionaries(
                    st.sampled_from(["geometry.nodes", "initial.index", "time", "a.b.c"]), _JUNK,
                    max_size=2,
                )},
            ),
            max_size=3,
        ),
    )
    @settings(max_examples=200, deadline=None)
    def test_sweep_files_load_or_raise_config_errors(self, base, entries):
        try:
            sweep_configs({"base": base, "sweep": entries})
        except ConfigError:
            pass
