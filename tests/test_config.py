import functools
import re
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from parafreq import (
    PerturbationSpec, TimeGrid, assemble, core, eigenpairs, make_circle, weighted_inner,
)
from parafreq.config import (
    CHECK_KEYS,
    CONFIG_KEYS,
    GEOMETRY_KEYS,
    INITIAL_KEYS,
    MAX_VALUES,
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
from parafreq.errors import ConfigError, ExpressionError, InvalidInputError, ParafreqError
from parafreq.expressions import compile_expression, evaluate_on_grid

from conftest import peak_allocated

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

    @pytest.mark.parametrize("terms", [1500, 5000])  # too deep to check, and to parse
    def test_expression_nested_too_deeply_is_an_expression_error(self, terms):
        with pytest.raises(ExpressionError, match="expression is nested too deeply"):
            compile_expression("+".join(["0.001*x"] * terms), ("x",))

    def test_a_long_expression_keeps_its_text_but_echoes_a_part(self):
        text = "+".join(["0.001*x"] * 1500)
        with pytest.raises(ExpressionError) as err:
            compile_expression(text, ("x",))
        assert err.value.expression == text
        shown = repr(text[: ExpressionError.ECHOED])
        assert str(err.value).endswith(f"in expression {shown}... ({len(text)} characters)")

    def test_a_short_expression_is_echoed_whole(self):
        with pytest.raises(ExpressionError) as err:
            compile_expression("sin(x) + q", ("x",))
        assert str(err.value).endswith("in expression 'sin(x) + q'")

    def test_evaluation_nested_too_deeply_is_an_expression_error(self):
        levels = 300
        fn = compile_expression("+".join(["x"] * levels), ("x",))
        assert fn(x=np.ones(2)).tolist() == [levels, levels]
        frame, depth = sys._getframe(), 0
        while frame is not None:
            frame, depth = frame.f_back, depth + 1

        def call_below(frames):
            return fn(x=np.ones(2)) if frames == 0 else call_below(frames - 1)

        # the evaluator recurses once per level: called this close to the limit, it overflows
        with pytest.raises(ExpressionError, match="expression is nested too deeply"):
            call_below(sys.getrecursionlimit() - depth - levels // 2)

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

    @pytest.mark.parametrize(
        ("text", "expected"),
        [("2**-1*x", lambda x: 0.5 * x), ("x*2**64", lambda x: x * 2.0**64),
         ("x*10**30", lambda x: x * 1e30), ("(2**3 - 3**2)*x", lambda x: -x),
         ("x*2**-1074", lambda x: x * 2.0**-1074)],
    )
    def test_integer_literals_are_floats(self, text, expected):
        # int64 arithmetic would raise on 2**-1 and wrap 2**64 to 0
        x = np.array([1.0, -3.0, 0.25])
        assert np.array_equal(compile_expression(text, ("x",))(x=x), expected(x))

    @pytest.mark.parametrize("literal", ["1e400", "9" * 400, "2" + "0" * 309])
    def test_literal_too_large_for_a_float_rejected_at_compile(self, literal):
        with pytest.raises(ExpressionError, match="too large for a float") as err:
            compile_expression(f"x*{literal}", ("x",))
        assert err.value.position == 2

    @pytest.mark.parametrize("text", ["True*x", "x+False", "-True", "sin(False)"])
    def test_boolean_literal_rejected(self, text):
        with pytest.raises(ExpressionError, match="only numeric literals are allowed") as err:
            compile_expression(text, ("x",))
        assert err.value.position == text.index("True" if "True" in text else "False")

    def test_integer_power_overflow_is_non_finite(self):
        fn = compile_expression("10**400*x", ("x",))
        with pytest.raises(ExpressionError, match="non-finite"):
            fn(x=np.array([1.0]))

    @settings(max_examples=200, deadline=None)
    @given(
        base=st.integers(-(10**320), 10**320) | st.integers(-12, 12),
        exponent=st.integers(-(10**4), 10**4) | st.integers(-70, 70),
    )
    def test_integer_powers_match_float_arithmetic(self, base, exponent):
        x = np.array([1.0, -0.5])
        try:
            with np.errstate(all="ignore"):
                expected = np.power(float(base), float(exponent)) * x
        except OverflowError:  # the base itself is no float
            expected = None
        try:
            value = compile_expression(f"({base})**({exponent})*x", ("x",))(x=x)
        except ExpressionError:
            assert expected is None or not np.all(np.isfinite(expected))
        else:
            assert np.all(np.isfinite(value)) and np.array_equal(value, expected)

    def test_evaluate_on_grid_with_time(self):
        coords = np.linspace(0.0, 1.0, 5)[:, None]
        times = np.array([0.0, 0.5, 2.0])
        values = evaluate_on_grid("x*t", coords, times)
        assert values.shape == (3, 5)
        assert np.max(np.abs(values - times[:, None] * coords[:, 0])) < 1e-15


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

    @pytest.mark.parametrize(
        "initial",
        [{"kind": "random", "seed": 1, "components": 2},
         {"kind": "expression", "expression": ["sin(x)", "cos(x)"]}],
    )
    def test_size_cap_counts_samples_nodes_and_components(self, initial):
        raw = dict(self.base(), initial=initial)
        raw["time"]["steps"] = MAX_VALUES // (32 * 2) - 1
        ExperimentConfig.from_dict(raw)
        raw["time"]["steps"] += 1
        with pytest.raises(ConfigError, match=f"the limit is {MAX_VALUES}"):
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
    lambda name: _obj({"name": st.just(name)}, {"tol": _FLOATS, "bound": _FLOATS})
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
            {}, {"b": _EXPR_LIST, "c": _EXPR_OR_NUMBER, "bound": _EXPR_OR_NUMBER},
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
    assert np.all(np.isfinite(op.symmetric.data))
    grid = build_time(config.time)
    build_initial(config.initial, geometry, op)
    if config.perturbation is not None:
        build_perturbation(config.perturbation, geometry, grid)
    if config.gauge is not None:
        build_gauge(config.gauge, grid)


class TestConfigFuzz:
    @given(raw=DOCUMENTS)
    @settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_documents_load_and_build_or_raise_package_errors(self, raw):
        try:
            _build(raw)
        except ParafreqError:
            pass

    def test_random_data_on_a_torus_side_at_the_float_maximum(self):
        # found by the fuzz test above: 2 pi k y overflowed before its division by ly
        geometry = {"kind": "torus2d", "nx": 4, "ny": 10, "lx": 1.0, "ly": 1.7976931348623157e308}
        geom = build_geometry(geometry)
        fld = build_initial(ExperimentConfig.from_dict(
            {"geometry": geometry, "initial": {"kind": "random", "seed": 4},
             "time": {"a": 0.0, "b": 1.0, "steps": 4}}
        ).initial, geom, assemble(geom))
        assert np.all(np.isfinite(fld.values)) and abs(weighted_inner(fld, fld) - 1.0) < 1e-12

    def test_a_total_measure_beyond_the_float_range_is_refused(self):
        # every mu-norm of fields on this torus would overflow: lx * ly is beyond the float range
        geometry = {"kind": "torus2d", "nx": 4, "ny": 4, "lx": TWO_PI, "ly": 1.7976931348623157e308}
        with pytest.raises(InvalidInputError, match="total measure"):
            build_geometry(geometry)

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


# whole-grid sampling of perturbations and gauges: random expressions over the
# names a key allows, each compared bit for bit with a reference that evaluates
# one sample at a time


@functools.cache  # one strategy per set of names: building a recursive one is slow
def _expression_over(names: tuple) -> st.SearchStrategy:
    """Random expressions whose names are among ``names`` (plain numbers when empty)."""
    leaves = st.floats(-3.0, 3.0).map(repr) | st.integers(0, 3).map(str)
    if names:
        leaves = st.sampled_from(names) | leaves
    return st.recursive(
        leaves,
        lambda inner: st.one_of(
            st.tuples(inner, st.sampled_from("+-*/"), inner).map(lambda p: f"({p[0]}{p[1]}{p[2]})"),
            st.tuples(st.sampled_from(["sin", "cos", "exp"]), inner).map(lambda p: f"{p[0]}({p[1]})"),
            inner.map(lambda e: f"-{e}"),
            inner.map(lambda e: f"({e})**2"),
        ),
        max_leaves=8,
    )


def _space_time_expression(space: tuple) -> st.SearchStrategy:
    """An expression in the coordinates only, in t only, in both, or a plain number."""
    return st.sampled_from([space, ("t",), space + ("t",), ()]).flatmap(_expression_over)


_SAMPLED_GEOMETRIES = st.one_of(
    st.builds(lambda n: {"kind": "circle", "nodes": n, "length": TWO_PI}, st.integers(4, 12)),
    st.builds(
        lambda nx, ny: {"kind": "torus2d", "nx": nx, "ny": ny, "lx": TWO_PI, "ly": 3.0},
        st.integers(4, 8), st.integers(4, 8),
    ),
    st.builds(lambda n: {"kind": "gauss-line", "order": n}, st.integers(4, 10)),
)


def _per_sample(text: str, coords: np.ndarray):
    """``t -> per-node values`` of an expression, evaluated one sample at a time."""
    names = ("x", "y")[: coords.shape[1]]
    fn = compile_expression(text, names + ("t",))
    env = {name: coords[:, i] for i, name in enumerate(names)}
    return lambda t: np.broadcast_to(fn(**env, t=t), (coords.shape[0],)).astype(float)


def _over_times(fn, times: np.ndarray) -> np.ndarray:
    """``fn(t)`` stacked over ``times``, one sample at a time."""
    return np.stack([fn(t) for t in times])


def _per_sample_perturbation(spec: dict, geometry, grid) -> PerturbationSpec:
    """The perturbation of ``spec`` as sampled one time at a time."""
    b = c = bound = None
    if spec.get("b") is not None:
        parts = [_per_sample(part, geometry.coords) for part in spec["b"]]
        b = _over_times(lambda t: np.column_stack([part(t) for part in parts]), grid.times)
    if spec.get("c") is not None:
        c = _over_times(_per_sample(spec["c"], geometry.coords), grid.times)
    if spec.get("bound") is not None:
        fn = compile_expression(spec["bound"], ("t",))
        bound = _over_times(lambda t: float(fn(t=t)), grid.times)
    return PerturbationSpec(geometry, grid, b=b, c=c, bound=bound)


def _per_sample_gauge(text: str, grid):
    """The gauge rate of ``text`` as sampled one time at a time."""
    fn = compile_expression(text, ("t",))
    return _over_times(lambda t: float(fn(t=t)), grid.times)


def _outcome(build):
    """What ``build`` returns (a spec's arrays, or one array) as bytes, or the type of its error."""
    try:
        built = build()
    except ParafreqError as exc:
        return type(exc)
    if isinstance(built, np.ndarray):
        return built.tobytes()
    return [None if arr is None else arr.tobytes() for arr in (built.b, built.c, built.bound)]


class TestWholeGridSampling:
    @given(
        data=st.data(), geometry_spec=_SAMPLED_GEOMETRIES, steps=st.integers(1, 12),
        with_bound=st.booleans(),
    )
    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_whole_grid_matches_per_sample_bit_for_bit(
        self, data, geometry_spec, steps, with_bound
    ):
        geometry = build_geometry(geometry_spec)
        grid = TimeGrid(-0.5, 1.5, steps)
        space = ("x", "y")[: geometry.dim]
        spec = {
            "b": [data.draw(_space_time_expression(space)) for _ in space],
            "c": data.draw(_space_time_expression(space)),
        }
        if with_bound:  # a square, so only a certificate failure can reject it
            spec["bound"] = f"({data.draw(_expression_over(('t',)) | _expression_over(()))})**2"
        expected = _outcome(lambda: _per_sample_perturbation(spec, geometry, grid))
        assert _outcome(lambda: build_perturbation(spec, geometry, grid)) == expected
        gauge = data.draw(_expression_over(("t",)) | _expression_over(()))
        expected = _outcome(lambda: _per_sample_gauge(gauge, grid))
        assert _outcome(lambda: build_gauge(gauge, grid)) == expected

    def test_grid_just_over_one_chunk_matches_a_single_chunk(self, monkeypatch):
        geometry = make_circle(1024, TWO_PI)
        grid = TimeGrid(0.0, 1.0, core.CHUNK_VALUES // 1024)
        assert grid.times.size * geometry.node_count > core.CHUNK_VALUES
        assert len(list(core.row_chunks(grid.times.size, geometry.node_count))) == 2
        spec = {"b": ["0.3*sin(3*x+t)*exp(-t)"], "c": "0.2*cos(x)*sin(5*t)+0.1"}
        chunked = _outcome(lambda: build_perturbation(spec, geometry, grid))
        monkeypatch.setattr(core, "CHUNK_VALUES", 2 * core.CHUNK_VALUES)
        assert len(list(core.row_chunks(grid.times.size, geometry.node_count))) == 1
        assert _outcome(lambda: build_perturbation(spec, geometry, grid)) == chunked

    def test_peak_memory_is_the_arrays_plus_a_few_chunks(self):
        geometry = make_circle(4096, TWO_PI)
        grid = TimeGrid(0.0, 1.0, 2**22 // 4096)
        text = "0.1*sin(3*x+cos(t))*(1+0.5*sin(2*t))+0.05*cos(x*t)*exp(-t)-0.02*(x-t)**2"
        spec = {"b": [text], "c": text}
        pert, peak = peak_allocated(lambda: build_perturbation(spec, geometry, grid))
        arrays = pert.b.nbytes + pert.c.nbytes + pert.bound.nbytes
        assert pert.c.size >= 2**22
        assert peak < arrays + 4 * 8 * core.CHUNK_VALUES


class TestLoadChecks:
    """What needs only the geometry spec is checked when the config is loaded."""

    def base(self, **changes):
        raw = {
            "geometry": {"kind": "circle", "nodes": 16, "length": TWO_PI},
            "initial": {"kind": "expression", "expression": "sin(x)"},
            "time": {"a": 0.0, "b": 1.0, "steps": 10},
            "integrator": "implicit-step",
        }
        return {**raw, **changes}

    @pytest.mark.parametrize(
        ("changes", "context"),
        [
            ({"geometry": {"kind": "circle", "nodes": 16, "length": 1.0, "phi": "sin(y)"}},
             "geometry.phi"),
            ({"geometry": {"kind": "circle", "nodes": 16, "length": 1.0, "phi": "t"}},
             "geometry.phi"),
            ({"geometry": {"kind": "torus2d", "nx": 4, "ny": 4, "lx": 1.0, "ly": 1.0,
                           "psi": "x*t"}}, "geometry.psi"),
            ({"initial": {"kind": "expression", "expression": ["sin(x)", "cos(t)"]}},
             "initial.expression[1]"),
            ({"perturbation": {"b": ["sin(y)"]}}, "perturbation.b[0]"),
            ({"perturbation": {"c": "y*t"}}, "perturbation.c"),
            ({"perturbation": {"bound": "1+x"}}, "perturbation.bound"),
            ({"gauge": "sin(x)"}, "gauge"),
            ({"perturbation": {"b": ["x", "t"]}}, "perturbation.b"),
            ({"geometry": {"kind": "torus2d", "nx": 4, "ny": 5, "lx": 1.0, "ly": 1.0},
              "perturbation": {"b": "x"}}, "perturbation.b"),
            ({"initial": {"kind": "eigenmode", "index": 16}}, "initial.index"),
            ({"geometry": {"kind": "gauss-line", "order": 6},
              "initial": {"kind": "eigenmode", "index": 6}}, "initial.index"),
            ({"initial": {"kind": "random", "seed": 1, "max_mode": 17}}, "initial.max_mode"),
            ({"geometry": {"kind": "torus2d", "nx": 12, "ny": 5, "lx": 1.0, "ly": 1.0},
              "initial": {"kind": "random", "seed": 1, "max_mode": 6}}, "initial.max_mode"),
            ({"geometry": {"kind": "gauss-line", "order": 6},
              "initial": {"kind": "random", "seed": 1, "max_mode": 7}}, "initial.max_mode"),
        ],
    )
    def test_rejected_at_load_naming_the_key(self, changes, context):
        with pytest.raises(ConfigError, match=f"^{re.escape(context)}: "):
            ExperimentConfig.from_dict(self.base(**changes))

    @pytest.mark.parametrize(
        "changes",
        [
            {"geometry": {"kind": "torus2d", "nx": 4, "ny": 5, "lx": 1.0, "ly": 1.0,
                          "phi": "x*y", "psi": "pi*y"},
             "initial": {"kind": "expression", "expression": ["x", "y"]},
             "perturbation": {"b": ["x*t", "y"], "c": "t+y", "bound": "10+t"},
             "gauge": "0.1*t"},
            {"initial": {"kind": "eigenmode", "index": 15}},
        ],
    )
    def test_names_and_sizes_the_geometry_allows_load_and_build(self, changes):
        config = ExperimentConfig.from_dict(self.base(**changes))
        geometry = build_geometry(config.geometry)
        op = assemble(geometry)
        grid = build_time(config.time)
        build_initial(config.initial, geometry, op)
        if config.perturbation is not None:
            build_perturbation(config.perturbation, geometry, grid)
