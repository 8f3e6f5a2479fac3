import json
import os
import platform
import re
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse.linalg

from parafreq.caloric import poon_reports
from parafreq import cli, evolution
from parafreq.cli import main
from parafreq import (
    assemble,
    check_general_frequency,
    check_general_lower_bound,
    check_gradient_only,
    check_hadamard_bound,
    check_log_convexity,
    check_rigidity,
    check_u_monotone,
    evolve_exact,
    evolve_perturbed,
    frequency_trace,
)
from parafreq.config import (
    MAX_VALUES, TRACE_CHECKS, build_geometry, build_initial, build_perturbation, build_time,
)
from parafreq.core import MAX_GAUSS_ORDER
from parafreq.errors import InvalidInputError
from parafreq.operators import MAX_DENSE_NODES

from conftest import peak_allocated

TWO_PI = 2.0 * np.pi
README = Path(__file__).resolve().parent.parent / "README.md"


def write_config(path, raw):
    path.write_text(json.dumps(raw))
    return str(path)


def eigenmode_config():
    return {
        "geometry": {"kind": "circle", "nodes": 64, "length": TWO_PI},
        "initial": {"kind": "eigenmode", "index": 1},
        "time": {"a": 0.0, "b": 1.0, "steps": 50},
        "checks": [
            {"name": "u-monotone", "tol": 1e-10},
            {"name": "rigidity", "tol": 1e-9},
            {"name": "hadamard-bound", "tol": 1e-9},
        ],
    }


def gradient_only_config():
    return {
        "geometry": {"kind": "circle", "nodes": 64, "length": TWO_PI},
        "initial": {"kind": "expression", "expression": "sin(x)"},
        "time": {"a": 0.0, "b": 1.0, "steps": 100},
        "integrator": "implicit-step",
        "perturbation": {"b": ["0.5"], "bound": 0.5},
    }


class TestSimulate:
    def test_eigenmode_run_passes(self, tmp_path):
        config = write_config(tmp_path / "c.json", eigenmode_config())
        code = main(["--out", str(tmp_path / "out"), "simulate", "--config", config])
        assert code == 0
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["passed"] is True
        assert report["schema"] == "parafreq-report/1"
        trace = (tmp_path / "out" / "trace.csv").read_text().splitlines()
        assert trace[0] == "t,I,D,U"
        u_column = np.array([float(line.split(",")[3]) for line in trace[1:]])
        assert np.max(np.abs(u_column - u_column[0])) < 1e-10

    def test_two_mode_frequency_recorded(self, tmp_path):
        raw = eigenmode_config()
        raw["initial"] = {"kind": "expression", "expression": "sin(x)+sin(2*x)"}
        raw["geometry"]["nodes"] = 128
        config = write_config(tmp_path / "c.json", raw)
        code = main(["--out", str(tmp_path / "out"), "simulate", "--config", config])
        assert code == 0
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert abs(report["u_initial"] + 2.5) < 2e-3

    def test_invalid_steps_exits_1(self, tmp_path):
        raw = eigenmode_config()
        raw["time"]["steps"] = 0
        config = write_config(tmp_path / "c.json", raw)
        assert main(["--out", str(tmp_path / "out"), "simulate", "--config", config]) == 1

    def test_missing_config_exits_1(self, tmp_path):
        assert main(["simulate", "--config", str(tmp_path / "nope.json")]) == 1

    def test_failing_check_exits_2(self, tmp_path):
        raw = eigenmode_config()
        raw["initial"] = {"kind": "expression", "expression": "sin(x)+sin(2*x)"}
        # a two-mode flow is not rigid: force the rigidity check to fail by
        # demanding eigenmode behavior through an impossible tolerance
        raw["checks"] = [{"name": "rigidity", "tol": 1e-9}]
        config = write_config(tmp_path / "c.json", raw)
        code = main(["--out", str(tmp_path / "out"), "simulate", "--config", config])
        # non-rigid classification still passes; failing requires a real violation
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["checks"][0]["aux"]["is_eigenmode"] is False
        assert code == 0

    def test_convexity_violation_exits_2(self, tmp_path):
        raw = eigenmode_config()
        raw["initial"] = {"kind": "expression", "expression": "sin(x)+sin(2*x)"}
        # a linearly growing gauge rate subtracts t^2 from log I: concave
        raw["gauge"] = "t"
        raw["checks"] = [{"name": "log-convexity", "tol": 1e-10}]
        config = write_config(tmp_path / "c.json", raw)
        code = main(["--out", str(tmp_path / "out"), "simulate", "--config", config])
        assert code == 2

    def test_gauge_preserves_u_checks(self, tmp_path):
        # the scalar gauge factor cancels in U, so U-level checks still pass
        raw = eigenmode_config()
        raw["gauge"] = "0.5 + 0.2*sin(t)"
        raw["checks"] = [{"name": "u-monotone", "tol": 1e-10}]
        config = write_config(tmp_path / "c.json", raw)
        assert main(["--out", str(tmp_path / "out"), "simulate", "--config", config]) == 0
        trace = (tmp_path / "out" / "trace.csv").read_text().splitlines()
        u_column = np.array([float(line.split(",")[3]) for line in trace[1:]])
        assert np.max(np.abs(u_column - u_column[0])) < 1e-10

    def test_perturbed_run(self, tmp_path):
        raw = gradient_only_config()
        raw["checks"] = [
            {"name": "general-frequency", "bound": 0.5},
            {"name": "gradient-only", "bound": 0.5},
        ]
        config = write_config(tmp_path / "c.json", raw)
        assert main(["--out", str(tmp_path / "out"), "simulate", "--config", config]) == 0

    def test_deeply_nested_expression_exits_1(self, tmp_path, capsys):
        raw = eigenmode_config()
        raw["geometry"]["phi"] = "+".join(["0.001*x"] * 1500)
        config = write_config(tmp_path / "c.json", raw)
        code = main(["--out", str(tmp_path / "out"), "simulate", "--config", config])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("config error: geometry.phi: expression is nested too deeply")
        assert "Traceback" not in err and "RecursionError" not in err

    def test_a_long_expression_is_echoed_in_part(self, tmp_path, capsys):
        raw = eigenmode_config()
        raw["geometry"]["phi"] = "+".join(["0.001*x"] * 5000)
        config = write_config(tmp_path / "c.json", raw)
        code = main(["--out", str(tmp_path / "out"), "simulate", "--config", config])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("config error: geometry.phi: expression is nested too deeply")
        assert "... (39999 characters)" in err
        assert len(err) < 200

    def test_non_finite_perturbation_at_one_sample_exits_1(self, tmp_path, capsys):
        raw = gradient_only_config()
        raw["geometry"]["nodes"] = 16
        raw["time"]["steps"] = 10
        # infinite only at node x = 0 and sample t = 0.5
        raw["perturbation"] = {"c": "1/(x+(t-0.5)**2)"}
        config = write_config(tmp_path / "c.json", raw)
        code = main(["--out", str(tmp_path / "out"), "simulate", "--config", config])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("config error:")
        assert "expression produced non-finite values" in err
        assert not (tmp_path / "out" / "report.json").exists()

    def test_trajectory_csv_schema(self, tmp_path, monkeypatch):
        written = {}
        for name in ("write_trajectory_csv", "write_trace_csv"):
            def keep(path, data, name=name, write=getattr(cli, name)):
                written[name] = data
                write(path, data)
            monkeypatch.setattr(cli, name, keep)
        config = write_config(tmp_path / "c.json", eigenmode_config())
        main(["--out", str(tmp_path / "out"), "simulate", "--config", config])
        lines = (tmp_path / "out" / "trajectory.csv").read_text().splitlines()
        assert lines[0] == "t,node,component,value"
        assert len(lines) == 1 + 51 * 64
        # every value reads back to the exact bits of the flow's
        rows = np.loadtxt(tmp_path / "out" / "trajectory.csv", delimiter=",", skiprows=1)
        values = written["write_trajectory_csv"].values.transpose(0, 2, 1).ravel()
        assert (rows[:, 3].view(np.uint64) == values.view(np.uint64)).all()
        trace = written["write_trace_csv"]
        table = np.loadtxt(tmp_path / "out" / "trace.csv", delimiter=",", skiprows=1)
        expected = np.column_stack([trace.times, trace.I, trace.D, trace.U])
        assert (table.view(np.uint64) == expected.view(np.uint64)).all()

    def test_readme_config_example_passes(self, tmp_path):
        block = re.search(r"```json\n(.*?)```", README.read_text(), re.DOTALL).group(1)
        config = write_config(tmp_path / "c.json", json.loads(block))
        assert main(["--out", str(tmp_path / "out"), "simulate", "--config", config]) == 0

    def test_gauged_perturbed_flow_needs_an_explicit_bound(self, tmp_path, capsys):
        # gauging by lambda adds -lambda to the potential, which the perturbation's
        # certificate does not bound, so the gauged flow carries none
        raw = {
            "geometry": {"kind": "circle", "nodes": 128, "length": TWO_PI},
            "initial": {"kind": "expression", "expression": "sin(x)+0.5*cos(2*x)"},
            "time": {"a": 0.0, "b": 1.0, "steps": 200},
            "integrator": "implicit-step",
            "perturbation": {"b": "0.2*sin(x)"},
            "checks": [{"name": "general-lower-bound"}, {"name": "gradient-only"}],
        }

        def run(name, raw):
            config = write_config(tmp_path / f"{name}.json", raw)
            code = main(["--out", str(tmp_path / name), "simulate", "--config", config])
            return code, capsys.readouterr().err

        # b alone is gradient-only, and certified by its sup norm
        assert run("plain", raw) == (0, "")
        code, err = run("gauged", dict(raw, gauge="3.0"))
        assert code == 1
        assert err.startswith("error: no bound C(t)")
        # 3.2 bounds |b| <= 0.2 and |c - lambda| = 3
        explicit = dict(raw, gauge="3.0", checks=[{"name": "general-lower-bound", "bound": 3.2}])
        assert run("explicit", explicit) == (0, "")

    @pytest.mark.parametrize("c", ["-450", "-600"])
    def test_a_potential_past_the_edge_exits_1(self, tmp_path, capsys, c):
        # dt max(-c) = 2.25 and 3 on 200 steps: the explicit potential would amplify the flow
        raw = {
            "geometry": {"kind": "circle", "nodes": 128, "length": TWO_PI},
            "initial": {"kind": "expression", "expression": "sin(x)+0.5*cos(2*x)"},
            "time": {"a": 0.0, "b": 1.0, "steps": 200},
            "integrator": "implicit-step",
            "perturbation": {"c": c},
            "checks": [{"name": "general-lower-bound"}],
        }
        config = write_config(tmp_path / "c.json", raw)
        code = main(["--out", str(tmp_path / "out"), "simulate", "--config", config])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: dt max(-c) = ") and "steps or more" in err
        assert not (tmp_path / "out" / "report.json").exists()

    @pytest.mark.parametrize("where", ["perturbation", "checks"])
    def test_a_bound_whose_square_overflows_exits_1(self, tmp_path, capsys, where):
        # C = 1e200 is finite, but the checks square it, and C^2 overflows
        raw = {
            "geometry": {"kind": "circle", "nodes": 64, "length": TWO_PI},
            "initial": {"kind": "expression", "expression": "sin(x)+0.5*cos(2*x)"},
            "time": {"a": 0.0, "b": 1.0, "steps": 100},
            "integrator": "implicit-step",
            "perturbation": {"b": "0.2*sin(x)"},
            "checks": [{"name": name} for name in
                       ("general-frequency", "general-lower-bound", "gradient-only")],
        }
        if where == "perturbation":
            raw["perturbation"]["bound"] = "1e200"
        else:
            raw["checks"] = [dict(check, bound=1e200) for check in raw["checks"]]
        config = write_config(tmp_path / "c.json", raw)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["--out", str(tmp_path / "out"), "simulate", "--config", config])
        err = capsys.readouterr().err
        assert code == 1 and caught == []
        assert re.match(r"(config )?error: ", err) and "C(t)^2 finite" in err
        assert "Traceback" not in err

    def test_spectral_run_beyond_dense_limit_runs_on_krylov_modes(self, tmp_path):
        # a 128^2 torus has 4x the dense limit's nodes; its flow needs only a few modes
        raw = eigenmode_config()
        raw["geometry"] = {"kind": "torus2d", "nx": 128, "ny": 128, "lx": TWO_PI, "ly": TWO_PI}
        raw["initial"] = {"kind": "expression", "expression": "exp(cos(x))*sin(y)+0.5*cos(2*x+y)"}
        raw["time"]["steps"] = 2
        raw["checks"] = [{"name": "u-monotone", "tol": 1e-10}, {"name": "hadamard-bound"}]
        config = write_config(tmp_path / "c.json", raw)
        start = time.perf_counter()
        code = main(["--out", str(tmp_path / "out"), "simulate", "--config", config])
        assert code == 0
        assert time.perf_counter() - start < 5.0
        assert (tmp_path / "out" / "trace.csv").is_file()

    def test_small_window_beyond_dense_limit_runs_on_krylov_modes(self, tmp_path, monkeypatch):
        # a cap of 32 modes: the window's shift needs 16 here, the step's shift dt/2 needed 64
        monkeypatch.setattr(evolution, "MAX_VALUES", 32 * 8192)
        raw = spectral_config()
        raw["geometry"] = {"kind": "circle", "nodes": 8192, "length": TWO_PI, "phi": "cos(x)"}
        raw["initial"] = {"kind": "expression", "expression": "exp(cos(x))+sin(3*x)"}
        raw["time"] = {"a": 0.0, "b": 0.01, "steps": 200}
        raw["checks"] = [{"name": "u-monotone", "tol": 1e-10}, {"name": "hadamard-bound"}]
        config = write_config(tmp_path / "c.json", raw)
        code = main(["--out", str(tmp_path / "out"), "simulate", "--config", config])
        assert code == 0
        assert (tmp_path / "out" / "trace.csv").is_file()

    def test_unconverged_krylov_flow_exits_1(self, tmp_path, capsys, monkeypatch):
        # negative control: a cap of 16 modes, and random data up to mode 64 on 128 nodes
        monkeypatch.setattr(evolution, "MAX_VALUES", 16 * 128)
        raw = spectral_config()
        raw["initial"] = {"kind": "random", "seed": 5, "max_mode": 64}
        raw["checks"] = [{"name": "u-monotone"}]
        config = write_config(tmp_path / "c.json", raw)
        code = main(["--out", str(tmp_path / "out"), "simulate", "--config", config])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: the Krylov flow did not converge within 16 modes")
        assert not (tmp_path / "out" / "trace.csv").exists()

    def test_spectral_modes_follow_the_initial_data(self, tmp_path, monkeypatch):
        ops = []
        monkeypatch.setattr(
            cli, "assemble", lambda geometry: ops.append(assemble(geometry)) or ops[-1]
        )
        for name, raw in (("expression", spectral_config()), ("eigenmode", eigenmode_config())):
            config = write_config(tmp_path / f"{name}.json", raw)
            assert main(["--out", str(tmp_path / name), "simulate", "--config", config]) == 0
        # expression data never computes the eigensystem; eigenmode data does, and its flow uses it
        assert "eigensystem" not in vars(ops[0])
        assert "eigensystem" in vars(ops[1])
        raw = eigenmode_config()
        geometry = build_geometry(raw["geometry"])
        op = assemble(geometry)
        u0 = build_initial(raw["initial"], geometry, op)
        traj = evolve_exact(op, u0, build_time(raw["time"]))
        assert traj.modal.vectors is op.eigensystem[1]

    def test_determinism(self, tmp_path):
        config = write_config(tmp_path / "c.json", eigenmode_config())
        main(["--out", str(tmp_path / "a"), "--seed", "3", "simulate", "--config", config])
        main(["--out", str(tmp_path / "b"), "--seed", "3", "simulate", "--config", config])
        for name in ("report.json", "trace.csv", "trajectory.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_simulate_pins_the_malloc_thresholds(self, tmp_path, monkeypatch):
        # so that where a large buffer goes does not depend on what earlier buffers left in the heap
        if platform.libc_ver()[0] == "glibc":
            assert cli._mallopt is not None
        calls = []
        monkeypatch.setattr(cli, "_mallopt", lambda *args: calls.append(args))
        config = write_config(tmp_path / "c.json", eigenmode_config())
        assert main(["--out", str(tmp_path / "out"), "simulate", "--config", config]) == 0
        assert calls == [
            (cli._M_MMAP_THRESHOLD, 1 << 20),
            (cli._M_TRIM_THRESHOLD, 64 << 20),
        ]

    def test_simulate_trims_the_heap_when_it_returns(self, tmp_path, monkeypatch):
        # so that the pages a run freed do not stay resident for the next run to fragment
        if platform.libc_ver()[0] == "glibc":
            assert cli._malloc_trim is not None
        calls = []
        monkeypatch.setattr(cli, "_malloc_trim", lambda pad: calls.append(pad))
        config = write_config(tmp_path / "c.json", eigenmode_config())
        assert main(["--out", str(tmp_path / "out"), "simulate", "--config", config]) == 0
        assert calls == [0]
        raw = gradient_only_config()
        raw["perturbation"] = {"c": "1/(x+(t-0.5)**2)"}  # infinite at x = 0, t = 0.5: the run fails
        bad = write_config(tmp_path / "bad.json", raw)
        assert main(["--out", str(tmp_path / "bad"), "simulate", "--config", bad]) == 1
        assert calls == [0, 0]

    def test_runs_where_the_allocator_has_no_settings(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "_malloc_trim", None)
        monkeypatch.setattr(cli, "_mallopt", None)
        config = write_config(tmp_path / "c.json", eigenmode_config())
        assert main(["--out", str(tmp_path / "out"), "simulate", "--config", config]) == 0


def test_readme_python_examples_run():
    # the blocks run in order in one namespace of their own, as in a session
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.DOTALL)
    assert len(blocks) >= 2
    namespace = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)


def spectral_config():
    return {
        "geometry": {"kind": "circle", "nodes": 128, "length": TWO_PI, "phi": "0.3*cos(x)"},
        "initial": {"kind": "expression", "expression": "sin(x)+sin(2*x)+0.5*cos(3*x)"},
        "time": {"a": 0.0, "b": 1.0, "steps": 50},
        "integrator": "spectral-exact",
    }


def test_spectral_lower_bound_at_the_default_tolerance(tmp_path):
    # with C = 0 the gate is (log I)' >= 2U, an identity for drift flows that a
    # modal trace carries exactly, so it holds at the 1e-9 default
    raw = spectral_config()
    raw["checks"] = [{"name": "general-lower-bound", "bound": 0}]
    config = write_config(tmp_path / "c.json", raw)
    code = main(["--out", str(tmp_path / "out"), "simulate", "--config", config])
    check = json.loads((tmp_path / "out" / "report.json").read_text())["checks"][0]
    assert code == 0, f"margin {check['margin']:.3g} at tol {check['tolerance']:.3g}"
    assert check["margin"] == 0.0


# each config check as the Python API runs it, with tol=None
API_CHECKS = {
    "u-monotone": lambda traj, trace, op, C: check_u_monotone(trace),
    "log-convexity": lambda traj, trace, op, C: check_log_convexity(trace),
    "hadamard-bound": lambda traj, trace, op, C: check_hadamard_bound(trace),
    "rigidity": lambda traj, trace, op, C: check_rigidity(traj, None, op, trace),
    "general-frequency": lambda traj, trace, op, C: check_general_frequency(trace, C),
    "general-lower-bound": lambda traj, trace, op, C: check_general_lower_bound(trace, C),
    "gradient-only": lambda traj, trace, op, C: check_gradient_only(trace, C),
}


class TestOneToleranceRule:
    @pytest.mark.parametrize("integrator", ["spectral-exact", "implicit-step"])
    def test_simulate_and_the_api_default_alike(self, tmp_path, integrator):
        assert set(API_CHECKS) == set(TRACE_CHECKS)
        if integrator == "spectral-exact":
            # a spectral flow is no gradient-only perturbation: both reject that check
            raw, bound, names = spectral_config(), 0.0, set(TRACE_CHECKS) - {"gradient-only"}
        else:
            raw, bound, names = gradient_only_config(), None, set(TRACE_CHECKS)
        raw["checks"] = [
            {"name": name, "bound": bound} if "bound" in TRACE_CHECKS[name][1] else {"name": name}
            for name in sorted(names)
        ]
        config = write_config(tmp_path / "c.json", raw)
        main(["--out", str(tmp_path / "out"), "simulate", "--config", config])
        written = json.loads((tmp_path / "out" / "report.json").read_text())["checks"]

        geometry = build_geometry(raw["geometry"])
        op = assemble(geometry)
        grid = build_time(raw["time"])
        u0 = build_initial(raw["initial"], geometry, op)
        if integrator == "spectral-exact":
            traj = evolve_exact(op, u0, grid)
        else:
            traj = evolve_perturbed(op, u0, grid, build_perturbation(raw["perturbation"], geometry, grid))
        trace = frequency_trace(traj, op)
        assert len(written) == len(names)
        for name, check in zip(sorted(names), written):
            assert check["tolerance"] == API_CHECKS[name](traj, trace, op, bound).tolerance, name
        if integrator == "spectral-exact":
            with pytest.raises(InvalidInputError):
                API_CHECKS["gradient-only"](traj, trace, op, bound)

    @pytest.mark.parametrize("integrator", ["spectral-exact", "implicit-step"])
    def test_one_step_exits_1_at_load(self, tmp_path, capsys, integrator):
        # a trace needs three samples; one step used to end in a numpy traceback
        raw = gradient_only_config()
        del raw["perturbation"]
        raw["integrator"] = integrator
        raw["time"]["steps"] = 1
        raw["checks"] = [{"name": "u-monotone"}]
        config = write_config(tmp_path / "c.json", raw)
        code = main(["--out", str(tmp_path / "out"), "simulate", "--config", config])
        assert code == 1
        assert capsys.readouterr().err.startswith("config error: config.time.steps:")
        assert not (tmp_path / "out" / "report.json").exists()

    @pytest.mark.parametrize(
        ("b", "steps", "message"),
        [
            # dt = 2e299 used to overflow dt^2 in the stepped budget with a traceback
            (1e300, 5, "config error: config.time: requires a < b with b - a below 1e154"),
            # dt^2 = 2e307 is finite, 10 times it is not
            (9e153, 2, "error: the default tolerance inf is not finite"),
        ],
    )
    def test_overflowing_default_tolerance_exits_1(self, tmp_path, capsys, b, steps, message):
        raw = gradient_only_config()
        del raw["perturbation"]
        raw["time"] = {"a": 0.0, "b": b, "steps": steps}
        raw["checks"] = [{"name": "u-monotone"}]
        config = write_config(tmp_path / "c.json", raw)
        code = main(["--out", str(tmp_path / "out"), "simulate", "--config", config])
        assert code == 1
        assert capsys.readouterr().err.startswith(message)

    @pytest.mark.parametrize("integrator", ["spectral-exact", "implicit-step"])
    def test_underflowing_dt_squared_exits_1_at_load(self, tmp_path, capsys, integrator):
        # dt = 5e-303 squares to 0, and log-convexity's tol / dt^2 used to raise ZeroDivisionError
        raw = {
            "geometry": {"kind": "circle", "nodes": 16, "length": TWO_PI},
            "initial": {"kind": "expression", "expression": "sin(x) + 0.3"},
            "time": {"a": 0, "b": 1e-300, "steps": 200},
            "integrator": integrator,
            "checks": [{"name": "log-convexity"}],
        }
        config = write_config(tmp_path / "c.json", raw)
        code = main(["--out", str(tmp_path / "out"), "simulate", "--config", config])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err == (
            "config error: config.time: requires a < b with b - a below 1e154 and dt^2 above 0\n"
        )
        assert not (tmp_path / "out" / "report.json").exists()

    def test_overflowing_scaled_tolerance_exits_1(self, tmp_path, capsys):
        raw = eigenmode_config()
        raw["checks"] = [{"name": "u-monotone", "tol": 1e308}]
        config = write_config(tmp_path / "c.json", raw)
        argv = ["--out", str(tmp_path / "out"), "--tol-scale", "10", "simulate", "--config", config]
        assert main(argv) == 1
        assert capsys.readouterr().err.startswith("config error: check 'u-monotone'")
        assert not (tmp_path / "out" / "report.json").exists()


BOUND_CHECKS = ("general-frequency", "general-lower-bound", "gradient-only")


class TestCheckTable:
    @pytest.mark.parametrize("name", sorted(TRACE_CHECKS))
    def test_every_check_runs(self, tmp_path, name):
        raw = gradient_only_config() if name in BOUND_CHECKS else eigenmode_config()
        raw["checks"] = [{"name": name}]
        config = write_config(tmp_path / "c.json", raw)
        code = main(["--out", str(tmp_path / "out"), "simulate", "--config", config])
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert [c["check"] for c in report["checks"]] == [name]
        assert code == 0

    def test_the_backward_uniqueness_alias_is_gone(self, tmp_path, capsys):
        # the growth bound has one name; the former alias is an unknown check
        raw = eigenmode_config()
        raw["checks"] = [{"name": "vanishing-order"}]
        config = write_config(tmp_path / "c.json", raw)
        code = main(["--out", str(tmp_path / "out"), "simulate", "--config", config])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("config error:") and "'vanishing-order'" in err
        assert all(name in err for name in TRACE_CHECKS)
        assert len(TRACE_CHECKS) == 7
        assert not (tmp_path / "out" / "report.json").exists()

    def test_readme_lists_the_table(self):
        text = README.read_text()
        paragraph = text[text.index("Check names:"):]
        listed = re.findall(r"`([^`]+)`", paragraph[: paragraph.index(".")])
        assert listed == list(TRACE_CHECKS)

    @pytest.mark.parametrize(
        ("tol", "expected"), [(1e-30, 1e-30 * 5.0), (None, 1e-9 * 5.0)]
    )
    def test_hadamard_bound_scales_its_tolerance(self, tmp_path, tol, expected):
        raw = eigenmode_config()
        raw["checks"] = [{"name": "hadamard-bound", "tol": tol}]
        config = write_config(tmp_path / "c.json", raw)
        argv = ["--out", str(tmp_path / "out"), "--tol-scale", "5", "simulate", "--config", config]
        main(argv)
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["checks"][0]["tolerance"] == expected

    @pytest.mark.parametrize(
        "entry",
        [
            {"name": "u-monotone", "tol": "abc"},
            {"name": "u-monotone", "tol": True},
            {"name": "u-monotone", "tol": float("nan")},
            {"name": "general-frequency", "bound": "0.1*t"},
            {"name": "general-frequency", "bound": [1, 2]},
            {"name": "general-frequency", "bound": -1},
            {"name": "gradient-only", "bound": -1e-9},
            {"name": "hadamard-bound", "tol": "abc"},
            {"name": ["u-monotone"]},
        ],
    )
    def test_bad_entry_exits_1(self, tmp_path, capsys, entry):
        raw = eigenmode_config()
        raw["checks"] = [entry]
        config = write_config(tmp_path / "c.json", raw)
        code = main(["--out", str(tmp_path / "out"), "simulate", "--config", config])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err.startswith("config error:")
        assert "Traceback" not in captured.out + captured.err


def with_initial(**initial):
    return dict(eigenmode_config(), initial=initial)


def sweep_entry(**entry):
    return {"base": eigenmode_config(), "sweep": [{"name": "a", **entry}]}


class TestConfigFaults:
    @pytest.mark.parametrize(
        ("command", "raw"),
        [
            ("simulate", with_initial(kind="random", seed="abc")),
            ("simulate", with_initial(kind="random", seed=-1)),
            ("simulate", with_initial(kind="random", seed=1, components=0)),
            ("simulate", with_initial(kind="random", seed=1, max_mode="4")),
            ("simulate", with_initial(kind="expression", expression=5)),
            ("simulate", with_initial(kind="expression", expression=[])),
            ("simulate", with_initial(kind="eigenmode", index=True)),
            ("simulate", dict(gradient_only_config(), perturbation=[1])),
            ("simulate", dict(eigenmode_config(), output=5)),
            ("sweep", sweep_entry(overrides=[1])),
            ("sweep", sweep_entry(overrides={"geometry.nodes.x": 1})),
            ("simulate", with_initial(kind="random", seed=1, zero_mean="no")),
            ("simulate", with_initial(kind="random", seed=1, zero_mean=1)),
            ("simulate", dict(gradient_only_config(), perturbation={"b": ["0.5"], "c": True})),
            ("simulate", dict(gradient_only_config(), perturbation={"b": {"x": 1}})),
        ],
    )
    def test_bad_config_exits_1(self, tmp_path, capsys, monkeypatch, command, raw):
        monkeypatch.chdir(tmp_path)  # "output" is honoured only without --out
        config = write_config(tmp_path / "c.json", raw)
        code = main([command, "--config", config])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err.startswith("config error:")
        assert "Traceback" not in captured.out + captured.err


class TestGlobalOptions:
    @pytest.mark.parametrize(
        ("option", "value", "command"),
        [("--seed", "-1", ["check", "all"]), ("--tol-scale", "nan", ["poon"]),
         ("--tol-scale", "inf", ["poon"]), ("--tol-scale", "-1", ["poon"])],
    )
    def test_out_of_range_exits_1(self, tmp_path, capsys, option, value, command):
        code = main(["--out", str(tmp_path / "out"), option, value, *command])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err.startswith(f"config error: {option}: ")
        assert "Traceback" not in captured.out + captured.err
        assert not (tmp_path / "out").exists()


def sweep_of(base, *entries):
    return {"base": base, "sweep": list(entries)}


class TestUnknownKeys:
    @pytest.mark.parametrize(
        ("command", "raw", "key"),
        [
            ("simulate", dict(eigenmode_config(), integrater="implicit-step"), "integrater"),
            ("simulate", dict(eigenmode_config(), time={"a": 0.0, "b": 1.0, "stpes": 5}), "stpes"),
            ("simulate", dict(eigenmode_config(), geometry={
                "kind": "circle", "nodes": 64, "length": TWO_PI, "psi": "0.1"}), "psi"),
            ("simulate", dict(eigenmode_config(), geometry={
                "kind": "gauss-line", "order": 16, "phi": "x"}), "phi"),
            ("simulate", with_initial(kind="eigenmode", index=1, seed=3), "seed"),
            ("simulate", dict(eigenmode_config(), checks=[
                {"name": "u-monotone", "tolerance": 1e-30}]), "tolerance"),
            ("simulate", dict(eigenmode_config(), checks=[
                {"name": "u-monotone", "bound": 0.5}]), "bound"),
            ("simulate", dict(eigenmode_config(), checks=[
                {"name": "hadamard-bound", "rate": 1.0}]), "rate"),
            ("simulate", dict(gradient_only_config(), perturbation={
                "b": ["0.5"], "gradient-only": True}), "gradient-only"),
            ("sweep", sweep_of(eigenmode_config(), {
                "name": "a", "override": {"initial.index": 2}}), "override"),
            ("simulate", dict(eigenmode_config(), checks=[
                {"name": "hadamard-bound", "bound": 0.5}]), "bound"),
            ("simulate", dict(gradient_only_config(), perturbation={
                "b": ["0.5"], "gradient_only": True}), "gradient_only"),
        ],
    )
    def test_unknown_key_exits_1_naming_it(self, tmp_path, capsys, command, raw, key):
        config = write_config(tmp_path / "c.json", raw)
        code = main(["--out", str(tmp_path / "out"), command, "--config", config])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err.startswith("config error:")
        assert f"unknown key {key!r}" in captured.err
        assert "Traceback" not in captured.out + captured.err
        assert not (tmp_path / "out" / "report.json").exists()

    def test_null_means_omitted(self, tmp_path):
        raw = eigenmode_config()
        raw["initial"] = {"kind": "eigenmode", "index": None}
        raw["geometry"]["phi"] = None
        raw.update(integrator=None, gauge=None, perturbation=None, output=None)
        raw["checks"] = [{"name": "hadamard-bound", "tol": None}]
        config = write_config(tmp_path / "c.json", raw)
        assert main(["--out", str(tmp_path / "out"), "simulate", "--config", config]) == 0
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["integrator"] == "spectral-exact"
        assert report["checks"][0]["tolerance"] == 1e-9
        assert report["checks"][0]["check"] == "hadamard-bound"


def sized_config(key, value):
    """A 64-node, 50-step implicit-step config with ``key`` set to ``value``."""
    raw = dict(eigenmode_config(), integrator="implicit-step",
               initial={"kind": "expression", "expression": "sin(x)"})
    if key == "nx":
        raw["geometry"] = {"kind": "torus2d", "nx": value, "ny": 64, "lx": TWO_PI, "ly": TWO_PI}
    elif key == "order":
        raw["geometry"] = {"kind": "gauss-line", "order": value}
    elif key == "steps":
        raw["time"] = dict(raw["time"], steps=value)
    else:
        raw["geometry"] = dict(raw["geometry"], nodes=value)
    return raw


class TestLoadChecks:
    def test_huge_max_mode_exits_1_at_once(self, tmp_path, capsys):
        raw = with_initial(kind="random", seed=1, max_mode=10**6)
        raw["geometry"] = {"kind": "torus2d", "nx": 8, "ny": 8, "lx": TWO_PI, "ly": TWO_PI}
        raw["time"]["steps"] = 2
        config = write_config(tmp_path / "c.json", raw)
        start = time.perf_counter()
        code = main(["--out", str(tmp_path / "out"), "simulate", "--config", config])
        elapsed = time.perf_counter() - start
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("config error: initial.max_mode")
        assert elapsed < 0.25
        assert not (tmp_path / "out" / "report.json").exists()

    @pytest.mark.parametrize(
        ("geometry", "cap"),
        [
            ({"kind": "circle", "nodes": 8, "length": TWO_PI}, 8),
            ({"kind": "torus2d", "nx": 8, "ny": 6, "lx": TWO_PI, "ly": TWO_PI}, 6),
            ({"kind": "gauss-line", "order": 6}, 6),
        ],
    )
    def test_max_mode_at_its_cap_runs(self, tmp_path, geometry, cap):
        raw = dict(with_initial(kind="random", seed=1, max_mode=cap), geometry=geometry, checks=[])
        raw["time"]["steps"] = 2
        config = write_config(tmp_path / "c.json", raw)
        assert main(["--out", str(tmp_path / "out"), "simulate", "--config", config]) == 0


class TestIntegerLiterals:
    def test_negative_integer_power_runs(self, tmp_path):
        # as an int64 power, 2**-1 would end in a ValueError traceback
        raw = eigenmode_config()
        raw["geometry"]["phi"] = "2**-1*cos(x)"
        raw["checks"] = [{"name": "u-monotone", "tol": 1e-10}]
        config = write_config(tmp_path / "c.json", raw)
        assert main(["--out", str(tmp_path / "out"), "simulate", "--config", config]) == 0

    @pytest.mark.parametrize("key", ["phi", "gauge"])
    def test_literal_too_large_for_a_float_exits_1_at_load(self, tmp_path, capsys, key):
        raw = eigenmode_config()
        text = "1" + "0" * 400 + "*cos(x)"
        if key == "gauge":
            raw["gauge"] = text.replace("x", "t")
        else:
            raw["geometry"][key] = text
        config = write_config(tmp_path / "c.json", raw)
        code = main(["--out", str(tmp_path / "out"), "simulate", "--config", config])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err.startswith("config error:")
        assert "numeric literal is too large for a float" in captured.err
        assert "Traceback" not in captured.out + captured.err
        assert not (tmp_path / "out").exists()

    def test_boolean_literal_exits_1_at_load(self, tmp_path, capsys):
        raw = eigenmode_config()
        raw["geometry"]["phi"] = "True*cos(x)"
        config = write_config(tmp_path / "c.json", raw)
        code = main(["--out", str(tmp_path / "out"), "simulate", "--config", config])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err.startswith("config error:")
        assert "only numeric literals are allowed" in captured.err
        assert not (tmp_path / "out").exists()


class TestStartUp:
    def test_runs_load_no_scipy_integrate_or_optimize(self, tmp_path):
        # both running trapezoid integrals run: the gauge of a spectral flow and
        # the gradient-only envelope of a perturbed one
        gauged = dict(eigenmode_config(), gauge="0.5 + 0.2*sin(t)",
                      checks=[{"name": "u-monotone", "tol": 1e-10}])
        gauged["geometry"]["nodes"] = 16
        gauged["time"]["steps"] = 10
        perturbed = dict(gradient_only_config(), checks=[{"name": "gradient-only", "bound": 0.5}])
        perturbed["geometry"]["nodes"] = 16
        perturbed["time"]["steps"] = 20
        args = []
        for name, raw in (("gauged", gauged), ("perturbed", perturbed)):
            args += [str(tmp_path / name), write_config(tmp_path / f"{name}.json", raw)]
        script = (
            "import json, sys\n"
            "from parafreq.cli import main\n"
            "pairs = zip(sys.argv[1::2], sys.argv[2::2])\n"
            "codes = [main(['--out', out, 'simulate', '--config', c]) for out, c in pairs]\n"
            "print(json.dumps([codes, sorted(m for m in sys.modules if m.startswith('scipy'))]))\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
        proc = subprocess.run([sys.executable, "-c", script, *args], env=env,
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        codes, modules = json.loads(proc.stdout)
        assert codes == [0, 0]
        assert "scipy.sparse.linalg" in modules
        assert "scipy.integrate" not in modules and "scipy.optimize" not in modules
        report = json.loads((tmp_path / "perturbed" / "report.json").read_text())
        (check,) = report["checks"]
        assert check["check"] == "gradient-only" and check["aux"]["envelope_margin"] is not None


class TestSizeCap:
    @pytest.mark.parametrize(
        ("key", "value"),
        [
            ("nodes", 10**30), ("nx", 10**30), ("steps", 10**30), ("order", 10**30),
            ("order", MAX_DENSE_NODES + 1),
            # each within its key's bound, the trajectory just beyond the cap
            ("nodes", MAX_VALUES // 51 + 1), ("nx", MAX_VALUES // (64 * 51) + 1),
            ("steps", MAX_VALUES // 64),
        ],
    )
    def test_oversized_config_exits_1_allocating_nothing_large(
        self, tmp_path, capsys, key, value
    ):
        config = write_config(tmp_path / "c.json", sized_config(key, value))
        code, peak = peak_allocated(
            lambda: main(["--out", str(tmp_path / "out"), "simulate", "--config", config])
        )
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err.startswith("config error:")
        assert "Traceback" not in captured.out + captured.err
        assert peak < 2**20
        assert not (tmp_path / "out" / "report.json").exists()

    def test_gauss_order_beyond_hermgauss_exits_1_without_warnings(self, tmp_path, capsys):
        config = write_config(tmp_path / "c.json", sized_config("order", MAX_GAUSS_ORDER + 1))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["--out", str(tmp_path / "out"), "simulate", "--config", config])
        err = capsys.readouterr().err
        assert code == 1
        # one line, and no numpy RuntimeWarning from hermgauss before it
        assert err == (f"config error: config.geometry.order: expected an integer >= 4 "
                       f"and <= {MAX_GAUSS_ORDER}, got {MAX_GAUSS_ORDER + 1}\n")
        assert caught == []

    def test_oversized_later_sweep_entry_runs_no_entry(self, tmp_path, capsys):
        raw = sweep_of(eigenmode_config(), {"name": "a"},
                       {"name": "b", "overrides": {"time.steps": MAX_VALUES}})
        config = write_config(tmp_path / "c.json", raw)
        code = main(["--out", str(tmp_path / "out"), "sweep", "--config", config])
        assert code == 1
        assert capsys.readouterr().err.startswith("config error: sweep entry 'b'")
        assert list((tmp_path / "out").iterdir()) == []


class TestNumericalFailures:
    def run(self, tmp_path, capsys, raw):
        config = write_config(tmp_path / "c.json", raw)
        code = main(["--out", str(tmp_path / "out"), "simulate", "--config", config])
        return code, capsys.readouterr().err

    def test_eigensolver_failure_exits_1(self, tmp_path, capsys, monkeypatch):
        def fail(*args, **kwargs):
            raise scipy.linalg.LinAlgError("the eigensolver did not converge")

        monkeypatch.setattr(scipy.linalg, "eigh", fail)
        code, err = self.run(tmp_path, capsys, eigenmode_config())
        assert code == 1
        assert err.startswith("error:") and "did not converge" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("integrator", ["spectral-exact", "implicit-step"])
    def test_factorization_failure_exits_1(self, tmp_path, capsys, monkeypatch, integrator):
        # a spectral flow on expression data builds Krylov modes, which factor I - gamma S
        def fail(*args, **kwargs):
            raise RuntimeError("Factor is exactly singular")

        monkeypatch.setattr(scipy.sparse.linalg, "splu", fail)
        raw = eigenmode_config()
        raw["integrator"] = integrator
        raw["initial"] = {"kind": "expression", "expression": "sin(x)"}
        code, err = self.run(tmp_path, capsys, raw)
        assert code == 1
        assert err.startswith("error:") and "exactly singular" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("integrator", ["spectral-exact", "implicit-step"])
    def test_non_finite_operator_exits_1(self, tmp_path, capsys, integrator):
        raw = eigenmode_config()
        raw["geometry"] = {"kind": "circle", "nodes": 8, "length": 1e-160}
        raw["initial"] = {"kind": "expression", "expression": "1 + 0*x"}
        raw["integrator"] = integrator
        code, err = self.run(tmp_path, capsys, raw)
        assert code == 1
        assert err.startswith("error:") and "non-finite" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("initial", [{"kind": "random", "seed": 5, "max_mode": 4},
                                         {"kind": "eigenmode", "index": 1}])
    def test_operator_near_the_float_limit_exits_1(self, tmp_path, capsys, initial):
        # a torus of side 1e-150 has entries near 1e302: eigenmode data left the float
        # range in the modal factors, with a numpy warning and "I(t) vanished at t=0";
        # random data builds Krylov modes, whose factor of I - gamma S is singular in
        # floating point, which was reported as Lanczos losing definiteness
        raw = eigenmode_config()
        raw["geometry"] = {"kind": "torus2d", "nx": 16, "ny": 16, "lx": 1e-150, "ly": 1e-150}
        raw["initial"] = initial
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, err = self.run(tmp_path, capsys, raw)
        assert code == 1
        assert err.startswith("error:") and "Traceback" not in err
        assert "vanished" not in err
        if initial["kind"] == "eigenmode":
            assert "overflowed" in err
        else:
            assert "singular in floating point" in err and "float range" in err
            assert "definiteness" not in err
        assert caught == []

    def test_rigidity_near_the_float_limit_exits_1(self, tmp_path, capsys):
        # on the same torus the stepped flow keeps its I and U, so rigidity takes the
        # eigen-residual, whose squares leave the float range
        raw = eigenmode_config()
        raw["geometry"] = {"kind": "torus2d", "nx": 16, "ny": 16, "lx": 1e-150, "ly": 1e-150}
        raw["initial"] = {"kind": "random", "seed": 5, "max_mode": 4}
        raw["integrator"] = "implicit-step"
        raw["checks"] = [{"name": "rigidity", "tol": 1e-9}]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, err = self.run(tmp_path, capsys, raw)
        assert code == 1
        assert err.startswith("error:") and "eigen-residual" in err and "Traceback" not in err
        assert caught == []

    @pytest.mark.parametrize("gauge, t", [("1e308", 0.02), ("-1e5*t", 0.12), ("1e5*t", 0.14)])
    def test_a_gauge_factor_past_the_float_range_exits_1(self, tmp_path, capsys, gauge, t):
        # exp(-integral of lambda) overflows (a rate of 1e308 overflows the integral, -1e5 t
        # the factor) or underflows to 0 (1e5 t), and the first sample where it does is named
        raw = dict(eigenmode_config(), gauge=gauge)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, err = self.run(tmp_path, capsys, raw)
        assert code == 1 and caught == []
        assert err == ("error: the gauge factor exp(-integral of lambda) leaves the float range "
                       f"at t={t:.6g}\n")

    def test_steps_near_the_float_limit_keep_I(self, tmp_path, capsys):
        # on the same torus the step's factor r is about -1 on every non-constant mode,
        # so the stepped flow keeps its I, and a run with no checks exits 0
        raw = eigenmode_config()
        raw["geometry"] = {"kind": "torus2d", "nx": 16, "ny": 16, "lx": 1e-150, "ly": 1e-150}
        raw["initial"] = {"kind": "random", "seed": 5, "max_mode": 4}
        raw["integrator"] = "implicit-step"
        raw["checks"] = []
        code, err = self.run(tmp_path, capsys, raw)
        assert code == 0 and err == ""
        table = np.loadtxt(tmp_path / "out" / "trace.csv", delimiter=",", skiprows=1)
        assert np.max(np.abs(table[:, 1] / table[0, 1] - 1.0)) <= 1e-12

    def test_out_of_memory_exits_1(self, tmp_path, capsys, monkeypatch):
        def exhausted(spec):
            raise MemoryError

        monkeypatch.setattr(cli, "build_geometry", exhausted)
        code, err = self.run(tmp_path, capsys, eigenmode_config())
        assert code == 1
        assert err.startswith("error:") and "out of memory" in err
        assert "Traceback" not in err


class TestEigen:
    def test_gauss_line_spectrum(self, tmp_path):
        config = write_config(
            tmp_path / "c.json",
            {
                "geometry": {"kind": "gauss-line", "order": 32},
                "initial": {"kind": "eigenmode", "index": 0},
                "time": {"a": 0.0, "b": 1.0, "steps": 2},
                "checks": [],
            },
        )
        code = main(["--out", str(tmp_path / "out"), "eigen", "--config", config, "-k", "6"])
        assert code == 0
        lines = (tmp_path / "out" / "spectrum.csv").read_text().splitlines()
        assert lines[0] == "index,eigenvalue"
        values = [float(line.split(",")[1]) for line in lines[1:]]
        assert np.max(np.abs(np.array(values) + 0.5 * np.arange(6))) < 1e-10

    def test_circle_spectrum_continuum_limit(self, tmp_path):
        config = write_config(
            tmp_path / "c.json",
            {
                "geometry": {"kind": "circle", "nodes": 128, "length": TWO_PI},
                "initial": {"kind": "eigenmode", "index": 0},
                "time": {"a": 0.0, "b": 1.0, "steps": 2},
                "checks": [],
            },
        )
        assert main(["--out", str(tmp_path / "out"), "eigen", "--config", config, "-k", "3"]) == 0
        lines = (tmp_path / "out" / "spectrum.csv").read_text().splitlines()
        values = np.array([float(line.split(",")[1]) for line in lines[1:]])
        assert np.max(np.abs(values - np.array([0.0, -1.0, -1.0]))) < 1e-3

    def test_k_too_large_exits_1(self, tmp_path):
        config = write_config(
            tmp_path / "c.json",
            {
                "geometry": {"kind": "gauss-line", "order": 8},
                "initial": {"kind": "eigenmode", "index": 0},
                "time": {"a": 0.0, "b": 1.0, "steps": 2},
                "checks": [],
            },
        )
        assert main(["--out", str(tmp_path / "out"), "eigen", "--config", config, "-k", "9"]) == 1


class TestPoonCommand:
    def test_curves_and_report(self, tmp_path):
        code = main(["--out", str(tmp_path / "out"), "poon"])
        assert code == 0
        lines = (tmp_path / "out" / "poon_linear.csv").read_text().splitlines()
        assert lines[0] == "s,R,H,logH"
        s, radius, h, logh = map(float, lines[1].split(","))
        assert abs(h - 2.0 * radius**2) < 1e-12
        assert abs(logh - np.log(h)) < 1e-12

    def test_report_matches_the_suite_loop(self, tmp_path):
        assert main(["--out", str(tmp_path / "out"), "--tol-scale", "3", "poon"]) == 0
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["checks"] == [r.to_dict() for r in poon_reports(1e-8 * 3.0)]


class TestCheckCommand:
    def test_corrupted_operator_exits_2(self, tmp_path, capsys):
        code = main(
            ["--out", str(tmp_path / "out"), "check", "all", "--corrupt-operator"]
        )
        assert code == 2
        captured = capsys.readouterr()
        assert "self-adjoint/circle" in captured.err
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["passed"] is False
        failing = [c for c in report["checks"] if not c["pass"]]
        assert [c["check"] for c in failing] == ["self-adjoint/circle"]


class TestSweep:
    def test_sweep_runs_each_entry(self, tmp_path):
        raw = {
            "base": eigenmode_config(),
            "sweep": [
                {"name": "mode1", "overrides": {"initial.index": 1}},
                {"name": "mode2", "overrides": {"initial.index": 2}},
            ],
        }
        config = write_config(tmp_path / "c.json", raw)
        code = main(["--out", str(tmp_path / "out"), "sweep", "--config", config])
        assert code == 0
        for name in ("mode1", "mode2"):
            assert (tmp_path / "out" / name / "report.json").exists()
        summary = json.loads((tmp_path / "out" / "report.json").read_text())
        assert [run["exit"] for run in summary["runs"]] == [0, 0]

    @pytest.mark.parametrize("names", [["ABS"], [""], ["."], [".."], ["a/b"], [3], ["a", "a"]])
    def test_sweep_names_stay_inside_out_and_are_unique(self, tmp_path, capsys, names):
        outside = tmp_path / "outside"
        names = [str(outside) if name == "ABS" else name for name in names]
        raw = {"base": eigenmode_config(), "sweep": [{"name": name} for name in names]}
        config = write_config(tmp_path / "c.json", raw)
        code = main(["--out", str(tmp_path / "out"), "sweep", "--config", config])
        assert code == 1
        assert capsys.readouterr().err.startswith("config error:")
        assert not outside.exists()
        assert not (tmp_path / "out" / "report.json").exists()

    @pytest.mark.parametrize(
        "override",
        [{"geometry.nodes": "sixty"}, {"initial.index": -1}, {"checks": [{"name": "entropy"}]},
         {"time.steps": 0}, {"gauge": "sin(t"}, {"geometry.phi": "cos(y)"},
         {"initial.index": 64}],
    )
    def test_bad_later_entry_runs_no_entry(self, tmp_path, capsys, override):
        raw = sweep_of(eigenmode_config(), {"name": "a"}, {"name": "b", "overrides": override})
        config = write_config(tmp_path / "c.json", raw)
        code = main(["--out", str(tmp_path / "out"), "sweep", "--config", config])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("config error: sweep entry 'b'")
        assert list((tmp_path / "out").iterdir()) == []

    @pytest.mark.parametrize("where", ["base", "override"])
    def test_sweep_rejects_output(self, tmp_path, capsys, monkeypatch, where):
        monkeypatch.chdir(tmp_path)
        base = eigenmode_config()
        entry = {"name": "a"}
        if where == "base":
            base["output"] = "elsewhere"
        else:
            entry["overrides"] = {"output": "elsewhere"}
        config = write_config(tmp_path / "c.json", sweep_of(base, entry))
        code = main(["--out", str(tmp_path / "out"), "sweep", "--config", config])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("config error: sweep entry 'a'") and "'output'" in err
        assert list((tmp_path / "out").iterdir()) == []
        assert not (tmp_path / "elsewhere").exists()

    def test_sweep_requires_entries(self, tmp_path):
        config = write_config(tmp_path / "c.json", {"base": eigenmode_config()})
        assert main(["--out", str(tmp_path / "out"), "sweep", "--config", config]) == 1

    @pytest.mark.parametrize("text", [None, "{not json"])
    def test_unreadable_sweep_config_exits_1(self, tmp_path, capsys, text):
        path = tmp_path / "c.json"
        if text is not None:
            path.write_text(text)
        assert main(["--out", str(tmp_path / "out"), "sweep", "--config", str(path)]) == 1
        assert capsys.readouterr().err.startswith("config error:")
