import json
import re
import time
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse.linalg

from parafreq.caloric import poon_reports
from parafreq import cli
from parafreq.cli import main
from parafreq.config import TRACE_CHECKS

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
        "perturbation": {"b": ["0.5"], "bound": 0.5, "gradient_only": True},
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

    def test_trajectory_csv_schema(self, tmp_path):
        config = write_config(tmp_path / "c.json", eigenmode_config())
        main(["--out", str(tmp_path / "out"), "simulate", "--config", config])
        lines = (tmp_path / "out" / "trajectory.csv").read_text().splitlines()
        assert lines[0] == "t,node,component,value"
        assert len(lines) == 1 + 51 * 64

    def test_readme_config_example_passes(self, tmp_path):
        block = re.search(r"```json\n(.*?)```", README.read_text(), re.DOTALL).group(1)
        config = write_config(tmp_path / "c.json", json.loads(block))
        assert main(["--out", str(tmp_path / "out"), "simulate", "--config", config]) == 0

    def test_spectral_run_beyond_dense_limit_exits_1(self, tmp_path, capsys):
        raw = eigenmode_config()
        raw["geometry"] = {"kind": "torus2d", "nx": 128, "ny": 128, "lx": TWO_PI, "ly": TWO_PI}
        raw["initial"] = {"kind": "expression", "expression": "sin(x)*cos(y)"}
        raw["time"]["steps"] = 2
        config = write_config(tmp_path / "c.json", raw)
        start = time.perf_counter()
        code = main(["--out", str(tmp_path / "out"), "simulate", "--config", config])
        assert code == 1
        assert time.perf_counter() - start < 5.0
        assert "dense eigensolve" in capsys.readouterr().err

    def test_determinism(self, tmp_path):
        config = write_config(tmp_path / "c.json", eigenmode_config())
        main(["--out", str(tmp_path / "a"), "--seed", "3", "simulate", "--config", config])
        main(["--out", str(tmp_path / "b"), "--seed", "3", "simulate", "--config", config])
        for name in ("report.json", "trace.csv", "trajectory.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


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

    def test_readme_lists_the_table(self):
        text = README.read_text()
        paragraph = text[text.index("Check names:"):]
        listed = re.findall(r"`([^`]+)`", paragraph[: paragraph.index(".")])
        assert listed == list(TRACE_CHECKS)

    @pytest.mark.parametrize(
        ("tol", "expected"), [(1e-30, 1e-30 * 5.0), (None, 1e-9 * 5.0)]
    )
    def test_vanishing_order_scales_its_tolerance(self, tmp_path, tol, expected):
        raw = eigenmode_config()
        raw["checks"] = [{"name": "vanishing-order", "rate": 1.0, "tol": tol}]
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
            {"name": "vanishing-order", "rate": "abc"},
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
            ("simulate", dict(gradient_only_config(), perturbation={"b": ["0.5"], "gradient_only": "no"})),
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
        raw["checks"] = [{"name": "vanishing-order", "tol": None, "rate": None}]
        config = write_config(tmp_path / "c.json", raw)
        assert main(["--out", str(tmp_path / "out"), "simulate", "--config", config]) == 0
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["integrator"] == "spectral-exact"
        assert report["checks"][0]["tolerance"] == 1e-9
        assert report["checks"][0]["aux"]["rate"] == 0.0


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

    def test_factorization_failure_exits_1(self, tmp_path, capsys, monkeypatch):
        def fail(*args, **kwargs):
            raise RuntimeError("Factor is exactly singular")

        monkeypatch.setattr(scipy.sparse.linalg, "splu", fail)
        raw = eigenmode_config()
        raw["integrator"] = "implicit-step"
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
         {"time.steps": 0}, {"gauge": "sin(t"}],
    )
    def test_bad_later_entry_runs_no_entry(self, tmp_path, capsys, override):
        raw = sweep_of(eigenmode_config(), {"name": "a"}, {"name": "b", "overrides": override})
        config = write_config(tmp_path / "c.json", raw)
        code = main(["--out", str(tmp_path / "out"), "sweep", "--config", config])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("config error: sweep entry 'b'")
        assert list((tmp_path / "out").iterdir()) == []

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
