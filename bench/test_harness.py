"""Self-test of the benchmark harness.

    python3 -m pytest bench/test_harness.py -q

Checks that every metric named in BENCHMARK.json is emitted with its unit,
that a failing check raises ``checks.failed_frac`` and the failed count, that
the self-time arithmetic adds up to the traced wall time, that the program is
patched in every module holding a public function by name, that the computed
counts follow the work the program does, and that wrong CSV values written by
``simulate`` are caught.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import layers  # noqa: E402
import run  # noqa: E402
from tracing import Tracer, instrument, self_times  # noqa: E402
from workloads import WORKLOADS, Outcome, import_program  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


class TinyFlow:
    """A fake workload: one small spectral flow, its trace and two checks."""

    def __init__(self, reverse: bool = False):
        self.reverse = reverse

    def setup(self, pf, seed, workdir):
        geometry = pf.make_circle(16, 6.283185307179586)
        x = geometry.coords[:, 0]
        return {"op": pf.assemble(geometry), "u0": pf.Field(geometry, np.sin(x) + np.sin(2 * x))}

    def flows(self, state):
        return 1

    def node_steps(self, state):
        return 16 * 21

    def execute(self, pf, state, tracer=None):
        traj = pf.evolve_exact(state["op"], state["u0"], pf.TimeGrid(0.0, 1.0, 20))
        if self.reverse:  # U of a time-reversed flow decreases: the monotone check must fail
            traj = pf.Trajectory(grid=traj.grid, fields=traj.fields[::-1], provenance=traj.provenance)
        trace = pf.frequency_trace(traj, state["op"])
        return [pf.check_u_monotone(trace, 1e-10), pf.check_hadamard_bound(trace, 1e-9)]

    def verify(self, state, reports):
        out = Outcome()
        out.add_reports([r.to_dict() for r in reports])
        return out


@pytest.fixture(scope="module")
def pf():
    return import_program()


def test_workloads_match_the_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in SPEC["workloads"])


def test_every_end_to_end_metric_is_emitted_with_its_unit(pf):
    workload = TinyFlow()
    state = workload.setup(pf, 0, None)
    passes = run.measure(workload, pf, state, 0.0, trace=False)
    values = run.end_to_end(workload, state, passes, [0.5, 0.4, 0.6])
    spec = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert run.END_TO_END_UNITS == spec
    assert set(values) == set(spec) and all(v > 0 for v in values.values())
    assert values["setup_s"] == 0.5


def test_every_per_layer_metric_is_emitted_with_its_unit(pf):
    workload = TinyFlow()
    passes = run.measure(workload, pf, workload.setup(pf, 0, None), 0.0, trace=True)
    assert ["metrics" in p for p in passes] == [False, True, False]
    values = run.per_layer(passes)
    spec = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert layers.metric_units() == spec
    assert set(values) == set(spec)
    assert values["evolution.flows"] == 1 and values["evolution.node_steps"] == 16 * 21
    assert values["frequency.dense_apply_flops"] == 2 * 16 * 16 * 21
    assert values["checks.attempted"] == 2 and values["checks.failed_frac"] == 0.0
    layer_total = sum(values[f"{layer}.self_s"] for layer in layers.LAYERS)
    assert layer_total + values["trace.unattributed_s"] == pytest.approx(values["trace.wall_s"], abs=1e-12)


def test_a_failing_check_raises_failed_frac(pf):
    workload = TinyFlow(reverse=True)
    traced = run._run_pass(workload, pf, workload.setup(pf, 0, None), traced=True)
    assert traced["outcome"].failed == 1 and traced["outcome"].attempted == 2
    assert traced["metrics"]["checks.failed_frac"] == 0.5


def test_self_time_arithmetic():
    ticks = iter([0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 10.0])
    tracer = Tracer(clock=lambda: next(ticks))
    with tracer.span("cli.main"):              # [0, 10]
        with tracer.span("suite.run"):         # [1, 4]
            with tracer.span("core.make"):     # [2, 3]
                pass
        with tracer.span("frequency.check"):   # [5, 6]
            pass
    assert self_times(tracer.spans) == [6.0, 2.0, 1.0, 1.0]
    metrics = layers.pass_metrics(tracer, wall=12.0)
    layer_total = sum(metrics[f"{layer}.self_s"] for layer in layers.LAYERS)
    assert layer_total == 10.0 and metrics["trace.unattributed_s"] == 2.0
    assert metrics["cli.self_s"] == 6.0 and metrics["suite.self_s"] == 2.0


def test_a_flow_the_inputs_do_not_count_is_a_defect(pf):
    class Undercounted(TinyFlow):
        def node_steps(self, state):
            return 16 * 20

    traced = run._run_pass(Undercounted(), pf, TinyFlow().setup(pf, 0, None), traced=True)
    assert traced["outcome"].defects == ["traced (flows, node-steps) (1, 336), the inputs give (1, 320)"]


def test_rigidity_counts_a_dense_apply_only_for_an_eigenmode(pf):
    geometry = pf.make_circle(16, 6.283185307179586)
    op, grid, x = pf.assemble(geometry), pf.TimeGrid(0.0, 1.0, 20), geometry.coords[:, 0]
    trace_flops = 2 * 16 * 16 * 21
    for values, extra in ((np.sin(x) + np.sin(2 * x), 0), (np.sin(x), 2 * 16 * 16)):
        traj = pf.evolve_exact(op, pf.Field(geometry, values), grid)
        tracer = Tracer()
        with instrument(tracer, layers.COUNTERS):
            pf.check_rigidity(traj, None, op)
        assert tracer.counts["frequency.dense_apply_flops"] == trace_flops + extra


def test_simulate_csv_values_are_checked(pf, tmp_path):
    workload = WORKLOADS["simulate-spectral"]
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "geometry": {"kind": "circle", "nodes": 16, "length": 6.283185307179586, "phi": "0.3*cos(x)"},
        "initial": {"kind": "expression", "expression": "sin(x)+0.5*cos(2*x)"},
        "time": {"a": 0.0, "b": 1.0, "steps": workload.STEPS}, "integrator": "spectral-exact",
    }))
    out_dir = tmp_path / "out"
    assert pf.cli.main(["--seed", "0", "--out", str(out_dir), "simulate", "--config", str(config)]) == 0
    report = json.loads((out_dir / "report.json").read_text())
    assert workload._check_csv_values(config, out_dir, 16, report) == []
    path = out_dir / "trajectory.csv"
    lines = path.read_text().splitlines()
    t, node, comp, value = lines[-1].split(",")
    path.write_text("\n".join(lines[:-1] + [f"{t},{node},{comp},{float(value) * 1.001!r}"]) + "\n")
    [defect] = workload._check_csv_values(config, out_dir, 16, report)
    assert defect.startswith("I in trace.csv differs")


def test_instrument_reaches_names_imported_elsewhere_and_restores(pf):
    suite = sys.modules["parafreq.suite"]
    original = suite.evolve_exact
    tracer = Tracer()
    with instrument(tracer, layers.COUNTERS):
        assert suite.evolve_exact is not original
        assert suite.evolve_exact is sys.modules["parafreq.evolution"].evolve_exact
        suite.gauge_reports(suite.SuiteContext(seed=0))
    assert suite.evolve_exact is original
    names = [s[0] for s in tracer.spans]
    parent = {s[0]: tracer.spans[s[3]][0] for s in tracer.spans if s[3] is not None}
    assert parent["evolution.evolve_exact"] == "suite.gauge_reports"
    assert "operators.DriftOperator.eigensystem" in names
    assert tracer.counts["evolution.flows"] == 1


def test_inputs_repeat_for_a_seed():
    for workload in (WORKLOADS["simulate-spectral"], WORKLOADS["stepped-ladder"]):
        assert workload.inputs(3) == workload.inputs(3) != workload.inputs(4)


def test_refuses_a_directory_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "check-all", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""
