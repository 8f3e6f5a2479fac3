"""The three benchmark workloads: seeded inputs, one pass, and its output checks.

Inputs are generated with the standard library's ``random.Random(seed)``, so
the same seed gives byte-identical inputs and the program sees only the
generated configs, expression strings and seeds.  A pass is split in two:
``execute`` makes the program's calls and is what the benchmark times;
``verify`` then reads the outputs and returns an :class:`Outcome`: the checks
the program attempted and failed, plus every output defect the benchmark
found (an exit code that disagrees with the report, a missing or malformed
file, bytes that differ from the first pass).

The program is reached only through module attributes looked up at call time
(``pf.config.build_geometry``, ``pf.cli.main``), so a traced pass sees the
benchmark's own calls as well as the program's internal ones.
"""

from __future__ import annotations

import hashlib
import importlib
import io
import json
import math
import random
import shutil
from contextlib import redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

TWO_PI = 2.0 * math.pi


@dataclass
class Outcome:
    """Verdict on one pass: program checks attempted and failed, and output defects."""

    attempted: int = 0
    failed: int = 0
    defects: list[str] = field(default_factory=list)

    def add_reports(self, checks: list[dict]) -> None:
        """Count check records as written to ``report.json`` (``pass`` flags)."""
        self.attempted += len(checks)
        self.failed += sum(1 for c in checks if not c["pass"])


def import_program():
    """Import the parafreq modules the workloads call."""
    for name in ("parafreq", "parafreq.cli", "parafreq.config"):
        importlib.import_module(name)
    return importlib.import_module("parafreq")


def _fourier(rng: random.Random, variables: tuple[str, ...], terms: int, amplitude: float,
             max_mode: int) -> str:
    """A smooth periodic expression string, e.g. ``0.1234*cos(2*x+1*y+0.5678)``."""
    parts = []
    for _ in range(terms):
        modes = [rng.randint(0, max_mode) for _ in variables]
        if not any(modes):
            modes[0] = 1
        phase = "+".join(f"{k}*{v}" for k, v in zip(modes, variables))
        coef = amplitude * rng.uniform(0.3, 1.0) / terms
        parts.append(f"{coef:.4f}*{rng.choice(('cos', 'sin'))}({phase}+{rng.uniform(0, TWO_PI):.4f})")
    return "+".join(parts)


def _time_envelope(rng: random.Random) -> str:
    return f"(1+0.5*sin({rng.uniform(0.5, 3.0):.4f}*t+{rng.uniform(0, TWO_PI):.4f}))"


def _check_report_file(out: Outcome, path: Path, expect_checks: int, first: dict,
                       key: str) -> dict | None:
    """Parse ``report.json``, count its checks, and demand identical bytes on every pass."""
    if not path.is_file():
        out.defects.append(f"{path.name} missing")
        return None
    data = path.read_bytes()
    payload = json.loads(data)
    checks = payload.get("checks", [])
    out.add_reports(checks)
    if len(checks) != expect_checks:
        out.defects.append(f"{key}: {len(checks)} checks, expected {expect_checks}")
    if payload.get("passed") is not all(c["pass"] for c in checks):
        out.defects.append(f"{key}: 'passed' disagrees with the check records")
    if first.setdefault(key, data) != data:
        out.defects.append(f"{key}: report.json differs from the first pass")
    return payload


def _digest(path: Path) -> bytes | None:
    return hashlib.sha256(path.read_bytes()).digest() if path.is_file() else None


class CheckAll:
    name = "check-all"
    CHECKS = 48  # a pass that runs fewer checks is wrong, not faster
    # evolve_* calls in check all as (flows, nodes, samples); fixed by the suite's sizes
    # and independent of the seed, so node-steps count inputs, not work done
    FLOWS = (
        (100, 128, 201), (100, 1024, 201), (1, 128, 201),  # monotonicity + reversed control
        (20, 128, 201), (20, 128, 401),                    # richardson, two grids
        (5, 128, 201), (5, 1024, 201), (5, 32, 201), (1, 128, 201),  # rigidity + control
        (53, 128, 201),                                    # perturbed
        (1, 128, 201),                                     # gauge
    )

    def setup(self, pf, seed: int, workdir: Path) -> dict:
        workdir.mkdir(parents=True, exist_ok=True)
        return {"seed": seed, "out": workdir / "check-all", "first": {}}

    def flows(self, state: dict) -> int:
        return sum(f for f, _, _ in self.FLOWS)

    def node_steps(self, state: dict) -> int:
        return sum(f * n * s for f, n, s in self.FLOWS)

    def execute(self, pf, state: dict, tracer=None):
        argv = ["--seed", str(state["seed"]), "--out", str(state["out"]), "check", "all"]
        printed = io.StringIO()
        with redirect_stdout(printed):
            code = pf.cli.main(argv)
        return code, printed.getvalue()

    def verify(self, state: dict, result) -> Outcome:
        code, printed = result
        out = Outcome()
        payload = _check_report_file(out, state["out"] / "report.json", self.CHECKS, state["first"], "check-all")
        lines = [ln for ln in printed.splitlines() if ln.startswith("[")]
        if payload is not None and len(lines) != len(payload["checks"]):
            out.defects.append("check-all: printed verdicts do not match report.json")
        if code != (0 if out.failed == 0 else 2):
            out.defects.append(f"check-all: exit code {code} with {out.failed} failed checks")
        shutil.rmtree(state["out"], ignore_errors=True)  # the next pass must write its own
        return out


class SimulateSpectral:
    name = "simulate-spectral"
    CHECKS = [{"name": "u-monotone", "tol": 1e-10}, {"name": "log-convexity", "tol": 1e-8},
              {"name": "hadamard-bound"}, {"name": "rigidity"}]
    STEPS = 200
    CSV_HEADERS = {"trajectory.csv": "t,node,component,value", "trace.csv": "t,I,D,U"}

    def inputs(self, seed: int) -> dict[str, dict]:
        rng = random.Random(f"simulate-spectral/{seed}")
        time = {"a": 0.0, "b": 1.0, "steps": self.STEPS}
        circle = {
            "geometry": {"kind": "circle", "nodes": 2048, "length": TWO_PI,
                         "phi": _fourier(rng, ("x",), 3, 0.5, 3)},
            "initial": {"kind": "expression", "expression": _fourier(rng, ("x",), 4, 1.0, 4)},
            "time": time, "integrator": "spectral-exact",
            # simulate applies the gauge factor exp(-int rate) to a pure drift flow, which adds
            # -2*int rate to log I and -2*rate' to (log I)''; a rate <= 0 with rate' <= 0 keeps
            # the growth bound and log-convexity theorems applicable to the gauged output
            "gauge": f"-{rng.uniform(0.0, 0.3):.4f}-{rng.uniform(0.05, 0.2):.4f}*t",
            "checks": self.CHECKS,
        }
        torus = {
            "geometry": {"kind": "torus2d", "nx": 48, "ny": 48, "lx": TWO_PI, "ly": TWO_PI,
                         "phi": _fourier(rng, ("x", "y"), 3, 0.5, 3),
                         "psi": _fourier(rng, ("x", "y"), 2, 0.3, 2)},
            "initial": {"kind": "expression", "expression": _fourier(rng, ("x", "y"), 4, 1.0, 3)},
            "time": time, "integrator": "spectral-exact",
            "checks": self.CHECKS,
        }
        return {"circle-2048": circle, "torus-48": torus}

    def setup(self, pf, seed: int, workdir: Path) -> dict:
        state = {"seed": seed, "runs": {}, "first": {}}
        for key, config in self.inputs(seed).items():
            run_dir = workdir / key
            run_dir.mkdir(parents=True, exist_ok=True)
            path = run_dir / "config.json"
            path.write_text(json.dumps(config, indent=2, sort_keys=True))
            nodes = config["geometry"].get("nodes") or config["geometry"]["nx"] * config["geometry"]["ny"]
            state["runs"][key] = (path, run_dir / "out", nodes)
        return state

    def flows(self, state: dict) -> int:
        return len(state["runs"])

    def node_steps(self, state: dict) -> int:
        return sum(nodes * (self.STEPS + 1) for _, _, nodes in state["runs"].values())

    def execute(self, pf, state: dict, tracer=None):
        codes = {}
        for key, (config, out_dir, _) in state["runs"].items():
            argv = ["--seed", str(state["seed"]), "--out", str(out_dir), "simulate", "--config", str(config)]
            with redirect_stdout(io.StringIO()):
                codes[key] = pf.cli.main(argv)
        return codes

    def verify(self, state: dict, codes) -> Outcome:
        out = Outcome()
        for key, (config, out_dir, nodes) in state["runs"].items():
            code = codes[key]
            before = out.failed
            report = _check_report_file(out, out_dir / "report.json", len(self.CHECKS), state["first"], key)
            if code != (0 if out.failed == before else 2):
                out.defects.append(f"{key}: exit code {code}")
            digests = {name: _digest(out_dir / name) for name in self.CSV_HEADERS}
            first = f"{key}/csv" not in state["first"]
            if state["first"].setdefault(f"{key}/csv", digests) != digests:
                out.defects.append(f"{key}: CSV files differ from the first pass")
            elif first and report is not None:
                # later passes wrote the same bytes, so checking the values once covers them
                out.defects += [f"{key}: {d}" for d in self._check_csv_values(config, out_dir, nodes, report)]
            shutil.rmtree(out_dir, ignore_errors=True)  # the next pass must write its own
        return out

    def _check_csv_values(self, config: Path, out_dir: Path, nodes: int, report: dict) -> list[str]:
        """Recompute I(t) = sum(mu*u^2) from trajectory.csv and match it to trace.csv and the report."""
        import numpy as np  # not at the top: the first import of numpy belongs to the timed set-up

        tables = {}
        for name, header in self.CSV_HEADERS.items():
            path = out_dir / name
            if not path.is_file():
                return [f"{name} missing"]
            with path.open() as fh:
                if fh.readline().rstrip("\n") != header:
                    return [f"{name}: header is not {header!r}"]
                try:
                    tables[name] = np.loadtxt(fh, delimiter=",", ndmin=2)
                except ValueError as exc:
                    return [f"{name}: {exc}"]
        samples = self.STEPS + 1
        traj, trace = tables["trajectory.csv"], tables["trace.csv"]
        if traj.shape != (samples * nodes, 4) or trace.shape != (samples, 4):
            return [f"CSV shapes {traj.shape} and {trace.shape}, expected {(samples * nodes, 4)} and {(samples, 4)}"]
        rows = traj.reshape(samples, nodes, 4)
        defects = []
        if not (rows[:, :, 0] == trace[:, None, 0]).all():
            defects.append("trajectory.csv times differ from trace.csv")
        if not (rows[:, :, 1] == np.arange(nodes)).all() or (rows[:, :, 2] != 0).any():
            defects.append("trajectory.csv node or component columns are wrong")
        geometry = import_program().config.build_geometry(json.loads(config.read_text())["geometry"])
        u = rows[:, :, 3]
        norms = np.einsum("sn,n,sn->s", u, geometry.mu, u)
        if not np.allclose(norms, trace[:, 1], rtol=1e-12, atol=0.0):
            worst = float(np.max(np.abs(norms / trace[:, 1] - 1.0)))
            defects.append(f"I in trace.csv differs from sum(mu*u^2) of trajectory.csv by {worst:.3g} (relative)")
        if (trace[0, 3], trace[-1, 3]) != (report.get("u_initial"), report.get("u_final")):
            defects.append("first and last U in trace.csv differ from u_initial and u_final in report.json")
        return defects


class SteppedLadder:
    name = "stepped-ladder"
    RUNGS = (("circle", 128), ("circle", 512), ("circle", 1024), ("circle", 2048),
             ("torus", 16), ("torus", 32), ("torus", 48))
    STEPS = 400

    @classmethod
    def rung_names(cls) -> list[str]:
        return [f"{kind}-{size}" for kind, size in cls.RUNGS]

    def inputs(self, seed: int) -> dict[str, dict]:
        rng = random.Random(f"stepped-ladder/{seed}")
        out = {}
        for kind, size in self.RUNGS:
            if kind == "circle":
                variables = ("x",)
                geometry = {"kind": "circle", "nodes": size, "length": TWO_PI}
            else:
                variables = ("x", "y")
                geometry = {"kind": "torus2d", "nx": size, "ny": size, "lx": TWO_PI, "ly": TWO_PI}
            geometry["phi"] = _fourier(rng, variables, 3, 0.5, 3)
            b = [f"{_fourier(rng, variables, 2, 0.3, 2)}*{_time_envelope(rng)}" for _ in variables]
            out[f"{kind}-{size}"] = {
                "geometry": geometry,
                "time": {"a": 0.0, "b": 1.0, "steps": self.STEPS},
                # zero-mean data, as in the program's own random perturbed suite.  The gated
                # stepwise bound (log I)' >= (2 + C/2) U - 3C/2 is stronger than the
                # 2U - 2C(1 + sqrt(-U)) its premise implies; with non-zero-mean data it fails
                # at seed 112 (circle-2048).  Zero mean widens its margin, without a guarantee.
                "initial": {"kind": "random", "seed": rng.randrange(2**31), "max_mode": 4,
                            "zero_mean": True},
                "perturbation": {"b": b, "c": f"{_fourier(rng, variables, 2, 0.2, 2)}*{_time_envelope(rng)}"},
            }
        return out

    def build(self, pf, spec: dict):
        geometry = pf.config.build_geometry(spec["geometry"])
        op = pf.assemble(geometry)
        grid = pf.config.build_time(spec["time"])
        u0 = pf.config.build_initial(spec["initial"], geometry, op)
        pert = pf.config.build_perturbation(spec["perturbation"], geometry, grid)
        return op, u0, grid, pert

    def setup(self, pf, seed: int, workdir: Path) -> dict:
        specs = self.inputs(seed)
        for spec in specs.values():
            self.build(pf, spec)
        return {"specs": specs, "first": {}}

    def flows(self, state: dict) -> int:
        return 2 * len(self.RUNGS)

    def node_steps(self, state: dict) -> int:
        """Two flows per rung (stepped and perturbed), one component each."""
        nodes = sum(size if kind == "circle" else size * size for kind, size in self.RUNGS)
        return 2 * nodes * (self.STEPS + 1)

    def execute(self, pf, state: dict, tracer=None):
        results = {}
        for rung, spec in state["specs"].items():
            if tracer is not None:
                tracer.label = rung
            op, u0, grid, pert = self.build(pf, spec)
            stepped = pf.frequency_trace(pf.evolve_cn(op, u0, grid), op)
            perturbed = pf.frequency_trace(pf.evolve_perturbed(op, u0, grid, pert), op)
            tol = pf.default_tolerance(stepped)
            ptol = pf.default_tolerance(perturbed)
            reports = [
                pf.check_u_monotone(stepped, tol),
                pf.check_log_convexity(stepped, tol / stepped.dt**2),
                pf.check_general_frequency(perturbed, None, ptol),
                pf.check_general_lower_bound(perturbed, None, ptol),
            ]
            results[rung] = (reports, stepped, perturbed)
        if tracer is not None:
            tracer.label = None
        return results

    def verify(self, state: dict, results) -> Outcome:
        out = Outcome()
        for rung, (reports, stepped, perturbed) in results.items():
            out.add_reports([r.to_dict() for r in reports])
            digest = hashlib.sha256()
            for trace in (stepped, perturbed):
                for series in (trace.I, trace.D, trace.U):
                    digest.update(series.tobytes())
            if state["first"].setdefault(rung, digest.digest()) != digest.digest():
                out.defects.append(f"{rung}: I, D, U traces differ from the first pass")
        return out


WORKLOADS = {w.name: w for w in (CheckAll(), SimulateSpectral(), SteppedLadder())}
