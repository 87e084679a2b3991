"""The CLI commands of each workload and the checks on their outputs.

Workloads (the reasons are recorded in BENCHMARK.json as well):

* ground_state: `solve` then `verify` on four cases (inputs.CASES), plus one
  `sweep --param c --values 1,2,4`.  solver, functionals, decay, io and the
  FFTs in grid dominate; evolution and kernels do nothing.
* evolve: `evolve --reference-speed 1` on the 256^2 m=2 and m=3 ground
  states made in set-up.  evolution and grid FFTs dominate; the solver does
  nothing.  m=3 puts u**3 into every stage, so the same layer runs in two
  proportions.
* kernel: `kernel` at nu=0 and nu=0.5 on the default oracle, at nu=0 on the
  criterion-7 oracle, plus `lizorkin`.  kernels (quadrature, oracle FFT,
  process pool) and import dominate; neither solver nor evolution runs.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import checks
import inputs as inp

WORKLOADS = ("ground_state", "evolve", "kernel")


@dataclass
class Command:
    name: str  # unique within a round
    kind: str  # the CLI subcommand
    args: list
    out: Path  # emptied before the command runs
    check: Callable[[], tuple] = field(repr=False)  # -> (problems, info)


def _json(path: Path) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


def _csv(path: Path) -> list:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _ground_state(inputs: Path, work: Path) -> list:
    cmds = []
    for case, spec in inp.CASES.items():
        solved, verified = work / case / "solve", work / case / "verify"

        def check_solve(case=case, method=spec["method"], out=solved):
            rep = _json(out / "solve_report.json")
            return checks.solve(case, method, rep), {f"iterations.{case}": rep["iterations"]}

        def check_verify(case=case, out=verified):
            rep = _json(out / "decay_report.json")
            return checks.decay(case, rep), {f"exponent_x.{case}": rep["exponent_x"],
                                             f"exponent_y.{case}": rep["exponent_y"]}

        cmds.append(Command(f"solve:{case}", "solve",
                            ["solve", "--config", str(inputs / f"{case}.json"), "--out", str(solved)],
                            solved, check_solve))
        cmds.append(Command(f"verify:{case}", "verify",
                            ["verify", "--field", str(solved / "phi.field"), "--out", str(verified)],
                            verified, check_verify))

    out = work / "sweep"

    def check_sweep():
        rows = _csv(out / "sweep.csv")
        iterations = sum(int(r["iterations"]) for r in rows)
        return checks.sweep(inp.SWEEP_VALUES, rows), {"iterations.sweep": iterations}

    cmds.append(Command("sweep", "sweep",
                        ["sweep", "--param", "c", "--values", ",".join(f"{v:g}" for v in inp.SWEEP_VALUES),
                         "--config", str(inputs / f"{inp.SWEEP_CASE}.json"), "--out", str(out)],
                        out, check_sweep))
    return cmds


def _evolve(inputs: Path, work: Path) -> list:
    cmds = []
    for name in inp.EVOLVE_CASES:
        out = work / name

        def check(name=name, out=out):
            rep = _json(out / "evolve_report.json")
            return checks.evolve(name, rep), {f"steps.{name}": round(inp.EVOLVE_T_END / rep["dt"])}

        cmds.append(Command(f"evolve:{name}", "evolve",
                            ["evolve", "--field", str(inputs / f"{name}.field"),
                             "--config", str(inputs / f"{name}.json"), "--out", str(out),
                             "--reference-speed", "1.0"],
                            out, check))
    return cmds


def _kernel_command(name: str, nu: float, oracle_args: list, points_csv: Path, work: Path) -> Command:
    out = work / name

    def check():
        rows = [(float(r["x"]), float(r["y"]), float(r["rel_diff"])) for r in _csv(out / "kernel.csv")]
        points = inp.read_points(points_csv)
        problems, out_of_order = checks.kernel(name, points, rows)
        over_tol = sum(1 for r in rows if not r[2] <= checks.KERNEL_REL_TOL)
        return problems, {f"points.{name}": len(points), f"rows_out_of_order.{name}": out_of_order,
                          f"rows_over_tol.{name}": over_tol}

    return Command(f"kernel:{name}", "kernel",
                   ["kernel", "--nu", repr(nu), "--points", str(points_csv),
                    "--out", str(out / "kernel.csv"), *oracle_args],
                   out, check)


def _kernel(inputs: Path, work: Path) -> list:
    cmds = [_kernel_command(name, nu, args, inputs / f"{name}.csv", work)
            for name, (nu, args) in inp.KERNEL_RUNS.items()]
    out = work / "lizorkin"

    def check():
        rows = [(r["multiplier"], int(r["k1"]), int(r["k2"]), float(r["sup_abs"]))
                for r in _csv(out / "lizorkin.csv")]
        return checks.lizorkin(rows), {}

    cmds.append(Command("lizorkin", "lizorkin", ["lizorkin", "--out", str(out / "lizorkin.csv")], out, check))
    return cmds


def commands(workload: str, inputs: Path, work: Path) -> list:
    return {"ground_state": _ground_state, "evolve": _evolve, "kernel": _kernel}[workload](inputs, work)


def offnode_probe(inputs: Path, work: Path) -> Command:
    """CLI kernel at nu=0 on the nu=0 points moved off the oracle nodes.

    Its rows over the criterion-7 tolerance measure a known defect (the CLI
    does not snap the quadrature point to the oracle node it compares with);
    they are reported as a count, not as failed operations.
    """
    return _kernel_command("offnode", 0.0, [], inputs / "offnode.csv", work)
