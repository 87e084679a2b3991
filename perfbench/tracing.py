"""Traced in-process runs of the workloads, and their reduction to per-layer metrics.

A traced pass performs the same operations as a workload's CLI commands, but
calls each module's public functions directly.  Every call is wrapped in a span
(name, start, end, parent, op id) named `<module>.<function>`; the module is
the layer.  Each operation (one solve, one verify, one kernel run, ...) is a
root span `bench.<op>`, so its self time is the benchmark's own glue.  Spans
stay in memory and are written when the run ends.  With spans off the same
pass runs without any span bookkeeping, which is what the tracing overhead is
measured against.
"""

from __future__ import annotations

import json
import statistics
import time
from contextlib import contextmanager
from dataclasses import asdict
from pathlib import Path

import numpy as np
from shrira import config, decay, evolution, functionals, grid, io, kernels, solver
from shrira.errors import BlowUpError, ConvergenceError, QuadratureAccuracyError

import checks
import inputs as inp

GRID_REPS = 5  # forward/inverse/apply_multiplier calls per workload grid
STEP_REPS = 5  # step_if_rk4 calls per evolve input
LAYERS = ("config", "io", "grid", "solver", "functionals", "decay", "evolution", "kernels", "bench")


class Tracer:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans = []  # [name, start, end, parent index or None, op id]
        self.ops = []  # op names, indexed by op id
        self._stack = []

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, len(self.ops) - 1])
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[idx][2] = time.perf_counter()

    @contextmanager
    def op(self, name: str):
        self.ops.append(name)
        with self.span("bench." + name):
            yield

    def call(self, name: str, fn, *args, **kwargs):
        if not self.enabled:
            return fn(*args, **kwargs)
        with self.span(name):
            return fn(*args, **kwargs)

    def durations(self, name: str, op_prefix: str = "") -> list:
        return [
            e - s
            for n, s, e, _, op in self.spans
            if n == name and self.ops[op].startswith(op_prefix)
        ]

    def self_times(self) -> dict:
        """Seconds per layer: each span's duration minus that of its children."""
        covered = [0.0] * len(self.spans)
        for _, s, e, parent, _ in self.spans:
            if parent is not None:
                covered[parent] += e - s
        out = dict.fromkeys(LAYERS, 0.0)
        for i, (name, s, e, _, _) in enumerate(self.spans):
            layer = name.split(".")[0]
            out[layer] = out.get(layer, 0.0) + (e - s) - covered[i]
        return out

    def write(self, path: Path, pass_index: int) -> None:
        with open(path, "a", encoding="utf-8") as fh:
            for name, s, e, parent, op in self.spans:
                fh.write(json.dumps({"pass": pass_index, "name": name, "start": s, "end": e,
                                     "parent": parent, "op": op, "op_name": self.ops[op]}) + "\n")


class Pass:
    """Outcome of one traced pass: checks, exception counts, exact counts, recorded outputs."""

    def __init__(self):
        self.problems = []
        self.counts = {}
        self.outputs = {}
        self.attempted = 0
        self.failed = 0
        self.errors = {"nonconverged": 0, "blowups": 0, "quad_errors": 0}

    def check(self, problems: list) -> None:
        self.attempted += 1
        self.failed += bool(problems)
        self.problems += problems


def _meta(params) -> dict:
    return {"c": params.c, "m": params.m, "created": inp.FIXED_CREATED, "producer": "perfbench"}


def _grid_ops(tr: Tracer, fld, res: Pass) -> None:
    g = fld.grid
    sym = np.sqrt(g.abs_xi)  # D_x^{1/2}: finite on every mode
    with tr.op(f"grid:{g.nx}x{g.ny}"):
        for _ in range(GRID_REPS):
            s = tr.call("grid.forward", grid.forward, fld)
            tr.call("grid.inverse", grid.inverse, s)
            tr.call("grid.apply_multiplier", grid.apply_multiplier, s, sym)
    res.counts[f"spectrum_bytes.{g.nx}x{g.ny}"] = s.coeffs.nbytes


def ground_state_pass(tr: Tracer, inputs: Path, work: Path) -> Pass:
    res = Pass()
    fields = {}
    for case, spec in inp.CASES.items():
        with tr.op(f"solve:{case}"):
            cfg = tr.call("config.load_config", config.load_config, inputs / f"{case}.json")
            try:
                fld, rep = tr.call("solver.solve", solver.solve, cfg.solver, cfg.physics, cfg.require_grid())
            except ConvergenceError as exc:
                res.errors["nonconverged"] += 1
                res.check([f"{case}: {exc}"])
                continue
            tr.call("io.write_field", io.write_field, work / f"{case}.field", fld, _meta(cfg.physics))
        res.check(checks.solve(case, spec["method"], rep.to_dict()))
        res.counts[f"iterations.{case}"] = rep.iterations
        with tr.op(f"verify:{case}"):
            fld, header = tr.call("io.read_field", io.read_field, work / f"{case}.field")
            params = functionals.PhysicsParams(c=float(header["c"]), m=float(header["m"]))
            tr.call("solver.spectral_residual", solver.spectral_residual, fld, params)
            tr.call("functionals.functional_report", functionals.functional_report, fld, params)
            tr.call("functionals.nehari_scale", functionals.nehari_scale, fld, params)
            dr = tr.call("decay.decay_report", decay.decay_report, fld, params)
            tr.call("decay.tail_exponent_fit", decay.tail_exponent_fit, fld, "y", dr.fit_window_y)
        res.check(checks.decay(case, dr.to_dict()))
        res.outputs[f"exponent_x.{case}"] = dr.exponent_x
        res.outputs[f"exponent_y.{case}"] = dr.exponent_y
        fields[(fld.grid.nx, fld.grid.ny)] = fld

    values = inp.SWEEP_VALUES
    with tr.op("sweep"):
        cfg = tr.call("config.load_config", config.load_config, inputs / f"{inp.SWEEP_CASE}.json")
        try:
            rows = tr.call("solver.sweep", solver.sweep, "c", values, cfg.solver, cfg.physics,
                           cfg.require_grid())
        except ConvergenceError as exc:
            res.errors["nonconverged"] += 1
            rows = None
            res.check([f"sweep: {exc}"])
    if rows is not None:
        res.check(checks.sweep(values, [asdict(r) for r in rows]))
        res.counts["iterations.sweep"] = sum(r.iterations for r in rows)

    for fld in fields.values():
        _grid_ops(tr, fld, res)
    return res


def evolve_pass(tr: Tracer, inputs: Path, work: Path) -> Pass:
    res = Pass()
    fld = None
    for name in inp.EVOLVE_CASES:
        with tr.op(f"evolve:{name}"):
            fld, header = tr.call("io.read_field", io.read_field, inputs / f"{name}.field")
            cfg = tr.call("config.load_config", config.load_config, inputs / f"{name}.json")
            params = functionals.PhysicsParams(c=float(header["c"]), m=float(header["m"]))
            try:
                rep = tr.call("evolution.evolve", evolution.evolve, fld, cfg.evolve, params,
                              reference=(fld, params.c))
            except BlowUpError as exc:
                res.errors["blowups"] += 1
                res.check([f"{name}: {exc}"])
                continue
            tr.call("io.write_field", io.write_field, work / f"{name}.final.field", rep.final, _meta(params))
        res.check(checks.evolve(name, rep.to_dict()))
        res.counts[f"steps.{name}"] = round(cfg.evolve.t_end / rep.dt)
        with tr.op(f"step:{name}"):
            s = tr.call("grid.forward", grid.forward, fld)
            for _ in range(STEP_REPS):
                tr.call("evolution.step_if_rk4", evolution.step_if_rk4, s, rep.dt, params)
    if fld is not None:
        _grid_ops(tr, fld, res)
    return res


def kernel_pass(tr: Tracer, inputs: Path, work: Path) -> Pass:
    res = Pass()
    for name, (nu, oracle_args) in inp.KERNEL_RUNS.items():
        points = inp.read_points(inputs / f"{name}.csv")
        spec = kernels.KernelSpec(nu=nu)
        rows = []
        with tr.op(f"kernel:{name}"):
            oracle = tr.call("kernels.kernel_spectral_oracle", kernels.kernel_spectral_oracle, nu,
                             inp.oracle_grid(oracle_args))
            for x, y in points:
                xs, y2s, kv = tr.call("kernels.oracle_node_value", kernels.oracle_node_value, oracle, x, 2.0 * y)
                try:
                    s = tr.call("kernels.h_nu_point", kernels.h_nu_point, spec, xs, y2s / 2.0)
                except QuadratureAccuracyError:
                    res.errors["quad_errors"] += 1
                    continue
                rows.append((x, y, abs(kernels.SQRT_PI * s.value - kv) / max(abs(kv), 1e-300)))
            del oracle
        res.check(checks.kernel(name, points, rows)[0])
        res.counts[f"points.{name}"] = len(points)
    with tr.op("lizorkin"):
        reports = tr.call("kernels.lizorkin_report_all", kernels.lizorkin_report_all)
    res.check(checks.lizorkin([row for rep in reports for row in rep.rows()]))
    return res


PASSES = {"ground_state": ground_state_pass, "evolve": evolve_pass, "kernel": kernel_pass}


def _med(xs) -> float:
    return statistics.median(xs) if xs else 0.0


def _count_sum(counts: dict, prefix: str) -> int:
    return sum(v for k, v in counts.items() if k.startswith(prefix))


def layer_metrics(tr: Tracer, res: Pass) -> dict:
    """Per-layer metrics of one traced pass; layers the pass does not call read 0."""
    ms = 1e3
    d = tr.durations
    grid_ops = sorted({op for op in tr.ops if op.startswith("grid:")})
    step_ops = sorted({op for op in tr.ops if op.startswith("step:")})
    steps = _count_sum(res.counts, "steps.")
    evolve_s = sum(d("evolution.evolve"))
    doc_iters = res.counts.get("iterations.doc256", 0)
    m = {
        "config.load_config_ms": _med(d("config.load_config")) * ms,
        "io.write_field_ms": _med(d("io.write_field")) * ms,
        "io.read_field_ms": _med(d("io.read_field")) * ms,
        "grid.fft_pair_ms": sum(_med(d("grid.forward", op)) + _med(d("grid.inverse", op)) for op in grid_ops) * ms,
        "grid.apply_multiplier_ms": sum(_med(d("grid.apply_multiplier", op)) for op in grid_ops) * ms,
        "grid.spectrum_bytes": max([v for k, v in res.counts.items() if k.startswith("spectrum_bytes.")], default=0),
        "solver.solve_s": sum(d("solver.solve")),
        "solver.iterations": _count_sum(res.counts, "iterations."),
        "solver.iter_ms": sum(d("solver.solve", "solve:doc256")) / doc_iters * ms if doc_iters else 0.0,
        "solver.spectral_residual_ms": _med(d("solver.spectral_residual")) * ms,
        "solver.sweep_s": sum(d("solver.sweep")),
        "solver.nonconverged": res.errors["nonconverged"],
        "functionals.report_ms": _med(d("functionals.functional_report")) * ms,
        "functionals.nehari_scale_ms": _med(d("functionals.nehari_scale")) * ms,
        "decay.report_ms": _med(d("decay.decay_report")) * ms,
        "decay.tail_fit_ms": _med(d("decay.tail_exponent_fit")) * ms,
        "decay.exponent_x": res.outputs.get("exponent_x.doc256", 0.0),
        "evolution.evolve_s": evolve_s,
        "evolution.steps": steps,
        "evolution.step_ms": evolve_s / steps * ms if steps else 0.0,
        "evolution.step_if_rk4_ms": sum(_med(d("evolution.step_if_rk4", op)) for op in step_ops) * ms,
        "evolution.blowups": res.errors["blowups"],
        "kernels.oracle_build_s": sum(d("kernels.kernel_spectral_oracle")),
        "kernels.h_nu_point_ms": _med(d("kernels.h_nu_point")) * ms,
        "kernels.points": _count_sum(res.counts, "points."),
        "kernels.quad_errors": res.errors["quad_errors"],
        "kernels.lizorkin_ms": sum(d("kernels.lizorkin_report_all")) * ms,
        "trace.spans": len(tr.spans),
    }
    for layer, sec in tr.self_times().items():
        m[f"self.{layer}_s"] = sec
    return m
