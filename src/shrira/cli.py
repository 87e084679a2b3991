"""Command-line interface.

A stored field's physics (c, m, signed_power) and grid come from its header:
`verify` reads them there, and `evolve` exits 2 when its config's physics (the
defaults if the section is absent) or its grid section (if present) differs.

Exit codes: 0 success, 2 rejected input (InputError, or a ValueError or a
file that cannot be read or written), evolve blow-up
(last_good.field and the partial conservation.csv are still written) or an
uncertified kernel point (the rows before it are still written), 3 solver
non-convergence, a collapse included (solve still writes phi.field,
solve_report.json with converged false and its timings, and functionals.json).
Every exit but 0 prints a line that starts with `error:` to standard error.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from . import decay as dec
from . import evolution as evo
from . import kernels as ker
from . import solver as sol
from .config import _parse, load_config
from .errors import BlowUpError, ConvergenceError, InputError, ShriraError
from .functionals import PhysicsParams
from .grid import Field, Grid
from .io import read_field, write_field

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NO_CONVERGENCE = 3


def _write_json(path: Path, obj) -> None:
    def clean(v):
        if isinstance(v, float) and not -np.inf < v < np.inf:
            return None
        if isinstance(v, dict):
            return {k: clean(x) for k, x in v.items()}
        if isinstance(v, (list, tuple)):
            return [clean(x) for x in v]
        return v

    with open(path, "w", encoding="utf-8") as fh:
        json.dump(clean(obj), fh, indent=2, allow_nan=False)
        fh.write("\n")


def _write_csv(path: Path, header, rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


def _tail_csv(path: Path, field: Field, axis: str, alpha: float) -> None:
    vals, offs = dec._axis_samples(field, axis)
    order = np.argsort(offs)
    rows = [
        (f"{offs[i]:.17g}", f"{vals[i]:.17g}", f"{abs(offs[i]) ** alpha * vals[i]:.17g}")
        for i in order
        if offs[i] != 0.0
    ]
    _write_csv(path, ("r", "phi", "weighted_phi"), rows)


def _meta(params) -> dict:
    return {"c": params.c, "m": params.m, "signed_power": params.signed_power,
            "producer": f"shrira {__version__}"}


def _cmd_solve(args) -> int:
    cfg = load_config(args.config)
    grid = cfg.require_grid()
    out = Path(args.out or cfg.output.dir)
    out.mkdir(parents=True, exist_ok=True)
    code = EXIT_OK
    try:
        fld, report = sol.solve(cfg.solver, cfg.physics, grid)
    except ConvergenceError as exc:  # a collapse included: every stop carries field and report
        fld, report = exc.field, exc.report
        code = EXIT_NO_CONVERGENCE
        print(f"error: solver did not converge: {exc}", file=sys.stderr)
    write_field(out / "phi.field", fld, _meta(cfg.physics))
    _write_json(out / "solve_report.json", report.to_dict())
    _write_json(out / "functionals.json", report.functionals.to_dict())
    return code


def _read_stored(path):
    """(Field, PhysicsParams) of a field file: its header is the one source of its physics."""
    fld, header = read_field(path)
    return fld, _parse(PhysicsParams, {k: header[k] for k in ("c", "m", "signed_power")}, f"{path}: header")


def _cmd_verify(args) -> int:
    fld, params = _read_stored(args.field)
    out = Path(args.out or Path(args.field).parent)
    out.mkdir(parents=True, exist_ok=True)
    vr, dr = sol.verify(fld, params)
    _write_json(out / "verify_report.json", vr.to_dict())
    _write_json(out / "decay_report.json", dr.to_dict())
    _tail_csv(out / "tail_x.csv", fld, "x", 1.5)
    _tail_csv(out / "tail_y.csv", fld, "y", 3.0)
    return EXIT_OK


def _conservation_csv(path: Path, report) -> None:
    shapes = report.shape_error_series or [""] * len(report.times)
    rows = [(f"{t:.17g}", f"{m:.17g}", f"{e:.17g}", shape) for t, m, e, shape
            in zip(report.times, report.mass_series, report.energy_series, shapes)]
    _write_csv(path, ("t", "mass", "energy", "shape_error"), rows)


def _cmd_evolve(args) -> int:
    fld, params = _read_stored(args.field)
    cfg = load_config(args.config)
    if cfg.evolve is None:
        raise InputError("evolve: section is required for this command")
    if cfg.physics != params:
        raise InputError(f"physics: the config's {cfg.physics} differs from the header's {params} "
                         f"in {args.field}")
    if cfg.grid is not None and cfg.grid != fld.grid:
        raise InputError(f"grid: the config's {cfg.grid} differs from the header's {fld.grid} in {args.field}")
    out = Path(args.out or cfg.output.dir)
    out.mkdir(parents=True, exist_ok=True)
    reference = (fld, args.reference_speed) if args.reference_speed is not None else None
    snapshots = []

    def snap(step, t, f):
        p = out / f"snap_{step:06d}.field"
        write_field(p, f, _meta(params))
        snapshots.append(str(p))

    try:
        report = evo.evolve(fld, cfg.evolve, params, reference=reference,
                            snapshot_cb=snap if cfg.output.snapshots else None)
    except BlowUpError as exc:
        write_field(out / "last_good.field", exc.last_good, _meta(params))
        _conservation_csv(out / "conservation.csv", exc.report)
        raise
    _conservation_csv(out / "conservation.csv", report)
    d = report.to_dict()
    d["snapshots"] = snapshots
    _write_json(out / "evolve_report.json", d)
    write_field(out / "final.field", report.final, _meta(params))
    return EXIT_OK


def _read_points_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        rd = csv.DictReader(fh)
        if rd.fieldnames is None or not {"x", "y"} <= set(rd.fieldnames):
            raise InputError(f"{path}: expected CSV with columns x,y")
        try:
            return [(float(row["x"]), float(row["y"])) for row in rd]
        except (KeyError, ValueError) as exc:
            raise InputError(f"{path}: malformed point row ({exc})") from exc


def _cmd_kernel(args) -> int:
    spec = ker.KernelSpec(nu=args.nu, quad_tol=args.quad_tol)
    points = _read_points_csv(args.points)
    oracle_grid = Grid(nx=args.oracle_nx, ny=args.oracle_ny, lx=args.oracle_lx, ly=args.oracle_ly)
    # every point is checked against the oracle box here, before any row is written
    oracle = [kv for _, _, kv in ker.oracle_nodes(spec.nu, oracle_grid, [(x, 2.0 * y) for x, y in points])]
    # rows are written as they come: an uncertified point stops them, the rows before it stay on disk
    rows = ((f"{x:.17g}", f"{y:.17g}", f"{v:.17g}", f"{err:.3g}", f"{kv:.17g}", f"{rel:.6g}")
            for x, y, v, err, kv, rel in ker.kernel_rows(spec, points, oracle))
    _write_csv(Path(args.out), ("x", "y", "value", "est_error", "oracle", "rel_diff"), rows)
    return EXIT_OK


def _cmd_sweep(args) -> int:
    cfg = load_config(args.config)
    grid = cfg.require_grid()
    try:
        values = [float(v) for v in args.values.split(",") if v]
    except ValueError as exc:
        raise InputError(f"--values: {exc}") from exc
    if not values:
        raise InputError("--values: expected a comma-separated list of numbers")
    out = Path(args.out or cfg.output.dir)
    out.mkdir(parents=True, exist_ok=True)
    code = EXIT_OK
    try:
        rows = sol.sweep(args.param, values, cfg.solver, cfg.physics, grid)
    except ConvergenceError as exc:
        print(f"error: sweep aborted: {exc}", file=sys.stderr)
        rows, code = exc.rows, EXIT_NO_CONVERGENCE
    _write_csv(
        out / "sweep.csv",
        ("value", "d", "l2_norm_sq", "exponent_x", "exponent_y", "iterations", "converged"),
        [
            (f"{r.value:.17g}", f"{r.d:.17g}", f"{r.l2_norm_sq:.17g}",
             f"{r.exponent_x:.17g}", f"{r.exponent_y:.17g}", r.iterations, int(r.converged))
            for r in rows
        ],
    )
    return code


def _cmd_lizorkin(args) -> int:
    rows = [(mult, k1, k2, f"{v:.17g}", rep.n_samples)
            for rep in ker.lizorkin_report_all(n_samples=args.n_samples) for mult, k1, k2, v in rep.rows()]
    _write_csv(Path(args.out), ("multiplier", "k1", "k2", "sup_abs", "n_samples"), rows)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="shrira", description=__doc__)
    ap.add_argument("--version", action="version", version=f"shrira {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="compute a ground state")
    p.add_argument("--config", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=_cmd_solve)

    p = sub.add_parser("verify", help="recompute identities and decay for a stored field")
    p.add_argument("--field", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("evolve", help="time-integrate a stored field")
    p.add_argument("--field", required=True)
    p.add_argument("--config", required=True)
    p.add_argument("--out", default=None)
    p.add_argument("--reference-speed", type=float, default=None)
    p.set_defaults(fn=_cmd_evolve)

    p = sub.add_parser("kernel", help="kernel quadrature samples with oracle cross-check")
    p.add_argument("--nu", type=float, required=True)
    p.add_argument("--points", required=True, help="CSV with columns x,y")
    p.add_argument("--out", required=True)
    p.add_argument("--quad-tol", type=float, default=ker.KernelSpec.quad_tol)
    p.add_argument("--oracle-nx", type=int, default=4096)
    p.add_argument("--oracle-ny", type=int, default=1024)
    p.add_argument("--oracle-lx", type=float, default=float(128 * np.pi))
    p.add_argument("--oracle-ly", type=float, default=float(32 * np.pi))
    p.set_defaults(fn=_cmd_kernel)

    p = sub.add_parser("sweep", help="continuation over c or m")
    p.add_argument("--param", choices=("c", "m"), required=True)
    p.add_argument("--values", required=True, help="comma-separated values")
    p.add_argument("--config", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=_cmd_sweep)

    p = sub.add_parser("lizorkin", help="multiplier-condition sampling report")
    p.add_argument("--out", required=True)
    p.add_argument("--n-samples", type=int, default=ker.LIZORKIN_SAMPLES)
    p.set_defaults(fn=_cmd_lizorkin)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    except (ShriraError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
