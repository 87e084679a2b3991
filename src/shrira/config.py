"""Run configuration: strict JSON parsing with key-precise errors.

Unknown keys are rejected at every level; JSON syntax errors report line and
column.  All sections are optional except where a command requires them
(solve needs grid; physics defaults to c=1, m=2).
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field, fields
from typing import Optional

from .errors import ConfigError
from .grid import Grid
from .functionals import PhysicsParams
from .solver import SolverConfig, GaussianInit, FileInit, PETVIASHVILI
from .evolution import EvolveConfig


@dataclass(frozen=True)
class OutputConfig:
    dir: str = "."
    snapshots: bool = False


@dataclass(frozen=True)
class RunConfig:
    grid: Optional[Grid] = None
    physics: PhysicsParams = field(default_factory=lambda: PhysicsParams(c=1.0, m=2))
    solver: SolverConfig = field(default_factory=SolverConfig)
    evolve: Optional[EvolveConfig] = None
    output: OutputConfig = field(default_factory=OutputConfig)

    def require_grid(self) -> Grid:
        if self.grid is None:
            raise ConfigError("grid: section is required for this command")
        return self.grid


def _check_keys(obj: dict, cls, where: str, extra=()):
    """Reject keys that name neither a field of the dataclass `cls` nor one of `extra`."""
    unknown = sorted(set(obj) - {f.name for f in fields(cls)} - set(extra))
    if unknown:
        raise ConfigError(f"{where}: unknown key(s) {', '.join(unknown)}")


def _need(obj: dict, key: str, where: str):
    if key not in obj:
        raise ConfigError(f"{where}.{key}: required key is missing")
    return obj[key]


def _number(v, where):
    # json.loads accepts NaN and Infinity; neither is a usable setting
    if not isinstance(v, (int, float)) or isinstance(v, bool) or not math.isfinite(v):
        raise ConfigError(f"{where}: expected a finite number, got {v!r}")
    return float(v)


def _integer(v, where):
    if not isinstance(v, int) or isinstance(v, bool):
        raise ConfigError(f"{where}: expected an integer, got {v!r}")
    return v


def _boolean(v, where):
    if not isinstance(v, bool):
        raise ConfigError(f"{where}: expected true/false, got {v!r}")
    return v


def _build(cls, where: str, **kwargs):
    """cls(**kwargs); its range errors name the field, prefixed here by the section."""
    try:
        return cls(**kwargs)
    except ValueError as exc:
        raise ConfigError(f"{where}.{exc}") from exc


def _parse_grid(obj) -> Grid:
    _check_keys(obj, Grid, "grid")
    return _build(
        Grid,
        "grid",
        nx=_integer(_need(obj, "nx", "grid"), "grid.nx"),
        ny=_integer(_need(obj, "ny", "grid"), "grid.ny"),
        lx=_number(_need(obj, "lx", "grid"), "grid.lx"),
        ly=_number(_need(obj, "ly", "grid"), "grid.ly"),
    )


def _parse_physics(obj) -> PhysicsParams:
    _check_keys(obj, PhysicsParams, "physics")
    return _build(
        PhysicsParams,
        "physics",
        c=_number(obj.get("c", 1.0), "physics.c"),
        m=_number(obj.get("m", 2), "physics.m"),
        signed_power=_boolean(obj.get("signed_power", False), "physics.signed_power"),
    )


def _parse_init(obj):
    kind = _need(obj, "kind", "solver.init")
    if kind == "gaussian":
        _check_keys(obj, GaussianInit, "solver.init", ("kind",))
        return _build(
            GaussianInit,
            "solver.init",
            amplitude=_number(obj.get("amplitude", 1.0), "solver.init.amplitude"),
            sigma_x=_number(obj.get("sigma_x", 2.0), "solver.init.sigma_x"),
            sigma_y=_number(obj.get("sigma_y", 2.0), "solver.init.sigma_y"),
        )
    if kind == "file":
        _check_keys(obj, FileInit, "solver.init", ("kind",))
        path = _need(obj, "path", "solver.init")
        if not isinstance(path, str):
            raise ConfigError("solver.init.path: expected a string")
        return FileInit(path=path)
    raise ConfigError(f"solver.init.kind: expected 'gaussian' or 'file', got {kind!r}")


def _optional_number(v, where):
    return None if v is None else _number(v, where)


def _parse_solver(obj) -> SolverConfig:
    _check_keys(obj, SolverConfig, "solver")
    return _build(
        SolverConfig,
        "solver",
        method=obj.get("method", PETVIASHVILI),
        tol_residual=_number(obj.get("tol_residual", 1e-10), "solver.tol_residual"),
        tol_delta=_number(obj.get("tol_delta", 1e-11), "solver.tol_delta"),
        max_iter=_integer(obj.get("max_iter", 2000), "solver.max_iter"),
        gamma=_optional_number(obj.get("gamma"), "solver.gamma"),
        init=_parse_init(obj.get("init", {"kind": "gaussian"})),
        descent_step=_number(obj.get("descent_step", 1e-2), "solver.descent_step"),
        dealias_rule=obj.get("dealias_rule"),
    )


def _parse_evolve(obj) -> EvolveConfig:
    _check_keys(obj, EvolveConfig, "evolve")
    return _build(
        EvolveConfig,
        "evolve",
        t_end=_number(_need(obj, "t_end", "evolve"), "evolve.t_end"),
        dt=_optional_number(obj.get("dt"), "evolve.dt"),
        dealias_rule=obj.get("dealias_rule"),
        record_every=_integer(obj.get("record_every", 20), "evolve.record_every"),
    )


def _parse_output(obj) -> OutputConfig:
    _check_keys(obj, OutputConfig, "output")
    d = obj.get("dir", ".")
    if not isinstance(d, str):
        raise ConfigError("output.dir: expected a string")
    return OutputConfig(dir=d, snapshots=_boolean(obj.get("snapshots", False), "output.snapshots"))


def parse_config(text: str) -> RunConfig:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    if not isinstance(obj, dict):
        raise ConfigError("top level: expected a JSON object")
    _check_keys(obj, RunConfig, "top level")
    for key in obj:
        if not isinstance(obj[key], dict):
            raise ConfigError(f"{key}: expected a JSON object")
    return RunConfig(
        grid=_parse_grid(obj["grid"]) if "grid" in obj else None,
        physics=_parse_physics(obj.get("physics", {})),
        solver=_parse_solver(obj.get("solver", {})),
        evolve=_parse_evolve(obj["evolve"]) if "evolve" in obj else None,
        output=_parse_output(obj.get("output", {})),
    )


def load_config(path) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse_config(fh.read())
    except OSError as exc:
        raise ConfigError(f"{path}: {exc.strerror or exc}") from exc


def serialize_config(cfg: RunConfig) -> str:
    """Inverse of parse_config (parse . serialize . parse is idempotent)."""
    obj = {key: value for key, value in asdict(cfg).items() if value is not None}
    init = obj["solver"]["init"]
    init["kind"] = "gaussian" if isinstance(cfg.solver.init, GaussianInit) else "file"
    return json.dumps(obj, indent=2)
