"""Run configuration: strict JSON parsing with key-precise errors.

Each section is parsed from the fields of its dataclass: a present value is
checked against the field's annotation, and a missing key takes the
dataclass default (a field without one is required).  The defaults and the
range checks, finiteness included, live on the dataclasses only; the parser
checks JSON types.  Unknown keys and non-object sections are rejected at
every level; JSON syntax errors report line and column.  All sections are
optional except where a command requires them (solve needs grid, evolve
needs evolve).
"""

from __future__ import annotations

import json
from dataclasses import MISSING, dataclass, field, fields
from typing import Optional

from .errors import InputError
from .grid import Grid
from .functionals import PhysicsParams
from .solver import SolverConfig, GaussianInit, FileInit
from .evolution import EvolveConfig


@dataclass(frozen=True)
class OutputConfig:
    dir: str = "."
    snapshots: bool = False


@dataclass(frozen=True)
class RunConfig:
    grid: Optional[Grid] = None
    physics: PhysicsParams = field(default_factory=PhysicsParams)
    solver: SolverConfig = field(default_factory=SolverConfig)
    evolve: Optional[EvolveConfig] = None
    output: OutputConfig = field(default_factory=OutputConfig)

    def require_grid(self) -> Grid:
        if self.grid is None:
            raise InputError("grid: section is required for this command")
        return self.grid


_SECTIONS = {"grid": Grid, "physics": PhysicsParams, "solver": SolverConfig,
             "evolve": EvolveConfig, "output": OutputConfig}
_INIT_KINDS = {"gaussian": GaussianInit, "file": FileInit}
_EXACT_TYPES = {"int": (int, "an integer"), "bool": (bool, "true/false"), "str": (str, "a string")}


def _check_keys(obj: dict, cls, where: str, extra=()):
    """Reject keys that name neither a field of the dataclass `cls` nor one of `extra`."""
    unknown = sorted(set(obj) - {f.name for f in fields(cls)} - set(extra))
    if unknown:
        raise InputError(f"{where}: unknown key(s) {', '.join(unknown)}")


def _value(ann: str, v, where: str):
    """The JSON value v of a field annotated `ann`: float, int, bool, str or Optional[...]."""
    if ann.startswith("Optional["):
        return None if v is None else _value(ann[len("Optional["):-1], v, where)
    if ann == "object":  # solver.init
        return _parse_init(v, where)
    if ann == "float":  # NaN and Infinity, which json.loads accepts, fail the range checks
        if isinstance(v, (int, float)) and not isinstance(v, bool):
            try:
                return float(v)
            except OverflowError:  # an integer literal past the double range
                raise InputError(f"{where}: expected a number, got an integer beyond the double range")
        raise InputError(f"{where}: expected a number, got {v!r}")
    typ, expected = _EXACT_TYPES[ann]
    if type(v) is not typ:  # bool is a subclass of int, and not an integer here
        raise InputError(f"{where}: expected {expected}, got {v!r}")
    return v


def _parse(cls, obj, where: str, extra=()):
    """The dataclass cls from the JSON object obj; missing keys take the dataclass defaults."""
    if not isinstance(obj, dict):
        raise InputError(f"{where}: expected a JSON object")
    _check_keys(obj, cls, where, extra)
    kwargs = {}
    for f in fields(cls):
        if f.name in obj:
            kwargs[f.name] = _value(f.type, obj[f.name], f"{where}.{f.name}")
        elif f.default is MISSING and f.default_factory is MISSING:
            raise InputError(f"{where}.{f.name}: required key is missing")
    try:
        return cls(**kwargs)
    except ValueError as exc:  # the dataclasses' range errors name the field
        raise InputError(f"{where}.{exc}") from exc


def _parse_init(obj, where: str):
    """solver.init: the dataclass named by its "kind" key."""
    if not isinstance(obj, dict):
        raise InputError(f"{where}: expected a JSON object")
    if "kind" not in obj:
        raise InputError(f"{where}.kind: required key is missing")
    kind = obj["kind"]
    if not isinstance(kind, str) or kind not in _INIT_KINDS:
        raise InputError(f"{where}.kind: expected 'gaussian' or 'file', got {kind!r}")
    return _parse(_INIT_KINDS[kind], obj, where, extra=("kind",))


def parse_config(text: str) -> RunConfig:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    if not isinstance(obj, dict):
        raise InputError("top level: expected a JSON object")
    _check_keys(obj, RunConfig, "top level")
    return RunConfig(**{key: _parse(_SECTIONS[key], value, key) for key, value in obj.items()})


def load_config(path) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse_config(fh.read())
    except OSError as exc:
        raise InputError(f"{path}: {exc.strerror or exc}") from exc
