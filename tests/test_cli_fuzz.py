"""Property test of the CLI on hostile input: every run exits 0, 2 or 3, never with a traceback.

Configs start from a valid 32^2 run and take up to two edits, each drawn over
the fields of the dataclass a section is parsed into: a key set to an edge
value (0, +-1e+-300, nan, +-inf, huge integers), to a value of the wrong JSON
type or to a plausible value of its own type, a key removed, or a section
replaced.  Each config is solved and, when the solve writes phi.field,
evolved.  Stored-field headers take the same edits over their keys and are
verified.  The numeric flags of `kernel`, `lizorkin`, `sweep` and `evolve`
take the same edge values as strings, and so do the coordinates of the
`kernel` points.  Valid requests for astronomically many
samples or iterations (nx = 10**400, max_iter = 10**400, a huge oracle or
Lizorkin grid) are left out: they would run for ever, not fail.  So is a box
side of order 1, whose automatic time step is tiny: it plans fewer steps than
`evolve` refuses (t_end = 1e300 and dt = 1e-300 are drawn and refused), but
too many for the test's deadline.

Runs are in-process; a RuntimeWarning (overflow on an edge value) is recorded,
as the CLI process prints it and goes on.
"""

import contextlib
import io
import json
import math
import tempfile
import warnings
from dataclasses import fields
from pathlib import Path

import numpy as np
from hypothesis import event, given, settings, strategies as st

from shrira import Field, Grid, write_field
from shrira.cli import main
from shrira.config import _INIT_KINDS, _SECTIONS
from shrira.io import _HEADER_KEYS

EDGE_VALUES = (0, -1, 0.0, 1e300, -1e300, 1e-300, -1e-300, math.nan, math.inf, -math.inf,
               10**400, -(10**400))
WRONG_TYPES = (None, True, "1", "", [], {}, [1.0])
VALUES = EDGE_VALUES + WRONG_TYPES
# in range for a key of the annotation, so that half the edits leave a run that gets past parsing
PLAUSIBLE = {"int": (8, 16, 24, 1, 5), "float": (0.5, 1.5, 2.0, 3.0, 20.0), "bool": (True, False),
             "str": ("nehari_descent", "petviashvili", "gaussian", "file", "."),
             "object": ({"kind": "gaussian"},)}
PLAUSIBLE_AT = {("grid", "lx"): (16.0, 30.0), ("grid", "ly"): (16.0, 30.0), ("evolve", "t_end"): (0.01, 0.1)}
ENDLESS = {("grid", "nx"): (10**400,), ("grid", "ny"): (10**400,), ("solver", "max_iter"): (10**400,)}
DELETE, KEEP = object(), object()

BASE_CONFIG = {
    "grid": {"nx": 32, "ny": 32, "lx": 25.0, "ly": 25.0},
    "physics": {"c": 1.0, "m": 2.0, "signed_power": False},
    "solver": {"method": "petviashvili", "tol_residual": 1e-8, "max_iter": 30,
               "init": {"kind": "gaussian", "amplitude": 1.0, "sigma_x": 2.0, "sigma_y": 2.0}},
    "evolve": {"t_end": 0.05, "record_every": 5},
    "output": {"dir": ".", "snapshots": False},
}
# the annotation of every dataclass field a config can set, by (section, key); solver.init's are ("init", key)
CONFIG_KEYS = {(s, f.name): f.type for s, cls in _SECTIONS.items() for f in fields(cls)}
CONFIG_KEYS |= {("init", f.name): f.type for cls in _INIT_KINDS.values() for f in fields(cls)}
CONFIG_KEYS[("init", "kind")] = "str"


def _edit_value(where):
    ann = CONFIG_KEYS[where].removeprefix("Optional[").removesuffix("]")
    wild = [DELETE] + [v for v in VALUES if v not in ENDLESS.get(where, ())]
    return st.one_of(st.sampled_from(PLAUSIBLE_AT.get(where, PLAUSIBLE[ann])), st.sampled_from(wild))


key_edit = st.sampled_from(sorted(CONFIG_KEYS)).flatmap(lambda k: st.tuples(st.just(k), _edit_value(k)))
section_swap = st.tuples(st.sampled_from(sorted(_SECTIONS)), st.sampled_from((DELETE,) + WRONG_TYPES))


def _edited_config(edits):
    cfg = json.loads(json.dumps(BASE_CONFIG))
    for where, value in edits:
        if isinstance(where, str):  # a whole section
            target, key = cfg, where
        else:
            section, key = where
            target = cfg
            for name in ("solver", "init") if section == "init" else (section,):
                target = target.get(name) if isinstance(target, dict) else None
            if not isinstance(target, dict):  # replaced or removed by an earlier edit
                continue
        if value is DELETE:
            target.pop(key, None)
        else:
            target[key] = value
    return cfg


def _run(argv):
    """(exit code, stderr) of one in-process CLI run."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), warnings.catch_warnings(record=True):
        warnings.simplefilter("always")
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects a flag value
            code = exc.code
    return code, err.getvalue()


def _write_gaussian(path):
    """A 32^2 Gaussian stored as an m = 2 field."""
    g = Grid(32, 32, 25.0, 25.0)
    X, Y = g.meshgrid()
    write_field(path, Field(g, np.exp(-(X**2 + Y**2) / 4)), {"c": 1.0, "m": 2.0})


def _check(command, code, err):
    event(f"{command} exit {code}")
    assert code in (0, 2, 3), err
    if code:
        assert "error:" in err, err


@settings(max_examples=150, deadline=2000, derandomize=True, database=None)
@given(edits=st.lists(st.one_of(key_edit, key_edit, key_edit, section_swap), max_size=2))
def test_cli_solve_and_evolve_exit_cleanly_on_any_config(edits):
    with tempfile.TemporaryDirectory() as tmp:
        d = Path(tmp)
        cfg = d / "run.json"
        cfg.write_text(json.dumps(_edited_config(edits)))
        _check("solve", *_run(["solve", "--config", str(cfg), "--out", str(d / "solve")]))
        if (d / "solve" / "phi.field").exists():
            _check("evolve", *_run(["evolve", "--field", str(d / "solve" / "phi.field"),
                                    "--config", str(cfg), "--out", str(d / "evolve")]))


ANY_PLAUSIBLE = tuple(v for values in PLAUSIBLE.values() for v in values)
header_edit = st.tuples(st.sampled_from(_HEADER_KEYS),
                        st.one_of(st.sampled_from(ANY_PLAUSIBLE), st.sampled_from((DELETE,) + VALUES)))


@settings(max_examples=100, deadline=2000, derandomize=True, database=None)
@given(edits=st.lists(header_edit, max_size=3), whole=st.one_of(st.just(KEEP), st.sampled_from(VALUES)))
def test_cli_verify_exits_cleanly_on_any_header(edits, whole):
    with tempfile.TemporaryDirectory() as tmp:
        p = Path(tmp) / "phi.field"
        _write_gaussian(p)
        header, payload = p.read_bytes().split(b"\n", 1)
        header = json.loads(header)
        for key, value in edits:
            if value is DELETE:
                header.pop(key, None)
            else:
                header[key] = value
        if whole is not KEEP:  # a header that is not an object at all
            header = whole
        p.write_bytes(json.dumps(header).encode() + b"\n" + payload)
        _check("verify", *_run(["verify", "--field", str(p), "--out", str(Path(tmp) / "verify")]))


FLAG_VALUES = ("0", "-1", "1", "1e300", "-1e300", "1e-300", "nan", "inf", "-inf", "1" + "0" * 400, "x", "")
SIZES = ("8", "16", "32", "64", "0", "-8", "7", "9", "1e3", "x", "")  # oracle nodes per axis


def _flag(*plausible):
    return st.one_of(st.sampled_from(plausible), st.sampled_from(FLAG_VALUES))


# a points file of one or two rows, each coordinate plausible or an edge value
coordinate = st.one_of(st.sampled_from((0.5, 0.75, 1.0)), st.sampled_from(EDGE_VALUES))
points_csv = st.lists(st.tuples(coordinate, coordinate), min_size=1, max_size=2).map(
    lambda points: "x,y\n" + "".join(f"{x},{y}\n" for x, y in points))
kernel_args = st.tuples(
    st.just("kernel"), points_csv,
    st.just("--nu"), _flag("0", "0.5", "2", "-1.4"), st.just("--quad-tol"), _flag("1e-8"),
    st.just("--oracle-nx"), st.sampled_from(SIZES), st.just("--oracle-ny"), st.sampled_from(SIZES),
    st.just("--oracle-lx"), _flag("20", "40"), st.just("--oracle-ly"), _flag("10", "20"))
# valid flags, so that every drawn point reaches the oracle box check
kernel_points_args = st.tuples(st.just("kernel"), points_csv, *map(st.just, (
    "--nu", "0", "--oracle-nx", "64", "--oracle-ny", "32", "--oracle-lx", "20", "--oracle-ly", "10")))
lizorkin_args = st.tuples(st.just("lizorkin"), st.just("--n-samples"),
                          st.sampled_from(("2", "16", "0", "1", "-1", "1e3", "x", "")))
sweep_args = st.tuples(st.just("sweep"), st.just("--param"), st.sampled_from(("c", "m")), st.just("--values"),
                       st.lists(_flag("1", "1.5", "2", "3"), min_size=1, max_size=2).map(",".join))
evolve_args = st.tuples(st.just("evolve"), st.just("--reference-speed"), _flag("1", "0.5"))


@settings(max_examples=100, deadline=2000, derandomize=True, database=None)
@given(args=st.one_of(kernel_args, kernel_points_args, lizorkin_args, sweep_args, evolve_args))
def test_cli_numeric_flags_exit_cleanly(args):
    command, *flags = args
    with tempfile.TemporaryDirectory() as tmp:
        d = Path(tmp)
        cfg = d / "run.json"
        cfg.write_text(json.dumps(BASE_CONFIG))
        if command == "kernel":
            points, *flags = flags
            (d / "points.csv").write_text(points)
            argv = [command, *flags, "--points", str(d / "points.csv"), "--out", str(d / "kernel.csv")]
        elif command == "lizorkin":
            argv = [command, *flags, "--out", str(d / "lizorkin.csv")]
        elif command == "sweep":
            argv = [command, *flags, "--config", str(cfg), "--out", str(d / "sweep")]
        else:
            _write_gaussian(d / "phi.field")
            argv = [command, *flags, "--field", str(d / "phi.field"), "--config", str(cfg),
                    "--out", str(d / "evolve")]
        _check(command, *_run(argv))
