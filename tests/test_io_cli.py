"""Field persistence, configuration parsing, and CLI end-to-end runs."""

import contextlib
import csv
import dataclasses
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import shrira
from shrira import Grid, Field, read_field, write_field
from shrira import cli
from shrira.cli import _write_json, main
from shrira.kernels import (KernelSpec, h_nu_point, kernel_rows, kernel_spectral_oracle, oracle_nodes,
                            oracle_node_value)
from shrira.config import OutputConfig, parse_config
from shrira.errors import InputError, QuadratureAccuracyError

from conftest import traced_peak

PI = math.pi


# --- field files --------------------------------------------------------------


def test_field_round_trip_bit_exact(tmp_path):
    rng = np.random.default_rng(1)
    g = Grid(16, 24, 3.5, 7.25)
    f = Field(g, rng.standard_normal((24, 16)))
    p = tmp_path / "a.field"
    meta = {"c": 1.0, "m": 2, "created": "2026-01-01T00:00:00+00:00", "producer": "t"}
    write_field(p, f, meta)
    back, header = read_field(p)
    assert np.array_equal(back.values, f.values)  # bit exact
    assert back.grid == g
    # read -> write with the same header is byte-identical
    p2 = tmp_path / "b.field"
    write_field(p2, back, header)
    assert p.read_bytes() == p2.read_bytes()


def test_field_file_errors(tmp_path):
    g = Grid(8, 8, 1.0, 1.0)
    f = Field(g, np.zeros((8, 8)))
    p = tmp_path / "c.field"
    write_field(p, f, {"c": 1.0, "m": 2})
    raw = p.read_bytes()
    # truncated payload
    (tmp_path / "trunc.field").write_bytes(raw[:-8])
    with pytest.raises(InputError, match="payload is"):
        read_field(tmp_path / "trunc.field")
    # mangled header
    (tmp_path / "bad.field").write_bytes(b"not json\n" + raw.split(b"\n", 1)[1])
    with pytest.raises(InputError, match="unreadable header"):
        read_field(tmp_path / "bad.field")
    # no newline at all
    (tmp_path / "nonl.field").write_bytes(b"x" * 10)
    with pytest.raises(InputError, match="missing header line"):
        read_field(tmp_path / "nonl.field")


def test_field_file_payload_size_is_checked_before_the_samples_are_read(tmp_path):
    """A header that claims 2^20 x 2^20 samples over a short payload, or a payload with
    trailing bytes, is rejected by size, without allocating the claimed array."""
    header = {"format_version": 2, "nx": 2**20, "ny": 2**20, "lx": 1.0, "ly": 1.0, "c": 1.0, "m": 2.0,
              "signed_power": False, "created": "2000-01-01T00:00:00+00:00", "producer": "t"}
    p = tmp_path / "huge.field"
    p.write_bytes(json.dumps(header).encode() + b"\n" + bytes(64))

    def read():
        with pytest.raises(InputError, match=f"payload is 64 bytes, header implies {8 * 2**40}"):
            read_field(p)

    assert traced_peak(read) < 2**20
    write_field(p, Field(Grid(8, 8, 1.0, 1.0), np.zeros((8, 8))), {"c": 1.0, "m": 2})
    p.write_bytes(p.read_bytes() + bytes(3))
    with pytest.raises(InputError, match="payload is 515 bytes, header implies 512"):
        read_field(p)


def test_field_file_is_read_into_one_array(tmp_path):
    """read_field holds one copy of the samples: the file's bytes go straight into the array
    the Field keeps (three copies when the raw bytes, a payload slice and a cast were held)."""
    g = Grid(256, 256, 1.0, 1.0)
    p = tmp_path / "big.field"
    write_field(p, Field(g, np.random.default_rng(3).standard_normal((256, 256))), {"c": 1.0, "m": 2})
    assert traced_peak(lambda: read_field(p)) <= 1.25 * g.nx * g.ny * 8


def test_field_file_is_little_endian(tmp_path):
    g = Grid(8, 8, 1.0, 1.0)
    vals = np.zeros((8, 8))
    vals[0, 0] = 1.0
    p = tmp_path / "le.field"
    write_field(p, Field(g, vals), {"c": 1.0, "m": 2})
    payload = p.read_bytes().split(b"\n", 1)[1]
    assert np.frombuffer(payload[:8], dtype="<f8")[0] == 1.0


# --- configuration ------------------------------------------------------------


BASE_CONFIG = {
    "grid": {"nx": 64, "ny": 64, "lx": 16 * PI, "ly": 16 * PI},
    "physics": {"c": 1.0, "m": 2, "signed_power": False},
    "solver": {"method": "petviashvili", "max_iter": 500},
    "evolve": {"t_end": 0.2, "record_every": 5},
    "output": {"dir": ".", "snapshots": False},
}


def test_empty_config_takes_the_dataclass_defaults():
    """Missing sections and keys take the dataclass defaults; these are the values the
    hand-written parsers gave."""
    cfg = parse_config("{}")
    assert cfg.grid is None and cfg.evolve is None
    assert cfg.physics == shrira.PhysicsParams(c=1.0, m=2.0, signed_power=False)
    assert cfg.solver == shrira.SolverConfig(
        method="petviashvili", tol_residual=1e-10, max_iter=2000,
        init=shrira.GaussianInit(amplitude=1.0, sigma_x=2.0, sigma_y=2.0))
    assert cfg.output == OutputConfig(dir=".", snapshots=False)
    evolve = parse_config(json.dumps(BASE_CONFIG)).evolve
    assert evolve == shrira.EvolveConfig(t_end=0.2, dt=None, record_every=5)


def test_config_unknown_keys_rejected():
    bad = dict(BASE_CONFIG)
    bad["grid"] = {**BASE_CONFIG["grid"], "nz": 4}
    with pytest.raises(InputError, match="grid: unknown key"):
        parse_config(json.dumps(bad))
    with pytest.raises(InputError, match="top level: unknown key"):
        parse_config(json.dumps({**BASE_CONFIG, "extra": {}}))


@pytest.mark.parametrize("section, key, value", [
    ("solver", "gamma", 2.0), ("solver", "tol_delta", 1e-11), ("solver", "descent_step", 0.01),
    ("solver", "dealias_rule", "half"), ("evolve", "dealias_rule", "half"),
])
def test_settings_fixed_by_m_or_constant_are_unknown_keys(section, key, value):
    """gamma and the dealias rule follow from m; the delta gate and Nehari's first step are constants."""
    body = {**BASE_CONFIG[section], key: value}
    with pytest.raises(InputError, match=re.escape(f"{section}: unknown key(s) {key}")):
        parse_config(json.dumps({**BASE_CONFIG, section: body}))


def test_run_configuration_docs_name_every_config_field():
    """The key block under "## Run configuration" in docs/formats.md lists every field of the
    section dataclasses, and every `name (default)` entry in it is such a field."""
    doc = (Path(__file__).parents[1] / "docs" / "formats.md").read_text(encoding="utf-8")
    block = re.search(r"^## Run configuration.*?^```\n(.*?)^```", doc, re.S | re.M).group(1)
    classes = (Grid, shrira.PhysicsParams, shrira.SolverConfig, shrira.GaussianInit, shrira.FileInit,
               shrira.EvolveConfig, OutputConfig)
    names = {f.name for cls in classes for f in dataclasses.fields(cls)}
    assert [n for n in sorted(names) if not re.search(rf"\b{n}\b", block)] == []
    assert set(re.findall(r"(\w+) \(", block)) <= names


def test_config_key_precise_messages():
    bad = dict(BASE_CONFIG)
    bad["solver"] = {"tol_residual": -1.0}
    with pytest.raises(InputError, match="solver.tol_residual"):
        parse_config(json.dumps(bad))
    bad["solver"] = {"init": {"kind": "squircle"}}
    with pytest.raises(InputError, match="solver.init.kind"):
        parse_config(json.dumps(bad))
    bad["solver"] = {"init": 5}
    with pytest.raises(InputError, match="solver.init: expected a JSON object"):
        parse_config(json.dumps(bad))
    for section, body, key in (("grid", {"nx": 64, "lx": 1.0, "ly": 1.0}, "grid.ny"),
                               ("evolve", {"dt": 0.1}, "evolve.t_end")):
        with pytest.raises(InputError, match=re.escape(f"{key}: required key is missing")):
            parse_config(json.dumps({**BASE_CONFIG, section: body}))


def test_config_syntax_error_has_line_and_column():
    with pytest.raises(InputError, match=r"line 2, column"):
        parse_config('{\n  "grid": ,\n}')


def test_config_range_errors_name_the_key():
    """Range checks live in the dataclasses; the parser prefixes the section."""
    for section, body, key in (
        ("grid", {"nx": 6, "ny": 64, "lx": 1.0, "ly": 1.0}, "grid.nx"),
        ("physics", {"m": 2.5}, "physics.m"),
        ("solver", {"max_iter": 0}, "solver.max_iter"),
        ("solver", {"init": {"kind": "gaussian", "sigma_y": -1.0}}, "solver.init.sigma_y"),
        ("evolve", {"t_end": 1.0, "record_every": 0}, "evolve.record_every"),
        # json accepts NaN and Infinity (json.dumps writes them for these floats)
        ("physics", {"m": math.inf}, "physics.m"),
        ("physics", {"c": math.inf}, "physics.c: wave speed must be positive and finite, got inf"),
        ("grid", {"nx": 16, "ny": 16, "lx": math.inf, "ly": 1.0}, "grid.lx"),
        ("solver", {"tol_residual": math.nan}, "solver.tol_residual"),
    ):
        with pytest.raises(InputError, match=re.escape(key)):
            parse_config(json.dumps({**BASE_CONFIG, section: body}))


@pytest.mark.parametrize("value", [math.inf, math.nan])
@pytest.mark.parametrize("cls, name, kwargs", [
    (shrira.PhysicsParams, "c", {}),
    (shrira.PhysicsParams, "m", {"signed_power": True}),
    (shrira.SolverConfig, "tol_residual", {}),
    (shrira.GaussianInit, "sigma_x", {}),
    (shrira.GaussianInit, "sigma_y", {}),
    (shrira.EvolveConfig, "dt", {"t_end": 1.0}),
    (shrira.EvolveConfig, "t_end", {}),
    (KernelSpec, "nu", {}),
])
def test_dataclasses_reject_non_finite_settings(cls, name, kwargs, value):
    """Each setting is range-checked, finiteness included, by its dataclass alone; the
    message starts with the field name."""
    with pytest.raises(InputError, match=f"^{name}: "):
        cls(**kwargs, **{name: value})


# --- CLI end-to-end -----------------------------------------------------------


@pytest.fixture(scope="module")
def cfg_file(tmp_path_factory):
    d = tmp_path_factory.mktemp("cfg")
    p = d / "run.json"
    p.write_text(json.dumps(BASE_CONFIG))
    return p


@pytest.fixture(scope="module")
def solved_dir(tmp_path_factory, cfg_file):
    out = tmp_path_factory.mktemp("solve_out")
    code = main(["solve", "--config", str(cfg_file), "--out", str(out)])
    assert code == 0
    return out


def test_cli_solve_outputs(solved_dir):
    assert (solved_dir / "phi.field").exists()
    rep = json.loads((solved_dir / "solve_report.json").read_text())
    assert rep["converged"] is True
    assert set(rep["timings"]) == {"setup_s", "loop_s", "report_s"}
    fun = json.loads((solved_dir / "functionals.json").read_text())
    assert set(fun) >= {"S", "I", "G", "z_norm_sq"}


def test_cli_verify_matches_solve(solved_dir, tmp_path):
    out = tmp_path / "verify"
    code = main(["verify", "--field", str(solved_dir / "phi.field"), "--out", str(out)])
    assert code == 0
    rep = json.loads((out / "verify_report.json").read_text())
    solve_rep = json.loads((solved_dir / "solve_report.json").read_text())
    assert abs(rep["spectral_residual"] - solve_rep["residual_history"][-1]) <= 1e-12
    mixed = json.loads((out / "decay_report.json").read_text())["mixed_norms"]
    assert mixed[-1]["q"] is None and mixed[-1]["r"] == 1.5  # q = inf, written as null
    for name in ("tail_x.csv", "tail_y.csv"):
        with open(out / name) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["r", "phi", "weighted_phi"]
        assert len(rows) > 10


def test_cli_verify_t_u_is_nehari_scale(solved_dir, tmp_path):
    """verify reads t_u off its functional report: the value nehari_scale gives, bit for bit."""
    out = tmp_path / "verify"
    assert main(["verify", "--field", str(solved_dir / "phi.field"), "--out", str(out)]) == 0
    fld, header = read_field(solved_dir / "phi.field")
    params = shrira.PhysicsParams(header["c"], header["m"], header["signed_power"])
    assert json.loads((out / "verify_report.json").read_text())["nehari_t_u"] == shrira.nehari_scale(fld, params)


def test_cli_verify_report_is_the_library_report(solved_dir, tmp_path):
    """verify_report.json is `_write_json` of `shrira.verify`'s VerifyReport, timings apart."""
    out = tmp_path / "verify"
    assert main(["verify", "--field", str(solved_dir / "phi.field"), "--out", str(out)]) == 0
    fld, header = read_field(solved_dir / "phi.field")
    params = shrira.PhysicsParams(header["c"], header["m"], header["signed_power"])
    _write_json(tmp_path / "library.json", shrira.verify(fld, params)[0].to_dict())
    got, want = (json.loads(p.read_text()) for p in (out / "verify_report.json", tmp_path / "library.json"))
    assert got.pop("timings").keys() == want.pop("timings").keys()
    assert got == want


def test_cli_verify_infinite_box_exits_2(tmp_path, capsys):
    """A header with "lx": Infinity is rejected when the grid is built, naming the key."""
    p = tmp_path / "inf.field"
    write_field(p, Field(Grid(16, 16, 2 * PI, 2 * PI), np.ones((16, 16))), {"c": 1.0, "m": 2})
    header, payload = p.read_bytes().split(b"\n", 1)
    header = json.loads(header)
    header["lx"] = math.inf
    p.write_bytes(json.dumps(header).encode() + b"\n" + payload)
    assert b'"lx": Infinity' in p.read_bytes()
    assert main(["verify", "--field", str(p), "--out", str(tmp_path / "v")]) == 2
    assert "lx: box length must be positive and finite" in capsys.readouterr().err


@pytest.mark.parametrize("edit, message", [
    (lambda h: [1], "header is not a JSON object"),
    (lambda h: dict(h, nx=None), "header.nx: expected an integer, got None"),
    (lambda h: dict(h, nx=32.5), "header.nx: expected an integer, got 32.5"),
    (lambda h: dict(h, signed_power="false"), "header.signed_power: expected true/false, got 'false'"),
    (lambda h: dict(h, c="one"), "header.c: expected a number, got 'one'"),
], ids=["list", "nx_null", "nx_fraction", "signed_power_string", "c_string"])
def test_cli_verify_checks_header_values_as_config_values(solved_dir, tmp_path, capsys, edit, message):
    """A header value of the wrong JSON type exits 2 naming its key, as a config value does;
    none is read as a neighbouring value (nx 32.5 as 32, "false" as true)."""
    p = tmp_path / "edited.field"
    header, payload = (solved_dir / "phi.field").read_bytes().split(b"\n", 1)
    p.write_bytes(json.dumps(edit(json.loads(header))).encode() + b"\n" + payload)
    assert main(["verify", "--field", str(p), "--out", str(tmp_path / "v")]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "v").exists()


def test_cli_verify_report_times_its_phases(solved_dir, tmp_path):
    out = tmp_path / "verify"
    assert main(["verify", "--field", str(solved_dir / "phi.field"), "--out", str(out)]) == 0
    timings = json.loads((out / "verify_report.json").read_text())["timings"]
    assert set(timings) == {"residual_s", "functionals_s", "decay_s"}
    assert all(t >= 0 for t in timings.values())


def test_cli_verify_keeps_its_outputs_when_no_tail_can_be_fitted(tmp_path):
    """On 16^2 over a 25 box each fit window holds fewer than 8 sample radii: verify still exits 0
    and writes its reports, the exponents and their stderrs null, the residual that of the solve."""
    cfg = tmp_path / "run16.json"
    cfg.write_text(json.dumps({"grid": {"nx": 16, "ny": 16, "lx": 25.0, "ly": 25.0}}))
    assert main(["solve", "--config", str(cfg), "--out", str(tmp_path / "solve")]) == 0
    out = tmp_path / "verify"
    assert main(["verify", "--field", str(tmp_path / "solve" / "phi.field"), "--out", str(out)]) == 0
    decay = json.loads((out / "decay_report.json").read_text())
    assert [decay[k] for k in ("exponent_x", "stderr_x", "exponent_y", "stderr_y")] == [None] * 4
    assert decay["mixed_norms"] and (out / "tail_x.csv").exists()
    assert json.loads((out / "verify_report.json").read_text())["spectral_residual"] <= 1e-10


def _gaussian(amplitude):
    return lambda g: shrira.GaussianInit(amplitude=amplitude).build(g)


@pytest.mark.parametrize("values, header, key, value, warns", [
    (_gaussian(-1.0), {"c": 1.0, "m": 2}, "nehari_t_u", None, False),
    (_gaussian(1e-170), {"c": 1.0, "m": 2}, "spectral_residual", 1.0, False),
    (_gaussian(1e-300), {"c": 1.0, "m": 2}, "spectral_residual", 1.0, False),
    (_gaussian(1e-50), {"c": 1e150, "m": 1.5, "signed_power": True}, "nehari_t_u", None, False),
    (lambda g: np.exp(-g.meshgrid()[1] ** 2 / 4), {"c": 1.0, "m": 2}, "spectral_residual", None, False),
    (_gaussian(1e120), {"c": 1.0, "m": 3}, "spectral_residual", None, True),  # overflow RuntimeWarnings
], ids=["negative", "tiny", "tinier", "t_u_past_the_double_range", "no_xi_content", "f_overflows"])
def test_cli_verify_writes_every_output_for_a_finite_non_zero_field(tmp_path, values, header, key, value, warns):
    """A value verify cannot form is written as null, and the other outputs stay: a negative
    Gaussian has int u f(u) < 0, so no Nehari rescaling t_u, and at c = 1e150, m = 1.5 the
    rescaling passes the double range.  The squared norms of a 1e-170 or 1e-300 Gaussian would
    underflow to 0; scaled by a power of two they do not, and the residual reads 1, since f(phi)
    lies below the field's resolution.  exp(-y^2/4) has no xi != 0 content: its residual is 0/0.
    At amplitude 1e120 and m = 3, phi^3 overflows before the scaling, though c*phi_hat is finite."""
    g = Grid(32, 32, 25.0, 25.0)
    p = tmp_path / "phi.field"
    write_field(p, Field(g, values(g)), header)
    out = tmp_path / "verify"
    with pytest.warns(RuntimeWarning) if warns else contextlib.nullcontext():
        assert main(["verify", "--field", str(p), "--out", str(out)]) == 0
    assert json.loads((out / "verify_report.json").read_text())[key] == value
    assert all((out / name).exists() for name in ("decay_report.json", "tail_x.csv", "tail_y.csv"))


def test_cli_verify_zero_field_exits_2(tmp_path):
    g = Grid(16, 16, 2 * PI, 2 * PI)
    p = tmp_path / "zero.field"
    write_field(p, Field(g, np.zeros((16, 16))), {"c": 1.0, "m": 2})
    assert main(["verify", "--field", str(p)]) == 2


def test_cli_a_directory_given_as_a_file_exits_2(tmp_path, capsys):
    """A path that names a directory is rejected input, as a missing file is: exit 2, no traceback."""
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"grid": {"nx": 32, "ny": 32, "lx": 25.0, "ly": 25.0},
                               "solver": {"init": {"kind": "file", "path": str(tmp_path)}}}))
    for argv in (["verify", "--field", str(tmp_path)],
                 ["solve", "--config", str(cfg), "--out", str(tmp_path / "out")]):
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("exc, message", [
    (MemoryError("Unable to allocate 8.00 TiB for an array"), "error: Unable to allocate 8.00 TiB for an array\n"),
    (MemoryError(), "error: MemoryError\n"),
], ids=["numpy", "bare"])
def test_cli_memory_error_exits_2(tmp_path, capsys, monkeypatch, exc, message):
    """A grid too large to hold exits 2 with an `error:` line, not a traceback.  A stand-in command
    raises it: a real huge grid can be allocated on an overcommitting machine and then exhaust it."""
    def cmd(args):
        raise exc

    monkeypatch.setattr(cli, "_cmd_solve", cmd)
    assert main(["solve", "--config", str(tmp_path / "run.json")]) == 2
    assert capsys.readouterr().err == message


def test_cli_solve_nonconvergence_exit_3(tmp_path, cfg_file):
    cfg = json.loads(cfg_file.read_text())
    cfg["solver"]["max_iter"] = 2
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert main(["solve", "--config", str(p), "--out", str(out)]) == 3
    # reports still written
    assert (out / "phi.field").exists()
    rep = json.loads((out / "solve_report.json").read_text())
    assert rep["converged"] is False


@pytest.mark.parametrize("method", ["petviashvili", "nehari_descent"])
def test_cli_solve_collapse_exits_3_and_keeps_its_outputs(tmp_path, method):
    """A negative-amplitude Gaussian at m = 2 collapses (M <= 0, or int u f(u) <= 0 for
    Nehari descent); the command still writes the field and both reports."""
    cfg = dict(BASE_CONFIG, grid={"nx": 32, "ny": 32, "lx": 8 * PI, "ly": 8 * PI},
               solver={"method": method, "init": {"kind": "gaussian", "amplitude": -1.0}})
    p = tmp_path / "collapse.json"
    p.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert main(["solve", "--config", str(p), "--out", str(out)]) == 3
    fld, _ = read_field(out / "phi.field")
    assert fld.grid == Grid(32, 32, 8 * PI, 8 * PI)
    rep = json.loads((out / "solve_report.json").read_text())
    assert rep["method"] == method and rep["converged"] is False
    assert set(rep["timings"]) == {"setup_s", "loop_s", "report_s"}
    fun = json.loads((out / "functionals.json").read_text())
    assert set(fun) >= {"S", "I", "G", "z_norm_sq"}


@pytest.mark.parametrize("section", [{"grid": {"nx": 32, "ny": 32, "lx": 1e300, "ly": 25.0}},
                                     {"physics": {"c": 1e300}}], ids=["huge_box", "huge_speed"])
def test_cli_solve_overflowing_factor_exits_3_and_keeps_its_outputs(tmp_path, capsys, section):
    """M^gamma past the double range is a collapse, not an OverflowError traceback."""
    cfg = {**BASE_CONFIG, "grid": {"nx": 32, "ny": 32, "lx": 25.0, "ly": 25.0}, **section}
    p = tmp_path / "huge.json"
    p.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    with pytest.warns(RuntimeWarning, match="overflow"):  # the products before the stop
        assert main(["solve", "--config", str(p), "--out", str(out)]) == 3
    assert "M^2 overflows" in capsys.readouterr().err
    fld, _ = read_field(out / "phi.field")
    assert np.all(np.isfinite(fld.values))
    rep = json.loads((out / "solve_report.json").read_text())
    assert rep["converged"] is False and rep["iterations"] == 1


def test_cli_nehari_descent_on_a_huge_box_exits_3_and_keeps_its_outputs(tmp_path, capsys):
    """A non-finite Nehari rescaling is a collapse that keeps the last finite iterate, not a
    non-finite field rejected as bad input."""
    cfg = {"grid": {"nx": 32, "ny": 32, "lx": 1e300, "ly": 25.0}, "solver": {"method": "nehari_descent"}}
    p = tmp_path / "huge.json"
    p.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    with pytest.warns(RuntimeWarning):  # the products before the stop
        assert main(["solve", "--config", str(p), "--out", str(out)]) == 3
    assert "t_u = inf" in capsys.readouterr().err
    fld, _ = read_field(out / "phi.field")
    assert np.all(np.isfinite(fld.values))
    rep = json.loads((out / "solve_report.json").read_text())
    assert rep["method"] == "nehari_descent" and rep["converged"] is False
    assert (out / "functionals.json").exists()


def test_cli_solve_at_a_huge_integer_power_returns(tmp_path):
    """m = 1e300 is an integer, so f takes the integer power: it must end (exit 2 or 3), not
    run ~1e300 multiplications."""
    src = str(Path(shrira.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    p = tmp_path / "huge_m.json"
    p.write_text(json.dumps({"grid": {"nx": 32, "ny": 32, "lx": 20.0, "ly": 20.0}, "physics": {"m": 1e300}}))
    proc = subprocess.run([sys.executable, "-m", "shrira.cli", "solve", "--config", str(p), "--out",
                           str(tmp_path / "out")], env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode in (2, 3), proc.stderr


def test_cli_malformed_config_exit_2(tmp_path):
    p = tmp_path / "broken.json"
    p.write_text("{ nope")
    assert main(["solve", "--config", str(p), "--out", str(tmp_path)]) == 2


def test_cli_non_object_init_exits_2(tmp_path, capsys):
    p = tmp_path / "init.json"
    p.write_text(json.dumps(dict(BASE_CONFIG, solver={"init": 5})))
    assert main(["solve", "--config", str(p), "--out", str(tmp_path)]) == 2
    assert "solver.init: expected a JSON object" in capsys.readouterr().err


def test_cli_evolve(solved_dir, cfg_file, tmp_path):
    out = tmp_path / "evo"
    code = main(
        ["evolve", "--field", str(solved_dir / "phi.field"), "--config", str(cfg_file),
         "--out", str(out), "--reference-speed", "1.0"]
    )
    assert code == 0
    with open(out / "conservation.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["t", "mass", "energy", "shape_error"]
    assert float(rows[-1][3]) <= 1e-6
    assert (out / "final.field").exists()
    rep = json.loads((out / "evolve_report.json").read_text())
    assert rep["mass_drift"] <= 1e-8
    assert rep["steps"] == round(0.2 / rep["dt"])
    assert set(rep["timings"]) == {"setup_s", "steps_s", "records_s"}


def test_cli_evolve_projects_its_reference_field_once(solved_dir, cfg_file, tmp_path, monkeypatch):
    """`--reference-speed` makes the input field the reference too: evolve projects it once and
    copies the block for the reference, and every report value and the final field equal those of
    a run whose reference is a separate copy of the field, projected on its own."""
    from shrira import evolution, grid as sg
    from shrira.config import load_config

    calls, project = [], sg.GalerkinBlock.project
    monkeypatch.setattr(sg.GalerkinBlock, "project", lambda self, u: calls.append(1) or project(self, u))
    out = tmp_path / "evo"
    assert main(["evolve", "--field", str(solved_dir / "phi.field"), "--config", str(cfg_file),
                 "--out", str(out), "--reference-speed", "1.0"]) == 0
    assert len(calls) == 1
    fld, cfg = read_field(solved_dir / "phi.field")[0], load_config(cfg_file)
    copy = Field(fld.grid, fld.values.copy())
    apart = evolution.evolve(fld, cfg.evolve, cfg.physics, reference=(copy, 1.0))
    assert len(calls) == 3
    rep = json.loads((out / "evolve_report.json").read_text())
    for key in ("dt", "steps", "times", "mass_series", "energy_series", "shape_error_series", "projection_defect"):
        assert np.array_equal(rep[key], getattr(apart, key)), key
    assert np.array_equal(read_field(out / "final.field")[0].values, apart.final.values)


def _bullet(doc: str, name: str) -> str:
    """The bullet of `name` under "## Report JSON files" in docs/formats.md."""
    section = re.search(r"^## Report JSON files\n(.*?)^## ", doc, re.S | re.M).group(1)
    return re.search(rf"^\* `{re.escape(name)}`(.*?)(?=^\* |\Z)", section, re.S | re.M).group(1)


def _documented_keys(doc: str, name: str):
    """(keys, timings keys) that the bullet of `name` names: the backticked names of its opening
    list (from its first colon to its first full stop, parenthetical remarks dropped), and each
    "`key` for ..." in the remark on `timings`."""
    bullet = _bullet(doc, name)
    timings = re.search(r"`timings` \(([^()]*)\)", bullet)
    flat = bullet
    while (stripped := re.sub(r"\([^()]*\)", "", flat)) != flat:
        flat = stripped
    opening = re.split(r"\.\s", re.split(r":\s", flat, maxsplit=1)[1], maxsplit=1)[0]
    return set(re.findall(r"`(\w+)`", opening)), set(re.findall(r"`(\w+)` for\s", timings[1] if timings else ""))


def _nested_keys(doc: str, name: str, key: str) -> set:
    """The backticked names that the bullet of `name` lists in parentheses after `key`, up to a ';'."""
    inner = re.search(rf"`{key}` \(([^()]*)\)", _bullet(doc, name)).group(1)
    return set(re.findall(r"`(\w+)`", inner.split(";")[0]))


def test_report_keys_are_the_documented_keys(tmp_path):
    """Every top-level key and every `timings` key that solve, verify and evolve write is named in
    its file's bullet in docs/formats.md, and the bullet names no key the file lacks; so are the
    keys of the nested `symmetry_defects` and of each `mixed_norms` row, and the `functionals`
    object of solve_report.json and verify_report.json has the keys of functionals.json."""
    cfg = dict(BASE_CONFIG, grid={"nx": 32, "ny": 32, "lx": 8 * PI, "ly": 8 * PI},
               evolve={"t_end": 0.05, "record_every": 5})
    p = tmp_path / "run.json"
    p.write_text(json.dumps(cfg))
    field = str(tmp_path / "phi.field")
    assert main(["solve", "--config", str(p), "--out", str(tmp_path)]) == 0
    assert main(["verify", "--field", field, "--out", str(tmp_path)]) == 0
    assert main(["evolve", "--field", field, "--config", str(p), "--out", str(tmp_path)]) == 0
    doc = (Path(__file__).parents[1] / "docs" / "formats.md").read_text(encoding="utf-8")
    reports = {name: json.loads((tmp_path / name).read_text())
               for name in ("solve_report.json", "functionals.json", "verify_report.json", "decay_report.json",
                            "evolve_report.json")}
    for name, rep in reports.items():
        assert _documented_keys(doc, name) == (set(rep), set(rep.get("timings", ()))), name
    assert set(reports["solve_report.json"]["symmetry_defects"]) == _nested_keys(doc, "solve_report.json",
                                                                                 "symmetry_defects")
    rows, row_keys = reports["decay_report.json"]["mixed_norms"], _nested_keys(doc, "decay_report.json", "mixed_norms")
    assert rows and all(set(row) == row_keys for row in rows)
    for name in ("solve_report.json", "verify_report.json"):
        assert set(reports[name]["functionals"]) == set(reports["functionals.json"]), name


def test_cli_evolve_writes_snapshots(tmp_path):
    """output.snapshots: one field per record time, 13 steps recorded every 5, all listed in
    evolve_report.json."""
    cfg = dict(BASE_CONFIG, grid={"nx": 32, "ny": 32, "lx": 8 * PI, "ly": 8 * PI},
               evolve={"t_end": 0.05, "record_every": 5}, output={"dir": ".", "snapshots": True})
    p = tmp_path / "snap.json"
    p.write_text(json.dumps(cfg))
    assert main(["solve", "--config", str(p), "--out", str(tmp_path / "solve")]) == 0
    out = tmp_path / "evo"
    assert main(["evolve", "--field", str(tmp_path / "solve" / "phi.field"), "--config", str(p),
                 "--out", str(out)]) == 0
    names = [f"snap_{k:06d}.field" for k in (0, 5, 10, 13)]
    assert sorted(q.name for q in out.glob("snap_*.field")) == names
    rep = json.loads((out / "evolve_report.json").read_text())
    assert rep["steps"] == 13 and rep["snapshots"] == [str(out / n) for n in names]
    snap, _ = read_field(out / names[-1])
    final, _ = read_field(out / "final.field")
    assert np.array_equal(snap.values, final.values)


@pytest.mark.parametrize("grid, amplitude, extra, message", [
    (Grid(16, 16, 2 * PI, 2 * PI), 0.0, [], "initial field: its mass or energy is zero"),
    (Grid(32, 32, 25.0, 1e-5), 1.0, [], "evolve: t_end / dt = 3.94784e+13 steps"),
    (Grid(32, 32, 25.0, 25.0), 0.0, ["--reference-speed", "1"], "reference field: its projection is zero"),
], ids=["zero_field", "tiny_box", "zero_field_with_reference"])
def test_cli_evolve_rejected_field_exits_2(tmp_path, capsys, grid, amplitude, extra, message):
    """A config with no grid section takes the field's grid: a zero field has no drifts to
    report, nor, as a reference, a shape error; a tiny box under the automatic step plans more
    than 10**7 steps (exit 2 at once, not a hang)."""
    X, _ = grid.meshgrid()
    p = tmp_path / "u0.field"
    write_field(p, Field(grid, amplitude * np.exp(-X**2 / 4)), {"c": 1.0, "m": 2})
    cfg = tmp_path / "ev.json"
    cfg.write_text(json.dumps({"evolve": {"t_end": 0.05}}))
    out = tmp_path / "evo"
    assert main(["evolve", "--field", str(p), "--config", str(cfg), "--out", str(out), *extra]) == 2
    assert capsys.readouterr().err.startswith("error: " + message)
    assert not (out / "final.field").exists()


def test_cli_evolve_blow_up_keeps_last_good_and_partial_series(tmp_path):
    """m = 3, amplitude 5, dt = 0.1 on 32^2: the mass of the t = 0.2 state overflows, so the
    run blows up there.  Exit 2, and the state before that step and the finite series
    recorded up to then are on disk."""
    g = Grid(32, 32, 8 * PI, 8 * PI)
    X, Y = g.meshgrid()
    field = tmp_path / "big.field"
    write_field(field, Field(g, 5.0 * np.exp(-(X**2 + Y**2) / 4)), {"c": 1.0, "m": 3})
    cfg = dict(BASE_CONFIG, grid={"nx": 32, "ny": 32, "lx": 8 * PI, "ly": 8 * PI},
               physics={"c": 1.0, "m": 3}, evolve={"t_end": 20.0, "dt": 0.1, "record_every": 1})
    p = tmp_path / "blow.json"
    p.write_text(json.dumps(cfg))
    out = tmp_path / "evo"
    assert main(["evolve", "--field", str(field), "--config", str(p), "--out", str(out)]) == 2
    last_good, header = read_field(out / "last_good.field")  # finite, else read_field rejects it
    assert last_good.grid == g and float(header["m"]) == 3.0
    with open(out / "conservation.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["t", "mass", "energy", "shape_error"]
    assert [float(r[0]) for r in rows[1:]] == pytest.approx([0.0, 0.1])
    assert all(math.isfinite(float(v)) for r in rows[1:] for v in r[:3])
    assert not (out / "final.field").exists()


@pytest.fixture()
def cubic_field(tmp_path):
    """A Gaussian stored as an m = 3 field on 32^2."""
    g = Grid(32, 32, 8 * PI, 8 * PI)
    X, Y = g.meshgrid()
    p = tmp_path / "cubic.field"
    write_field(p, Field(g, np.exp(-(X**2 + Y**2) / 4)), {"c": 1.0, "m": 3})
    return p


def test_cli_evolve_rejects_a_config_whose_physics_differs_from_the_header(cubic_field, tmp_path, capsys):
    """An evolve-only config means the default physics (m = 2); the field says m = 3."""
    p = tmp_path / "ev.json"
    p.write_text(json.dumps({"evolve": {"t_end": 0.05}}))
    out = tmp_path / "evo"
    assert main(["evolve", "--field", str(cubic_field), "--config", str(p), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "physics:" in err and "m=2.0" in err and "m=3.0" in err
    assert not (out / "final.field").exists()


def test_cli_evolve_with_the_header_physics_keeps_it(cubic_field, tmp_path):
    p = tmp_path / "ev3.json"
    p.write_text(json.dumps({"physics": {"m": 3}, "evolve": {"t_end": 0.05}}))
    out = tmp_path / "evo"
    assert main(["evolve", "--field", str(cubic_field), "--config", str(p), "--out", str(out)]) == 0
    _, header = read_field(out / "final.field")
    assert (header["c"], header["m"], header["signed_power"]) == (1.0, 3.0, False)


@pytest.mark.parametrize("speed", ["inf", "nan"])
def test_cli_evolve_rejects_a_non_finite_reference_speed(cubic_field, tmp_path, capsys, speed):
    p = tmp_path / "ev3.json"
    p.write_text(json.dumps({"physics": {"m": 3}, "evolve": {"t_end": 0.05}}))
    out = tmp_path / "evo"
    assert main(["evolve", "--field", str(cubic_field), "--config", str(p), "--out", str(out),
                 "--reference-speed", speed]) == 2
    assert "reference_speed: must be finite" in capsys.readouterr().err
    assert not (out / "final.field").exists()


@pytest.mark.parametrize("grid, code", [
    ({"nx": 32, "ny": 32, "lx": 8 * PI, "ly": 8 * PI}, 0),
    ({"nx": 512, "ny": 512, "lx": 100.0, "ly": 100.0}, 2),
    ({"nx": 32, "ny": 32, "lx": 16 * PI, "ly": 8 * PI}, 2),
])
def test_cli_evolve_rejects_a_config_grid_that_differs_from_the_header(cubic_field, tmp_path, capsys, grid, code):
    """The header fixes the grid as it fixes the physics: a config grid section must match it."""
    p = tmp_path / "ev.json"
    p.write_text(json.dumps({"grid": grid, "physics": {"m": 3}, "evolve": {"t_end": 0.05}}))
    out = tmp_path / "evo"
    assert main(["evolve", "--field", str(cubic_field), "--config", str(p), "--out", str(out)]) == code
    assert (out / "final.field").exists() == (code == 0)
    if code:
        err = capsys.readouterr().err
        assert err.startswith("error: grid: the config's ") and str(Grid(**grid)) in err
        assert str(Grid(32, 32, 8 * PI, 8 * PI)) in err


def test_cli_verify_has_no_config_option(solved_dir, cfg_file, capsys):
    """verify takes the physics from the field header only."""
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--field", str(solved_dir / "phi.field"), "--config", str(cfg_file)])
    assert exc.value.code == 2
    with pytest.raises(SystemExit):
        main(["verify", "--help"])
    assert "--config" not in capsys.readouterr().out


@pytest.mark.parametrize("values", ["inf", "1,inf"])
def test_cli_sweep_rejects_a_non_finite_value_before_solving(tmp_path, cfg_file, capsys, monkeypatch, values):
    def no_solve(*args):
        raise AssertionError("a solve ran")

    monkeypatch.setattr(shrira.solver, "solve", no_solve)
    out = tmp_path / "sw"
    assert main(["sweep", "--param", "c", "--values", values, "--config", str(cfg_file),
                 "--out", str(out)]) == 2
    assert "c: wave speed must be positive and finite, got inf" in capsys.readouterr().err
    assert not (out / "sweep.csv").exists()


def test_cli_kernel_rejects_a_non_finite_order(tmp_path, capsys):
    pts = tmp_path / "pts.csv"
    pts.write_text("x,y\n0.5,0.5\n")
    assert main(["kernel", "--nu", "inf", "--points", str(pts), "--out", str(tmp_path / "k.csv")]) == 2
    assert "nu: kernel order must exceed -3/2 and be finite, got inf" in capsys.readouterr().err


def test_cli_kernel_rows_are_oracle_rows(tmp_path):
    """The CLI writes kernel_rows on oracle_nodes bit for bit; its oracle column is the full
    oracle field at the node nearest (x, 2y) to 1e-12."""
    node = PI / 32
    points = [(i * node, j * node / 2) for i, j in ((4, 30), (7, 21), (12, 12), (9, 17))]
    pts = tmp_path / "pts.csv"
    pts.write_text("x,y\n" + "".join(f"{x!r},{y!r}\n" for x, y in points))
    out = tmp_path / "kernel.csv"
    grid = Grid(256, 64, 8 * PI, 2 * PI)
    assert main(["kernel", "--nu", "0.5", "--points", str(pts), "--out", str(out),
                 "--oracle-nx", "256", "--oracle-ny", "64",
                 "--oracle-lx", str(8 * PI), "--oracle-ly", str(2 * PI)]) == 0
    with open(out) as fh:
        got = list(csv.reader(fh))[1:]
    spec = KernelSpec(nu=0.5)
    nodes = [kv for _, _, kv in oracle_nodes(0.5, grid, [(x, 2.0 * y) for x, y in points])]
    want = list(kernel_rows(spec, points, nodes))  # %.17g strings round-trip every float
    assert got == [[f"{x:.17g}", f"{y:.17g}", f"{v:.17g}", f"{e:.3g}", f"{kv:.17g}", f"{r:.6g}"]
                   for x, y, v, e, kv, r in want]
    oracle = kernel_spectral_oracle(0.5, grid)
    for row, (x, y) in zip(want, points):
        assert row[4] == pytest.approx(oracle_node_value(oracle, x, 2.0 * y)[2], rel=1e-12, abs=0.0)


def test_cli_kernel_checks_every_point_before_writing(tmp_path, capsys):
    """A point outside the oracle box exits 2 before any row is written, the rows before it included."""
    pts = tmp_path / "pts.csv"
    pts.write_text("x,y\n0.5,0.75\n1.0,1.0\n0.5,40.0\n")
    out = tmp_path / "kernel.csv"
    assert main(["kernel", "--nu", "0", "--points", str(pts), "--out", str(out),
                 "--oracle-nx", "256", "--oracle-ny", "64",
                 "--oracle-lx", str(8 * PI), "--oracle-ly", str(2 * PI)]) == 2
    assert "error: point (0.5, 80.0) lies outside the oracle box" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("x", ["inf", "-inf", "nan", "1e308"])
def test_cli_kernel_rejects_a_non_finite_or_huge_point(tmp_path, capsys, x):
    """Such a point fails the box check like any point outside it: exit 2, no traceback, no rows."""
    pts = tmp_path / "pts.csv"
    pts.write_text(f"x,y\n0.5,0.75\n{x},0.75\n")
    out = tmp_path / "kernel.csv"
    assert main(["kernel", "--nu", "0", "--points", str(pts), "--out", str(out),
                 "--oracle-nx", "64", "--oracle-ny", "32", "--oracle-lx", "20", "--oracle-ly", "10"]) == 2
    assert capsys.readouterr().err == f"error: point ({float(x)}, 1.5) lies outside the oracle box\n"
    assert not out.exists()


def test_cli_kernel(tmp_path):
    pts = tmp_path / "pts.csv"
    pts.write_text("x,y\n0.5,0.5\n1.0,1.0\n")
    out = tmp_path / "kernel.csv"
    code = main(
        ["kernel", "--nu", "0", "--points", str(pts), "--out", str(out),
         "--oracle-nx", "2048", "--oracle-ny", "512",
         "--oracle-lx", str(64 * PI), "--oracle-ly", str(16 * PI)]
    )
    assert code == 0
    with open(out) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 2
    for row in rows:
        assert float(row["rel_diff"]) <= 5e-2
    # the (0,1)-style value agrees with the frozen Gauss-Laguerre example
    pts.write_text("x,y\n0.0,1.0\n")
    main(["kernel", "--nu", "0", "--points", str(pts), "--out", str(out),
          "--oracle-nx", "512", "--oracle-ny", "512",
          "--oracle-lx", str(16 * PI), "--oracle-ly", str(16 * PI)])
    with open(out) as fh:
        row = next(csv.DictReader(fh))
    assert float(row["value"]) == pytest.approx(0.43494240479584123, abs=1e-8)


def test_cli_kernel_rows_in_input_order(tmp_path, monkeypatch):
    """Rows come out in input order; a SHRIRA_THREADS setting is ignored."""
    monkeypatch.setenv("SHRIRA_THREADS", "2")
    node = PI / 32  # oracle node spacing in x and in y below
    points = [(i * node, j * node / 2) for i, j in zip(range(4, 24), range(30, 10, -1))]
    pts = tmp_path / "pts.csv"
    pts.write_text("x,y\n" + "".join(f"{x!r},{y!r}\n" for x, y in points))
    out = tmp_path / "kernel.csv"
    code = main(
        ["kernel", "--nu", "0", "--points", str(pts), "--out", str(out),
         "--oracle-nx", "256", "--oracle-ny", "64",
         "--oracle-lx", str(8 * PI), "--oracle-ly", str(2 * PI)]
    )
    assert code == 0
    with open(out) as fh:
        rows = list(csv.DictReader(fh))
    assert [(float(r["x"]), float(r["y"])) for r in rows] == points
    x, y = points[5]
    assert float(rows[5]["value"]) == h_nu_point(KernelSpec(nu=0.0), x, y).value


def test_cli_kernel_on_axis_point_near_the_origin(tmp_path):
    """nu = 2 at (0.001, 0) certifies, so the command writes its row and exits 0."""
    pts = tmp_path / "pts.csv"
    pts.write_text("x,y\n0.001,0\n")
    out = tmp_path / "kernel.csv"
    code = main(["kernel", "--nu", "2", "--points", str(pts), "--out", str(out),
                 "--oracle-nx", "256", "--oracle-ny", "64",
                 "--oracle-lx", str(8 * PI), "--oracle-ly", str(2 * PI)])
    assert code == 0
    with open(out) as fh:
        row = next(csv.DictReader(fh))
    assert float(row["value"]) == pytest.approx(1772446.667, rel=1e-9)


def test_cli_kernel_uncertified_point_exits_2(tmp_path, capsys):
    """nu = 0 at (0.001, 0) cannot be certified to 1e-12: the command stops with exit 2,
    states the relative error it reached and still writes the row of the point before it."""
    pts = tmp_path / "pts.csv"
    pts.write_text("x,y\n0.5,0.75\n0.001,0\n")
    out = tmp_path / "kernel.csv"
    code = main(["kernel", "--nu", "0", "--quad-tol", "1e-12", "--points", str(pts),
                 "--out", str(out), "--oracle-nx", "256", "--oracle-ny", "128",
                 "--oracle-lx", str(8 * PI), "--oracle-ly", str(2 * PI)])
    assert code == 2
    err = capsys.readouterr().err
    assert "exceeds tolerance at (0.001, 0.0)" in err
    with pytest.raises(QuadratureAccuracyError) as exc:
        h_nu_point(KernelSpec(nu=0.0, quad_tol=1e-12), 0.001, 0.0)
    achieved = exc.value.est_error / abs(exc.value.value)
    assert 1e-12 < achieved < 1e-11
    assert f"achieved relative error {achieved:.2e}" in err
    with open(out) as fh:
        rows = list(csv.DictReader(fh))
    assert [(float(r["x"]), float(r["y"])) for r in rows] == [(0.5, 0.75)]
    assert float(rows[0]["value"]) == h_nu_point(KernelSpec(nu=0.0, quad_tol=1e-12), 0.5, 0.75).value


def test_cli_kernel_bad_points(tmp_path):
    pts = tmp_path / "pts.csv"
    pts.write_text("a,b\n1,2\n")
    assert main(["kernel", "--nu", "0", "--points", str(pts), "--out", str(tmp_path / "o.csv")]) == 2


def test_cli_sweep(tmp_path, cfg_file):
    out = tmp_path / "sw"
    code = main(["sweep", "--param", "c", "--values", "1.0,2.0",
                 "--config", str(cfg_file), "--out", str(out)])
    assert code == 0
    with open(out / "sweep.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 2
    assert float(rows[1]["d"]) == pytest.approx(2.0 * float(rows[0]["d"]), rel=1e-6)


def test_cli_sweep_keeps_finished_rows(tmp_path):
    """m = 3 converges in 17 iterations, the warm-started m = 2 needs 25: with max_iter 20
    the sweep exits 3 and sweep.csv holds exactly the m = 3 row."""
    cfg = dict(BASE_CONFIG, solver={"method": "petviashvili", "max_iter": 20})
    p = tmp_path / "sweep.json"
    p.write_text(json.dumps(cfg))
    out = tmp_path / "sw"
    code = main(["sweep", "--param", "m", "--values", "3,2", "--config", str(p), "--out", str(out)])
    assert code == 3
    with open(out / "sweep.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert [float(r["value"]) for r in rows] == [3.0]
    assert rows[0]["converged"] == "1"


def test_cli_lizorkin(tmp_path):
    out = tmp_path / "liz.csv"
    assert main(["lizorkin", "--out", str(out), "--n-samples", "64"]) == 0
    with open(out) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 12  # 3 multipliers x 4 derivative combos
    k0 = [float(r["sup_abs"]) for r in rows if r["k1"] == "0" and r["k2"] == "0"]
    assert all(v <= 1.0 + 1e-12 for v in k0)
    one = tmp_path / "liz1.csv"
    assert main(["lizorkin", "--out", str(one), "--n-samples", "1"]) == 2
    assert not one.exists()


def test_cli_version_and_help():
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0


def test_field_format_v1_reads_as_unsigned_power(tmp_path):
    g = Grid(8, 8, 1.0, 1.0)
    f = Field(g, np.arange(64.0).reshape(8, 8))
    p = tmp_path / "v2.field"
    write_field(p, f, {"c": 1.0, "m": 3, "signed_power": True})
    head, payload = p.read_bytes().split(b"\n", 1)
    header = json.loads(head)
    assert header["format_version"] == 2 and header["signed_power"] is True
    del header["signed_power"]
    header["format_version"] = 1
    v1 = tmp_path / "v1.field"
    v1.write_bytes(json.dumps(header).encode() + b"\n" + payload)
    back, h1 = read_field(v1)
    assert h1["signed_power"] is False
    assert np.array_equal(back.values, f.values)
    header["format_version"] = 3
    (tmp_path / "v3.field").write_bytes(json.dumps(header).encode() + b"\n" + payload)
    with pytest.raises(InputError, match="format_version 3"):
        read_field(tmp_path / "v3.field")


@pytest.mark.parametrize("m", [2.5, 2.0])
def test_cli_verify_takes_signed_power_from_the_field(tmp_path, m):
    """A signed-power solve verifies without --config: the header carries signed_power.  It also
    lies in the block evolve runs on (4 K < n at m = 2.5): the projection removes nothing."""
    cfg = {
        "grid": {"nx": 32, "ny": 32, "lx": 8 * PI, "ly": 8 * PI},
        "physics": {"c": 1.0, "m": m, "signed_power": True},
        "solver": {"max_iter": 1500, "init": {"kind": "gaussian", "amplitude": 1.2}},
        "evolve": {"t_end": 0.05},
    }
    p = tmp_path / "signed.json"
    p.write_text(json.dumps(cfg))
    assert main(["solve", "--config", str(p), "--out", str(tmp_path)]) == 0
    _, header = read_field(tmp_path / "phi.field")
    assert header["signed_power"] is True
    assert main(["verify", "--field", str(tmp_path / "phi.field"), "--out", str(tmp_path)]) == 0
    rep = json.loads((tmp_path / "verify_report.json").read_text())
    assert rep["spectral_residual"] <= 1e-10  # u^2 instead of |u|u would leave ~3e-2 at m = 2
    out = tmp_path / "evolve"
    assert main(["evolve", "--field", str(tmp_path / "phi.field"), "--config", str(p), "--out", str(out)]) == 0
    assert json.loads((out / "evolve_report.json").read_text())["projection_defect"] <= 1e-14


def test_cli_import_leaves_slow_scipy_modules_unloaded(tmp_path):
    """scipy is a test-only dependency: with every scipy import made to fail, each command
    runs to exit 0 on a tiny input."""
    src = str(Path(shrira.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"grid": {"nx": 32, "ny": 32, "lx": 8 * PI, "ly": 8 * PI},
                               "solver": {"init": {"kind": "gaussian", "amplitude": 1.2}},
                               "evolve": {"t_end": 0.05}}))
    pts = tmp_path / "pts.csv"
    pts.write_text("x,y\n0.5,0.5\n1.0,1.0\n")
    out, phi = str(tmp_path), str(tmp_path / "phi.field")
    runs = [
        ["solve", "--config", str(cfg), "--out", out],
        ["verify", "--field", phi, "--out", out],
        ["evolve", "--field", phi, "--config", str(cfg), "--out", out],
        ["sweep", "--param", "c", "--values", "1,1.5", "--config", str(cfg), "--out", out],
        ["kernel", "--nu", "0", "--points", str(pts), "--out", str(tmp_path / "k.csv"),
         "--oracle-nx", "256", "--oracle-ny", "64", "--oracle-lx", str(8 * PI), "--oracle-ly", str(2 * PI)],
        ["lizorkin", "--out", str(tmp_path / "liz.csv"), "--n-samples", "16"],
    ]
    code = (
        "import sys\n"
        "sys.modules['scipy'] = None  # any import of scipy or a submodule raises ImportError\n"
        "import shrira.cli\n"
        f"codes = [shrira.cli.main(argv) for argv in {runs!r}]\n"
        "sys.exit(f'exit codes {codes}' if any(codes) else None)\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    for name in ("verify_report.json", "evolve_report.json", "sweep.csv", "k.csv", "liz.csv"):
        assert (tmp_path / name).exists()
