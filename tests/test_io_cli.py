"""Field persistence, configuration parsing, and CLI end-to-end runs."""

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
from shrira.cli import main
from shrira.kernels import KernelSpec, h_nu_point
from shrira.config import OutputConfig, parse_config, serialize_config
from shrira.errors import ConfigError, CorruptFieldFileError

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
    with pytest.raises(CorruptFieldFileError):
        read_field(tmp_path / "trunc.field")
    # mangled header
    (tmp_path / "bad.field").write_bytes(b"not json\n" + raw.split(b"\n", 1)[1])
    with pytest.raises(CorruptFieldFileError):
        read_field(tmp_path / "bad.field")
    # no newline at all
    (tmp_path / "nonl.field").write_bytes(b"x" * 10)
    with pytest.raises(CorruptFieldFileError):
        read_field(tmp_path / "nonl.field")


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


def test_config_round_trip_idempotent():
    cfg1 = parse_config(json.dumps(BASE_CONFIG))
    text = serialize_config(cfg1)
    cfg2 = parse_config(text)
    assert serialize_config(cfg2) == text
    assert cfg2.grid == cfg1.grid
    assert cfg2.physics == cfg1.physics
    assert cfg2.solver == cfg1.solver


def test_config_serialization_is_frozen():
    """Defaults come from the dataclasses; these are the bytes the hand-written parsers gave."""
    solver = {"method": "petviashvili", "tol_residual": 1e-10, "max_iter": 2000,
              "init": {"amplitude": 1.0, "sigma_x": 2.0, "sigma_y": 2.0, "kind": "gaussian"}}
    physics = {"c": 1.0, "m": 2.0, "signed_power": False}
    output = {"dir": ".", "snapshots": False}
    assert serialize_config(parse_config("{}")) == json.dumps(
        {"physics": physics, "solver": solver, "output": output}, indent=2)
    evolve = {"t_end": 0.2, "dt": None, "record_every": 5}
    assert serialize_config(parse_config(json.dumps(BASE_CONFIG))) == json.dumps(
        {"grid": BASE_CONFIG["grid"], "physics": physics, "solver": dict(solver, max_iter=500),
         "evolve": evolve, "output": output}, indent=2)


def test_config_unknown_keys_rejected():
    bad = dict(BASE_CONFIG)
    bad["grid"] = {**BASE_CONFIG["grid"], "nz": 4}
    with pytest.raises(ConfigError, match="grid: unknown key"):
        parse_config(json.dumps(bad))
    with pytest.raises(ConfigError, match="top level: unknown key"):
        parse_config(json.dumps({**BASE_CONFIG, "extra": {}}))


@pytest.mark.parametrize("section, key, value", [
    ("solver", "gamma", 2.0), ("solver", "tol_delta", 1e-11), ("solver", "descent_step", 0.01),
    ("solver", "dealias_rule", "half"), ("evolve", "dealias_rule", "half"),
])
def test_settings_fixed_by_m_or_constant_are_unknown_keys(section, key, value):
    """gamma and the dealias rule follow from m; the delta gate and Nehari's first step are constants."""
    body = {**BASE_CONFIG[section], key: value}
    with pytest.raises(ConfigError, match=re.escape(f"{section}: unknown key(s) {key}")):
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
    with pytest.raises(ConfigError, match="solver.tol_residual"):
        parse_config(json.dumps(bad))
    bad["solver"] = {"init": {"kind": "squircle"}}
    with pytest.raises(ConfigError, match="solver.init.kind"):
        parse_config(json.dumps(bad))
    bad["solver"] = {"init": 5}
    with pytest.raises(ConfigError, match="solver.init: expected a JSON object"):
        parse_config(json.dumps(bad))
    for section, body, key in (("grid", {"nx": 64, "lx": 1.0, "ly": 1.0}, "grid.ny"),
                               ("evolve", {"dt": 0.1}, "evolve.t_end")):
        with pytest.raises(ConfigError, match=re.escape(f"{key}: required key is missing")):
            parse_config(json.dumps({**BASE_CONFIG, section: body}))


def test_config_syntax_error_has_line_and_column():
    with pytest.raises(ConfigError, match=r"line 2, column"):
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
        ("grid", {"nx": 16, "ny": 16, "lx": math.inf, "ly": 1.0}, "grid.lx"),
        ("solver", {"tol_residual": math.nan}, "solver.tol_residual"),
    ):
        with pytest.raises(ConfigError, match=re.escape(key)):
            parse_config(json.dumps({**BASE_CONFIG, section: body}))


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
    assert (out / "decay_report.json").exists()
    for name in ("tail_x.csv", "tail_y.csv"):
        with open(out / name) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["r", "phi", "weighted_phi"]
        assert len(rows) > 10


def test_cli_verify_report_times_its_phases(solved_dir, tmp_path):
    out = tmp_path / "verify"
    assert main(["verify", "--field", str(solved_dir / "phi.field"), "--out", str(out)]) == 0
    timings = json.loads((out / "verify_report.json").read_text())["timings"]
    assert set(timings) == {"residual_s", "functionals_s", "decay_s"}
    assert all(t >= 0 for t in timings.values())


def test_cli_verify_zero_field_exits_2(tmp_path):
    g = Grid(16, 16, 2 * PI, 2 * PI)
    p = tmp_path / "zero.field"
    write_field(p, Field(g, np.zeros((16, 16))), {"c": 1.0, "m": 2})
    assert main(["verify", "--field", str(p)]) == 2


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


def test_cli_evolve_zero_field_exits_2(tmp_path, cfg_file):
    g = Grid(16, 16, 2 * PI, 2 * PI)
    p = tmp_path / "zero.field"
    write_field(p, Field(g, np.zeros((16, 16))), {"c": 1.0, "m": 2})
    assert main(["evolve", "--field", str(p), "--config", str(cfg_file), "--out", str(tmp_path / "evo")]) == 2


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
    """nu = 0 at (0.001, 0) cannot be certified to 1e-12: the command stops with exit 2
    and still writes the row of the point before it."""
    pts = tmp_path / "pts.csv"
    pts.write_text("x,y\n0.5,0.75\n0.001,0\n")
    out = tmp_path / "kernel.csv"
    code = main(["kernel", "--nu", "0", "--quad-tol", "1e-12", "--points", str(pts),
                 "--out", str(out), "--oracle-nx", "256", "--oracle-ny", "128",
                 "--oracle-lx", str(8 * PI), "--oracle-ly", str(2 * PI)])
    assert code == 2
    assert "exceeds tolerance at (0.001, 0.0)" in capsys.readouterr().err
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
    """m = 3 converges in 26 iterations, the warm-started m = 2 needs 50: with max_iter 40
    the sweep exits 3 and sweep.csv holds exactly the m = 3 row."""
    cfg = dict(BASE_CONFIG, solver={"method": "petviashvili", "max_iter": 40})
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
    with pytest.raises(CorruptFieldFileError, match="format_version 3"):
        read_field(tmp_path / "v3.field")


@pytest.mark.parametrize("m", [2.5, 2.0])
def test_cli_verify_takes_signed_power_from_the_field(tmp_path, m):
    """A signed-power solve verifies without --config: the header carries signed_power."""
    cfg = {
        "grid": {"nx": 32, "ny": 32, "lx": 8 * PI, "ly": 8 * PI},
        "physics": {"c": 1.0, "m": m, "signed_power": True},
        "solver": {"max_iter": 1500, "init": {"kind": "gaussian", "amplitude": 1.2}},
    }
    p = tmp_path / "signed.json"
    p.write_text(json.dumps(cfg))
    assert main(["solve", "--config", str(p), "--out", str(tmp_path)]) == 0
    _, header = read_field(tmp_path / "phi.field")
    assert header["signed_power"] is True
    assert main(["verify", "--field", str(tmp_path / "phi.field"), "--out", str(tmp_path)]) == 0
    rep = json.loads((tmp_path / "verify_report.json").read_text())
    assert rep["spectral_residual"] <= 1e-10  # u^2 instead of |u|u would leave ~3e-2 at m = 2


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
