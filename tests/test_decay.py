"""Decay diagnostics: synthetic-tail oracles, weighted norms, mixed norms."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import shrira
from shrira import (
    Grid,
    Field,
    PhysicsParams,
    tail_exponent_fit,
    weighted_sup,
    two_box_sup_drift,
    y_weighted_seminorm,
    zero_x_mean_and_sign,
    mixed_norm,
    decay_report,
    lp_norm,
)
from shrira.decay import mixed_pair_admissible
from shrira.errors import InputError

from conftest import random_field

PI = math.pi


def synthetic(grid, fx, fy):
    X, Y = grid.meshgrid()
    return Field(grid, fx(X) * fy(Y))


def test_tail_fit_synthetic_y():
    """C (1+y^2)^(-3/2) along x = 0: exponent 3.0 +- 0.1 on window [10, 40]."""
    g = Grid(128, 256, 64.0, 128.0)
    f = synthetic(g, lambda x: np.exp(-(x**2)), lambda y: (1 + y**2) ** -1.5)
    e, se = tail_exponent_fit(f, "y", (10.0, 40.0))
    assert abs(e - 3.0) <= 0.1
    assert se >= 0.0
    assert abs(e - 3.0) <= max(2 * se, 0.05)


def test_tail_fit_synthetic_x():
    """C (1+x^2)^(-3/4): exponent 1.5 +- 0.1."""
    g = Grid(256, 128, 128.0, 64.0)
    f = synthetic(g, lambda x: (1 + x**2) ** -0.75, lambda y: np.exp(-(y**2)))
    e, _ = tail_exponent_fit(f, "x", (10.0, 40.0))
    assert abs(e - 1.5) <= 0.1


def test_tail_fit_window_validation():
    g = Grid(64, 64, 32.0, 32.0)
    f = synthetic(g, lambda x: np.exp(-(x**2)), lambda y: (1 + y**2) ** -1.5)
    with pytest.raises(InputError, match="outside the trusted range"):
        tail_exponent_fit(f, "y", (2.0, 15.0))  # beyond 0.8 * half = 12.8
    with pytest.raises(InputError, match="fewer than 8 sample radii"):
        tail_exponent_fit(f, "y", (10.0, 11.0))  # < 8 radii
    with pytest.raises(InputError, match="fewer than 3 samples"):
        # gaussian tail along x underflows past |x| ~ 6
        tail_exponent_fit(f, "x", (8.0, 12.0))


def test_weighted_sup():
    g = Grid(64, 64, 40.0, 40.0)
    u = random_field(g, np.random.default_rng(5))
    for bad in ("z2", ("y_kappa", 3.0)):
        with pytest.raises(InputError, match="unknown weight"):
            weighted_sup(u, bad)
    # the profile sup is the sup of the weighted field, bit for bit
    X, Y = g.meshgrid()
    for weight, w, coord in (("y3", np.abs(Y) ** 3, Y), ("x3/2", np.abs(X) ** 1.5, X)):
        a = w * np.abs(u.values)
        assert weighted_sup(u, weight) == float(np.max(a))
        sel = (np.abs(coord) >= 2.0) & (np.abs(coord) <= 9.0)
        assert weighted_sup(u, weight, window=(2.0, 9.0)) == float(np.max(a[sel]))


def test_two_box_sup_drift_synthetic():
    """A field with a genuine y^-3 tail is box-stable in the windowed sup."""
    fx = lambda x: np.exp(-(x**2))
    fy = lambda y: (1 + y**2) ** -1.5
    small = synthetic(Grid(64, 128, 32.0, 64.0), fx, fy)
    big = synthetic(Grid(64, 256, 32.0, 128.0), fx, fy)
    assert two_box_sup_drift(small, big, "y3") <= 1e-12


def test_two_box_sup_drift_windows_a_y_weight_on_the_y_box():
    """The weight "y3" gets its window from ly, not lx."""
    def field(g):
        X, Y = g.meshgrid()
        return Field(g, np.exp(-(X**2) / 50.0) * (1 + Y**2) ** -1.5 + 1e-3 * np.cos(3 * Y))

    small, big = field(Grid(64, 32, 80.0, 20.0)), field(Grid(96, 48, 150.0, 36.0))
    assert two_box_sup_drift(small, big, "y3") > 0.1


def test_two_box_sup_drift_of_two_zero_sups_is_nan():
    """Two windowed sups of 0 have no relative drift: nan, not a ZeroDivisionError."""
    small, big = (Field(g, np.zeros((g.ny, g.nx))) for g in (Grid(64, 128, 32.0, 64.0), Grid(64, 256, 32.0, 128.0)))
    assert math.isnan(two_box_sup_drift(small, big, "y3"))


def test_y_weighted_seminorm_single_mode_closed_form():
    """u = cos(x) sin(y) on [-pi, pi)^2: integral = pi^4 - pi^2/2."""
    g = Grid(256, 256, 2 * PI, 2 * PI)
    X, Y = g.meshgrid()
    val = y_weighted_seminorm(Field(g, np.cos(X) * np.sin(Y)))
    assert val == pytest.approx(PI**4 - PI**2 / 2, rel=1e-3)
    assert y_weighted_seminorm(Field(g, np.zeros((256, 256)))) == 0.0


def test_zero_x_mean_and_sign():
    g = Grid(64, 64, 10.0, 10.0)
    rng = np.random.default_rng(3)
    uh = np.fft.rfft2(random_field(g, rng).values)
    uh[:, 0] = 0.0  # the xi = 0 column: every row then has zero mean
    f = Field(g, np.fft.irfft2(uh, s=(g.ny, g.nx)))
    defect, _ = zero_x_mean_and_sign(f)
    assert defect <= 1e-12
    const = Field(g, np.full((64, 64), 0.7))
    d_const, sc = zero_x_mean_and_sign(const)
    assert sc is False
    assert d_const == pytest.approx(0.7 * g.lx / 0.7)
    zero = Field(g, np.zeros((64, 64)))
    assert zero_x_mean_and_sign(zero) == (0.0, False)


def test_mixed_norm_q2_r2_is_l2():
    g = Grid(48, 32, 7.0, 5.0)
    rng = np.random.default_rng(9)
    f = random_field(g, rng)
    l2 = lp_norm(f, 2)
    assert mixed_norm(f, 2, 2, "y_outer") == pytest.approx(l2, rel=1e-12)
    assert mixed_norm(f, 2, 2, "x_outer") == pytest.approx(l2, rel=1e-12)


def test_mixed_norm_inf_is_max():
    g = Grid(32, 32, 5.0, 5.0)
    rng = np.random.default_rng(10)
    f = random_field(g, rng)
    assert mixed_norm(f, np.inf, np.inf, "y_outer") == pytest.approx(lp_norm(f, np.inf))
    assert mixed_norm(f, np.inf, np.inf, "x_outer") == pytest.approx(lp_norm(f, np.inf))


def test_mixed_pair_admissibility():
    assert not mixed_pair_admissible(2.0, 2.0)  # 1/2 + 1/2 = 1, not > 1
    assert mixed_pair_admissible(1.5, 1.5)
    assert mixed_pair_admissible(1.0, 4.0)
    assert not mixed_pair_admissible(np.inf, 1.5)
    assert not mixed_pair_admissible(1.0, 1.0)  # 1 + 2 = 3, not < 3


def test_mixed_norm_randomized_consistency():
    rng = np.random.default_rng(8192)
    g = Grid(32, 32, 4.0, 6.0)
    for _ in range(100):
        f = random_field(g, rng)
        l2 = lp_norm(f, 2)
        assert abs(mixed_norm(f, 2, 2, "y_outer") - l2) <= 1e-12 * max(l2, 1e-30)
        assert abs(mixed_norm(f, 2, 2, "x_outer") - l2) <= 1e-12 * max(l2, 1e-30)


def test_decay_report_fields(ground_state_256, params_m2):
    fld, _, _ = ground_state_256
    rep = decay_report(fld, params_m2)
    assert rep.p_in_proven_range  # p = 3 >= (3+sqrt(5))/2
    assert rep.sign_change
    assert rep.zero_x_mean_defect <= 1e-12
    assert np.isfinite(rep.y_weighted_seminorm) and rep.y_weighted_seminorm > 0
    d = rep.to_dict()
    assert d["mixed_norms"][0]["q"] == 2.0
    assert d["mixed_norms"][-1]["q"] == math.inf  # the library keeps inf; only the JSON writer gives null
    assert isinstance(d["mixed_norms"][0]["admissible"], bool)
    # default window starts at the documented fraction of the half-length
    half = fld.grid.ly / 2
    assert rep.fit_window_y[0] == 0.04 * half
    assert 0.11 * half <= rep.fit_window_y[1] <= 0.8 * half


def test_decay_report_builds_no_physical_field(ground_state_256, params_m2, monkeypatch):
    """The seminorm sums row spectra and the sups run over 1-D profiles: decay_report
    calls neither irfft2 nor Grid.meshgrid."""
    fld, _, _ = ground_state_256
    want = decay_report(fld, params_m2)

    def refuse(*args, **kwargs):
        raise AssertionError("a physical-space derivative or coordinate field was built")

    monkeypatch.setattr(np.fft, "irfft2", refuse)
    monkeypatch.setattr(Grid, "meshgrid", refuse)
    assert decay_report(fld, params_m2) == want


def test_two_box_invariants_on_computed_wave(ground_state_256, ground_state_big):
    """Doubling nx, ny, lx, ly moves the seminorm and windowed sups <= 10%."""
    small, _, _ = ground_state_256
    big, _ = ground_state_big
    a, b = y_weighted_seminorm(small), y_weighted_seminorm(big)
    assert abs(a - b) / max(a, b) <= 0.10
    assert two_box_sup_drift(small, big, "y3") <= 0.10
    assert two_box_sup_drift(small, big, "x3/2") <= 0.10


def test_report_outside_proven_range():
    g = Grid(32, 32, 20.0, 20.0)
    X, Y = g.meshgrid()
    f = Field(g, np.exp(-(X**2) - Y**2) * np.cos(X))
    p = PhysicsParams(c=1.0, m=1.5, signed_power=True)  # p = 2.5 < p0
    rep = decay_report(f, p)
    assert not rep.p_in_proven_range


def test_tail_fit_matches_linregress(ground_state_256):
    """The closed-form fit returns linregress's slope and standard error to 1e-12."""
    from shrira.decay import _axis_samples, _linear_fit

    linregress = pytest.importorskip("scipy.stats").linregress

    rng = np.random.default_rng(23)
    for n in (3, 9, 250):
        x = rng.uniform(0.5, 4.0, n)
        y = -2.7 * x + 0.3 * rng.standard_normal(n)
        slope, stderr = _linear_fit(x, y)
        fit = linregress(x, y)
        assert slope == pytest.approx(fit.slope, rel=1e-12)
        assert stderr == pytest.approx(fit.stderr, rel=1e-12)
    fld, _, _ = ground_state_256
    window = decay_report(fld, PhysicsParams(c=1.0, m=2)).fit_window_y
    e, se = tail_exponent_fit(fld, "y", window)
    vals, offs = _axis_samples(fld, "y")
    r = np.abs(offs)
    sel = (r >= window[0]) & (r <= window[1]) & (np.abs(vals) > 1e-13)
    fit = linregress(np.log(r[sel]), np.log(np.abs(vals[sel])))
    assert e == pytest.approx(-fit.slope, rel=1e-12)
    assert se == pytest.approx(fit.stderr, rel=1e-12)


def test_decay_report_leaves_numpy_ma_unloaded():
    """Counting the fit radii must not pull in numpy.ma (np.unique imports it, ~12 ms)."""
    src = str(Path(shrira.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = (
        "import math, sys\n"
        "import numpy as np\n"
        "from shrira import Field, Grid, PhysicsParams, decay_report\n"
        "g = Grid(32, 32, 8 * math.pi, 8 * math.pi)\n"
        "X, Y = g.meshgrid()\n"
        "decay_report(Field(g, np.exp(-X**2 - Y**2) * np.cos(X)), PhysicsParams())\n"
        "sys.exit('numpy.ma was imported' if 'numpy.ma' in sys.modules else None)\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
