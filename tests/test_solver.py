"""Solver behavior on small grids: residual oracle, fixed points, rescaling."""

import math
import re
import time

import numpy as np
import pytest

from shrira import (
    Grid,
    Field,
    PhysicsParams,
    SolverConfig,
    GaussianInit,
    FileInit,
    spectral_residual,
    petviashvili,
    nehari_descent,
    rescale_speed,
    sweep,
    z_norm_sq,
    lp_norm,
    write_field,
    EvolveConfig,
    evolve,
)
from shrira import grid as sg
from shrira.solver import TOL_DELTA, _Modes, default_dealias_rule, solve
from shrira.errors import (
    CollapseError,
    ConvergenceError,
    GridMismatchError,
    UndefinedResidualError,
)

PI = math.pi


@pytest.fixture(scope="module")
def p12():
    return PhysicsParams(c=1.0, m=2)


def test_default_dealias_rule():
    assert default_dealias_rule(2) == "two_thirds"
    assert default_dealias_rule(3) == "half"
    assert default_dealias_rule(2.5) == "half"


def test_solver_config_validation():
    """Each bad setting is rejected where the config is built, not deep in solve."""
    for bad in (
        dict(max_iter=0),
        dict(method="newton"),
    ):
        with pytest.raises(GridMismatchError, match=next(iter(bad))):
            SolverConfig(**bad)
    with pytest.raises(GridMismatchError, match="sigma_x"):
        GaussianInit(sigma_x=0.0)


def test_residual_two_mode_hand_oracle(p12):
    """phi = a cos x on a 2pi box: residual = sqrt(1 + a^2/(4(c+1)^2)).

    Hand derivation: s phi_hat lives at modes (+-1, 0) with weight (c+1) a n^2/2;
    the dealiased f_hat = (phi^2)_hat contributes a^2 n^2 / 4 at (+-2, 0).
    """
    g = Grid(16, 16, 2 * PI, 2 * PI)
    X, _ = g.meshgrid()
    for a, c in ((1.0, 1.0), (0.5, 2.0), (2.0, 0.5)):
        f = Field(g, a * np.cos(X))
        expect = math.sqrt(1.0 + a**2 / (4.0 * (c + 1.0) ** 2))
        got = spectral_residual(f, PhysicsParams(c=c, m=2))
        assert got == pytest.approx(expect, rel=1e-12), (a, c)


def test_residual_zero_field(p12):
    g = Grid(16, 16, 2 * PI, 2 * PI)
    with pytest.raises(UndefinedResidualError):
        spectral_residual(Field(g, np.zeros((16, 16))), p12)


@pytest.fixture(scope="module")
def small_solution(p12):
    grid = Grid(64, 64, 16 * PI, 16 * PI)
    return petviashvili(SolverConfig(), p12, grid)


def test_petviashvili_converges(small_solution, p12):
    fld, rep = small_solution
    assert rep.converged
    assert rep.residual_history[-1] <= 1e-10
    assert abs(rep.m_factor_history[-1] - 1.0) <= 1e-8
    assert spectral_residual(fld, p12) <= 2e-10
    # xi = 0 modes are identically zero
    ch = np.fft.fft2(fld.values)
    assert np.max(np.abs(ch[:, 0])) <= 1e-12 * np.max(np.abs(ch))
    # both signs attained
    assert fld.values.min() < 0 < fld.values.max()


def test_petviashvili_records_the_delta_that_gates_convergence(small_solution, p12):
    """One delta per iteration, inf before the first update; the loop stops at the first
    iteration where both the residual and delta pass."""
    fld, rep = small_solution
    cfg = SolverConfig()
    assert len(rep.delta_history) == rep.iterations and rep.delta_history[0] == math.inf
    gate = [r <= cfg.tol_residual and d <= TOL_DELTA
            for r, d in zip(rep.residual_history, rep.delta_history)]
    assert gate == [False] * (rep.iterations - 1) + [True]
    _, nehari = nehari_descent(SolverConfig(method="nehari_descent", init=fld), p12, fld.grid)
    assert nehari.delta_history == []


@pytest.mark.parametrize("rule", ["two_thirds", "half"])
def test_compact_modes_are_the_masked_real_transforms(rule):
    """The pruned forward transform is the masked rfft2 gathered on the kept modes, the
    pruned inverse is irfft2 of the scattered vector, and twice the compact dot is the
    full-spectrum sum (every kept mode has column weight 2)."""
    g = Grid(48, 32, 10.0, 7.0)
    modes = _Modes(g, rule, 1.5)
    keep = g.half(g.dealias_mask(rule) & g.xi_nonzero)
    u = np.random.default_rng(7).standard_normal((g.ny, g.nx))
    masked = np.where(keep, np.fft.rfft2(u), 0.0)
    v = modes.forward(u)
    assert np.max(np.abs(v - masked[keep])) <= 1e-13 * np.max(np.abs(masked))
    back = np.fft.irfft2(masked, s=(g.ny, g.nx))
    assert np.max(np.abs(modes.inverse(v) - back)) <= 1e-13 * np.max(np.abs(back))
    assert np.array_equal(modes.s, (1.5 + g.half(g.dispersion))[keep])
    assert 2 * modes.dot(v, v) == pytest.approx(sg.weighted_sq_sum(g, 1.0, masked), rel=1e-13)


def test_solver_loops_call_no_blas(p12, monkeypatch):
    """np.linalg.norm and np.dot wake the BLAS thread pool; neither the solver loops nor the
    records of evolve, shape error included, may call them."""
    def refuse(*args, **kwargs):
        raise AssertionError("BLAS call in a solver loop or an evolve record")

    monkeypatch.setattr(np.linalg, "norm", refuse)
    monkeypatch.setattr(np, "dot", refuse)
    for method in ("petviashvili", "nehari_descent"):
        fld, rep = solve(SolverConfig(method=method), p12, Grid(32, 32, 8 * PI, 8 * PI))
        assert rep.converged
    ev = evolve(fld, EvolveConfig(t_end=0.1, dt=0.02, record_every=2), p12, reference=(fld, p12.c))
    assert len(ev.shape_error_series) == len(ev.times) and max(ev.shape_error_series) < 1e-3


@pytest.mark.parametrize("method", ["petviashvili", "nehari_descent"])
def test_report_times_its_phases(p12, method):
    t0 = time.perf_counter()
    _, rep = solve(SolverConfig(method=method), p12, Grid(32, 32, 8 * PI, 8 * PI))
    wall = time.perf_counter() - t0
    assert set(rep.timings) == {"setup_s", "loop_s", "report_s"}
    assert all(t >= 0 for t in rep.timings.values())
    assert sum(rep.timings.values()) <= wall


def test_petviashvili_restart_is_immediate(small_solution, p12):
    fld, _ = small_solution
    cfg = SolverConfig(init=fld)
    _, rep = petviashvili(cfg, p12, fld.grid)
    assert rep.converged and rep.iterations <= 2


def test_even_initial_guess_gives_even_output(small_solution):
    _, rep = small_solution
    assert rep.symmetry_defects["even_x"] <= 1e-10
    assert rep.symmetry_defects["even_y"] <= 1e-10
    assert rep.zero_x_mean_defect <= 1e-12


def test_petviashvili_nonconvergence_carries_history(p12):
    grid = Grid(64, 64, 16 * PI, 16 * PI)
    with pytest.raises(ConvergenceError) as exc:
        petviashvili(SolverConfig(max_iter=3), p12, grid)
    assert exc.value.report is not None
    assert len(exc.value.report.residual_history) == 3
    assert exc.value.field is not None


def test_petviashvili_collapse(p12):
    grid = Grid(64, 64, 16 * PI, 16 * PI)
    cfg = SolverConfig(init=GaussianInit(amplitude=-1.0))
    with pytest.raises(CollapseError):
        petviashvili(cfg, p12, grid)


@pytest.mark.parametrize("method, init, error, message, iterations", [
    ("petviashvili", GaussianInit(), ConvergenceError, "did not converge in 3 iterations", 3),
    ("nehari_descent", GaussianInit(), ConvergenceError, "did not converge in 3 iterations", 3),
    ("petviashvili", np.zeros((32, 32)), CollapseError, "lost all spectral content", 0),
    ("petviashvili", GaussianInit(amplitude=-1.0), CollapseError, "<= 0 (bad initial guess)", 1),
    ("nehari_descent", GaussianInit(amplitude=-1.0), CollapseError, "int u f(u) <= 0", 0),
], ids=["max_iter", "nehari_max_iter", "zero_init", "negative_M", "nehari_initial_collapse"])
def test_every_stop_carries_field_and_report(p12, method, init, error, message, iterations):
    """max_iter exhausted, a zero initial field, M <= 0 and the Nehari initial collapse all
    raise their error class with the last iterate and a timed, unconverged report."""
    grid = Grid(32, 32, 8 * PI, 8 * PI)
    with pytest.raises(error, match=re.escape(message)) as exc:
        solve(SolverConfig(method=method, init=init, max_iter=3), p12, grid)
    assert type(exc.value) is error
    fld, rep = exc.value.field, exc.value.report
    assert fld.grid == grid and np.all(np.isfinite(fld.values))
    assert rep.method == method and rep.converged is False and rep.iterations == iterations
    assert len(rep.residual_history) == iterations
    assert set(rep.timings) == {"setup_s", "loop_s", "report_s"}
    assert all(t >= 0 for t in rep.timings.values())
    assert rep.max_abs == float(np.max(np.abs(fld.values)))


@pytest.mark.parametrize("method", ["petviashvili", "nehari_descent"])
def test_array_initial_guess_is_checked_like_a_field(p12, method):
    """A wrong-shape or non-finite array is rejected before the first iteration."""
    grid = Grid(32, 32, 8 * PI, 8 * PI)
    for init, message in ((np.ones((16, 16)), "does not match grid"), (np.full((32, 32), np.nan), "non-finite")):
        with pytest.raises(GridMismatchError, match=message):
            solve(SolverConfig(method=method, init=init), p12, grid)


def test_descent_agrees_with_petviashvili(small_solution, p12):
    fld_p, rep_p = small_solution
    cfg = SolverConfig(method="nehari_descent", tol_residual=1e-11, max_iter=4000)
    fld_n, rep_n = nehari_descent(cfg, p12, fld_p.grid)
    assert rep_n.converged
    assert abs(rep_n.d - rep_p.d) <= 1e-6 * abs(rep_p.d)
    diff = np.linalg.norm(fld_n.values - fld_p.values) / np.linalg.norm(fld_p.values)
    assert diff <= 1e-4
    # manifold constraint and S = G at the critical point
    assert abs(rep_n.functionals.I) <= 1e-8 * rep_n.functionals.z_norm_sq
    assert abs(rep_n.functionals.S - rep_n.functionals.G) <= 1e-8 * abs(rep_n.functionals.S)


def test_rescale_speed_identity(small_solution, p12):
    fld, _ = small_solution
    same = rescale_speed(fld, 1.0, 1.0, 2)
    assert same.grid == fld.grid
    assert np.array_equal(same.values, fld.values)


def test_rescale_speed_exact(small_solution):
    """c: 1 -> 4 for m = 2: amplitudes x4, box / 4, residual preserved."""
    fld, _ = small_solution
    mapped = rescale_speed(fld, 1.0, 4.0, 2)
    assert mapped.grid.lx == pytest.approx(fld.grid.lx / 4)
    assert np.max(np.abs(mapped.values)) == pytest.approx(4 * np.max(np.abs(fld.values)), rel=1e-14)
    res = spectral_residual(mapped, PhysicsParams(c=4.0, m=2))
    assert res <= 1e-10
    # Z-norm homogeneity: ||phi_c||_Z^2 = c^(2/(m-1)-1) ||phi_1||_Z^2 ... with
    # the Z-norm of the target speed
    z1 = z_norm_sq(fld, PhysicsParams(c=1.0, m=2))
    z4 = z_norm_sq(mapped, PhysicsParams(c=4.0, m=2))
    assert z4 == pytest.approx(4.0 * z1, rel=1e-12)


def test_residual_scale_covariance(small_solution):
    """The relative residual is invariant under the exact speed rescaling."""
    fld, _ = small_solution
    r1 = spectral_residual(fld, PhysicsParams(c=1.0, m=2))
    r2 = spectral_residual(rescale_speed(fld, 1.0, 2.5, 2), PhysicsParams(c=2.5, m=2))
    assert r2 == pytest.approx(r1, rel=1e-6)


def test_sweep_scaling_law(p12):
    """d(c) = c^((3-m)/(m-1)) d(1) exactly (m = 2: linear in c)."""
    grid = Grid(64, 64, 16 * PI, 16 * PI)
    rows = sweep("c", [1.0, 2.0, 4.0], SolverConfig(), p12, grid)
    assert all(r.converged for r in rows)
    d1 = rows[0].d
    for r in rows[1:]:
        sigma = (3.0 - 2.0) / (2.0 - 1.0)
        assert r.d == pytest.approx(r.value**sigma * d1, rel=1e-6)
    # warm-started continuation needs fewer iterations than the cold solve
    assert rows[1].iterations < rows[0].iterations
    assert rows[2].iterations < rows[0].iterations


def test_sweep_single_value_is_one_solve(small_solution, p12):
    fld, rep = small_solution
    rows = sweep("c", [1.0], SolverConfig(), p12, fld.grid)
    assert len(rows) == 1
    assert rows[0].d == pytest.approx(rep.d, rel=1e-10)
    assert rows[0].l2_norm_sq == pytest.approx(lp_norm(fld, 2) ** 2, rel=1e-10)


def test_cubic_and_signed_power_nonlinearities():
    g = Grid(128, 128, 16 * PI, 16 * PI)
    for m, signed, amp in ((3, False, 1.5), (2.5, True, 1.2)):
        p = PhysicsParams(c=1.0, m=m, signed_power=signed)
        cfg = SolverConfig(init=GaussianInit(amplitude=amp), max_iter=1500)
        fld, rep = petviashvili(cfg, p, g)
        assert rep.converged
        assert rep.residual_history[-1] <= 1e-10
        assert fld.values.min() < 0 < fld.values.max()
        if m == 3:
            assert default_dealias_rule(m) == "half"


def test_report_serializes(small_solution):
    import json

    _, rep = small_solution
    text = json.dumps(rep.to_dict())
    assert "residual_history" in text and "functionals" in text


def test_file_warm_start_restarts_a_converged_solve(p12, tmp_path):
    """Solving again from a stored converged 32^2 field converges at once (49 iterations cold)."""
    grid = Grid(32, 32, 8 * PI, 8 * PI)
    fld, cold = petviashvili(SolverConfig(), p12, grid)
    path = tmp_path / "warm.field"
    write_field(path, fld, {"c": 1.0, "m": 2})
    _, warm = petviashvili(SolverConfig(init=FileInit(str(path))), p12, grid)
    assert (cold.iterations, warm.iterations) == (49, 2) and warm.converged
    assert warm.d == pytest.approx(cold.d, rel=1e-15)


def test_warm_start_from_another_box_is_rejected(small_solution, p12, tmp_path):
    """Same sample count, different box: both warm-start routes name the two boxes."""
    fld, _ = small_solution
    g = fld.grid
    other = Grid(g.nx, g.ny, 2 * g.lx, g.ly)
    path = tmp_path / "warm.field"
    write_field(path, fld, {"c": 1.0, "m": 2})
    for init in (fld, FileInit(str(path))):
        with pytest.raises(GridMismatchError) as exc:
            petviashvili(SolverConfig(init=init), p12, other)
        assert str(g) in str(exc.value) and str(other) in str(exc.value)
