"""Solver behavior on small grids: residual oracle, fixed points, rescaling."""

import contextlib
import math
import re
import time
from dataclasses import replace
from types import SimpleNamespace

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
    functional_report,
    nehari_scale,
    verify,
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
from shrira import solver
from shrira.decay import decay_report
from shrira.solver import TOL_DELTA, solve
from shrira.errors import ConvergenceError, InputError
from shrira.functionals import _f_integrals, _nehari_t

from conftest import kept_modes, traced_peak

PI = math.pi


@pytest.fixture(scope="module")
def p12():
    return PhysicsParams(c=1.0, m=2)


def test_solver_config_validation():
    """Each bad setting is rejected where the config is built, not deep in solve."""
    for bad in (
        dict(max_iter=0),
        dict(method="newton"),
    ):
        with pytest.raises(InputError, match=next(iter(bad))):
            SolverConfig(**bad)
    with pytest.raises(InputError, match="sigma_x"):
        GaussianInit(sigma_x=0.0)
    with pytest.raises(InputError, match="sigma_y: must be positive with a positive finite square, got 1e"):
        GaussianInit(sigma_y=1e300)  # its square overflowed with a traceback once
    with pytest.raises(InputError, match="^init: expected GaussianInit, FileInit or Field, got ndarray$"):
        SolverConfig(init=np.ones((32, 32)))  # a bare array: wrap it in a Field


@pytest.mark.parametrize("method", ["petviashvili", "nehari_descent"])
@pytest.mark.parametrize("amplitude", [math.nan, math.inf])
def test_gaussian_init_rejects_a_non_finite_amplitude(p12, method, amplitude):
    """A NaN or infinite amplitude is rejected where the guess is built, not after max_iter."""
    with pytest.raises(InputError, match="^amplitude:"):
        solve(SolverConfig(method=method, init=GaussianInit(amplitude=amplitude)), p12,
              Grid(32, 32, 8 * PI, 8 * PI))


def test_residual_two_mode_hand_oracle(p12):
    """phi = a cos x + b cos y on a 2pi box: residual = sqrt(1 + (a^2/4 + 2 b^2)/(c+1)^2).

    Hand derivation: s phi_hat lives at modes (+-1, 0) with weight (c+1) a n^2/2;
    the dealiased f_hat = (phi^2)_hat contributes a^2 n^2 / 4 at (+-2, 0) and
    a b n^2 / 2 at (+-1, +-1).  The xi = 0 term b cos y and its square enter
    neither norm; its cross terms with a cos x do.
    """
    g = Grid(16, 16, 2 * PI, 2 * PI)
    X, Y = g.meshgrid()
    for a, b, c in ((1.0, 0.0, 1.0), (0.5, 0.0, 2.0), (2.0, 0.0, 0.5),
                    (1.0, 0.5, 1.0), (0.5, 2.0, 2.0), (2.0, 1.0, 0.5)):
        f = Field(g, a * np.cos(X) + b * np.cos(Y))
        expect = math.sqrt(1.0 + (a**2 / 4.0 + 2.0 * b**2) / (c + 1.0) ** 2)
        got = spectral_residual(f, PhysicsParams(c=c, m=2))
        assert got == pytest.approx(expect, rel=1e-12), (a, b, c)


def test_residual_zero_field(p12):
    g = Grid(16, 16, 2 * PI, 2 * PI)
    with pytest.raises(InputError, match="residual of a zero field is undefined"):
        spectral_residual(Field(g, np.zeros((16, 16))), p12)


@pytest.mark.parametrize("c", [1e100, 1e200, 1e300])
def test_residual_at_huge_speeds(c):
    """The squares of c*phi_hat overflow at c = 1e200 and 1e300; scaled by a second power of two
    they do not, and the residual reads 1 as at c = 1e100, since f(phi) lies far below s*phi_hat."""
    g = Grid(32, 32, 25.0, 25.0)
    f = Field(g, GaussianInit().build(g))
    assert spectral_residual(f, PhysicsParams(c=c, m=1.5, signed_power=True)) == 1.0


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


@pytest.mark.parametrize("amplitude", [None, -1.0], ids=["solution", "negative_gaussian"])
def test_verify_is_its_parts(small_solution, p12, amplitude):
    """verify reports spectral_residual, functional_report and decay_report bit for bit, and t_u
    read off the functionals: nehari_scale's value, or nan where int u f(u) <= 0 leaves none."""
    fld = small_solution[0]
    if amplitude is not None:
        fld = Field(fld.grid, GaussianInit(amplitude=amplitude).build(fld.grid))
    vr, dr = verify(fld, p12)
    assert repr(vr.spectral_residual) == repr(spectral_residual(fld, p12))
    assert repr(vr.functionals) == repr(functional_report(fld, p12))
    assert repr(dr) == repr(decay_report(fld, p12))
    if amplitude is None:
        assert vr.nehari_t_u == nehari_scale(fld, p12)
    else:
        assert vr.functionals.uf_int < 0 and math.isnan(vr.nehari_t_u)
    assert set(vr.timings) == {"residual_s", "functionals_s", "decay_s"}


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
    assert nehari.delta_history == [] and nehari.extrapolations == 0


def test_extrapolated_steps_record_no_delta(small_solution):
    """delta is inf at the first entry and after each extrapolated step, finite elsewhere; the
    converged entry passes the gate."""
    _, rep = small_solution
    assert rep.extrapolations > 0
    assert sum(not math.isfinite(d) for d in rep.delta_history) == rep.extrapolations + 1
    assert rep.delta_history[-1] <= TOL_DELTA


def test_extrapolation_cuts_the_iterations_of_a_resolved_wave(p12, monkeypatch):
    """On the 512^2, 24pi grid of criterion 2 the extrapolated solve takes at most 0.6x the
    iterations of the plain one (59 against 120) and lands on the same wave."""
    grid = Grid(512, 512, 24 * PI, 24 * PI)
    fld, rep = petviashvili(SolverConfig(), p12, grid)
    monkeypatch.setattr(solver, "AITKEN_EVERY", SolverConfig().max_iter + 1)
    plain_fld, plain = petviashvili(SolverConfig(), p12, grid)
    assert rep.converged and plain.converged and plain.extrapolations == 0
    assert rep.iterations <= 0.6 * plain.iterations
    scale = np.max(np.abs(plain_fld.values))
    assert np.max(np.abs(fld.values - plain_fld.values)) <= 1e-9 * scale


@pytest.mark.parametrize("n, m", [(64, 2), (64, 3), (128, 2), (128, 3)])
def test_compact_delta_is_the_physical_relative_change(n, m):
    """delta, summed over the compact modes, is ||phi_k - phi_{k-1}|| / ||phi_{k-1}|| summed over
    the grid (Parseval: an iterate holds only kept modes), under both dealias rules."""
    grid = Grid(n, n, 16 * PI, 16 * PI)
    params = PhysicsParams(c=1.0, m=m)

    def stopped_after(k):
        with pytest.raises(ConvergenceError) as exc:
            petviashvili(SolverConfig(max_iter=k), params, grid)
        return exc.value.field.values, exc.value.report

    for k in (2, 3, 4):
        prev, cur = stopped_after(k - 1)[0], stopped_after(k)[0]
        delta = stopped_after(k + 1)[1].delta_history[-1]  # the change that made phi_k
        expect = math.sqrt(np.sum((cur - prev) ** 2) / np.sum(prev**2))
        assert delta == pytest.approx(expect, rel=1e-12), k


@pytest.mark.parametrize("rule", ["two_thirds", "half"])
def test_solver_blocks_are_the_masked_real_transforms(rule):
    """The block's forward transform is the rfft2 masked to the kept modes, on the Galerkin block
    (its xi = 0 column zeroed), its inverse is irfft2 of the masked spectrum, the solvers' s is c
    plus the block's disp (c on xi = 0), and twice the block dot is the full-spectrum sum.
    m = 2 keeps the 2/3 band (3 K < n), m = 3 the 1/2 band (4 K < n); 3 divides nx = 48."""
    g = Grid(48, 32, 10.0, 7.0)
    m = {"two_thirds": 2, "half": 3}[rule]
    block = sg.GalerkinBlock(g, m)
    s = 1.5 + block.disp  # the solvers' profile symbol at c = 1.5
    keep = kept_modes(g, m)[:, : g.nx // 2 + 1]
    u = np.random.default_rng(7).standard_normal((g.ny, g.nx))
    masked = np.where(keep, np.fft.rfft2(u), 0.0)
    v = block.forward(u)
    assert np.array_equal(v, masked[block.rows, : block.kc])
    assert np.array_equal(block.inverse(v), np.fft.irfft2(masked, s=(g.ny, g.nx)))
    xi, eta = np.abs(g.xi_half[: block.kc]), g.eta[block.rows, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        assert np.array_equal(s, np.where(xi != 0, 1.5 + (xi**2 + eta**2) / xi, 1.5))
    assert 2 * solver._dot(v, v) == pytest.approx(sg.weighted_sq_sum(g, 1.0, masked), rel=1e-13)


@pytest.mark.parametrize("method", ["petviashvili", "nehari_descent"])
def test_solve_builds_one_block_and_one_dispersion_table(p12, method, monkeypatch):
    """Both loops take their block, symbol and start from one `_start`: a solve, its report
    included, builds one Galerkin block and one dispersion table."""
    counts = {"block": 0, "table": 0}
    block_init, table = sg.GalerkinBlock.__init__, sg.dispersion_table

    def counted_init(self, *args):
        counts["block"] += 1
        block_init(self, *args)

    def counted_table(*args):
        counts["table"] += 1
        return table(*args)

    monkeypatch.setattr(sg.GalerkinBlock, "__init__", counted_init)
    monkeypatch.setattr(sg, "dispersion_table", counted_table)
    _, rep = solve(SolverConfig(method=method), p12, Grid(32, 32, 8 * PI, 8 * PI))
    assert rep.converged and counts == {"block": 1, "table": 1}


def test_a_solve_runs_in_a_fixed_working_set(p12):
    """A 256^2 Petviashvili solve peaks below 6 fields: the loop keeps phi, f(phi), one half
    spectrum and a few compact vectors (6.6 fields when every iteration built each
    transform, f(phi) and s * ph afresh and the start came from a meshgrid)."""
    g = Grid(256, 256, 64 * PI, 64 * PI)
    assert traced_peak(lambda: solve(SolverConfig(), p12, g)) <= 6.0 * g.nx * g.ny * 8


def test_verify_computations_run_in_a_fixed_working_set(p12):
    """The residual and the functionals of a 256^2 field on a fresh grid peak below 4 fields
    besides the field (4.7 with a cached dispersion table and whole-array expressions)."""
    g = Grid(256, 256, 64 * PI, 64 * PI)
    f = Field(g, GaussianInit().build(g))
    assert traced_peak(lambda: (spectral_residual(f, p12), functional_report(f, p12))) <= 4.0 * g.nx * g.ny * 8


def test_gaussian_start_is_the_meshgrid_formula():
    """The start built from the axes equals the meshgrid formula bit for bit."""
    for g, init in ((Grid(256, 128, 64 * PI, 20.0), GaussianInit()),
                    (Grid(48, 64, 7.3, 11.0), GaussianInit(amplitude=-1.37, sigma_x=0.9, sigma_y=3.1))):
        X, Y = g.meshgrid()
        want = init.amplitude * np.exp(-(X**2) / init.sigma_x**2 - (Y**2) / init.sigma_y**2)
        assert init.build(g).tobytes() == want.tobytes()


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
    with pytest.raises(ConvergenceError, match="bad initial guess"):
        petviashvili(cfg, p12, grid)


P12, SIGNED = PhysicsParams(c=1.0, m=2), PhysicsParams(c=1.0, m=2.5, signed_power=True)
SIGNED_15 = PhysicsParams(c=1.0, m=1.5, signed_power=True)


@pytest.mark.parametrize("method, params, init, message, iterations, warns", [
    ("petviashvili", P12, GaussianInit(), "did not converge in 3 iterations", 3, False),
    ("nehari_descent", P12, GaussianInit(), "did not converge in 3 iterations", 3, False),
    ("petviashvili", P12, Field(Grid(32, 32, 8 * PI, 8 * PI), np.zeros((32, 32))), "lost all spectral content",
     0, False),
    ("petviashvili", P12, GaussianInit(amplitude=-1.0), "<= 0 (bad initial guess)", 1, False),
    ("nehari_descent", P12, GaussianInit(amplitude=-1.0), "int u f(u) <= 0", 0, False),
    ("petviashvili", P12, GaussianInit(amplitude=1e160), "M = nan is not finite: f(phi) or s ph overflows", 0, True),
    ("petviashvili", replace(SIGNED_15, c=1e100), GaussianInit(), "update overflows: ||phi_hat||^2 = inf", 1, True),
    ("nehari_descent", SIGNED, GaussianInit(amplitude=1e120),
     "initial guess rescaled to 0 or a non-finite field (t_u = 0.000e+00)", 0, True),
    ("petviashvili", SIGNED_15, GaussianInit(amplitude=1e-150), "lost all spectral content", 0, False),
    ("petviashvili", P12, GaussianInit(amplitude=1e307), "initial guess overflows its spectrum", 0, True),
    ("nehari_descent", P12, GaussianInit(amplitude=1e307),
     "initial guess rescaled to 0 or a non-finite field (t_u = nan)", 0, True),
    ("nehari_descent", replace(SIGNED_15, c=1e150), GaussianInit(amplitude=1e-50),
     "initial guess rescaled to 0 or a non-finite field (t_u = inf)", 0, False),
], ids=["max_iter", "nehari_max_iter", "zero_init", "negative_M", "nehari_initial_collapse",
        "overflowing_f", "overflowing_update", "nehari_zero_rescaling", "underflowing_report",
        "overflowing_start", "nehari_overflowing_start", "nehari_infinite_rescaling"])
def test_every_stop_carries_field_and_report(method, params, init, message, iterations, warns):
    """max_iter exhausted, a zero initial field, M <= 0, the Nehari initial collapse, an f(phi)
    that overflows (M = nan), an update that overflows, a Nehari rescaling that underflows to 0
    (int u f(u) = inf), a start whose report's GN ratio underflows (it reads nan), a start whose
    spectrum overflows (phi is then its own samples) and a Nehari rescaling past the double range
    (t_u = inf) all raise a plain ConvergenceError, whose message names the stop, with the last,
    finite iterate and a timed, unconverged report."""
    grid = Grid(32, 32, 8 * PI, 8 * PI)
    with pytest.warns(RuntimeWarning) if warns else contextlib.nullcontext(), \
            pytest.raises(ConvergenceError, match=re.escape(message)) as exc:
        solve(SolverConfig(method=method, init=init, max_iter=3), params, grid)
    assert type(exc.value) is ConvergenceError
    fld, rep = exc.value.field, exc.value.report
    assert fld.grid == grid and np.all(np.isfinite(fld.values))
    assert rep.method == method and rep.converged is False and rep.iterations == iterations
    assert len(rep.residual_history) == iterations
    assert set(rep.timings) == {"setup_s", "loop_s", "report_s"}
    assert all(t >= 0 for t in rep.timings.values())
    assert rep.max_abs == float(np.max(np.abs(fld.values)))


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


def test_sweep_exponents_are_the_decay_report_ones(small_solution, p12):
    """A sweep row fits the tails in the windows `decay_report` uses: the same exponents."""
    fld, _ = small_solution
    (row,) = sweep("c", [1.0], SolverConfig(), p12, fld.grid)
    dr = decay_report(fld, p12)
    assert (row.exponent_x, row.exponent_y) == (dr.exponent_x, dr.exponent_y)


def test_sweep_gives_nan_for_a_window_that_underflows(p12, monkeypatch):
    """A tail that falls below 1e-13 inside the x window leaves fewer than 3 samples to fit:
    the row's x exponent is nan, like a window with too few radii, and the y one is fitted.
    decay_report reads the same: a nan x exponent and stderr, and the fitted y exponent."""
    grid = Grid(64, 64, 32.0, 32.0)
    X, Y = grid.meshgrid()
    fld = Field(grid, np.exp(-40 * X**2) * (1 + Y**2) ** -1.5)
    rep = SimpleNamespace(d=1.0, iterations=1, converged=True)  # the fields a sweep row reads
    monkeypatch.setattr(solver, "solve", lambda *args: (fld, rep))
    (row,) = sweep("c", [1.0], SolverConfig(), p12, grid)
    assert math.isnan(row.exponent_x)
    assert row.exponent_y == pytest.approx(3.0, abs=0.5)
    dr = decay_report(fld, p12)
    assert math.isnan(dr.exponent_x) and math.isnan(dr.stderr_x)
    assert dr.exponent_y == row.exponent_y and dr.stderr_y > 0


def test_nehari_stops_as_stalled_at_the_round_off_floor(p12):
    """Below the round-off floor the residual sets no new minimum: NEHARI_STALL iterations
    after its last one the descent stops as stalled, long before max_iter, and the error
    carries the field and the report."""
    grid = Grid(32, 32, 8 * PI, 8 * PI)
    cfg = SolverConfig(method="nehari_descent", tol_residual=1e-300, max_iter=4000)
    with pytest.raises(ConvergenceError, match="stalled: no new residual minimum") as exc:
        nehari_descent(cfg, p12, grid)
    hist = exc.value.report.residual_history
    best_at = int(np.argmin(hist)) + 1
    assert len(hist) == best_at + solver.NEHARI_STALL < cfg.max_iter
    assert hist[best_at - 1] < 1e-14 and not exc.value.report.converged
    assert exc.value.field.grid == grid


def test_nehari_transforms_f_only_on_the_block(p12, monkeypatch):
    """Nehari steps and trials are formed on the block: a solve runs one forward transform per
    iteration, of f(phi), and the start's (trials formed in samples add one per trial: 128 here)."""
    calls, forward = [], sg.GalerkinBlock.forward
    monkeypatch.setattr(sg.GalerkinBlock, "forward", lambda self, *a, **k: calls.append(1) or forward(self, *a, **k))
    _, rep = nehari_descent(SolverConfig(method="nehari_descent"), p12, Grid(32, 32, 8 * PI, 8 * PI))
    assert rep.converged and len(calls) == rep.iterations + 1


def _sample_step_nehari(config, params, grid):
    """(iterations, phi) of Nehari descent with each step formed in samples, the referee of the
    block step: the direction inverse-transformed, each trial phi - h d forward-transformed."""
    block, s, ph, phi = solver._start(config, params, grid)
    w, k = 2.0 * grid.spectral_weight, (params.m - 1.0) / (2.0 * params.p)
    zsq = solver._dot(s * ph, ph) * w
    t = _nehari_t(zsq, _f_integrals(phi, grid.cell_area, params)[0], params.m)
    phi, ph, S, h = t * phi, t * ph, k * t * t * zsq, solver.DESCENT_STEP
    for it in range(1, config.max_iter + 1):
        fh = block.forward(params.f(phi))
        sph = s * ph
        r = sph - fh
        if solver._residual(solver._dot(r, r), solver._dot(sph, sph)) <= config.tol_residual:
            return it, phi
        d = block.inverse(ph - fh / s)
        while True:
            v = phi - h * d
            vh = block.forward(v)
            zv = solver._dot(s * vh, vh) * w
            tv = _nehari_t(zv, _f_integrals(v, grid.cell_area, params)[0], params.m)
            if k * tv * tv * zv <= S + 1e-14 * abs(S):
                break
            h *= 0.5
        phi, ph, S = tv * v, tv * vh, k * tv * tv * zv
        h = min(h * 1.3, 0.9)
    raise AssertionError("the sample-step descent did not converge")


@pytest.mark.parametrize("grid, params, init, iterations", [
    (Grid(64, 64, 16 * PI, 16 * PI), PhysicsParams(c=1.0, m=2), GaussianInit(), 68),
    (Grid(128, 128, 64 * PI, 64 * PI), PhysicsParams(c=1.0, m=2), GaussianInit(), 60),
    (Grid(128, 96, 32 * PI, 24 * PI), PhysicsParams(c=1.0, m=2.5, signed_power=True), GaussianInit(), 48),
    (Grid(64, 64, 16 * PI, 16 * PI), PhysicsParams(c=1.0, m=3), GaussianInit(amplitude=1.5), 40),
    (Grid(32, 32, 8 * PI, 8 * PI), PhysicsParams(c=2.0, m=1.5, signed_power=True), GaussianInit(), 92),
], ids=["golden", "box64pi", "signed_25", "cubic", "signed_15_c2"])
def test_nehari_block_step_matches_the_sample_step(grid, params, init, iterations):
    """The block step takes the sample step's path: the same iteration count, the field within
    1e-14 max|phi| and S within 1e-14 relative (round-off of one transform pair per step)."""
    cfg = SolverConfig(method="nehari_descent", max_iter=4000, init=init)
    fld, rep = nehari_descent(cfg, params, grid)
    it, phi = _sample_step_nehari(cfg, params, grid)
    assert rep.iterations == it == iterations
    assert np.max(np.abs(fld.values - phi)) <= 1e-14 * np.max(np.abs(phi))
    S = functional_report(Field(grid, phi), params).S
    assert abs(rep.d - S) <= 1e-14 * abs(S)


def test_cubic_and_signed_power_nonlinearities():
    g = Grid(128, 128, 16 * PI, 16 * PI)
    for m, signed, amp in ((3, False, 1.5), (2.5, True, 1.2)):
        p = PhysicsParams(c=1.0, m=m, signed_power=signed)
        cfg = SolverConfig(init=GaussianInit(amplitude=amp), max_iter=1500)
        fld, rep = petviashvili(cfg, p, g)
        assert rep.converged
        assert rep.residual_history[-1] <= 1e-10
        assert fld.values.min() < 0 < fld.values.max()


def test_report_serializes(small_solution):
    import json

    _, rep = small_solution
    text = json.dumps(rep.to_dict())
    assert "residual_history" in text and "functionals" in text


def test_file_warm_start_restarts_a_converged_solve(p12, tmp_path):
    """Solving again from a stored converged 32^2 field converges at once (25 iterations cold)."""
    grid = Grid(32, 32, 8 * PI, 8 * PI)
    fld, cold = petviashvili(SolverConfig(), p12, grid)
    path = tmp_path / "warm.field"
    write_field(path, fld, {"c": 1.0, "m": 2})
    _, warm = petviashvili(SolverConfig(init=FileInit(str(path))), p12, grid)
    assert (cold.iterations, warm.iterations) == (25, 2) and warm.converged
    assert warm.d == pytest.approx(cold.d, rel=1e-15)


def test_warm_start_from_another_box_is_rejected(small_solution, p12, tmp_path):
    """Same sample count, different box: both warm-start routes name the two boxes."""
    fld, _ = small_solution
    g = fld.grid
    other = Grid(g.nx, g.ny, 2 * g.lx, g.ly)
    path = tmp_path / "warm.field"
    write_field(path, fld, {"c": 1.0, "m": 2})
    for init in (fld, FileInit(str(path))):
        with pytest.raises(InputError, match="^(warm-start field|initial guess .*) is on ") as exc:
            petviashvili(SolverConfig(init=init), p12, other)
        assert str(g) in str(exc.value) and str(other) in str(exc.value)
