"""Time integration: exact linear phases, conservation, order-4 signature."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from shrira import (
    Grid,
    Field,
    Spectrum,
    PhysicsParams,
    EvolveConfig,
    linear_symbol,
    step_if_rk4,
    evolve,
)
from shrira.evolution import default_dt, _mass_energy, _Stepper
from shrira.solver import default_dealias_rule
from shrira.errors import BlowUpError, GridMismatchError

from conftest import random_field

PI = math.pi


@pytest.fixture
def g2pi():
    return Grid(32, 32, 2 * PI, 2 * PI)


def test_linear_symbol_values(g2pi):
    sym = linear_symbol(g2pi)
    jx, jy = g2pi.index_x(), g2pi.index_y()
    assert sym[(jx == 1) & (jy == 0)][0] == pytest.approx(1j)
    assert np.all(sym[jx == 0] == 0.0)  # sgn(0) = 0 freezes xi = 0
    assert np.all(np.real(sym) == 0.0)  # purely dispersive


def test_single_mode_phase_rotation(g2pi):
    """Tiny amplitude makes the nonlinear term negligible: after one period
    2 pi / |sigma| the mode returns to itself to 1e-12."""
    X, Y = g2pi.meshgrid()
    amp = 1e-14
    u0 = amp * np.cos(X + Y)  # mode (1, 1): sigma = 2i, period pi
    p = PhysicsParams(c=1.0, m=2)
    period = PI
    nsteps = 64
    s = Spectrum(g2pi, np.fft.fft2(u0))
    for _ in range(nsteps):
        s = step_if_rk4(s, period / nsteps, p)
    out = np.real(np.fft.ifft2(s.coeffs))
    assert np.max(np.abs(out - u0)) <= 1e-12 * amp


def test_zero_x_modes_frozen_over_1000_steps(g2pi):
    _, Y = g2pi.meshgrid()
    u0 = np.sin(Y) + 0.25
    p = PhysicsParams(c=1.0, m=2)
    s = Spectrum(g2pi, np.fft.fft2(u0))
    for _ in range(1000):
        s = step_if_rk4(s, 0.05, p)
    out = np.real(np.fft.ifft2(s.coeffs))
    assert np.max(np.abs(out - u0)) <= 1e-12


def test_linear_modulus_isometry(g2pi):
    """With negligible nonlinearity each mode's modulus is exactly conserved."""
    rng = np.random.default_rng(21)
    f = random_field(g2pi, rng)
    u0 = 1e-14 * f.values
    p = PhysicsParams(c=1.0, m=2)
    s = Spectrum(g2pi, np.fft.fft2(u0))
    mods0 = np.abs(s.coeffs)
    for _ in range(100):
        s = step_if_rk4(s, 0.03, p)
    assert np.max(np.abs(np.abs(s.coeffs) - mods0)) <= 1e-13 * max(mods0.max(), 1e-30)


def test_translation_commutes_with_linear_flow(g2pi):
    """For the linear flow, spectral phase-shift translation commutes."""
    rng = np.random.default_rng(33)
    f = random_field(g2pi, rng)
    sym = linear_symbol(g2pi)
    shift = np.exp(-1j * g2pi.xi2d * 0.37)
    t = 0.9
    ch = np.fft.fft2(f.values)
    a = np.exp(sym * t) * (shift * ch)
    b = shift * (np.exp(sym * t) * ch)
    assert np.allclose(a, b, rtol=1e-13, atol=1e-13)


def test_default_dt_has_dispersive_cap():
    g = Grid(256, 256, 64 * PI, 64 * PI)
    u0 = 3.5 * np.ones((256, 256))
    dt = default_dt(g, u0, "two_thirds")
    keep = g.dealias_mask("two_thirds")
    sig_max = np.max(np.abs(linear_symbol(g).imag[keep]))
    assert dt == pytest.approx(0.05 / sig_max)
    assert dt < 0.25 * g.dx / 3.5


def test_richardson_order_four(small_wave, params_m2):
    """Shape error against the exact translate drops ~16x when dt halves."""
    fld, _ = small_wave
    errs = []
    for dt in (0.02, 0.01):
        rep = evolve(
            fld,
            EvolveConfig(t_end=1.0, dt=dt, record_every=1000),
            params_m2,
            reference=(fld, 1.0),
        )
        errs.append(rep.shape_error_series[-1])
    ratio = errs[0] / errs[1]
    assert 8.0 <= ratio <= 32.0


def test_conservation_small_wave(small_wave, params_m2):
    fld, _ = small_wave
    rep = evolve(fld, EvolveConfig(t_end=1.0), params_m2, reference=(fld, 1.0))
    assert rep.mass_drift <= 1e-8
    assert rep.energy_drift <= 1e-8
    assert rep.shape_error_series[-1] <= 1e-6
    assert rep.times == sorted(rep.times)
    d = rep.to_dict()
    assert d["mass_drift"] == rep.mass_drift


def test_action_energy_mass_relation(small_wave, params_m2):
    """S(u) = E(u) + (c/2)||u||_2^2 ties the conserved pair to the action."""
    from shrira import action_S, lp_norm

    fld, _ = small_wave
    mass, energy = _mass_energy(np.fft.rfft2(fld.values), fld.grid, params_m2)
    S = action_S(fld, params_m2)
    assert S == pytest.approx(energy + params_m2.c * mass, rel=1e-12)
    assert mass == pytest.approx(0.5 * lp_norm(fld, 2) ** 2, rel=1e-12)


def test_blow_up_detection(g2pi):
    X, _ = g2pi.meshgrid()
    u0 = 1e6 * np.cos(X)  # absurd amplitude with a huge step
    p = PhysicsParams(c=1.0, m=2)
    with pytest.raises(BlowUpError) as exc:
        evolve(Field(g2pi, u0), EvolveConfig(t_end=10.0, dt=1.0), p)
    assert exc.value.last_good is not None


def test_blow_up_carries_the_series_up_to_the_last_record():
    """Amplitude 5, m = 3, dt = 0.1 on 32^2: the state at t = 0.2 has finite coefficients
    but its mass overflows, so the run ends there as a blow-up.  The error carries the
    records at 0 and 0.1 and, as last_good, exactly the state a run to t = 0.1 ends in,
    and no overflow warning escapes."""
    g = Grid(32, 32, 8 * PI, 8 * PI)
    X, Y = g.meshgrid()
    u0 = Field(g, 5.0 * np.exp(-(X**2 + Y**2) / 4))
    p = PhysicsParams(c=1.0, m=3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(BlowUpError) as exc:
            evolve(u0, EvolveConfig(t_end=20.0, dt=0.1, record_every=1), p)
    rep = exc.value.report
    assert rep.times == pytest.approx([0.0, 0.1]) and rep.steps == 1 and rep.final is None
    assert np.all(np.isfinite(rep.mass_series + rep.energy_series))
    assert exc.value.t == pytest.approx(0.1)
    clean = evolve(u0, EvolveConfig(t_end=0.1, dt=0.1, record_every=1), p)
    assert np.array_equal(exc.value.last_good.values, clean.final.values)
    assert rep.mass_series == clean.mass_series


def test_initial_field_without_finite_nonzero_mass_is_rejected(g2pi):
    """The drifts divide by the first record's mass and energy: a zero field, or one whose
    mass overflows, is refused before any step."""
    X, _ = g2pi.meshgrid()
    p = PhysicsParams(c=1.0, m=2)
    with pytest.raises(GridMismatchError, match="zero"):
        evolve(Field(g2pi, np.zeros((32, 32))), EvolveConfig(t_end=0.1), p)
    with pytest.raises(GridMismatchError, match="not finite"):
        evolve(Field(g2pi, 1e200 * np.cos(X)), EvolveConfig(t_end=0.1, dt=0.01), p)


def test_evolve_report_counts_steps_and_times_phases(small_wave, params_m2):
    fld, _ = small_wave
    rep = evolve(fld, EvolveConfig(t_end=0.1, dt=0.02, record_every=2), params_m2)
    assert rep.steps == 5
    assert set(rep.timings) == {"setup_s", "steps_s", "records_s"}
    assert min(rep.timings.values()) > 0
    d = rep.to_dict()
    assert d["steps"] == 5 and d["timings"] == rep.timings


def test_evolve_config_validation():
    with pytest.raises(GridMismatchError):
        EvolveConfig(t_end=0.0)
    with pytest.raises(GridMismatchError):
        EvolveConfig(t_end=1.0, dt=-0.1)
    with pytest.raises(GridMismatchError):
        EvolveConfig(t_end=1.0, record_every=0)


def test_snapshot_callback(small_wave, params_m2):
    fld, _ = small_wave
    seen = []
    evolve(
        fld,
        EvolveConfig(t_end=0.1, dt=0.02, record_every=2),
        params_m2,
        snapshot_cb=lambda step, t, f: seen.append((step, t)),
    )
    assert seen[0] == (0, 0.0)
    assert len(seen) >= 3


# --- half-spectrum stepping against the full-complex step ---------------------


def _full_complex_step(coeffs, dt, params, grid, rule):
    """One IF-RK4 step on the full complex spectrum: the reference loop body."""
    keep = grid.dealias_mask(rule)
    e_half = np.exp(linear_symbol(grid) * (dt / 2))
    e_full = e_half * e_half

    def nonlinear(uh):
        u = np.real(np.fft.ifft2(uh))
        fh = np.where(keep, np.fft.fft2(params.f(u)), 0.0)
        return -1j * grid.xi2d * fh

    uh = coeffs
    k1 = nonlinear(uh)
    k2 = nonlinear(e_half * (uh + (dt / 2) * k1))
    k3 = nonlinear(e_half * uh + (dt / 2) * k2)
    k4 = nonlinear(e_full * uh + dt * e_half * k3)
    return e_full * uh + (dt / 6) * (e_full * k1 + 2 * e_half * (k2 + k3) + k4)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    m=st.sampled_from([2, 3]),  # the two_thirds and the half rule
    shape=st.sampled_from([(16, 16), (32, 16), (16, 24)]),
    amplitude=st.floats(0.1, 3.0),
    dt=st.floats(1e-3, 0.05),
    band_limit=st.booleans(),
)
def test_half_spectrum_step_matches_full_complex_step(seed, m, shape, amplitude, dt, band_limit):
    """Random real fields, band-limited or with Nyquist content: the same step to 1e-13."""
    nx, ny = shape
    g = Grid(nx, ny, 2 * PI * nx / 16, 2 * PI * ny / 16)
    u0 = amplitude * random_field(g, np.random.default_rng(seed), band_limit).values
    params = PhysicsParams(c=1.0, m=m)
    ch = np.fft.fft2(u0)
    ref = _full_complex_step(ch, dt, params, g, default_dealias_rule(m))
    got = step_if_rk4(Spectrum(g, ch), dt, params).coeffs
    assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))


def test_reference_from_another_box_is_rejected():
    """Same sample count, different box: the shape-error reference names both boxes."""
    run, other = Grid(32, 32, 8 * PI, 8 * PI), Grid(32, 32, 16 * PI, 8 * PI)
    X, Y = run.meshgrid()
    u0 = 0.1 * np.exp(-(X**2 + Y**2))
    ref = Field(other, np.zeros((32, 32)))
    with pytest.raises(GridMismatchError) as exc:
        evolve(Field(run, u0), EvolveConfig(t_end=0.1), PhysicsParams(c=1.0, m=2), reference=(ref, 1.0))
    assert str(run) in str(exc.value) and str(other) in str(exc.value)


# --- the preallocated stepper against the classical IFRK4 formula -------------


def _classical_step(uh, dt, params, grid, rule):
    """One IF-RK4 step on the half spectrum as fresh-array expressions: the referee."""
    e_half = np.exp(grid.half(linear_symbol(grid)) * (dt / 2))
    e_full = e_half * e_half
    mult = -1j * grid.half(grid.xi2d) * grid.half(grid.dealias_mask(rule))

    def nonlinear(v):
        return mult * np.fft.rfft2(params.f(np.fft.irfft2(v, s=(grid.ny, grid.nx))))

    k1 = nonlinear(uh)
    k2 = nonlinear(e_half * (uh + (dt / 2) * k1))
    k3 = nonlinear(e_half * uh + (dt / 2) * k2)
    k4 = nonlinear(e_full * uh + dt * e_half * k3)
    return e_full * uh + (dt / 6) * (e_full * k1 + 2 * e_half * (k2 + k3) + k4)


def _random_half_spectrum(shape, seed, amplitude, band_limit):
    nx, ny = shape
    g = Grid(nx, ny, 2 * PI * nx / 16, 2 * PI * ny / 16)
    u0 = amplitude * random_field(g, np.random.default_rng(seed), band_limit).values
    return g, np.fft.rfft2(u0)


# Half spectra of 256 KB and more: there numpy evaluates e_half * (temporary) in
# place as temporary * e_half, the operand order the stepper uses.  On smaller
# grids numpy keeps the written order and the step differs from the formula in
# the last bit; the full-complex test above covers those grids to 1e-13.
LARGE_SHAPES = [(256, 128), (128, 256)]


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    m=st.sampled_from([2, 3, 2.5]),
    rule=st.sampled_from(["two_thirds", "half"]),
    shape=st.sampled_from(LARGE_SHAPES),
    amplitude=st.floats(0.1, 3.0),
    dt=st.floats(1e-3, 0.05),
    band_limit=st.booleans(),
)
def test_stepper_is_bit_identical_to_the_classical_formula(seed, m, rule, shape, amplitude, dt, band_limit):
    """Integer powers and the signed power |u|^(m-1) u at m = 2.5."""
    g, uh = _random_half_spectrum(shape, seed, amplitude, band_limit)
    params = PhysicsParams(c=1.0, m=m, signed_power=m == 2.5)
    ref = _classical_step(uh, dt, params, g, rule)
    got = _Stepper(g, dt, rule, params).step(uh, np.empty_like(uh))
    assert np.array_equal(got, ref)


@pytest.mark.parametrize("m, rule, kc", [(2, "two_thirds", 86), (3, "half", 65)])
def test_pruned_nonlinear_term(m, rule, kc):
    """Column FFT only where -i xi keep is nonzero: the full product, exactly 0 from column kc on."""
    g, v = _random_half_spectrum((256, 256), 3, 1.0, False)
    params = PhysicsParams(c=1.0, m=m)
    stepper = _Stepper(g, 0.01, rule, params)
    mult = -1j * g.half(g.xi2d) * g.half(g.dealias_mask(rule))
    want = mult * np.fft.rfft2(params.f(np.fft.irfft2(v, s=(g.ny, g.nx))))
    got = stepper.nonlinear(v, np.full_like(v, np.nan))
    assert stepper.modes.kc == kc
    assert np.array_equal(got, want)
    assert np.all(got[:, kc:] == 0) and np.any(got[:, kc - 1] != 0)


@pytest.mark.parametrize("params, rule", [
    (PhysicsParams(c=1.0, m=2), "two_thirds"),
    (PhysicsParams(c=1.0, m=3), "half"),
    (PhysicsParams(c=1.0, m=2.5, signed_power=True), "half"),
])
def test_step_allocates_no_field_sized_arrays(params, rule):
    """After one warm step at 256^2, ten more raise the traced peak by less than two real fields."""
    g = Grid(256, 256, 64 * PI, 64 * PI)
    X, Y = g.meshgrid()
    uh = np.fft.rfft2(np.exp(-(X**2 + Y**2) / 4))
    stepper, out = _Stepper(g, 0.003, rule, params), np.empty_like(uh)
    stepper.step(uh, out)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        for _ in range(10):
            stepper.step(uh, out)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - base < 2 * g.nx * g.ny * 8
