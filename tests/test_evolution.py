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
    GaussianInit,
    SolverConfig,
    petviashvili,
    step_if_rk4,
    evolve,
)
from shrira.evolution import MAX_STEPS, default_dt, _mass_energy, _Stepper
from shrira.errors import BlowUpError, InputError
from shrira.grid import GalerkinBlock, dispersion_table

from conftest import dealias_band, galerkin_block, kept_modes, random_field, spectral_indices, traced_peak

PI = math.pi


@pytest.fixture
def g2pi():
    return Grid(32, 32, 2 * PI, 2 * PI)


def _linear_symbol(grid):
    """sigma_L = i sgn(xi) (xi^2 + eta^2) = i xi * dispersion on the half layout."""
    return 1j * grid.xi_half * dispersion_table(grid)


def test_linear_symbol_values(g2pi):
    sym = _linear_symbol(g2pi)
    jx, jy = (j[:, :17] for j in spectral_indices(g2pi))  # the symbol's half-spectrum layout
    assert sym.shape == (32, 17)
    assert sym[(jx == 1) & (jy == 0)][0] == pytest.approx(1j)
    assert sym[(jx == -16) & (jy == 2)][0] == pytest.approx(-260j)  # Nyquist: xi = -16
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
    sym = _linear_symbol(g2pi)
    shift = np.exp(-1j * g2pi.xi_half * 0.37)
    t = 0.9
    ch = np.fft.rfft2(f.values)
    a = np.exp(sym * t) * (shift * ch)
    b = shift * (np.exp(sym * t) * ch)
    assert np.allclose(a, b, rtol=1e-13, atol=1e-13)


def test_default_dt_has_dispersive_cap():
    g = Grid(256, 256, 64 * PI, 64 * PI)
    u0 = 3.5 * np.ones((256, 256))
    dt = default_dt(GalerkinBlock(g, 2), u0)
    xi, eta = g.xi[None, :], g.eta[:, None]
    sig_max = np.max(np.where(kept_modes(g, 2), xi**2 + eta**2, 0.0))  # |sigma_L| on the kept modes
    assert dt == pytest.approx(0.05 / sig_max)
    assert dt < 0.25 * g.dx / 3.5


def test_evolve_builds_one_block_and_one_dispersion_table(g2pi, monkeypatch):
    """Under the automatic step, the default dt, the stepper and the energy records of a run read
    one Galerkin block and the one dispersion table it holds."""
    import shrira.grid as sg

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
    X, Y = g2pi.meshgrid()
    rep = evolve(Field(g2pi, 0.5 * np.exp(-(X**2 + Y**2))), EvolveConfig(t_end=0.01), PhysicsParams(c=1.0, m=2))
    assert rep.steps > 1 and len(rep.energy_series) > 1
    assert counts == {"block": 1, "table": 1}


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


@pytest.mark.parametrize("n, m", [(48, 2), (64, 3)])
def test_mass_drift_falls_with_dt_on_the_alias_free_block(n, m):
    """The block of an integer m is alias-free, so the truncation conserves mass in continuous time
    and evolve's mass drift is the integrator's: it falls >= 16x per halving of dt.  The waves of
    m = 2 on 48^2 and of m = 3 on 64^2, 16 pi, to t = 0.5: n is a multiple of 3 and of 4, where a
    band one mode wider (|j| <= n/3, n/4) aliases on its edge and drifts the same at every dt."""
    g = Grid(n, n, 16 * PI, 16 * PI)
    params = PhysicsParams(c=1.0, m=m)
    wave, _ = petviashvili(SolverConfig(init=GaussianInit(amplitude=1.5)), params, g)
    drifts = [evolve(wave, EvolveConfig(t_end=0.5, dt=0.5 / steps), params).mass_drift
              for steps in (80, 160, 320)]
    assert drifts[0] <= 1e-9 and all(a >= 16 * b for a, b in zip(drifts, drifts[1:])), drifts


def test_shape_error_by_parseval_is_the_physical_one(small_wave, params_m2):
    """The recorded shape error equals ||u - phi(. - c t, .)|| / ||phi|| on the samples."""
    fld, _ = small_wave
    g = fld.grid
    snaps = []
    rep = evolve(fld, EvolveConfig(t_end=1.0, record_every=5), params_m2, reference=(fld, 1.0),
                 snapshot_cb=lambda step, t, f: snaps.append((t, f.values.copy())))
    ref_hat = np.fft.rfft2(fld.values)
    assert len(snaps) == len(rep.shape_error_series) > 2
    for (t, u), shape in zip(snaps, rep.shape_error_series):
        tr = np.fft.irfft2(ref_hat * np.exp(-1j * g.xi_half * t), s=(g.ny, g.nx))
        physical = np.sqrt(np.sum((u - tr) ** 2)) / np.sqrt(np.sum(fld.values**2))
        assert abs(shape - physical) <= 1e-15
    assert rep.shape_error_series[-1] > 1e-10  # the comparison is not between zeros


def test_action_energy_mass_relation(small_wave, params_m2):
    """S(u) = E(u) + (c/2)||u||_2^2 ties the conserved pair to the action."""
    from shrira import action_S, lp_norm

    fld, _ = small_wave
    mass, energy = _mass_energy(fld.values, np.fft.rfft2(fld.values), dispersion_table(fld.grid), fld.grid,
                                params_m2)
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
    """The drifts divide by the first record's mass and energy: a zero field, one whose
    mass underflows to 0, or one whose mass overflows, is refused before any step."""
    X, _ = g2pi.meshgrid()
    p = PhysicsParams(c=1.0, m=2)
    for u in (np.zeros((32, 32)), 1e-300 * np.cos(X)):
        with pytest.raises(InputError, match="zero"):
            evolve(Field(g2pi, u), EvolveConfig(t_end=0.1), p)
    with pytest.raises(InputError, match="not finite"):
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
    with pytest.raises(InputError, match="^t_end: "):
        EvolveConfig(t_end=0.0)
    with pytest.raises(InputError, match="^dt: "):
        EvolveConfig(t_end=1.0, dt=-0.1)
    with pytest.raises(InputError, match="^record_every: "):
        EvolveConfig(t_end=1.0, record_every=0)


def test_snapshot_callback(small_wave, params_m2):
    """Each snapshot owns its samples: kept without a copy, the first is still the start and the
    last the final field."""
    fld, _ = small_wave
    seen = []
    rep = evolve(
        fld,
        EvolveConfig(t_end=0.1, dt=0.02, record_every=2),
        params_m2,
        snapshot_cb=lambda step, t, f: seen.append((step, t, f)),
    )
    assert seen[0][:2] == (0, 0.0)
    assert len(seen) >= 3
    assert np.max(np.abs(seen[0][2].values - fld.values)) <= 1e-14 * np.max(np.abs(fld.values))
    assert np.array_equal(seen[-1][2].values, rep.final.values)
    assert not np.array_equal(seen[0][2].values, seen[-1][2].values)


# --- half-spectrum stepping against the full-complex step ---------------------


def _full_complex_step(coeffs, dt, params, grid):
    """One IF-RK4 step on the full complex spectrum: the reference loop body."""
    keep = kept_modes(grid, params.m)
    xi, eta = grid.xi[None, :], grid.eta[:, None]
    e_half = np.exp(1j * np.sign(xi) * (xi**2 + eta**2) * (dt / 2))
    e_full = e_half * e_half

    def nonlinear(uh):
        u = np.real(np.fft.ifft2(uh))
        fh = np.where(keep, np.fft.fft2(params.f(u)), 0.0)
        return -1j * xi * fh

    uh = coeffs
    k1 = nonlinear(uh)
    k2 = nonlinear(e_half * (uh + (dt / 2) * k1))
    k3 = nonlinear(e_half * uh + (dt / 2) * k2)
    k4 = nonlinear(e_full * uh + dt * e_half * k3)
    return e_full * uh + (dt / 6) * (e_full * k1 + 2 * e_half * (k2 + k3) + k4)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    m=st.sampled_from([2, 3]),  # the blocks of 3 K < n and of 4 K < n
    shape=st.sampled_from([(16, 16), (32, 16), (16, 24)]),
    amplitude=st.floats(0.1, 3.0),
    dt=st.floats(1e-3, 0.05),
    band_limit=st.booleans(),
)
def test_half_spectrum_step_matches_full_complex_step(seed, m, shape, amplitude, dt, band_limit):
    """Random real fields, band-limited or with Nyquist content: step_if_rk4 is the full-complex
    step of P(s), P the projection on the Galerkin block, to 1e-13."""
    nx, ny = shape
    g = Grid(nx, ny, 2 * PI * nx / 16, 2 * PI * ny / 16)
    u0 = amplitude * random_field(g, np.random.default_rng(seed), band_limit).values
    params = PhysicsParams(c=1.0, m=m)
    ch = np.fft.fft2(u0)
    ref = _full_complex_step(np.where(galerkin_block(g, m), ch, 0.0), dt, params, g)
    got = step_if_rk4(Spectrum(g, ch), dt, params).coeffs
    assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))


def test_reference_from_another_box_is_rejected():
    """Same sample count, different box: the shape-error reference names both boxes."""
    run, other = Grid(32, 32, 8 * PI, 8 * PI), Grid(32, 32, 16 * PI, 8 * PI)
    X, Y = run.meshgrid()
    u0 = 0.1 * np.exp(-(X**2 + Y**2))
    ref = Field(other, np.zeros((32, 32)))
    with pytest.raises(InputError, match="^reference field is on ") as exc:
        evolve(Field(run, u0), EvolveConfig(t_end=0.1), PhysicsParams(c=1.0, m=2), reference=(ref, 1.0))
    assert str(run) in str(exc.value) and str(other) in str(exc.value)


# --- the preallocated stepper against the classical IFRK4 formula -------------


def _classical_step(uh, dt, params, grid):
    """One IF-RK4 step on the half spectrum as fresh-array expressions: the referee."""
    e_half = np.exp(_linear_symbol(grid) * (dt / 2))
    e_full = e_half * e_half
    mult = _half_multiplier(grid, params.m)

    def nonlinear(v):
        return mult * np.fft.rfft2(params.f(np.fft.irfft2(v, s=(grid.ny, grid.nx))))

    k1 = nonlinear(uh)
    k2 = nonlinear(e_half * (uh + (dt / 2) * k1))
    k3 = nonlinear(e_half * uh + (dt / 2) * k2)
    k4 = nonlinear(e_full * uh + dt * e_half * k3)
    return e_full * uh + (dt / 6) * (e_full * k1 + 2 * e_half * (k2 + k3) + k4)


def _half_multiplier(grid, m):
    """-i xi on the kept modes of m, 0 elsewhere, on the half spectrum."""
    half = grid.nx // 2 + 1
    return -1j * grid.xi[:half] * kept_modes(grid, m)[:, :half]


def _projected(grid, m, h):
    """P(h): the half spectrum h with every mode outside the Galerkin block of m zeroed."""
    return np.where(galerkin_block(grid, m)[:, : h.shape[1]], h, 0.0)


def _block(stepper, h):
    """The Galerkin block of the half spectrum h, in the stepper's block layout."""
    return stepper.block.gather(h)


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
    shape=st.sampled_from(LARGE_SHAPES),
    amplitude=st.floats(0.1, 3.0),
    dt=st.floats(1e-3, 0.05),
    band_limit=st.booleans(),
)
def test_stepper_is_bit_identical_to_the_classical_formula(seed, m, shape, amplitude, dt, band_limit):
    """Integer powers and the signed power |u|^(m-1) u at m = 2.5: the block step of P(uh) is the
    classical step of P(uh), which is 0 outside the block."""
    g, uh = _random_half_spectrum(shape, seed, amplitude, band_limit)
    params = PhysicsParams(c=1.0, m=m, signed_power=m == 2.5)
    ref = _classical_step(_projected(g, m, uh), dt, params, g)
    stepper = _Stepper(GalerkinBlock(g, m), dt, params)
    got = stepper.step(_block(stepper, uh), np.empty_like(stepper.e_half))
    assert np.array_equal(stepper.block.scatter(got, np.empty_like(uh)), ref)


@pytest.mark.parametrize("m, rule, kc", [(2, "two_thirds", 86), (3, "half", 64)])
def test_pruned_nonlinear_term(m, rule, kc):
    """Column FFTs only where -i xi keep is nonzero: on the block, the full product for P(v), which
    is exactly 0 from column kc on.  kc - 1 = 85, the largest K with 3 K < 256, under the 2/3 rule
    of m = 2, and 63, the largest with 4 K < 256, under the 1/2 rule of m = 3."""
    g, v = _random_half_spectrum((256, 256), 3, 1.0, False)
    params = PhysicsParams(c=1.0, m=m)
    stepper = _Stepper(GalerkinBlock(g, m), 0.01, params)
    assert kc - 1 == dealias_band(g.nx, m)
    mult = _half_multiplier(g, m)
    want = mult * np.fft.rfft2(params.f(np.fft.irfft2(_projected(g, m, v), s=(g.ny, g.nx))))
    b = _block(stepper, v)
    got = stepper.nonlinear(b, np.full_like(b, np.nan))
    assert stepper.block.kc == kc and got.shape == (2 * dealias_band(g.ny, m) + 1, kc)
    assert np.array_equal(stepper.block.scatter(got, np.empty_like(v)), want)
    assert np.all(want[:, kc:] == 0) and np.any(got[:, kc - 1] != 0)


@pytest.mark.parametrize("params, rule", [  # the rule: 3 K < n (m = 2) or 4 K < n (m = 2.5, 3)
    (PhysicsParams(c=1.0, m=2), "two_thirds"),
    (PhysicsParams(c=1.0, m=3), "half"),
    (PhysicsParams(c=1.0, m=2.5, signed_power=True), "half"),
    (PhysicsParams(c=1.0, m=2), "two_thirds_y_even"),  # the block's y-even transforms
])
def test_step_allocates_no_field_sized_arrays(params, rule):
    """After one warm step at 256^2, ten more raise the traced peak by less than two real fields."""
    g = Grid(256, 256, 64 * PI, 64 * PI)
    X, Y = g.meshgrid()
    stepper = _Stepper(GalerkinBlock(g, params.m), 0.003, params)
    uh = _block(stepper, np.fft.rfft2(np.exp(-(X**2 + Y**2) / 4)))
    out = np.empty_like(uh)
    assert stepper.block.kc - 1 == dealias_band(g.nx, params.m)
    if rule.endswith("y_even"):
        assert stepper.block.set_y_even(uh) <= 1e-14 and stepper.block.y_even
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


def test_evolve_runs_in_a_fixed_working_set():
    """At 256^2, m = 2, with a reference: the traced peak of evolve stays below 10 real fields
    (the block stepper, one half spectrum, the samples and the final field)."""
    g = Grid(256, 256, 64 * PI, 64 * PI)
    X, Y = g.meshgrid()
    u0 = Field(g, 0.5 * np.exp(-(X**2 + Y**2) / 4))
    config = EvolveConfig(t_end=0.01, dt=0.002, record_every=2)
    peak = traced_peak(lambda: evolve(u0, config, PhysicsParams(c=1.0, m=2), reference=(u0, 1.0)))
    assert peak < 10 * g.nx * g.ny * 8


def test_evolve_evolves_the_projection_and_reports_what_it_removed(g2pi):
    """A field with content outside the Galerkin block: projection_defect is ||u0 - P u0|| / ||u0||
    on the samples, and the run is the run of P u0; a field inside the block reads ~0."""
    u0 = 0.5 * random_field(g2pi, np.random.default_rng(4), band_limit=False).values
    p, config = PhysicsParams(c=1.0, m=3), EvolveConfig(t_end=0.1, dt=0.01)
    pu0 = np.fft.irfft2(_projected(g2pi, 3, np.fft.rfft2(u0)), s=u0.shape)
    rep = evolve(Field(g2pi, u0), config, p)
    assert rep.projection_defect == pytest.approx(np.linalg.norm(u0 - pu0) / np.linalg.norm(u0), rel=1e-12)
    assert rep.projection_defect > 1e-3 and rep.to_dict()["projection_defect"] == rep.projection_defect
    projected = evolve(Field(g2pi, pu0), config, p)
    assert np.max(np.abs(rep.final.values - projected.final.values)) <= 1e-13 * np.max(np.abs(pu0))
    assert projected.projection_defect <= 1e-14


@pytest.mark.parametrize("params", [
    PhysicsParams(c=1.0, m=2),
    PhysicsParams(c=1.0, m=2.5, signed_power=True),
    PhysicsParams(c=1.0, m=3),
])
def test_solver_and_stepper_share_the_galerkin_block(params):
    """A Petviashvili wave lies in the block the stepper evolves: its projection removes nothing
    beyond round-off, under the band of m = 2 (3 K < n) and of m = 2.5 and m = 3 (4 K < n)."""
    g = Grid(64, 48, 16 * PI, 12 * PI)
    wave, _ = petviashvili(SolverConfig(), params, g)
    assert evolve(wave, EvolveConfig(t_end=0.01), params).projection_defect <= 1e-14


def test_a_run_of_more_steps_than_max_steps_is_rejected(g2pi):
    """A tiny box under the automatic step, and an infinite t_end / dt, name the count, dt and t_end."""
    tiny = Grid(32, 32, 25.0, 1e-5)
    X, Y = tiny.meshgrid()
    p = PhysicsParams(c=1.0, m=2)
    with pytest.raises(InputError, match=r"^evolve: t_end / dt = \S+ steps \(dt = \S+, t_end = 0.05\)"):
        evolve(Field(tiny, np.exp(-X**2 / 4)), EvolveConfig(t_end=0.05), p)
    X, _ = g2pi.meshgrid()
    with pytest.raises(InputError, match=r"= inf steps .*\) exceed 1e\+07$") as exc:
        evolve(Field(g2pi, np.cos(X)), EvolveConfig(t_end=1e300, dt=1e-300), p)
    assert MAX_STEPS == 10**7 and "dt = 1e-300, t_end = 1e+300" in str(exc.value)


# --- the y-even path: half the x passes, the same run -------------------------


def _y_mirror(u):
    """u[ny - j] (row 0 kept): the samples of u(x, -y) on the grid."""
    return np.roll(u[::-1], 1, axis=0)


def _gaussian(grid, y0=0.0):
    X, Y = grid.meshgrid()
    return Field(grid, np.exp(-(X**2 + (Y - y0) ** 2) / 4))


@pytest.mark.parametrize("params", [PhysicsParams(c=1.0, m=2), PhysicsParams(c=1.0, m=2.5, signed_power=True)])
def test_y_even_run_matches_the_general_path(params, monkeypatch):
    """256^2 on 64 pi, 100 steps of a y-even Gaussian: the y-even run agrees with the same run forced
    onto the general path to 1e-13 relative (final field, mass, energy and shape error against the
    wave's norm), and every recorded sample array is exactly even in y."""
    g = Grid(256, 256, 64 * PI, 64 * PI)
    u0, config = _gaussian(g), EvolveConfig(t_end=0.3, dt=0.003, record_every=25)
    import shrira.grid as sg

    snaps = []
    even = evolve(u0, config, params, reference=(u0, 1.0), snapshot_cb=lambda k, t, f: snaps.append(f.values))
    monkeypatch.setattr(sg, "Y_EVEN_TOL", -1.0)  # no share passes: the general path
    general = evolve(u0, config, params, reference=(u0, 1.0))
    assert even.steps == general.steps == 100 and len(snaps) == 5
    assert even.y_parity_defect == general.y_parity_defect <= 1e-14
    assert all(np.array_equal(u, _y_mirror(u)) for u in snaps)
    scale = np.max(np.abs(general.final.values))
    assert np.max(np.abs(even.final.values - general.final.values)) <= 1e-13 * scale
    for key in ("mass_series", "energy_series"):
        a, b = np.array(getattr(even, key)), np.array(getattr(general, key))
        assert np.max(np.abs(a - b)) <= 1e-13 * np.max(np.abs(b)), key
    assert np.max(np.abs(np.subtract(even.shape_error_series, general.shape_error_series))) <= 1e-13


def test_y_even_stepper_keeps_the_block_exactly_y_even():
    """Rows k and -k of the state are array_equal after every step, m = 3 on 128 x 96."""
    g = Grid(128, 96, 32 * PI, 24 * PI)
    params = PhysicsParams(c=1.0, m=3)
    block = GalerkinBlock(g, params.m)
    stepper = _Stepper(block, 0.01, params)
    uh = block.project(1.5 * _gaussian(g).values)[0]
    assert block.set_y_even(uh) <= 1e-14 and block.y_even
    out, k = np.empty_like(uh), block.K
    for _ in range(20):
        stepper.step(uh, out)
        uh, out = out, uh
        assert np.array_equal(uh[k + 1 :], uh[k:0:-1])


@pytest.mark.parametrize("field", ["shifted_gaussian", "random"])
def test_a_field_that_is_not_y_even_takes_the_general_path(field):
    """A Gaussian centred off the grid's mirror line and a random field report their y-asymmetry
    and evolve exactly as the general stepper does: project, step, inverse-transform."""
    g = Grid(64, 48, 16 * PI, 12 * PI)
    u0 = _gaussian(g, y0=0.7) if field == "shifted_gaussian" else random_field(g, np.random.default_rng(8))
    params, config = PhysicsParams(c=1.0, m=2), EvolveConfig(t_end=0.2, dt=0.01)
    rep = evolve(u0, config, params)
    assert rep.y_parity_defect > 1e-3 and rep.to_dict()["y_parity_defect"] == rep.y_parity_defect
    block = GalerkinBlock(g, params.m)
    stepper = _Stepper(block, rep.dt, params)
    uh = block.project(u0.values)[0]
    out = np.empty_like(uh)
    for _ in range(rep.steps):
        stepper.step(uh, out)
        uh, out = out, uh
    assert not block.y_even and np.array_equal(rep.final.values, block.inverse(uh))


@pytest.mark.parametrize("m", [2, 2.5, 3])
@pytest.mark.parametrize("shape", [(64, 48), (48, 96)])
def test_y_even_transforms_match_the_general_ones(m, shape):
    """On a y-even random block, the flagged inverse and forward agree with the general ones to
    1e-15 relative; the flagged inverse's samples and forward's block are exactly y-even."""
    nx, ny = shape
    g = Grid(nx, ny, 2 * PI * nx / 16, 2 * PI * ny / 16)
    u = random_field(g, np.random.default_rng(5), band_limit=False).values
    general, even = GalerkinBlock(g, m), GalerkinBlock(g, m)
    b = general.forward(u + _y_mirror(u))
    assert even.set_y_even(b) <= 1e-14 and even.y_even and not general.y_even
    v = general.inverse(b)
    got = even.inverse(b)
    assert np.max(np.abs(got - v)) <= 1e-15 * np.max(np.abs(v)) and np.array_equal(got, _y_mirror(got))
    fb, got = general.forward(got), even.forward(got)
    k = even.K
    assert np.max(np.abs(got - fb)) <= 1e-15 * np.max(np.abs(fb)) and np.array_equal(got[k + 1 :], got[k:0:-1])
