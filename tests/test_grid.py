"""Spectral infrastructure: transforms, multipliers, dealiasing, quadrature."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import shrira
from shrira import (
    Grid,
    Field,
    Spectrum,
    forward,
    inverse,
    apply_multiplier,
    lp_norm,
)
from shrira.errors import InputError

from shrira.decay import y_weighted_seminorm
from shrira.functionals import _energy_parts

from conftest import galerkin_block, kept_modes, random_field, spectral_indices

PI = math.pi
TWO_PI = 2 * math.pi


@pytest.fixture
def g2pi():
    return Grid(32, 32, TWO_PI, TWO_PI)


def test_grid_validation():
    with pytest.raises(InputError, match="^nx: must be even and >= 8"):
        Grid(6, 32, 1.0, 1.0)
    with pytest.raises(InputError, match="^nx: must be even and >= 8"):
        Grid(33, 32, 1.0, 1.0)
    with pytest.raises(InputError, match="^lx: box length must be positive"):
        Grid(32, 32, -1.0, 1.0)


@pytest.mark.parametrize("lx, ly, name", [(math.inf, 1.0, "lx"), (1.0, math.inf, "ly"), (math.nan, 1.0, "lx")])
def test_grid_rejects_non_finite_box_lengths(lx, ly, name):
    with pytest.raises(InputError, match=f"^{name}: box length must be positive and finite"):
        Grid(8, 8, lx, ly)


def test_wavenumber_tables(g2pi):
    # xi[0] = 0; antisymmetric up to Nyquist; exactly ny entries with xi = 0
    assert g2pi.xi[0] == 0.0
    for j in range(1, g2pi.nx // 2):
        assert g2pi.xi[j] == -g2pi.xi[-j]
    assert np.array_equal(g2pi.xi_half, g2pi.xi[:17]) and not g2pi.xi_half.flags.writeable
    assert g2pi.xi_half[-1] == -16.0  # the Nyquist column keeps fftfreq's xi = -pi nx/lx


def test_dispersion_table(g2pi):
    """(xi^2 + eta^2)/|xi| on xi != 0, 0 on xi = 0, half layout; any rows, the first kc columns."""
    from shrira.grid import dispersion_table

    tab = dispersion_table(g2pi)
    jx, jy = (j[:, :17] for j in spectral_indices(g2pi))
    assert tab.shape == (32, 17)
    assert tab[(jx == 1) & (jy == 0)][0] == 1.0
    assert tab[(jx == 2) & (jy == -3)][0] == pytest.approx(13.0 / 2.0, rel=1e-15)
    assert tab[(jx == -16) & (jy == 3)][0] == pytest.approx(265.0 / 16.0, rel=1e-15)  # Nyquist
    assert np.all(tab[jx == 0] == 0.0)
    assert np.array_equal(dispersion_table(g2pi, [0, 1, 31], 5), tab[[0, 1, 31], :5])


@pytest.mark.parametrize("shape", [(8, 8), (48, 32), (64, 48)])
@pytest.mark.parametrize("m", [2, 2.5, 3])
def test_keep_matches_its_definition(shape, m):
    """The Galerkin block of m is the half layout of |j| <= frac n/2 on each axis (frac 2/3 for
    m <= 2, 1/2 beyond): rows 0..K and ny-K..ny-1 of columns 0..kc-1.  Without its column 0 it
    holds the kept modes; the x-Nyquist column is never in it.  Its disp is the dispersion table
    on those modes, read-only."""
    from shrira.grid import GalerkinBlock, dispersion_table

    g = Grid(*shape, 5.0, 3.0)
    block, half = GalerkinBlock(g, m), g.nx // 2 + 1
    frac = 2.0 / 3.0 if m <= 2 else 0.5
    assert (block.K, block.kc) == (int(frac * g.ny / 2), int(frac * g.nx / 2) + 1)
    assert block.shape == (len(block.rows), block.kc) == (2 * block.K + 1, block.kc)
    mask = np.isin(np.arange(g.ny), block.rows)[:, None] & (np.arange(half) < block.kc)
    assert np.array_equal(mask, galerkin_block(g, m)[:, :half])
    assert np.array_equal(mask & (np.arange(half) != 0), kept_modes(g, m)[:, :half])
    assert block.kc < half and block.half.shape == (g.ny, half)
    assert np.array_equal(block.disp, dispersion_table(g)[block.rows, : block.kc])
    with pytest.raises(ValueError, match="read-only"):
        block.disp[0, 1] = 0.0


def test_dc_mode(g2pi):
    s = forward(Field(g2pi, np.ones((32, 32))))
    nonzero = np.abs(s.coeffs) > 1e-12
    assert nonzero.sum() == 1 and nonzero[0, 0]


def test_single_mode_cos4x(g2pi):
    X, _ = g2pi.meshgrid()
    s = forward(Field(g2pi, np.cos(4 * X)))
    jx, _ = spectral_indices(g2pi)
    big = np.abs(s.coeffs) > 1e-9 * np.abs(s.coeffs).max()
    assert set(np.unique(jx[big])) == {-4, 4}


def test_round_trip_random():
    rng = np.random.default_rng(7)
    g = Grid(48, 64, 3.0, 5.0)
    f = Field(g, rng.standard_normal((64, 48)))
    back = inverse(forward(f))
    err = np.linalg.norm(back.values - f.values) / np.linalg.norm(f.values)
    assert err < 1e-13


def test_parseval(g2pi):
    rng = np.random.default_rng(11)
    f = Field(g2pi, rng.standard_normal((32, 32)))
    phys = lp_norm(f, 2) ** 2
    spec = np.sum(np.abs(forward(f).coeffs) ** 2) * g2pi.spectral_weight
    assert abs(phys - spec) <= 1e-12 * phys


def test_conjugate_symmetry(g2pi):
    rng = np.random.default_rng(3)
    c = forward(Field(g2pi, rng.standard_normal((32, 32)))).coeffs
    flipped = np.conj(c[(-np.arange(32)) % 32][:, (-np.arange(32)) % 32])
    assert np.allclose(c, flipped, rtol=1e-12, atol=1e-12 * np.abs(c).max())


def test_multiplier_identity_and_linearity(g2pi):
    rng = np.random.default_rng(5)
    f = random_field(g2pi, rng)
    s = forward(f)
    out = apply_multiplier(s, lambda xi, eta: np.ones_like(xi))
    assert np.allclose(out.coeffs, s.coeffs)
    g = random_field(g2pi, rng)
    sg = forward(g)
    sym = lambda xi, eta: 1.0 / (1.0 + xi**2 + eta**2)
    a, b = 1.7, -0.3
    lhs = apply_multiplier(Spectrum(g2pi, a * s.coeffs + b * sg.coeffs), sym).coeffs
    rhs = a * apply_multiplier(s, sym).coeffs + b * apply_multiplier(sg, sym).coeffs
    assert np.allclose(lhs, rhs, rtol=1e-13, atol=1e-13)


def test_multiplier_domain_error(g2pi):
    f = Field(g2pi, np.ones((32, 32)))
    s = forward(f)  # only (0,0) nonzero
    bad = lambda xi, eta: np.where((xi == 0) & (eta == 0), np.inf, 1.0)
    with pytest.raises(InputError, match="non-finite symbol value on a used mode"):
        apply_multiplier(s, bad)
    # non-finite on unused modes is fine and maps to zero
    X, _ = g2pi.meshgrid()
    s2 = forward(Field(g2pi, np.cos(X)))
    s2 = Spectrum(g2pi, np.where(np.abs(s2.coeffs) < 1e-9, 0.0, s2.coeffs))
    out = apply_multiplier(s2, bad)
    assert np.all(np.isfinite(out.coeffs))


def test_dx_half_examples(g2pi):
    X, Y = g2pi.meshgrid()
    f = Field(g2pi, np.cos(4 * X))
    out = apply_multiplier(forward(f), lambda xi, eta: np.sqrt(np.abs(xi)))
    assert np.allclose(inverse(out).values, 2 * np.cos(4 * X), atol=1e-12)
    # H^2 = -Id on zero-mean: i*sgn applied twice to sin(x)
    s = forward(Field(g2pi, np.sin(X)))
    h2 = apply_multiplier(apply_multiplier(s, lambda xi, eta: 1j * np.sign(xi)),
                          lambda xi, eta: 1j * np.sign(xi))
    assert np.allclose(inverse(h2).values, -np.sin(X), atol=1e-12)


def test_lp_norm_examples(g2pi):
    one = Field(g2pi, np.ones((32, 32)))
    assert abs(lp_norm(one, 2) ** 2 - TWO_PI**2) < 1e-12 * TWO_PI**2
    X, _ = g2pi.meshgrid()
    cosx = Field(g2pi, np.cos(X))
    assert abs(lp_norm(cosx, 2) ** 2 - TWO_PI**2 / 2) < 1e-12 * TWO_PI**2
    assert lp_norm(cosx, np.inf) == pytest.approx(1.0)


def test_field_validation(g2pi):
    with pytest.raises(InputError, match="does not match grid"):
        Field(g2pi, np.zeros((4, 4)))
    bad = np.zeros((32, 32))
    bad[0, 0] = np.nan
    with pytest.raises(InputError, match="non-finite entries"):
        Field(g2pi, bad)


def test_invariant_suite_randomized():
    """Round-trip, Parseval and multiplier algebra over many random fields."""
    rng = np.random.default_rng(2024)
    g = Grid(32, 32, 5.0, 3.0)
    sym = lambda xi, eta: np.sqrt(np.abs(xi)) + 0.5j * np.sign(xi) * eta
    for _ in range(100):
        f = random_field(g, rng)
        s = forward(f)
        back = inverse(s)
        assert np.linalg.norm(back.values - f.values) <= 1e-13 * max(
            1.0, np.linalg.norm(f.values)
        )
        phys = lp_norm(f, 2) ** 2
        spec = np.sum(np.abs(s.coeffs) ** 2) * g.spectral_weight
        assert abs(phys - spec) <= 1e-12 * max(phys, 1e-30)
        g2 = random_field(g, rng)
        a, b = rng.standard_normal(2)
        lhs = apply_multiplier(
            Spectrum(g, a * s.coeffs + b * forward(g2).coeffs), sym
        ).coeffs
        rhs = a * apply_multiplier(s, sym).coeffs + b * apply_multiplier(forward(g2), sym).coeffs
        assert np.allclose(lhs, rhs, rtol=5e-13, atol=5e-13)


@pytest.mark.parametrize("m", [2, 3])
@pytest.mark.parametrize("shape", [(48, 32), (256, 128)])
def test_real_transforms_are_numpys_bit_for_bit(shape, m):
    """grid.rfft2 and grid.irfft2 are np.fft.rfft2 and np.fft.irfft2 bit for bit, in full and,
    pruned to the kc columns of the Galerkin block of m, on the columns below kc (the pruned
    inverse of a spectrum that is zero from column kc on)."""
    from shrira.grid import GalerkinBlock, irfft2, rfft2

    nx, ny = shape
    g = Grid(nx, ny, 10.0, 7.0)
    kc = GalerkinBlock(g, m).kc
    assert kc - 1 == int({2: 2 / 3, 3: 0.5}[m] * nx / 2)
    u = np.random.default_rng(11).standard_normal((ny, nx))
    want = np.fft.rfft2(u)
    assert np.array_equal(rfft2(u), want)
    out = np.empty_like(want)
    assert rfft2(u, kc, out=out) is out and np.array_equal(out[:, :kc], want[:, :kc])
    assert np.array_equal(irfft2(want.copy()), np.fft.irfft2(want, s=(ny, nx)))
    band = np.where(np.arange(nx // 2 + 1) < kc, want, 0.0)
    back = np.empty_like(u)
    assert irfft2(band.copy(), kc, out=back) is back
    assert np.array_equal(back, np.fft.irfft2(band, s=(ny, nx)))


def test_half_spectrum_weighted_sums_equal_full_sums():
    """Column weights 1, 2, ..., 2, 1 make half-spectrum sums the full ones (Parseval)."""
    from shrira.grid import dispersion_table, full_from_half, weighted_sq_sum

    rng = np.random.default_rng(17)
    g = Grid(16, 24, 3.0, 5.0)
    a = rng.standard_normal((24, 16))
    fa, ha = np.fft.fft2(a), np.fft.rfft2(a)
    assert list(g.half_weight) == [1.0] + [2.0] * 7 + [1.0]
    assert np.array_equal(g.xi_half, g.xi[:9])  # Nyquist keeps xi = -pi nx/lx
    xi, eta = np.abs(g.xi)[None, :], g.eta[:, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        full_dispersion = np.where(xi != 0, (xi**2 + eta**2) / xi, 0.0)
    for w, half_w in ((np.ones(fa.shape), 1.0), (1.0 + full_dispersion, 1.0 + dispersion_table(g))):
        full = np.sum(w * np.abs(fa) ** 2)
        assert weighted_sq_sum(g, half_w, ha) == pytest.approx(full, rel=1e-13)
    phys = np.sum(a * a) * g.cell_area
    assert weighted_sq_sum(g, 1.0, ha) * g.spectral_weight == pytest.approx(phys, rel=1e-13)
    assert np.max(np.abs(full_from_half(g, ha) - fa)) <= 1e-13 * np.max(np.abs(fa))


def _full_complex_op(u, g, symbol):
    """real(ifft2(symbol * fft2(u))): the full-complex form of a Hermitian multiplier."""
    return np.real(np.fft.ifft2(symbol * np.fft.fft2(u)))


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    shape=st.sampled_from([(16, 16), (32, 16), (16, 24)]),
    box=st.sampled_from([(TWO_PI, TWO_PI), (3.0, 5.0), (40.0, 12.0)]),
    band_limit=st.booleans(),
)
def test_verify_operators_on_half_spectrum_match_full_complex(seed, shape, box, band_limit):
    """The three parts of ||u||_Z^2 (one half spectrum) and the y-weighted seminorm: random
    real fields, band-limited or with Nyquist content, agree with full-complex physical sums
    to 1e-13.

    The eta^2/|xi| part counts the y-Nyquist row eta = -pi*ny/ly by design.  real(ifft2) of
    i*eta/|xi|^(1/2) drops that row, so its reference adds the row's spectral sum back; on a
    band-limited field the row is empty and the reference is the physical sum alone."""
    nx, ny = shape
    g = Grid(nx, ny, *box)
    u = random_field(g, np.random.default_rng(seed), band_limit).values
    f = Field(g, u)
    xi, eta = g.xi[None, :], g.eta[:, None]
    ax = np.abs(xi)
    with np.errstate(divide="ignore", invalid="ignore"):
        neg_half_dy = np.where(xi != 0, 1j * eta / np.sqrt(ax), 0.0)
    nyquist_row = np.sum(np.abs(neg_half_dy * np.fft.fft2(u))[ny // 2] ** 2) * g.spectral_weight
    refs = (
        np.sum(u * u) * g.cell_area,
        np.sum(_full_complex_op(u, g, np.sqrt(ax)) ** 2) * g.cell_area,
        np.sum(_full_complex_op(u, g, neg_half_dy) ** 2) * g.cell_area + nyquist_row,
    )
    for got, ref in zip(_energy_parts(f), refs):
        assert got == pytest.approx(ref, rel=1e-13)
    dxh, px, py = (_full_complex_op(u, g, sym) for sym in (np.sqrt(ax), 1j * xi, 1j * eta))
    Y = g.meshgrid()[1]
    ref = float(np.sum(Y**2 * (dxh**2 + px**2 + py**2)) * g.cell_area)
    assert y_weighted_seminorm(f) == pytest.approx(ref, rel=1e-13)


@pytest.mark.parametrize("m", [2, 3])
def test_galerkin_block_moves_out_of_and_into_the_half_layout(m):
    """`gather` and `scatter` move the block, rows `rows` of the first kc columns, out of
    and into the half layout, and it sums like the half spectrum it was scattered into.
    `forward` is np.fft.rfft2 on the block with its xi = 0 column zeroed and `inverse`
    np.fft.irfft2 of the projection P h, bit for bit: both run the pruned transforms through
    the one work buffer.  `project` is np.fft.rfft2 on the block, xi = 0 column kept, with the
    defect sqrt(dropped / (dropped + kept)) formed on Python floats, and a nan defect for 0."""
    from shrira.grid import GalerkinBlock, weighted_sq_sum

    g = Grid(48, 32, 3.0, 5.0)
    block = GalerkinBlock(g, m)
    rows, kc = block.rows, block.kc
    assert np.array_equal(block.xi, g.xi_half[:kc]) and not block.xi.flags.writeable
    u = np.random.default_rng(2).standard_normal((32, 48))
    h = np.fft.rfft2(u)
    mask = galerkin_block(g, m)[:, :25]
    b = block.gather(h, np.empty(block.shape, complex))
    assert np.array_equal(b, h[rows, :kc]) and np.array_equal(block.gather(h), b)
    back = block.scatter(b, np.full_like(h, np.nan))
    assert np.array_equal(back, np.where(mask, h, 0.0))
    assert weighted_sq_sum(g, 1.0, b) == pytest.approx(weighted_sq_sum(g, 1.0, back), rel=1e-14)
    out = np.empty(block.shape, complex)
    assert block.forward(u, out=out) is out and np.array_equal(out, np.where(np.arange(kc) == 0, 0.0, b))
    assert np.array_equal(block.forward(u), out)
    want = np.fft.irfft2(back, s=u.shape)
    buf = np.empty_like(u)
    assert block.inverse(b, out=buf) is buf and np.array_equal(buf, want)
    assert np.array_equal(block.inverse(b), want) and np.array_equal(b, h[rows, :kc])
    pu, defect = block.project(u)
    assert np.array_equal(pu, b) and np.any(pu[:, 0] != 0)
    dropped, kept = weighted_sq_sum(g, 1.0, np.where(mask, 0.0, h)), weighted_sq_sum(g, 1.0, b)
    assert defect == float(np.sqrt(dropped / (dropped + kept))) and 0 < defect < 1
    pz, zero_defect = block.project(np.zeros_like(u))
    assert not pz.any() and math.isnan(zero_defect)
