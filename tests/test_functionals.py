"""Variational functionals: frozen oracles, algebraic identities, scalings."""

import math

import numpy as np
import pytest

from shrira import (
    Grid,
    Field,
    GaussianInit,
    PhysicsParams,
    z_norm_sq,
    action_S,
    nehari_I,
    nehari_scale,
    pohozaev_residuals,
    gn_ratio,
    functional_report,
)
from shrira import grid as sg
from shrira.errors import InputError
from shrira.functionals import _nehari_t

from conftest import random_field

TWO_PI = 2 * math.pi


@pytest.fixture
def g2pi():
    return Grid(32, 32, TWO_PI, TWO_PI)


@pytest.fixture
def p12():
    return PhysicsParams(c=1.0, m=2)


def test_params_validation():
    with pytest.raises(InputError, match="^c: "):
        PhysicsParams(c=0.0, m=2)
    with pytest.raises(InputError, match="^m: nonlinearity exponent"):
        PhysicsParams(c=1.0, m=1.0)
    with pytest.raises(InputError, match="^m: non-integer"):
        PhysicsParams(c=1.0, m=2.5)  # non-integer needs signed_power
    p = PhysicsParams(c=1.0, m=2.5, signed_power=True)
    assert p.p == 3.5
    u = np.array([-2.0, 3.0])
    assert np.allclose(p.f(u), np.abs(u) ** 1.5 * u)


def test_z_norm_zero_and_cos(g2pi, p12):
    assert z_norm_sq(Field(g2pi, np.zeros((32, 32))), p12) == 0.0
    X, _ = g2pi.meshgrid()
    # cos x: mass term 2pi^2, D_x^{1/2} term 2pi^2, u_y = 0
    val = z_norm_sq(Field(g2pi, np.cos(X)), p12)
    assert val == pytest.approx(2 * (TWO_PI**2 / 2), rel=1e-12)


def test_z_norm_pure_y_mode_uses_projection(g2pi, p12):
    _, Y = g2pi.meshgrid()
    f = Field(g2pi, np.sin(Y))
    # D_x^{-1/2} u_y content on xi = 0 is projected out: only the mass term remains
    assert z_norm_sq(f, p12) == pytest.approx(p12.c * TWO_PI**2 / 2, rel=1e-12)


def test_z_norm_matches_composed_ops(g2pi, p12):
    """Reference: D_x^{1/2} u and D_x^{-1/2} u_y composed from full-layout symbols."""
    from shrira import forward, inverse, apply_multiplier, lp_norm

    rng = np.random.default_rng(31)
    f = random_field(g2pi, rng)
    s = forward(f)
    xi, eta = g2pi.xi[None, :], g2pi.eta[:, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        neg_half_dy = np.where(xi != 0, 1j * eta / np.sqrt(np.abs(xi)), 0.0)
    composed = (
        p12.c * lp_norm(f, 2) ** 2
        + lp_norm(inverse(apply_multiplier(s, np.sqrt(np.abs(xi)))), 2) ** 2
        + lp_norm(inverse(apply_multiplier(s, neg_half_dy)), 2) ** 2
    )
    assert z_norm_sq(f, p12) == pytest.approx(composed, rel=1e-12)


def test_action_homogeneity(g2pi, p12):
    rng = np.random.default_rng(37)
    f = random_field(g2pi, rng)
    lam = 1.7
    zsq = z_norm_sq(f, p12)
    Fint = action_S(f, p12) - 0.5 * zsq
    scaled = Field(g2pi, lam * f.values)
    expect = 0.5 * lam**2 * zsq + lam**3 * Fint
    assert action_S(scaled, p12) == pytest.approx(expect, rel=1e-12)
    assert action_S(Field(g2pi, np.zeros((32, 32))), p12) == 0.0


def test_action_against_direct_quadrature(g2pi, p12):
    """Independent route: norms assembled from raw FFT sums coded here."""
    X, Y = g2pi.meshgrid()
    u = 1.3 * np.exp(np.cos(X)) * np.sin(Y) * np.cos(Y)
    u -= u.mean()
    f = Field(g2pi, u)
    ch = np.fft.fft2(u)
    w = g2pi.spectral_weight
    absxi = np.abs(g2pi.xi[None, :]) * np.ones((32, 32))
    eta = np.broadcast_to(np.asarray(g2pi.eta)[:, None], (32, 32))
    nz = absxi > 0
    quad = (
        p12.c * np.sum(np.abs(ch) ** 2) * w
        + np.sum(absxi[nz] * np.abs(ch[nz]) ** 2) * w
        + np.sum(eta[nz] ** 2 / absxi[nz] * np.abs(ch[nz]) ** 2) * w
    )
    Fint = np.sum(u**3 / 3.0) * g2pi.cell_area
    assert action_S(f, p12) == pytest.approx(0.5 * quad - Fint, rel=1e-12)


def test_G_for_quadratic_nonlinearity(g2pi, p12):
    rng = np.random.default_rng(41)
    f = random_field(g2pi, rng)
    direct = np.sum(f.values**3) / 6.0 * g2pi.cell_area
    assert functional_report(f, p12).G == pytest.approx(direct, rel=1e-12)
    assert nehari_I(Field(g2pi, np.zeros((32, 32))), p12) == 0.0


def test_nehari_scale_closed_form(g2pi, p12):
    # ||u||_Z^2 = 4, int u^3 = 2, m = 2 -> t_u = 2 (synthetic via direct scaling)
    rng = np.random.default_rng(43)
    f = random_field(g2pi, rng)
    f = Field(g2pi, f.values + 0.5 * np.abs(f.values))  # bias toward int u^3 > 0
    zsq = z_norm_sq(f, p12)
    uf = np.sum(f.values**3) * g2pi.cell_area
    if uf <= 0:
        f = Field(g2pi, -f.values)
        uf = -uf
    lam = np.cbrt(2.0 / uf) * 1.0
    # scale so int u^3 = 2; then scale z to 4 is not independent, so just
    # check the formula directly instead:
    t = nehari_scale(f, p12)
    assert t == pytest.approx(zsq / uf, rel=1e-12)
    # I(t_u u) = 0 and t_u = 1 on the manifold
    on_manifold = Field(g2pi, t * f.values)
    assert abs(nehari_I(on_manifold, p12)) <= 1e-10 * z_norm_sq(on_manifold, p12)
    assert nehari_scale(on_manifold, p12) == pytest.approx(1.0, rel=1e-10)


def test_nehari_scale_maximality(g2pi, p12):
    rng = np.random.default_rng(53)
    f = random_field(g2pi, rng)
    if np.sum(f.values**3) <= 0:
        f = Field(g2pi, -f.values)
    t = nehari_scale(f, p12)
    S_max = action_S(Field(g2pi, t * f.values), p12)
    for frac in (0.5, 0.9, 1.1, 2.0):
        assert S_max >= action_S(Field(g2pi, frac * t * f.values), p12) - 1e-12


def test_manifold_action_identity(g2pi, p12):
    """On the Nehari manifold S = (1/2 - 1/(m+1)) ||u||_Z^2 for f = u^m."""
    rng = np.random.default_rng(107)
    for _ in range(10):
        f = random_field(g2pi, rng)
        if np.sum(f.values**3) <= 0:
            f = Field(g2pi, -f.values)
        u = Field(g2pi, nehari_scale(f, p12) * f.values)
        zsq = z_norm_sq(u, p12)
        expected = (0.5 - 1.0 / (p12.m + 1.0)) * zsq
        assert action_S(u, p12) == pytest.approx(expected, rel=1e-12)


def test_reduction_order_independence(g2pi, p12):
    """Integrals are insensitive to summation order to 1e-13 relative."""
    rng = np.random.default_rng(109)
    f = random_field(g2pi, rng)
    direct = np.sum(f.values**3) * g2pi.cell_area
    flat = (f.values**3).ravel()
    shuffled = flat[rng.permutation(flat.size)].sum() * g2pi.cell_area
    assert abs(direct - shuffled) <= 1e-13 * max(abs(direct), 1e-30)
    assert z_norm_sq(f, p12) == pytest.approx(
        z_norm_sq(Field(g2pi, np.asfortranarray(f.values)), p12), rel=1e-13
    )


def test_nehari_scale_error(g2pi, p12):
    rng = np.random.default_rng(59)
    f = random_field(g2pi, rng)
    if np.sum(f.values**3) > 0:
        f = Field(g2pi, -f.values)
    with pytest.raises(InputError, match="no positive Nehari rescaling"):
        nehari_scale(f, p12)


def test_nehari_scale_past_the_double_range_is_inf(g2pi):
    """At m = 1.5, c = 1e150 and amplitude 1e-50, t_u = (||u||_Z^2 / int u f(u))^2 passes the double
    range: inf, not an OverflowError.  `_nehari_t` gives nan where no t_u exists, and inf there."""
    u = Field(g2pi, GaussianInit(amplitude=1e-50).build(g2pi))
    assert nehari_scale(u, PhysicsParams(c=1e150, m=1.5, signed_power=True)) == math.inf
    assert _nehari_t(1e200, 1e-200, 1.5) == math.inf
    assert all(math.isnan(_nehari_t(1.0, uf, 2.0)) for uf in (0.0, -1.0))


def test_pohozaev_r1_equals_minus_I(g2pi, p12):
    rng = np.random.default_rng(61)
    for k in range(40):
        f = random_field(g2pi, rng, band_limit=k % 2 == 0)  # odd k: content on the Nyquist row
        r1, _ = pohozaev_residuals(f, p12)
        I = nehari_I(f, p12)
        assert abs(r1 + I) <= 1e-12 * (abs(r1) + abs(I) + 1.0)
    z = Field(g2pi, np.zeros((32, 32)))
    assert pohozaev_residuals(z, p12) == (0.0, 0.0)


@pytest.mark.parametrize("m, signed", [(2, False), (2.5, True), (3, False)])
def test_pohozaev_residuals_sum_to_mass_and_potential(g2pi, m, signed):
    """r1 + r2 + r3 = c M - (3 - m) N for every field: the A and B parts cancel."""
    p = PhysicsParams(c=0.7, m=m, signed_power=signed)
    rng = np.random.default_rng(73)
    for _ in range(10):
        f = random_field(g2pi, rng)
        rep = functional_report(f, p)
        mass = float(np.sum(f.values**2)) * g2pi.cell_area
        expect = p.c * mass - (3.0 - m) * rep.F_int
        got = rep.pohozaev_r1 + rep.pohozaev_r2 + rep.pohozaev_r3
        assert abs(got - expect) <= 1e-12 * rep.z_norm_sq
        assert pohozaev_residuals(f, p) == (rep.pohozaev_r1, rep.pohozaev_r2)


def test_functionals_take_one_forward_transform(g2pi, p12, monkeypatch):
    """functional_report takes one grid.rfft2 and no inverse transform; so does each functional."""
    f = random_field(g2pi, np.random.default_rng(3))
    rfft2, calls = sg.rfft2, []

    def counted(*args, **kwargs):
        calls.append(1)
        return rfft2(*args, **kwargs)

    def refuse(*args, **kwargs):
        raise AssertionError("inverse transform in a functional")

    monkeypatch.setattr(sg, "rfft2", counted)
    monkeypatch.setattr(sg, "irfft2", refuse)
    for name in ("irfft2", "ifft2", "irfft", "ifft"):
        monkeypatch.setattr(np.fft, name, refuse)
    for fn, arg in ((functional_report, p12), (pohozaev_residuals, p12), (gn_ratio, 1.0),
                    (z_norm_sq, p12)):
        calls.clear()
        fn(f, arg)
        assert len(calls) == 1, fn.__name__


def test_gn_ratio_scale_invariance(g2pi):
    rng = np.random.default_rng(67)
    f = random_field(g2pi, rng)
    for p_gn in (0.5, 1.0, 2.0):
        q1 = gn_ratio(f, p_gn)
        q2 = gn_ratio(Field(g2pi, 7.3 * f.values), p_gn)
        assert q2 == pytest.approx(q1, rel=1e-10)
    with pytest.raises(InputError, match="exponent must lie in"):
        gn_ratio(f, 2.5)


def test_gn_ratio_band_limited_gaussian_direct_quadrature():
    """Oracle: the four norms assembled with independent numpy code."""
    g = Grid(64, 64, 20.0, 20.0)
    X, Y = g.meshgrid()
    u = np.exp(-(X**2) - Y**2)
    u -= u.mean()
    f = Field(g, u)
    p_gn = 1.0
    dA = g.cell_area
    ch = np.fft.fft2(u)
    w = g.spectral_weight
    absxi = np.broadcast_to(np.abs(np.asarray(g.xi))[None, :], (64, 64))
    eta = np.broadcast_to(np.asarray(g.eta)[:, None], (64, 64))
    nz = absxi > 0
    num = np.sum(np.abs(u) ** 3) * dA
    l2 = math.sqrt(np.sum(u**2) * dA)
    dxh = math.sqrt(np.sum(absxi * np.abs(ch) ** 2) * w)
    dmy = math.sqrt(np.sum(eta[nz] ** 2 / absxi[nz] * np.abs(ch[nz]) ** 2) * w)
    expect = num / (l2 ** (2 - p_gn) * dmy ** (p_gn / 2) * dxh ** (1.5 * p_gn))
    assert gn_ratio(f, p_gn) == pytest.approx(expect, rel=1e-10)


def test_gn_ratio_degenerate(g2pi):
    _, Y = g2pi.meshgrid()
    with pytest.raises(InputError, match="denominator norm of the GN ratio vanishes"):
        gn_ratio(Field(g2pi, np.sin(Y)), 1.0)  # no x-variation


def test_functional_report_consistency(g2pi, p12):
    rng = np.random.default_rng(71)
    f = random_field(g2pi, rng)
    rep = functional_report(f, p12)
    assert rep.S == pytest.approx(action_S(f, p12), rel=1e-13)
    assert rep.I == pytest.approx(nehari_I(f, p12), rel=1e-13)
    assert rep.S - rep.G == pytest.approx(rep.I / 2.0, rel=1e-10)
    d = rep.to_dict()
    assert set(d) == {
        "z_norm_sq", "S", "I", "G", "F_int", "uf_int",
        "pohozaev_r1", "pohozaev_r2", "pohozaev_r3", "gn_ratio",
    }


def test_invariant_suite_randomized():
    """r1 = -I, GN amplitude invariance, t_u maximality over 100 random fields."""
    rng = np.random.default_rng(4096)
    g = Grid(32, 32, 7.0, 9.0)
    p = PhysicsParams(c=0.7, m=2)
    for _ in range(100):
        f = random_field(g, rng)
        r1, _ = pohozaev_residuals(f, p)
        I = nehari_I(f, p)
        assert abs(r1 + I) <= 1e-12 * (abs(r1) + abs(I) + 1.0)
        lam = float(rng.uniform(0.2, 5.0))
        assert gn_ratio(Field(g, lam * f.values), 1.0) == pytest.approx(
            gn_ratio(f, 1.0), rel=1e-10
        )
        uf = np.sum(f.values**3) * g.cell_area
        h = f if uf > 0 else Field(g, -f.values)
        t = nehari_scale(h, p)
        S_star = action_S(Field(g, t * h.values), p)
        for frac in (0.5, 0.9, 1.1, 2.0):
            assert S_star >= action_S(Field(g, frac * t * h.values), p) - 1e-12


def test_integer_powers_by_multiplication_match_pow():
    """f multiplies instead of calling pow: within 4 ulp of u**m, bit-identical at m = 2, and at
    m = 3 bit-identical to repeated multiplication (u * u) * u."""
    rng = np.random.default_rng(5)
    u = rng.standard_normal(100_000) * np.exp(rng.uniform(-3.0, 3.0, 100_000))
    for m in (2, 3, 4, 5):
        got, want = PhysicsParams(c=1.0, m=m).f(u), u**m
        assert np.all(np.abs(got - want) <= 4 * np.spacing(np.abs(want)))
    assert np.array_equal(PhysicsParams(c=1.0, m=2).f(u), u**2)
    assert np.array_equal(PhysicsParams(c=1.0, m=3).f(u), u * u * u)


@pytest.mark.parametrize("m, signed, F", [
    (2, False, lambda u: u**3 / 3), (3, False, lambda u: u**4 / 4),
    (2, True, lambda u: np.abs(u) ** 3 / 3), (2.5, True, lambda u: np.abs(u) ** 3.5 / 3.5),
], ids=["m2", "m3", "m2-signed", "m2.5-signed"])
def test_F_int_is_the_sum_of_the_primitive(m, signed, F):
    """F_int = int u f(u) / (m+1) equals the rectangle-rule sum of F(u) on mixed-sign fields."""
    g = Grid(32, 24, 7.0, 9.0)
    p = PhysicsParams(c=1.0, m=m, signed_power=signed)
    for seed in range(4):
        f = random_field(g, np.random.default_rng(seed))
        want = float(np.sum(F(f.values)) * g.cell_area)
        assert functional_report(f, p).F_int == pytest.approx(want, rel=1e-13)


@pytest.mark.parametrize("m, signed", [(2, False), (3, False), (2.5, True), (3, True)])
def test_f_writes_into_out(m, signed):
    """f(u, out=buf) fills buf with the values f(u) returns, and leaves u alone."""
    u = np.random.default_rng(9).standard_normal((16, 24))
    u0 = u.copy()
    p = PhysicsParams(c=1.0, m=m, signed_power=signed)
    buf = np.full_like(u, np.nan)
    assert p.f(u, out=buf) is buf
    assert np.array_equal(buf, p.f(u)) and np.array_equal(u, u0)
