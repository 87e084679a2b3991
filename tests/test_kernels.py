"""Kernel quadrature, the symbol-transform oracle, and multiplier sampling."""

import math

import numpy as np
import pytest
from scipy.special import roots_laguerre

from shrira import (
    Grid,
    KernelSpec,
    h_nu_point,
    hk_point,
    kernel_spectral_oracle,
    quadrature_vs_oracle,
    kernel_decay_scan,
    lizorkin_sample,
)
from shrira.kernels import (
    K_SYM,
    MULTIPLIER_IDS,
    SQRT_PI,
    _lizorkin_tables,
    oracle_node_value,
)
from shrira.errors import GridMismatchError, KernelSingularityError

PI = math.pi

# Frozen referee values of the plain symbol transform
#   K(x, y) = int |xi| / (|xi| + xi^2 + eta^2) e^(i(x xi + y eta)) dxi deta,
# computed by the independent iterated reduction
#   K(x, y) = 2 pi int_0^inf sqrt(xi/(1+xi)) e^(-sqrt(xi+xi^2)|y|) cos(x xi) dxi
# with scipy.integrate.quad at 1e-13 relative tolerance.  The exact dictionary
# K(x, 2y) = sqrt(pi) h_0(x, y) ties them to the quadrature kernel.
K_REFEREE = {
    (0.0, 1.0): 0.7709153403025026,
    (0.5, 0.5): 1.9066613005018092,
    (1.0, 1.0): 0.576096868203587,
    (1.5, 0.5): 0.4261392693055667,
    (2.0, 1.0): 0.29821453899987654,
    (0.5, 1.5): 0.3348139681066559,
    (1.0, 2.0): 0.17435771403323028,
    (2.0, 2.0): 0.1448944986494609,
    (3.0, 1.0): 0.13620541462550087,
    (0.5, 3.0): 0.07231679194589669,
}

# Same referee for the odd kernel: K_hk(x, 2y) / sqrt(pi) = hk(x, y)
HK_REFEREE = {
    (2.0, 3.0): 0.012267075154884986,
    (1.0, 1.0): 0.20277047191442843,
    (3.0, 0.5): 0.3611699773480528,
}

GL_H0_AT_01 = 0.43494240479584123  # sqrt(pi) int t e^-t (t^2+1)^(-3/2) dt


def test_spec_validation():
    with pytest.raises(GridMismatchError):
        KernelSpec(nu=-1.6)
    with pytest.raises(GridMismatchError):
        KernelSpec(quad_tol=1e-3)
    with pytest.raises(KernelSingularityError):
        h_nu_point(KernelSpec(), 0.0, 0.0)


def test_h0_gauss_laguerre_oracle():
    """At x = 0 the cosine factor is 1 and the integral has Laguerre weight."""
    t, w = roots_laguerre(240)
    oracle = SQRT_PI * float(np.sum(w * t * (t * t + 1.0) ** -1.5))
    assert oracle == pytest.approx(GL_H0_AT_01, abs=1e-13)
    s = h_nu_point(KernelSpec(nu=0.0), 0.0, 1.0)
    assert s.value == pytest.approx(oracle, abs=1e-8)
    assert s.est_error <= 1e-10 * abs(s.value) + 1e-14


def test_h0_dictionary_against_frozen_referee():
    spec = KernelSpec(nu=0.0, quad_tol=1e-12)
    for (x, y), K in K_REFEREE.items():
        s = h_nu_point(spec, x, y)
        assert SQRT_PI * s.value == pytest.approx(K, rel=1e-10), (x, y)


def test_h0_y_asymptote():
    """y^3 h_0(0, y) approaches sqrt(pi) monotonically; within 2% by y = 100."""
    spec = KernelSpec(nu=0.0)
    vals = [y**3 * h_nu_point(spec, 0.0, y).value for y in (10.0, 30.0, 100.0)]
    assert vals[0] < vals[1] < vals[2] < SQRT_PI
    assert abs(vals[2] - SQRT_PI) <= 0.02 * SQRT_PI


def test_h_nu_symmetry():
    spec = KernelSpec(nu=0.5)
    a = h_nu_point(spec, 1.2, 0.7).value
    assert h_nu_point(spec, -1.2, 0.7).value == pytest.approx(a, rel=1e-12)
    assert h_nu_point(spec, 1.2, -0.7).value == pytest.approx(a, rel=1e-12)


def test_quadrature_refinement_monotone():
    """Halving quad_tol never moves the value by more than the prior est_error."""
    pt = (0.8, 1.3)
    prev = h_nu_point(KernelSpec(nu=0.0, quad_tol=1e-6), *pt)
    for tol in (5e-7, 2.5e-7, 1.25e-7, 6.25e-8):
        cur = h_nu_point(KernelSpec(nu=0.0, quad_tol=tol), *pt)
        assert abs(cur.value - prev.value) <= prev.est_error + 1e-14
        prev = cur


def test_hk_basics():
    assert hk_point(0.0, 2.0).value == 0.0
    assert hk_point(1.0, 1.0).value > 0.0
    for x, y in ((0.5, 0.0), (2.0, 1.0), (3.0, 4.0)):
        assert hk_point(x, y).value > 0.0  # sign-definite for x > 0
    with pytest.raises(GridMismatchError):
        hk_point(-1.0, 0.0)
    with pytest.raises(KernelSingularityError):
        hk_point(0.0, 0.0)


def test_hk_against_frozen_referee():
    for (x, y), val in HK_REFEREE.items():
        s = hk_point(x, y, quad_tol=1e-12)
        assert s.value == pytest.approx(val, rel=1e-10), (x, y)


def test_oracle_symbol_values():
    """Symbol samples on the grid: 1/2 at (1,0), 1/3 at (1,1), 0 on xi = 0."""
    from shrira.kernels import _oracle_symbol

    g = Grid(32, 32, 2 * PI, 2 * PI)  # integer wavenumbers
    sym = _oracle_symbol(0.0, g, hilbert=False)
    jx, jy = g.index_x(), g.index_y()
    assert sym[(jx == 1) & (jy == 0)][0] == pytest.approx(0.5)
    assert sym[(jx == 1) & (jy == 1)][0] == pytest.approx(1.0 / 3.0)
    assert np.all(sym[jx == 0] == 0.0)


def test_oracle_nu_negative_warns():
    g = Grid(16, 16, 2 * PI, 2 * PI)
    with pytest.warns(RuntimeWarning):
        kernel_spectral_oracle(-0.5, g)


@pytest.mark.parametrize("nu", [-1.0, -1.2])
def test_oracle_zero_x_modes_vanish_for_negative_nu(nu):
    """Every xi = 0 mode of the symbol is 0, so the transform stays finite."""
    from shrira.kernels import _oracle_symbol

    g = Grid(16, 16, 2 * PI, 2 * PI)
    with pytest.warns(RuntimeWarning, match="xi = 0 modes set to 0"):
        sym = _oracle_symbol(nu, g, hilbert=False)
        K = kernel_spectral_oracle(nu, g)
    jx, jy = g.index_x(), g.index_y()
    assert np.all(sym[jx == 0] == 0.0)
    assert sym[(jx == 1) & (jy == 1)][0] == pytest.approx(1.0 / 3.0)  # |xi|^(1+nu) = 1
    assert np.all(np.isfinite(K.values))
    # no xi = 0 content: every row of the transform sums to zero
    assert np.max(np.abs(K.values.sum(axis=1))) <= 1e-12 * np.max(np.abs(K.values)) * g.nx


@pytest.fixture(scope="module")
def oracle_aniso():
    g = Grid(4096, 512, 128 * PI, 16 * PI)
    return kernel_spectral_oracle(0.0, g)


def test_quadrature_vs_oracle_close_points(oracle_aniso):
    """Cross-check through the dictionary at a few well-conditioned points."""
    rows = quadrature_vs_oracle(
        KernelSpec(nu=0.0), [(0.5, 0.5), (1.0, 1.0), (2.0, 1.0)], oracle_aniso
    )
    for (x, y, val, err, oracle, rel) in rows:
        assert rel <= 1e-2, (x, y, rel)


def test_hk_vs_spectral_oracle():
    """Odd-kernel cross-check: transform of -i xi/(|xi|+xi^2+eta^2) at (2, 3)."""
    g = Grid(4096, 1024, 128 * PI, 32 * PI)
    K = kernel_spectral_oracle(0.0, g, hilbert=True)
    xs, y2s, kv = oracle_node_value(K, 2.0, 6.0)
    s = hk_point(xs, y2s / 2.0, quad_tol=1e-11)
    assert abs(SQRT_PI * s.value - kv) / abs(kv) <= 1e-2
    # odd in x: the transform itself
    _, _, kneg = oracle_node_value(K, -xs, y2s)
    assert kneg == pytest.approx(-kv, rel=1e-10)
    # vanishes identically on x = 0
    _, _, k0 = oracle_node_value(K, 0.0, 3.0)
    assert abs(k0) <= 1e-12 * np.max(np.abs(K.values))


def test_decay_scan():
    spec = KernelSpec(nu=0.0)
    rows_y = kernel_decay_scan(spec, "y", [5.0, 10.0, 20.0, 40.0])
    weighted = [r[3] for r in rows_y]
    assert all(0 < wv < SQRT_PI * 1.01 for wv in weighted)
    assert weighted[-1] == pytest.approx(SQRT_PI, rel=0.01)
    rows_x = kernel_decay_scan(spec, "x", [2.0, 5.0, 10.0, 30.0])
    assert all(np.isfinite(r[3]) and abs(r[3]) < 10 for r in rows_x)
    # symmetry in +-r
    plus = kernel_decay_scan(spec, "x", [3.0])[0][1]
    minus = kernel_decay_scan(spec, "x", [-3.0])[0][1]
    assert minus == pytest.approx(plus, rel=1e-12)
    with pytest.raises(KernelSingularityError):
        kernel_decay_scan(spec, "x", [0.0])


def test_lizorkin_closed_forms_against_finite_differences():
    """The analytic derivative tables agree with central differences."""
    rng = np.random.default_rng(5)
    for _ in range(40):
        xi = float(rng.uniform(0.05, 50.0))
        eta = float(rng.uniform(0.05, 50.0))
        h = 1e-6 * max(xi, eta)
        for mult in MULTIPLIER_IDS:
            val = lambda a, b: _lizorkin_tables(np.float64(a), np.float64(b))[mult][(0, 0)]
            tab = _lizorkin_tables(np.float64(xi), np.float64(eta))[mult]
            fd_x = (val(xi + h, eta) - val(xi - h, eta)) / (2 * h)
            fd_y = (val(xi, eta + h) - val(xi, eta - h)) / (2 * h)
            fd_xy = (
                val(xi + h, eta + h) - val(xi + h, eta - h)
                - val(xi - h, eta + h) + val(xi - h, eta - h)
            ) / (4 * h * h)
            scale = max(1.0, abs(tab[(1, 0)]), abs(tab[(0, 1)]), abs(tab[(1, 1)]))
            assert abs(tab[(1, 0)] - fd_x) <= 2e-4 * scale
            assert abs(tab[(0, 1)] - fd_y) <= 2e-4 * scale
            assert abs(tab[(1, 1)] - fd_xy) <= 5e-3 * scale


def test_lizorkin_report():
    reps = {m: lizorkin_sample(m, n_samples=128) for m in MULTIPLIER_IDS}
    # k = 0 maxima bounded by 1 termwise
    for m, rep in reps.items():
        assert rep.maxima[(0, 0)] <= 1.0 + 1e-12
        for v in rep.maxima.values():
            assert np.isfinite(v)
    # a direct evaluation is a lower bound for the reported max
    direct = _lizorkin_tables(np.float64(1.0), np.float64(1e-6))[K_SYM][(0, 0)]
    assert reps[K_SYM].maxima[(0, 0)] >= direct - 1e-12
    assert direct == pytest.approx(0.5, rel=1e-5)
    # refinement stability: doubling n_samples moves each max by <= 5%
    for m in MULTIPLIER_IDS:
        fine = lizorkin_sample(m, n_samples=256)
        for k in fine.maxima:
            a, b = reps[m].maxima[k], fine.maxima[k]
            assert abs(a - b) <= 0.05 * max(a, b), (m, k)
    with pytest.raises(GridMismatchError):
        lizorkin_sample("bogus")
