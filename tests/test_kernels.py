"""Kernel quadrature, the symbol-transform oracle, and multiplier sampling."""

import math
import re
import warnings

import numpy as np
import pytest

from shrira import (
    Grid,
    KernelSpec,
    h_nu_point,
    kernel_spectral_oracle,
    oracle_nodes,
    quadrature_vs_oracle,
    lizorkin_sample,
)
from shrira import kernels
from shrira import grid as sg
from shrira.kernels import (
    ABS_ERROR_FLOOR,
    K_SYM,
    MULTIPLIER_IDS,
    QK15_GAUSS_WEIGHTS,
    QK15_NODES,
    QK15_WEIGHTS,
    SQRT_PI,
    _lizorkin_tables,
    oracle_node_value,
)
from shrira.errors import InputError, QuadratureAccuracyError

from conftest import spectral_indices

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

GL_H0_AT_01 = 0.43494240479584123  # sqrt(pi) int t e^-t (t^2+1)^(-3/2) dt

# h_2(0.001, 0) by mpmath.quad at 30 digits, split at t = 1e-4, 1e-3, 1e-2, 1, 10, 60
H2_NEAR_ORIGIN = 1772446.6670703126


def test_spec_validation():
    with pytest.raises(InputError, match="^nu: "):
        KernelSpec(nu=-1.6)
    with pytest.raises(InputError, match="^quad_tol: "):
        KernelSpec(quad_tol=1e-3)
    with pytest.raises(InputError, match="singular at the origin"):
        h_nu_point(KernelSpec(), 0.0, 0.0)


def test_a_kernel_order_past_the_gamma_range_or_a_nan_estimate_is_not_certified():
    """nu = 1e300 overflows Gamma(nu + 3/2) (a traceback once) and is rejected up front; at
    nu = 170 the integrand overflows and the nan error estimate fails the certificate."""
    with pytest.raises(InputError, match="^nu: kernel order must be at most 170, got 1e"):
        KernelSpec(nu=1e300)
    with pytest.warns(RuntimeWarning), pytest.raises(QuadratureAccuracyError, match="error nan exceeds"):
        h_nu_point(KernelSpec(nu=170.0), 0.5, 0.75)


def test_h0_gauss_laguerre_oracle():
    """At x = 0 the cosine factor is 1 and the integral has Laguerre weight."""
    t, w = pytest.importorskip("scipy.special").roots_laguerre(240)
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


@pytest.mark.parametrize("nu", [0.0, 0.5])
@pytest.mark.parametrize("x, y", [(1e308, 0.0), (1e200, 1e200), (0.0, 1e308)])
def test_huge_point_certifies_zero_without_a_warning(nu, x, y):
    """Far out the integrand's powers overflow to their limit 0; the quadrature returns the
    certified 0.0 and no overflow RuntimeWarning escapes (the suite turns one into an error)."""
    s = h_nu_point(KernelSpec(nu=nu), x, y)
    assert s.value == 0.0 and s.est_error <= ABS_ERROR_FLOOR


def test_h_nu_symmetry():
    spec = KernelSpec(nu=0.5)
    a = h_nu_point(spec, 1.2, 0.7).value
    assert h_nu_point(spec, -1.2, 0.7).value == pytest.approx(a, rel=1e-12)
    assert h_nu_point(spec, 1.2, -0.7).value == pytest.approx(a, rel=1e-12)


def test_on_axis_point_near_the_origin_certifies():
    """On y = 0 the integrand goes like t^(-1/2) as t -> 0.  Quadrature in s = sqrt(t) sees a
    smooth integrand, so nu = 2 at (0.001, 0) certifies; bisection in t ran out of intervals."""
    spec = KernelSpec(nu=2.0)
    s = h_nu_point(spec, 0.001, 0.0)
    assert s.est_error <= spec.quad_tol * abs(s.value)
    assert s.value == pytest.approx(H2_NEAR_ORIGIN, rel=1e-10)


def test_quadrature_refinement_monotone():
    """Halving quad_tol never moves the value by more than the prior est_error."""
    pt = (0.8, 1.3)
    prev = h_nu_point(KernelSpec(nu=0.0, quad_tol=1e-6), *pt)
    for tol in (5e-7, 2.5e-7, 1.25e-7, 6.25e-8):
        cur = h_nu_point(KernelSpec(nu=0.0, quad_tol=tol), *pt)
        assert abs(cur.value - prev.value) <= prev.est_error + 1e-14
        prev = cur


def test_qk15_rule_is_the_gauss_kronrod_pair():
    """The hard-coded 7-point Gauss nodes and weights are leggauss(7); the 15-point Kronrod
    rule integrates t^k on [-1, 1] exactly for k <= 22, the Gauss rule for k <= 13."""
    gauss = QK15_GAUSS_WEIGHTS != 0
    assert np.count_nonzero(gauss) == 7
    t7, w7 = np.polynomial.legendre.leggauss(7)
    assert np.allclose(QK15_NODES[gauss], t7, rtol=0, atol=1e-15)
    assert np.allclose(QK15_GAUSS_WEIGHTS[gauss], w7, rtol=0, atol=1e-15)
    assert np.all(np.diff(QK15_NODES) > 0) and np.all(QK15_NODES == -QK15_NODES[::-1])
    for k in range(23):
        exact = 2.0 / (k + 1) if k % 2 == 0 else 0.0
        assert abs(QK15_WEIGHTS @ QK15_NODES**k - exact) <= 1e-14, k
        if k <= 13:
            assert abs(QK15_GAUSS_WEIGHTS @ QK15_NODES**k - exact) <= 1e-14, k


def test_qk15_error_estimate_is_quadpacks():
    """Per interval, value and error equal scipy's QUADPACK-style gk15 (the rule of quad_vec):
    resasc * min(1, (200 |K15 - G7| / resasc)^1.5), floored at 50 eps resabs."""
    quad_vec = pytest.importorskip("scipy.integrate._quad_vec")
    if not hasattr(quad_vec, "_quadrature_gk15"):
        pytest.skip("scipy has no _quadrature_gk15")
    cases = [
        (lambda t: t**20, (-1.0, 1.0)),  # 200 |K - G| > resasc: the error is resasc
        (lambda t: t**-0.5, (1e-6, 2.0)),
        (lambda t: np.cos(3.0 * t), (0.0, 2.0)),  # resasc (200 |K - G| / resasc)^1.5
        (lambda t: 1.0 / (1.0 + t * t), (0.0, 1.0)),
        (lambda t: np.exp(-t), (2.0, 2.5)),  # K = G to round-off: the 50 eps resabs floor
        (lambda t: 1.0 + 0.0 * t, (2.0, 60.0)),
    ]
    for f, (a, b) in cases:
        val, err = kernels._qk15(f, np.array([a]), np.array([b]))
        ref_val, ref_err, _ = quad_vec._quadrature_gk15(a, b, f, abs)
        assert val[0] == pytest.approx(ref_val, rel=1e-13, abs=1e-300), (a, b)
        assert err[0] == pytest.approx(ref_err, rel=1e-6, abs=0), (a, b)


def _quad_referee(monkeypatch, evaluate, points):
    """(value, est_error) per point with the quadrature routed through scipy.integrate.quad
    (the call shape is shared); where quad cannot certify, its best estimate and error."""
    monkeypatch.setattr(kernels, "_gauss_kronrod", pytest.importorskip("scipy.integrate").quad)
    out = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # quad's IntegrationWarning near the t = 0 singularity
        for (x, y) in points:
            try:
                s = evaluate(x, y)
                out.append((s.value, s.est_error))
            except QuadratureAccuracyError as exc:
                out.append((exc.value, exc.est_error))
    return out


QUAD_SWAP_POINTS = [
    (1.0, 0.0), (7.5, 0.0), (0.0, 1.0), (0.0, 12.0),  # on the axes
    (0.5, 0.5), (1.2, 0.7), (3.0, 4.0), (5.0, 5.0), (10.0, 0.1),  # off the axes
    (0.05, 0.02), (0.001, 0.001), (0.0, 0.001),  # near the origin
]


@pytest.mark.parametrize("nu", [-1.4, -0.5, 0.0, 0.5, 2.0])
def test_gauss_kronrod_against_scipy_quad(nu, monkeypatch):
    """Every point is certified, and scipy's quad agrees within the two error estimates."""
    spec = KernelSpec(nu=nu)
    ours = [h_nu_point(spec, x, y) for (x, y) in QUAD_SWAP_POINTS]
    refs = _quad_referee(monkeypatch, lambda x, y: h_nu_point(spec, x, y), QUAD_SWAP_POINTS)
    for a, (value, est_error) in zip(ours, refs):
        assert abs(a.value - value) <= a.est_error + est_error + ABS_ERROR_FLOOR, (a, value, est_error)


def test_oracle_symbol_values():
    """Symbol samples on the grid: 1/2 at (1,0), 1/3 at (1,1), 0 on xi = 0."""
    from shrira.kernels import _oracle_symbol

    g = Grid(32, 32, 2 * PI, 2 * PI)  # integer wavenumbers
    sym = _oracle_symbol(0.0, g)
    jx, jy = (j[:, : g.nx // 2 + 1] for j in spectral_indices(g))  # the symbol's half layout
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
        sym = _oracle_symbol(nu, g)
        K = kernel_spectral_oracle(nu, g)
    jx, jy = (j[:, : g.nx // 2 + 1] for j in spectral_indices(g))  # the symbol's half layout
    assert np.all(sym[jx == 0] == 0.0)
    assert sym[(jx == 1) & (jy == 1)][0] == pytest.approx(1.0 / 3.0)  # |xi|^(1+nu) = 1
    assert np.all(np.isfinite(K.values))
    # no xi = 0 content: every row of the transform sums to zero
    assert np.max(np.abs(K.values.sum(axis=1))) <= 1e-12 * np.max(np.abs(K.values)) * g.nx


def _full_spectrum_oracle(nu, grid):
    """The full-complex oracle: real(roll(ifft2(full symbol))) on the whole (ny, nx) layout."""
    ax = np.abs(grid.xi)
    with np.errstate(divide="ignore"):
        num = ax ** (1.0 + nu)
    dispersion = sg.divide_off_xi0(grid, grid.xi**2 + grid.eta[:, None] ** 2, ax)
    sym = sg.divide_off_xi0(grid, num, ax * (1.0 + dispersion))
    raw = np.fft.ifft2(sym) * (grid.nx * grid.ny) * (2 * np.pi) ** 2 / (grid.lx * grid.ly)
    return np.roll(np.real(raw), (grid.ny // 2, grid.nx // 2), axis=(0, 1))


@pytest.mark.parametrize("nodes", [False, True])
@pytest.mark.parametrize("nu", [0.0, 0.5, -1.2])
@pytest.mark.parametrize("grid", [Grid(64, 32, 8 * PI, 4 * PI), Grid(512, 128, 32 * PI, 8 * PI)])
def test_half_spectrum_oracle_matches_full_complex(nu, nodes, grid):
    """The half-spectrum oracle, as a field or read at every node by `oracle_nodes`."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # the nu < 0 warning
        ref = _full_spectrum_oracle(nu, grid)
        if nodes:
            X, Y = grid.meshgrid()
            got = np.array([v for _, _, v in oracle_nodes(nu, grid, zip(X.ravel(), Y.ravel()))])
            got = got.reshape(grid.ny, grid.nx)
        else:
            got = kernel_spectral_oracle(nu, grid).values
    assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))


def _oracle_test_points(grid):
    """Points of both signs, a duplicate, off-node points, and the first and last node rows and columns."""
    x0, y0 = grid.x[[0, -1]], grid.y[[0, -1]]
    return [(0.5, 1.0), (0.5, 1.0), (-0.5, -1.0), (-2.0, 3.0), (2.0, -3.0), (0.31, 0.02), (0.0, 0.5),
            (10.0, 4.0), (x0[0], y0[0]), (x0[1], y0[1]), (x0[0], 0.5), (x0[1], -0.5), (1.0, y0[0]),
            (-1.0, y0[1]), (grid.lx / 2 - 0.6 * grid.dx, 0.0)]


@pytest.mark.parametrize("nu", [0.0, 0.5])
@pytest.mark.parametrize("grid", [Grid(4096, 1024, 128 * PI, 32 * PI), Grid(8192, 1024, 256 * PI, 32 * PI)],
                         ids=["cli_default", "criterion7"])
def test_oracle_nodes_match_the_full_oracle(nu, grid):
    """To 1e-12 relative; a node value under 1e-3 of the largest read (the box edges) to 1e-15 of it."""
    points = _oracle_test_points(grid)
    got = oracle_nodes(nu, grid, points)
    K = kernel_spectral_oracle(nu, grid)
    want = [oracle_node_value(K, x, y) for x, y in points]
    peak = max(abs(v) for _, _, v in want)
    for (x, y), g, w in zip(points, got, want):
        assert g[:2] == w[:2], (x, y)
        assert abs(g[2] - w[2]) <= 1e-12 * max(abs(w[2]), 1e-3 * peak), (x, y, g[2], w[2])
    assert got[0] == got[1]


def test_oracle_nodes_reject_a_point_outside_the_box():
    g = Grid(64, 32, 8 * PI, 4 * PI)
    assert oracle_nodes(0.0, g, []) == []
    for x, y in ((g.lx / 2, 0.0), (0.0, -g.ly / 2 - 0.51 * g.dy)):  # nearest node index nx, or -1
        with pytest.raises(InputError, match=re.escape(f"point ({x}, {y}) lies outside the oracle box")):
            oracle_nodes(0.0, g, [(0.5, 0.5), (x, y)])


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


def test_lizorkin_closed_forms_against_finite_differences():
    """The analytic derivative tables agree with central differences."""
    rng = np.random.default_rng(5)
    for _ in range(40):
        xi = float(rng.uniform(0.05, 50.0))
        eta = float(rng.uniform(0.05, 50.0))
        h = 1e-6 * max(xi, eta)
        for mult in MULTIPLIER_IDS:
            val = lambda a, b: _lizorkin_tables(np.float64(a), np.float64(b), mult)[(0, 0)]
            tab = _lizorkin_tables(np.float64(xi), np.float64(eta), mult)
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


def _hand_written_lizorkin_tables(xi, eta):
    """Each multiplier's derivatives differentiated by hand: a referee for the derived tables."""
    D = xi + xi * xi + eta * eta
    D2, D3 = D * D, D * D * D
    return {
        K_SYM: {
            (0, 0): xi / D,
            (1, 0): (eta * eta - xi * xi) / D2,
            (0, 1): -2.0 * xi * eta / D2,
            (1, 1): 2.0 * eta * (xi + 3.0 * xi * xi - eta * eta) / D3,
        },
        kernels.X_DERIV_SYM: {
            (0, 0): xi * xi / D,
            (1, 0): xi * (xi + 2.0 * eta * eta) / D2,
            (0, 1): -2.0 * xi * xi * eta / D2,
            (1, 1): 4.0 * xi * eta * (xi * xi - eta * eta) / D3,
        },
        kernels.Y_DERIV_SYM: {
            (0, 0): xi * eta / D,
            (1, 0): eta * (eta * eta - xi * xi) / D2,
            (0, 1): xi * (xi + xi * xi - eta * eta) / D2,
            (1, 1): ((3.0 * eta * eta - xi * xi) * D - 4.0 * eta * eta * (eta * eta - xi * xi)) / D3,
        },
    }


def test_lizorkin_tables_match_the_hand_written_forms():
    """At 200 log-uniform points of LIZORKIN_RANGE the sampled quantities xi^k1 eta^k2 d^(k1,k2) L
    (each of size O(1)) agree to 1e-13; the (0, 0) entries are bit-identical.  A relative
    comparison would fail only where a derivative crosses zero and either form's rounding rules."""
    rng = np.random.default_rng(11)
    xi, eta = 10.0 ** rng.uniform(*np.log10(kernels.LIZORKIN_RANGE), (2, 200))
    want = _hand_written_lizorkin_tables(xi, eta)
    got = {mult: _lizorkin_tables(xi, eta, mult) for mult in MULTIPLIER_IDS}
    assert set(want) == set(MULTIPLIER_IDS)
    for mult in MULTIPLIER_IDS:
        assert set(got[mult]) == set(want[mult])
        assert np.array_equal(got[mult][(0, 0)], want[mult][(0, 0)])
        for (k1, k2), w in want[mult].items():
            assert np.max(np.abs(xi**k1 * eta**k2 * (got[mult][(k1, k2)] - w))) <= 1e-13, (mult, k1, k2)


def test_lizorkin_report():
    reps = {m: lizorkin_sample(m, n_samples=128) for m in MULTIPLIER_IDS}
    # k = 0 maxima bounded by 1 termwise
    for m, rep in reps.items():
        assert rep.maxima[(0, 0)] <= 1.0 + 1e-12
        for v in rep.maxima.values():
            assert np.isfinite(v)
    # a direct evaluation is a lower bound for the reported max
    direct = _lizorkin_tables(np.float64(1.0), np.float64(1e-6), K_SYM)[(0, 0)]
    assert reps[K_SYM].maxima[(0, 0)] >= direct - 1e-12
    assert direct == pytest.approx(0.5, rel=1e-5)
    # refinement stability: doubling n_samples moves each max by <= 5%
    for m in MULTIPLIER_IDS:
        fine = lizorkin_sample(m, n_samples=256)
        for k in fine.maxima:
            a, b = reps[m].maxima[k], fine.maxima[k]
            assert abs(a - b) <= 0.05 * max(a, b), (m, k)
    with pytest.raises(InputError, match="unknown multiplier 'bogus'"):
        lizorkin_sample("bogus")


@pytest.mark.parametrize("n_samples", [-1, 0, 1])
def test_lizorkin_sample_rejects_fewer_than_two_samples(n_samples):
    with pytest.raises(InputError, match=f"^n_samples: must be at least 2, got {n_samples}$"):
        lizorkin_sample(K_SYM, n_samples=n_samples)
