"""Convolution kernels of the profile equation, by quadrature and by DFT.

The kernel family h_nu is defined by the single-integral representation

    h_nu(x, y) = 2 Gamma(nu + 3/2) * int_0^inf t^(nu+1) e^-t
                 * (t^2 x^2 + (t^2 + y^2)^2)^(-(2nu+3)/4)
                 * cos((nu + 3/2) arctan(t|x| / (t^2 + y^2))) dt,

smooth away from the origin, even in x and in y, with algebraic tails
|y|^(2nu+3) h_nu and |x|^(3/2) h_nu bounded.

Relation to the plain symbol transform: with

    K_nu(x, y) = int_{R^2} |xi|^(1+nu) / (|xi| + xi^2 + eta^2)
                 * e^(i(x xi + y eta)) dxi deta

(the object `kernel_spectral_oracle` approximates on a grid), the exact
identity K_nu(x, y) = sqrt(pi) * h_nu(x, y/2) holds; it was verified to
machine precision against an independent iterated 1D reduction (the eta
integral of the symbol is elementary).  Quadrature vs grid-transform cross
checks go through this dictionary.

Quadrature (numpy only, no scipy): QUADPACK's 15-point Gauss-Kronrod rule
(qk15), globally adaptive by bisection on (0, T], every interval's 15 nodes in
one vectorized integrand call, plus the analytic exponential tail bound for
t > T (integrand <= t^-(nu+2) e^-t there).  Per interval the error is
QUADPACK's resasc * min(1, (200 |K15 - G7| / resasc)^1.5), floored at
50 eps resabs for round-off.  The t -> 0 endpoint is integrable for
nu > -3/2 and handled by the bisection.

Oracle: the symbol is built on the half spectrum (columns 0..nx/2) and
inverted by irfft2; it is Hermitian, so this is the real part of the full
complex inverse, at half the transform work.  `oracle_nodes` sums the same
transform at a few nodes only, so a cross check need not hold the whole field.

Everything here fixes the wave speed to 1 (the denominator |xi| + xi^2 + eta^2
is the unit-speed profile symbol times |xi|); other speeds are reached through
the solver's exact rescaling, not by re-deriving kernels.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import grid as sg
from .errors import InputError, QuadratureAccuracyError

SQRT_PI = math.sqrt(math.pi)
ABS_ERROR_FLOOR = 1e-14

K_SYM = "k_sym"
X_DERIV_SYM = "x_deriv_sym"
Y_DERIV_SYM = "y_deriv_sym"
_LIZORKIN_EXPONENTS = {K_SYM: (1, 0), X_DERIV_SYM: (2, 0), Y_DERIV_SYM: (1, 1)}  # (a, b) of xi^a eta^b / D
MULTIPLIER_IDS = tuple(_LIZORKIN_EXPONENTS)
LIZORKIN_RANGE = (1e-6, 1e6)  # |xi| and |eta| sampled by lizorkin_sample
LIZORKIN_SAMPLES = 256  # lizorkin_sample's points per axis
ORACLE_BLOCK = 64  # eta rows of the symbol that `oracle_nodes` holds at a time


@dataclass(frozen=True)
class KernelSpec:
    """Kernel order and quadrature tolerances."""

    nu: float = 0.0
    quad_tol: float = 1e-10

    def __post_init__(self):
        if not -1.5 < self.nu < math.inf:
            raise InputError(f"nu: kernel order must exceed -3/2 and be finite, got {self.nu}")
        if self.nu > 170.0:  # the prefactor 2 Gamma(nu + 3/2) overflows from nu ~ 170.1 on
            raise InputError(f"nu: kernel order must be at most 170, got {self.nu}")
        if not 0.0 < self.quad_tol <= 1e-4:
            raise InputError(f"quad_tol: must lie in (0, 1e-4], got {self.quad_tol}")


@dataclass(frozen=True)
class KernelSample:
    x: float
    y: float
    value: float
    est_error: float


# QUADPACK's qk15 (Piessens et al. 1983): the 15-point Kronrod nodes x >= 0 on [-1, 1], their
# weights, and the 7-point Gauss weights (0 off the Gauss nodes x_1, x_3, x_5, x_7 = 0).
_XK = (0.9914553711208126, 0.9491079123427585, 0.8648644233597691, 0.7415311855993945,
       0.5860872354676911, 0.4058451513773972, 0.20778495500789848, 0.0)
_WK = (0.022935322010529224, 0.06309209262997856, 0.10479001032225019, 0.14065325971552592,
       0.1690047266392679, 0.19035057806478542, 0.20443294007529889, 0.20948214108472782)
_WG = (0.0, 0.1294849661688697, 0.0, 0.27970539148927664, 0.0, 0.3818300505051189, 0.0, 0.4179591836734694)
QK15_NODES = np.concatenate((-np.array(_XK), _XK[-2::-1]))  # -x_0 .. -x_6, 0, x_6 .. x_0
QK15_WEIGHTS = np.concatenate((_WK, _WK[-2::-1]))
QK15_GAUSS_WEIGHTS = np.concatenate((_WG, _WG[-2::-1]))


def _qk15(g, lo, hi):
    """QK15 values and QUADPACK error estimates on the intervals [lo, hi], in one call of g."""
    c, h = (lo + hi) / 2, (hi - lo) / 2
    f = g(c[:, None] + h[:, None] * QK15_NODES)
    resk = f @ QK15_WEIGHTS
    err = np.abs(resk - f @ QK15_GAUSS_WEIGHTS) * h
    resasc = np.abs(f - resk[:, None] / 2) @ QK15_WEIGHTS * h
    with np.errstate(divide="ignore", invalid="ignore"):  # 0/0 where resasc = 0: err stays
        err = np.where(resasc > 0, resasc * np.minimum(1.0, (200.0 * err / resasc) ** 1.5), err)
    return resk * h, np.maximum(err, 50 * np.finfo(float).eps * (np.abs(f) @ QK15_WEIGHTS) * h)


def _gauss_kronrod(g, a, b, epsabs, epsrel, limit):
    """(value, error) of int_a^b g by globally adaptive QK15 bisection; g is vectorized.

    Each of n intervals is bisected while its error exceeds tol / 2n, with at
    most `limit` intervals in all.
    """
    lo, hi = np.array([float(a)]), np.array([float(b)])
    val, err = _qk15(g, lo, hi)
    while err.sum() > (tol := max(epsabs, epsrel * abs(val.sum()))) and lo.size < limit:
        split = err > tol / (2 * err.size)  # the others' errors sum to at most tol / 2
        split &= np.cumsum(split) <= limit - lo.size
        mid, stay = (lo[split] + hi[split]) / 2, ~split
        nval, nerr = _qk15(g, np.concatenate((lo[split], mid)), np.concatenate((mid, hi[split])))
        lo, hi = np.concatenate((lo[stay], lo[split], mid)), np.concatenate((hi[stay], mid, hi[split]))
        val, err = np.concatenate((val[stay], nval)), np.concatenate((err[stay], nerr))
    return float(val.sum()), float(err.sum())


def h_nu_point(spec: KernelSpec, x: float, y: float) -> KernelSample:
    """Evaluate h_nu at one point by adaptive quadrature.

    Raises InputError at (0, 0) and QuadratureAccuracyError (carrying the best
    estimate) if the tolerance cannot be certified: the quadrature error on
    (0, T], T = 60, plus pref times the bound t^-(nu+2) e^-t of the integrand
    past T (under 1e-17 for nu >= -3/2 + 1e-9, so a longer interval would not
    help).  The quadrature runs in s = sqrt(t), on 2 s g(s^2) over (0, sqrt(T)],
    which smooths the t^(-1/2) endpoint of the y = 0 axis for the bisection.
    """
    if x == 0.0 and y == 0.0:
        raise InputError("kernel is singular at the origin")
    nu = spec.nu
    pref = 2.0 * math.gamma(nu + 1.5)
    ax, y2 = abs(x), y * y

    def g(t):
        q = t * t + y2
        return (t ** (nu + 1.0) * np.exp(-t) * (t * t * x * x + q * q) ** (-(2.0 * nu + 3.0) / 4.0)
                * np.cos((nu + 1.5) * np.arctan2(t * ax, q)))

    T = 60.0
    val, err = _gauss_kronrod(lambda s: 2.0 * pref * s * g(s * s), 0.0, math.sqrt(T),
                              epsabs=ABS_ERROR_FLOOR / 2, epsrel=spec.quad_tol / 2, limit=400)
    est = err + pref * (T ** -(nu + 2.0) * math.exp(-T))
    if not est <= spec.quad_tol * abs(val) + ABS_ERROR_FLOOR:  # a nan estimate certifies nothing
        rel = est / abs(val) if val else math.inf
        raise QuadratureAccuracyError(f"quadrature error {est:.2e} exceeds tolerance at ({x}, {y}): "
                                      f"achieved relative error {rel:.2e}", value=val, est_error=est)
    return KernelSample(x=x, y=y, value=val, est_error=est)


def _warn_negative_nu(nu: float) -> None:
    if nu < 0:
        warnings.warn(
            "nu < 0: the symbol's xi -> 0 limit is direction-dependent; "
            "xi = 0 modes set to 0",
            RuntimeWarning,
            stacklevel=3,
        )


def _oracle_symbol(nu: float, grid: sg.Grid, rows=slice(None)) -> np.ndarray:
    """Eta rows `rows` of the half-spectrum |xi|^(1+nu) / (|xi|(1 + dispersion)), 0 on xi = 0."""
    ax = np.abs(grid.xi_half)
    with np.errstate(divide="ignore"):  # |0|^(1+nu) for nu < -1: a xi = 0 mode, left 0
        num = ax ** (1.0 + nu)
    return sg.divide_off_xi0(grid, num, ax * (1.0 + sg.dispersion_table(grid, rows)))


def kernel_spectral_oracle(nu: float, grid: sg.Grid) -> sg.Field:
    """Grid transform K(x,y) = int symbol e^(i(x xi + y eta)) dxi deta.

    The half-spectrum symbol (xi = 0 entries are 0) times (-1)^(jx + jy), which
    centres the origin in the usual physical order, is inverted by irfft2.
    Accuracy is limited by the box (periodized |x|^(-3/2) images) and the
    wavenumber cutoff; the caller picks a grid that truncates consciously.  A
    long-x anisotropic grid suppresses the dominant image error.
    """
    _warn_negative_nu(nu)
    sym = _oracle_symbol(nu, grid)
    sym[1::2] *= -1.0
    sym[:, 1::2] *= -1.0
    # not grid.irfft2: its in-place complex pass cannot hold the real symbol, and a complex copy
    # would add ~67 MB at criterion 7's 8192 x 1024 oracle
    vals = np.fft.irfft2(sym, s=(grid.ny, grid.nx))
    vals *= (grid.nx * grid.ny) * (2 * np.pi) ** 2 / (grid.lx * grid.ly)
    return sg.Field(grid, vals)


def _node(grid: sg.Grid, x: float, y: float):
    """Indices (i, j) of the grid node nearest (x, y); InputError outside the box."""
    # the box is checked in floating point, so that a non-finite or huge coordinate fails it too;
    # round() halves to even, and n is even, so these bounds are those of 0 <= round(s) < n
    si, sj = (x + grid.lx / 2) / grid.dx, (y + grid.ly / 2) / grid.dy
    if not (-0.5 <= si < grid.nx - 0.5 and -0.5 <= sj < grid.ny - 0.5):
        raise InputError(f"point ({x}, {y}) lies outside the oracle box")
    return round(si), round(sj)


def oracle_node_value(field: sg.Field, x: float, y: float):
    """(snapped x, snapped y, field value) at the grid node nearest (x, y)."""
    g = field.grid
    i, j = _node(g, x, y)
    return float(g.x[i]), float(g.y[j]), float(field.values[j, i])


def _phases(n: int, a, b) -> np.ndarray:
    """e^(2 pi i a b / n) on the outer product of the integer vectors a and b, reduced mod n first."""
    return np.exp(2j * np.pi * (np.outer(a, b) % n) / n)


def oracle_nodes(nu: float, grid: sg.Grid, points) -> list:
    """`oracle_node_value` of `kernel_spectral_oracle(nu, grid)` at each point, without the field.

    Every point is checked against the box first.  With X and Y the distinct
    node columns and rows, the |Y| x |X| node values are the sum irfft2 takes,

        (2 pi)^2/(lx ly) Re sum_eta e^(i eta y_j) sum_xi w_xi S(xi, eta) e^(i xi x_i),

    S the half-spectrum symbol and w `Grid.half_weight`.  The phases come from
    integer index products mod n, k (i - n/2), which also carry the centring
    sign (-1)^k.  S is built ORACLE_BLOCK eta-rows at a time, and both sums
    are BLAS matmuls; the values agree with the full transform to ~1e-14.
    """
    _warn_negative_nu(nu)
    idx = np.array([_node(grid, x, y) for x, y in points], dtype=np.int64).reshape(-1, 2)
    cols, ci = np.unique(idx[:, 0], return_inverse=True)
    rows, ri = np.unique(idx[:, 1], return_inverse=True)
    ex = grid.half_weight[:, None] * _phases(grid.nx, np.arange(grid.nx // 2 + 1), cols - grid.nx // 2)
    ey = _phases(grid.ny, rows - grid.ny // 2, np.arange(grid.ny))
    table = np.zeros((rows.size, cols.size), np.complex128)
    for b in range(0, grid.ny, ORACLE_BLOCK):
        blk = slice(b, b + ORACLE_BLOCK)
        # real S times complex ex as one real matmul on ex's interleaved (re, im) pairs
        table += ey[:, blk] @ (_oracle_symbol(nu, grid, blk) @ ex.view(np.float64)).view(np.complex128)
    vals = table.real[ri, ci] * ((2 * np.pi) ** 2 / (grid.lx * grid.ly))
    return [(float(grid.x[i]), float(grid.y[j]), float(v)) for (i, j), v in zip(idx, vals)]


def kernel_rows(spec: KernelSpec, points, oracle_values):
    """Cross-check rows (x, y, value, est_error, oracle, rel_diff), yielded one point at a time.

    value is the quadrature h_nu(x, y); oracle_values holds, point by point,
    the symbol transform at the node nearest (x, 2y), using the exact
    dictionary K_nu(x, 2y) = sqrt(pi) h_nu(x, y), and
    rel_diff = |sqrt(pi) value - oracle| / |oracle|.
    """
    for (x, y), kv in zip(points, oracle_values):
        s = h_nu_point(spec, x, y)
        yield x, y, s.value, s.est_error, kv, abs(SQRT_PI * s.value - kv) / max(abs(kv), 1e-300)


def quadrature_vs_oracle(spec: KernelSpec, points, oracle: sg.Field) -> list:
    """`kernel_rows` at the snapped points (xs, y2s / 2), (xs, y2s) the node of `oracle` nearest
    (x, 2y), against the field's value there."""
    nodes = [oracle_node_value(oracle, x, 2.0 * y) for (x, y) in points]
    return list(kernel_rows(spec, [(xs, y2s / 2.0) for xs, y2s, _ in nodes], [kv for _, _, kv in nodes]))


# --- Lizorkin multiplier sampling -------------------------------------------
#
# The three multipliers from the regularity bootstrap, on the positive
# quadrant (each has definite parity in xi and eta, so magnitudes of the
# weighted derivatives are quadrant-symmetric), are one family
#
#   L = xi^a eta^b / D,   D = xi + xi^2 + eta^2,
#
# with (a, b) = (1, 0), (2, 0), (1, 1) (`_LIZORKIN_EXPONENTS`).  Sufficient
# multiplier condition: sup |xi^k1 eta^k2 d^(k1,k2) L| < inf over k1, k2 in
# {0, 1}.  Derivatives are closed forms, not finite differences, all from the
# logarithmic derivatives lx = a/xi - D_xi/D and ly = b/eta - D_eta/D:
#
#   d_xi L = L lx,   d_eta L = L ly,   d_xi d_eta L = L (lx ly + D_xi D_eta / D^2),
#
# the last because D_xi = 1 + 2 xi and D_eta = 2 eta give D_xi,eta = 0.


def _lizorkin_tables(xi, eta, multiplier_id):
    """The four derivative tables (k1, k2) -> d^(k1,k2) L of one multiplier."""
    a, b = _LIZORKIN_EXPONENTS[multiplier_id]
    D = xi + xi * xi + eta * eta
    dx, dy = (1.0 + 2.0 * xi) / D, 2.0 * eta / D  # D_xi / D, D_eta / D
    L = xi**a * eta**b / D
    lx, ly = a / xi - dx, b / eta - dy
    return {(0, 0): L, (1, 0): L * lx, (0, 1): L * ly, (1, 1): L * (lx * ly + dx * dy)}


@dataclass(frozen=True)
class LizorkinReport:
    multiplier: str
    n_samples: int
    maxima: dict  # (k1, k2) -> sup |xi^k1 eta^k2 d^(k1,k2) Lambda|

    def rows(self):
        for (k1, k2), v in sorted(self.maxima.items()):
            yield (self.multiplier, k1, k2, v)


def lizorkin_sample(multiplier_id: str, n_samples: int = LIZORKIN_SAMPLES) -> LizorkinReport:
    """Empirical sup of the weighted derivative magnitudes on a dyadic grid.

    Samples |xi| and |eta| log-spaced over LIZORKIN_RANGE (axes excluded by
    construction).  Derivatives come from the closed forms above.
    """
    if multiplier_id not in MULTIPLIER_IDS:
        raise InputError(f"unknown multiplier {multiplier_id!r}")
    if n_samples < 2:
        raise InputError(f"n_samples: must be at least 2, got {n_samples}")
    axis = np.geomspace(*LIZORKIN_RANGE, n_samples)
    XI, ETA = np.meshgrid(axis, axis, indexing="xy")
    tab = _lizorkin_tables(XI, ETA, multiplier_id)
    maxima = {(k1, k2): float(np.max(np.abs(XI**k1 * ETA**k2 * der))) for (k1, k2), der in tab.items()}
    return LizorkinReport(multiplier_id, n_samples, maxima)


def lizorkin_report_all(n_samples: int = LIZORKIN_SAMPLES) -> list:
    return [lizorkin_sample(mid, n_samples) for mid in MULTIPLIER_IDS]
