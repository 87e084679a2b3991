"""Convolution kernels of the profile equation, by quadrature and by DFT.

The kernel family h_nu is defined by the single-integral representation

    h_nu(x, y) = 2 Gamma(nu + 3/2) * int_0^inf t^(nu+1) e^-t
                 * (t^2 x^2 + (t^2 + y^2)^2)^(-(2nu+3)/4)
                 * cos((nu + 3/2) arctan(t|x| / (t^2 + y^2))) dt,

smooth away from the origin, even in x and in y, with algebraic tails
|y|^(2nu+3) h_nu and |x|^(3/2) h_nu bounded.  Its companion for the odd
symbol (the x-Hilbert transform of the nu = 0 kernel) is

    hk(x, y)  = sqrt(pi) * int_0^inf t e^-t
                * (t^2 x^2 + (t^2 + y^2)^2)^(-3/4)
                * sin((3/2) arctan(t x / (t^2 + y^2))) dt,   x >= 0,

extended to x < 0 as an odd function; it vanishes on x = 0 and is positive for
x > 0.

Relation to the plain symbol transform: with

    K_nu(x, y) = int_{R^2} |xi|^(1+nu) / (|xi| + xi^2 + eta^2)
                 * e^(i(x xi + y eta)) dxi deta

(the object `kernel_spectral_oracle` approximates on a grid), the exact
identities

    K_nu(x, y) = sqrt(pi) * h_nu(x, y/2)
    K_hk(x, y) = sqrt(pi) * hk(x, y/2),   K_hk from the symbol -i xi / (...),

hold; both were verified to machine precision against an independent iterated
1D reduction (the eta integral of the symbol is elementary).  Quadrature vs
grid-transform cross checks go through this dictionary.

Quadrature (numpy only, no scipy): QUADPACK's 15-point Gauss-Kronrod rule
(qk15), globally adaptive by bisection on (0, T], every interval's 15 nodes in
one vectorized integrand call, plus the analytic exponential tail bound for
t > T (integrand <= t^-(nu+2) e^-t there).  Per interval the error is
QUADPACK's resasc * min(1, (200 |K15 - G7| / resasc)^1.5), floored at
50 eps resabs for round-off.  The t -> 0 endpoint is integrable for
nu > -3/2 and handled by the bisection.

Oracle: the symbol is built on the half spectrum (columns 0..nx/2) and
inverted by irfft2; it is Hermitian, so this is the real part of the full
complex inverse, at half the transform work.

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
from .errors import (
    GridMismatchError,
    KernelSingularityError,
    QuadratureAccuracyError,
)

SQRT_PI = math.sqrt(math.pi)
ABS_ERROR_FLOOR = 1e-14

K_SYM = "k_sym"
X_DERIV_SYM = "x_deriv_sym"
Y_DERIV_SYM = "y_deriv_sym"
MULTIPLIER_IDS = (K_SYM, X_DERIV_SYM, Y_DERIV_SYM)
LIZORKIN_RANGE = (1e-6, 1e6)  # |xi| and |eta| sampled by lizorkin_sample


@dataclass(frozen=True)
class KernelSpec:
    """Kernel order and quadrature tolerances."""

    nu: float = 0.0
    quad_tol: float = 1e-10

    def __post_init__(self):
        if not self.nu > -1.5:
            raise GridMismatchError("kernel order nu must exceed -3/2")
        if not 0.0 < self.quad_tol <= 1e-4:
            raise GridMismatchError("quad_tol must lie in (0, 1e-4]")


@dataclass(frozen=True)
class KernelSample:
    x: float
    y: float
    value: float
    est_error: float


def _tail_bound(T: float, power: float) -> float:
    # |integrand| <= t^-power e^-t for t >= T >= 1; decreasing in t
    return T ** (-power) * math.exp(-T)


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


def _sample(x, y, pref, g, quad_tol, tail_power) -> KernelSample:
    """pref * int_0^inf g; QuadratureAccuracyError if the tolerance is not certified.

    Quadrature on (0, T] (T = 60) plus the tail bound past T, both scaled by
    pref like the certificate.  For nu >= -3/2 + 1e-9 the scaled tail bound is
    below 1e-17, under ABS_ERROR_FLOOR, so a call that fails is held back by
    the quadrature error, which a longer interval does not shrink.  The quadrature
    runs in s = sqrt(t), on 2 s g(s^2) over (0, sqrt(T)]: the t^(-1/2) endpoint
    of the y = 0 axis becomes smooth and t^(nu+1) becomes s^(2 nu + 3), so the
    bisection need not chase an endpoint singularity.
    """
    T = 60.0
    val, err = _gauss_kronrod(lambda s: 2.0 * pref * s * g(s * s), 0.0, math.sqrt(T),
                              epsabs=ABS_ERROR_FLOOR / 2, epsrel=quad_tol / 2, limit=400)
    est = err + pref * _tail_bound(T, tail_power)
    if est > quad_tol * abs(val) + ABS_ERROR_FLOOR:
        raise QuadratureAccuracyError(
            f"quadrature error {est:.2e} exceeds tolerance at ({x}, {y})", value=val, est_error=est
        )
    return KernelSample(x=x, y=y, value=val, est_error=est)


def h_nu_point(spec: KernelSpec, x: float, y: float) -> KernelSample:
    """Evaluate h_nu at one point by adaptive quadrature.

    Raises KernelSingularityError at (0, 0) and QuadratureAccuracyError
    (carrying the best estimate) if the tolerance cannot be certified.
    """
    if x == 0.0 and y == 0.0:
        raise KernelSingularityError("kernel is singular at the origin")
    nu = spec.nu
    pref = 2.0 * math.gamma(nu + 1.5)
    ax, y2 = abs(x), y * y

    def g(t):
        q = t * t + y2
        return (t ** (nu + 1.0) * np.exp(-t) * (t * t * x * x + q * q) ** (-(2.0 * nu + 3.0) / 4.0)
                * np.cos((nu + 1.5) * np.arctan2(t * ax, q)))

    return _sample(x, y, pref, g, spec.quad_tol, nu + 2.0)


def hk_point(x: float, y: float) -> KernelSample:
    """Evaluate the odd companion kernel at x >= 0, certified to the default KernelSpec.quad_tol.

    hk(0, y) = 0 exactly; the x < 0 values follow by odd extension and are the
    caller's to take.
    """
    if x < 0:
        raise GridMismatchError("hk_point requires x >= 0 (kernel is odd in x)")
    if x == 0.0 and y == 0.0:
        raise KernelSingularityError("kernel is singular at the origin")
    if x == 0.0:
        return KernelSample(x=x, y=y, value=0.0, est_error=0.0)
    y2 = y * y

    def g(t):
        q = t * t + y2
        return t * np.exp(-t) * (t * t * x * x + q * q) ** -0.75 * np.sin(1.5 * np.arctan2(t * x, q))

    return _sample(x, y, SQRT_PI, g, KernelSpec.quad_tol, 2.0)


def _oracle_symbol(nu: float, grid: sg.Grid, hilbert: bool) -> np.ndarray:
    """Half-spectrum (columns 0..nx/2) numerator over |xi|(1 + dispersion), 0 on every xi = 0 mode."""
    if not hilbert and nu < 0:
        warnings.warn(
            "nu < 0: the symbol's xi -> 0 limit is direction-dependent; "
            "xi = 0 modes set to 0",
            RuntimeWarning,
            stacklevel=3,
        )
    xi = grid.half(grid.xi)
    ax = np.abs(xi)
    with np.errstate(divide="ignore"):  # |0|^(1+nu) for nu < -1: a xi = 0 mode, left 0
        num = -1j * xi if hilbert else ax ** (1.0 + nu)
    # a fresh table, not Grid.dispersion: the oracle grids are too large to cache it on
    den = ax * (1.0 + sg.dispersion_table(grid, half=True))
    return sg.divide_off_xi0(grid, num, den, np.complex128 if hilbert else np.float64)


def kernel_spectral_oracle(nu: float, grid: sg.Grid, hilbert: bool = False) -> sg.Field:
    """Grid transform K(x,y) = int symbol e^(i(x xi + y eta)) dxi deta.

    The half-spectrum symbol (xi = 0 entries are 0) times (-1)^(jx + jy), which
    centres the origin in the usual physical order, is inverted by irfft2.
    Accuracy is limited by the box (periodized |x|^(-3/2) images) and the
    wavenumber cutoff; the caller picks a grid that truncates consciously.  A
    long-x anisotropic grid suppresses the dominant image error.
    """
    sym = _oracle_symbol(nu, grid, hilbert)
    sym[1::2] *= -1.0
    sym[:, 1::2] *= -1.0
    vals = np.fft.irfft2(sym, s=(grid.ny, grid.nx))
    return sg.Field(grid, vals * ((grid.nx * grid.ny) * (2 * np.pi) ** 2 / (grid.lx * grid.ly)))


def oracle_node_value(field: sg.Field, x: float, y: float):
    """(snapped x, snapped y, field value) at the grid node nearest (x, y)."""
    g = field.grid
    i = int(round((x + g.lx / 2) / g.dx))
    j = int(round((y + g.ly / 2) / g.dy))
    if not (0 <= i < g.nx and 0 <= j < g.ny):
        raise GridMismatchError(f"point ({x}, {y}) lies outside the oracle box")
    return float(g.x[i]), float(g.y[j]), float(field.values[j, i])


def quadrature_vs_oracle(spec: KernelSpec, points, oracle: sg.Field) -> list:
    """Cross-check rows: quadrature h_nu vs the symbol transform.

    For each requested (x, y) the oracle is read at the node nearest (x, 2y)
    and the quadrature evaluated at the snapped coordinates, using the exact
    dictionary K_nu(x, 2y) = sqrt(pi) h_nu(x, y).  Rows are
    (x, y, quad_value, est_error, oracle_value, rel_diff).
    """
    rows = []
    for (x, y) in points:
        xs, y2s, kv = oracle_node_value(oracle, x, 2.0 * y)
        s = h_nu_point(spec, xs, y2s / 2.0)
        mapped = SQRT_PI * s.value
        rel = abs(mapped - kv) / max(abs(kv), 1e-300)
        rows.append((xs, y2s / 2.0, s.value, s.est_error, kv, rel))
    return rows


def kernel_decay_scan(spec: KernelSpec, axis: str, points) -> list:
    """Rows (r, value, est_error, weighted) with weight |r|^alpha.

    alpha = 3/2 on the x-axis, 2 nu + 3 on the y-axis: the weighted values stay
    bounded and approach a finite limit along the scan.
    """
    if axis not in ("x", "y"):
        raise GridMismatchError("axis must be 'x' or 'y'")
    alpha = 1.5 if axis == "x" else 2.0 * spec.nu + 3.0
    rows = []
    for r in points:
        if r == 0:
            raise KernelSingularityError("scan radius 0 is the singular point")
        x, y = (float(r), 0.0) if axis == "x" else (0.0, float(r))
        s = h_nu_point(spec, x, y)
        rows.append((float(r), s.value, s.est_error, abs(r) ** alpha * s.value))
    return rows


# --- Lizorkin multiplier sampling -------------------------------------------
#
# The three multipliers from the regularity bootstrap, on the positive
# quadrant (each has definite parity in xi and eta, so magnitudes of the
# weighted derivatives are quadrant-symmetric):
#
#   L1 = xi / D,   L2 = xi^2 / D,   L3 = xi eta / D,   D = xi + xi^2 + eta^2.
#
# Sufficient multiplier condition: sup |xi^k1 eta^k2 d^(k1,k2) L| < inf over
# k1, k2 in {0, 1}.  Derivatives are closed forms, not finite differences.


def _lizorkin_tables(xi, eta):
    D = xi + xi * xi + eta * eta
    D2, D3 = D * D, D * D * D
    return {
        K_SYM: {
            (0, 0): xi / D,
            (1, 0): (eta * eta - xi * xi) / D2,
            (0, 1): -2.0 * xi * eta / D2,
            (1, 1): 2.0 * eta * (xi + 3.0 * xi * xi - eta * eta) / D3,
        },
        X_DERIV_SYM: {
            (0, 0): xi * xi / D,
            (1, 0): xi * (xi + 2.0 * eta * eta) / D2,
            (0, 1): -2.0 * xi * xi * eta / D2,
            (1, 1): 4.0 * xi * eta * (xi * xi - eta * eta) / D3,
        },
        Y_DERIV_SYM: {
            (0, 0): xi * eta / D,
            (1, 0): eta * (eta * eta - xi * xi) / D2,
            (0, 1): xi * (xi + xi * xi - eta * eta) / D2,
            (1, 1): ((3.0 * eta * eta - xi * xi) * D - 4.0 * eta * eta * (eta * eta - xi * xi)) / D3,
        },
    }


@dataclass(frozen=True)
class LizorkinReport:
    multiplier: str
    n_samples: int
    maxima: dict  # (k1, k2) -> sup |xi^k1 eta^k2 d^(k1,k2) Lambda|

    def rows(self):
        for (k1, k2), v in sorted(self.maxima.items()):
            yield (self.multiplier, k1, k2, v)


def lizorkin_sample(multiplier_id: str, n_samples: int = 256) -> LizorkinReport:
    """Empirical sup of the weighted derivative magnitudes on a dyadic grid.

    Samples |xi| and |eta| log-spaced over LIZORKIN_RANGE (axes excluded by
    construction).  Derivatives come from the closed forms above.
    """
    if multiplier_id not in MULTIPLIER_IDS:
        raise GridMismatchError(f"unknown multiplier {multiplier_id!r}")
    axis = np.geomspace(*LIZORKIN_RANGE, n_samples)
    XI, ETA = np.meshgrid(axis, axis, indexing="xy")
    tab = _lizorkin_tables(XI, ETA)[multiplier_id]
    maxima = {}
    for (k1, k2), der in tab.items():
        weighted = np.abs(XI**k1 * ETA**k2 * der)
        maxima[(k1, k2)] = float(np.max(weighted))
    return LizorkinReport(multiplier_id, n_samples, maxima)


def lizorkin_report_all(n_samples: int = 256) -> list:
    return [lizorkin_sample(mid, n_samples) for mid in MULTIPLIER_IDS]
