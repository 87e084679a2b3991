"""Spatial-decay diagnostics: algebraic tail exponents and weighted norms.

The solitary waves decay like |y|^-3 along the transverse axis and |x|^-3/2
along the propagation axis.  Three caveats shape the defaults here:

* Tail fits are meaningful only inside a window: past ~0.8 of the box
  half-length periodic wrap-around contaminates the samples, and on coarsely
  resolved grids a spectral-truncation ringing floor (it shrinks with
  resolution, not with box size) drowns the algebraic tail well before that.
  The default window [0.04, 0.11] * half-length sits in the clean region at
  the tested desk scales.

* Fits use |phi| with samples below 1e-13 discarded (no logs of roundoff).

* Box-stability comparisons between two runs must window the weighted sups to
  a common absolute range; whole-grid sups are dominated by the noise floor
  times half_box^3 and grow with the box.  `two_box_sup_drift` implements the
  windowed comparison; `weighted_sup` without a window remains the plain grid
  sup.

The proven decay range requires the growth index p = m+1 to satisfy
p >= (3+sqrt(5))/2; reports for smaller p are flagged.
"""

from __future__ import annotations

from dataclasses import dataclass, asdict
from typing import Optional

import numpy as np

from . import grid as sg
from .errors import InputError
from .functionals import PhysicsParams, P_DECAY_THRESHOLD

AMPLITUDE_FLOOR = 1e-13

MIXED_PAIRS = ((2.0, 2.0), (1.5, 1.5), (1.0, 4.0), (2.0, 1.2), (np.inf, 1.5))


@dataclass(frozen=True)
class DecayReport:
    exponent_y: float
    stderr_y: float
    exponent_x: float
    stderr_x: float
    sup_weighted_y: float
    sup_weighted_x: float
    sup_weighted_y_window: float
    sup_weighted_x_window: float
    fit_window_x: tuple
    fit_window_y: tuple
    y_weighted_seminorm: float
    zero_x_mean_defect: float
    sign_change: bool
    mixed_norms: list  # rows {q, r, value_y_outer, value_x_outer, admissible}
    p_in_proven_range: bool

    def to_dict(self) -> dict:
        return asdict(self)


def _auto_window(grid: sg.Grid, axis: str) -> tuple:
    """The clean-tail window [0.04, 0.11] * half-length on the axis, widened on coarse grids
    to hold >= 8 sample radii."""
    half_length, spacing = (grid.lx / 2, grid.dx) if axis == "x" else (grid.ly / 2, grid.dy)
    lo = 0.04 * half_length
    hi = min(max(0.11 * half_length, lo + 11.5 * spacing), 0.8 * half_length)
    return (lo, hi)


def _axis_samples(f: sg.Field, axis: str):
    """Values and signed offsets along the grid line through max |phi|."""
    jy, jx = np.unravel_index(int(np.argmax(np.abs(f.values))), f.values.shape)
    if axis == "y":
        return f.values[:, jx], f.grid.y - f.grid.y[jy]
    if axis == "x":
        return f.values[jy, :], f.grid.x - f.grid.x[jx]
    raise InputError("axis must be 'x' or 'y'")


def tail_exponent_fit(f: sg.Field, axis: str, window: tuple):
    """Least-squares slope of log|phi| vs log r along an axis through the peak.

    Returns (exponent, stderr) with exponent = -slope.  Both sides of the peak
    contribute.  Raises InputError for a window outside the trusted
    (0, 0.8*half] range, with fewer than 8 radii, or with fewer than 3 samples
    above the roundoff floor (a fit needs 3 for its standard error).
    """
    r_min, r_max = window
    half = f.grid.ly / 2 if axis == "y" else f.grid.lx / 2
    if not (0 < r_min < r_max <= 0.8 * half + 1e-12):
        raise InputError(f"fit window {window} outside the trusted range (0, {0.8 * half:.3g}]")
    vals, offs = _axis_samples(f, axis)
    r = np.abs(offs)
    sel = (r >= r_min) & (r <= r_max)
    radii = np.sort(np.round(r[sel], 12))  # np.unique would import numpy.ma (~12 ms)
    if 1 + np.count_nonzero(np.diff(radii)) < 8:
        raise InputError("fit window contains fewer than 8 sample radii")
    sel &= np.abs(vals) > AMPLITUDE_FLOOR
    if np.count_nonzero(sel) < 3:
        raise InputError("fewer than 3 samples in the window are above 1e-13")
    slope, stderr = _linear_fit(np.log(r[sel]), np.log(np.abs(vals[sel])))
    return -slope, stderr


def tail_fit_or_nan(f: sg.Field, axis: str) -> tuple:
    """`tail_exponent_fit` in the auto window of the axis, or (nan, nan) where that window holds
    too few radii or too few samples above the floor to fit."""
    try:
        return tail_exponent_fit(f, axis, _auto_window(f.grid, axis))
    except InputError:
        return float("nan"), float("nan")


def _linear_fit(x: np.ndarray, y: np.ndarray) -> tuple:
    """Least-squares slope of y on x and its standard error, as scipy.stats.linregress."""
    dx, dy = x - x.mean(), y - y.mean()
    sxx, sxy, syy = np.mean(dx * dx), np.mean(dx * dy), np.mean(dy * dy)
    r = min(max(sxy / np.sqrt(sxx * syy), -1.0), 1.0) if syy > 0 else 0.0
    return float(sxy / sxx), float(np.sqrt((1.0 - r * r) * syy / sxx / (x.size - 2)))


def _weight_axis_power(weight):
    """(axis, power) of the `weighted_sup` weight |axis|^power, "y3" or "x3/2"."""
    if weight not in ("y3", "x3/2"):
        raise InputError(f"unknown weight {weight!r}")
    return ("y", 3) if weight == "y3" else ("x", 1.5)


def weighted_sup(f: sg.Field, weight, window: Optional[tuple] = None) -> float:
    """Sup over the grid of weight * |phi|.

    weight: "y3" (|y|^3) or "x3/2" (|x|^{3/2}).  A window (r_min, r_max) restricts the
    weighted coordinate's magnitude, for box-to-box comparisons.  The weight depends on one
    coordinate, so the sup runs over the profile of max |phi| along the other.
    """
    axis, power = _weight_axis_power(weight)
    coord = f.grid.y if axis == "y" else f.grid.x
    a = np.abs(coord) ** power * np.max(np.abs(f.values), axis=1 if axis == "y" else 0)
    if window is not None:
        r = np.abs(coord)
        sel = (r >= window[0]) & (r <= window[1])
        if not np.any(sel):
            raise InputError("weight window contains no grid points")
        return float(np.max(a[sel]))
    return float(np.max(a))


def two_box_sup_drift(small: sg.Field, big: sg.Field, weight) -> float:
    """Relative drift of the windowed weighted sup between two boxes.

    The window is the smaller box's trusted tail range [0.04, 0.10] *
    half-length along the weight's axis, an absolute range both boxes contain;
    a box-stable tail makes this drift small regardless of how much truncation
    noise lives further out on either box.  Two sups of 0 give nan.
    """
    length = "l" + _weight_axis_power(weight)[0]
    half = min(getattr(small.grid, length), getattr(big.grid, length)) / 2
    window = (0.04 * half, 0.10 * half)
    a, b = (weighted_sup(f, weight, window) for f in (small, big))
    return abs(a - b) / max(abs(a), abs(b)) if a or b else np.nan


def y_weighted_seminorm(f: sg.Field) -> float:
    """int y^2 (|D_x^{1/2} phi|^2 + |grad phi|^2), each row's x-integral by Parseval.

    Row spectra are weighted |xi| + xi^2 (xi^2 is 0 on the Nyquist column,
    where a real phi_x has no content); phi_y's are taken along y with eta_odd.
    """
    g = f.grid
    rows = np.fft.rfft(f.values, axis=1)  # row spectra, transformed in x only: not grid.rfft2
    d_y = np.fft.ifft(1j * g.eta_odd[:, None] * np.fft.fft(rows, axis=0), axis=0)
    xi = g.xi_half
    y2 = g.y[:, None] ** 2
    sq = sg.weighted_sq_sum(g, y2 * (np.abs(xi) + np.append(xi[:-1] ** 2, 0.0)), rows)
    return (sq + sg.weighted_sq_sum(g, y2, d_y)) * g.cell_area / g.nx


def zero_x_mean_and_sign(f: sg.Field):
    """(max row-sum defect normalized by ||phi||_inf, attains-both-signs flag)."""
    amax = float(np.max(np.abs(f.values)))
    if amax == 0.0:
        return 0.0, False
    defect = float(np.max(np.abs(f.values.sum(axis=1))) * f.grid.dx / amax)
    sign_change = bool(
        (f.values.min() < -1e-6 * amax) and (f.values.max() > 1e-6 * amax)
    )
    return defect, sign_change


def mixed_norm(f: sg.Field, q: float, r: float, order: str = "y_outer") -> float:
    """Iterated L^q_x / L^r_y norm; inf realized as the discrete max.

    order="y_outer" computes ( int_y ( int_x |phi|^q dx )^{r/q} dy )^{1/r}
    (inner norm in x), order="x_outer" the transpose.
    """
    if order not in ("y_outer", "x_outer"):
        raise InputError("order must be 'y_outer' or 'x_outer'")
    if not (q > 0 and r > 0):
        raise InputError(f"q and r must be positive, got q = {q}, r = {r}")
    a, g = np.abs(f.values), f.grid
    inner, d_in, d_out = (a, g.dx, g.dy) if order == "y_outer" else (a.T, g.dy, g.dx)
    if np.isinf(q):
        row = inner.max(axis=1)
    else:
        row = (np.sum(inner**q, axis=1) * d_in) ** (1.0 / q)
    if np.isinf(r):
        return float(row.max())
    return float((np.sum(row**r) * d_out) ** (1.0 / r))


def mixed_pair_admissible(q: float, r: float) -> bool:
    """1/r + 1/q > 1 and 1/r + 2/q < 3 (with 1/inf = 0)."""
    iq = 0.0 if np.isinf(q) else 1.0 / q
    ir = 0.0 if np.isinf(r) else 1.0 / r
    return (ir + iq > 1.0) and (ir + 2.0 * iq < 3.0)


def decay_report(f: sg.Field, params: PhysicsParams) -> DecayReport:
    window_x, window_y = _auto_window(f.grid, "x"), _auto_window(f.grid, "y")
    ey, sy = tail_fit_or_nan(f, "y")
    ex, sx = tail_fit_or_nan(f, "x")
    defect, sign_change = zero_x_mean_and_sign(f)
    mixed = [{"q": q, "r": r, "value_y_outer": mixed_norm(f, q, r, "y_outer"),
              "value_x_outer": mixed_norm(f, q, r, "x_outer"), "admissible": mixed_pair_admissible(q, r)}
             for (q, r) in MIXED_PAIRS]
    return DecayReport(
        exponent_y=ey,
        stderr_y=sy,
        exponent_x=ex,
        stderr_x=sx,
        sup_weighted_y=weighted_sup(f, "y3"),
        sup_weighted_x=weighted_sup(f, "x3/2"),
        sup_weighted_y_window=weighted_sup(f, "y3", window_y),
        sup_weighted_x_window=weighted_sup(f, "x3/2", window_x),
        fit_window_x=window_x,
        fit_window_y=window_y,
        y_weighted_seminorm=y_weighted_seminorm(f),
        zero_x_mean_defect=defect,
        sign_change=sign_change,
        mixed_norms=mixed,
        p_in_proven_range=bool(params.p >= P_DECAY_THRESHOLD),
    )
