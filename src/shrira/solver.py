"""Ground-state solvers for the solitary-wave profile equation.

In spectral variables the profile equation reads s(xi,eta) * phi_hat = f(phi)_hat
with s = c + (xi^2 + eta^2)/|xi| on xi != 0; the xi = 0 modes of any solution
vanish (the equation's Green's function has no zero-x-mode content).  Two
routes are provided:

* `petviashvili`: the stabilized fixed point
      phi_{n+1} = M_n^gamma * f(phi_n)_hat / s,
      M_n = <s phi_hat, phi_hat> / <f_hat, phi_hat>,
  with gamma = m/(m-1) (Pelinovsky & Stepanyants 2004).  M = 1 exactly at any
  fixed point.  It stops once the residual is at most tol_residual and the
  relative change of the iterate at most TOL_DELTA.

* `nehari_descent`: gradient descent of the action S restricted to the Nehari
  manifold {I = 0}.  The descent direction is the energy-metric gradient
  u_hat - f_hat/s (the raw L2 gradient s*u_hat - f_hat is hopelessly stiff:
  s reaches ~1e2-1e3 on small-|xi|/large-eta modes, so any fixed L2 step either
  diverges or crawls).  Each step is followed by the exact Nehari rescaling;
  the step size backtracks on action increase and grows otherwise.

Nonlinear products are dealiased with the rule of m (2/3 for m <= 2, 1/2
otherwise), so iterates solve the truncated Galerkin problem exactly at convergence.

Compact-mode layout.  Both loops carry phi_hat as a 1-D vector of the dealiased
xi != 0 modes only (`_Modes`), 25-44% of the half spectrum: M, the residual,
the action and the update are sums and products over that vector.  Its
transforms touch only the first kc columns of the half spectrum, where the
kept modes lie: the forward one runs fft along y on those columns, the inverse
one ifft along y on them, with rfft/irfft along x; the time stepper of
`shrira.evolution` reuses the forward one.  Reductions are pairwise np.sum or
einsum, never a BLAS dot.  `spectral_residual`, which checks stored fields,
keeps the whole half spectrum, so content outside the kept modes still counts.

Every stop leaves through `_finish`, which builds the one SolveReport.  Short
of convergence it raises ConvergenceError (max_iter ran out, Nehari stalled)
or CollapseError (a zero iterate, M <= 0, int u f(u) <= 0 at Nehari's start),
carrying the last iterate as `field` and its report as `report`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, asdict, replace
from functools import cached_property
from typing import Optional, Sequence

import numpy as np

from . import grid as sg
from .errors import (
    CollapseError,
    ConvergenceError,
    GridMismatchError,
    UndefinedResidualError,
)
from .decay import tail_exponent_fit, zero_x_mean_and_sign
from .functionals import PhysicsParams, FunctionalReport, functional_report

PETVIASHVILI = "petviashvili"
NEHARI_DESCENT = "nehari_descent"
TOL_DELTA = 1e-11  # Petviashvili's gate on ||phi_n - phi_{n-1}|| / ||phi_{n-1}||
DESCENT_STEP = 1e-2  # Nehari's first step size


def default_dealias_rule(m: float) -> str:
    """2/3 rule for quadratic nonlinearities, 1/2 rule beyond.

    u^m with m > 2 is treated with the stricter rule (for non-integer m the
    product is not band-limited at all; 1/2 is the conservative choice).
    """
    return sg.TWO_THIRDS if m <= 2 else sg.HALF


@dataclass(frozen=True)
class GaussianInit:
    amplitude: float = 1.0
    sigma_x: float = 2.0
    sigma_y: float = 2.0

    def __post_init__(self):
        for name in ("sigma_x", "sigma_y"):
            if not getattr(self, name) > 0:
                raise GridMismatchError(f"{name}: must be positive, got {getattr(self, name)}")

    def build(self, grid: sg.Grid) -> np.ndarray:
        X, Y = grid.meshgrid()
        return self.amplitude * np.exp(
            -(X**2) / self.sigma_x**2 - (Y**2) / self.sigma_y**2
        )


@dataclass(frozen=True)
class FileInit:
    path: str

    def build(self, grid: sg.Grid) -> np.ndarray:
        from .io import read_field

        f, _ = read_field(self.path)
        if f.grid != grid:
            raise GridMismatchError(f"initial guess {self.path} is on {f.grid}, the solve on {grid}")
        return f.values


@dataclass(frozen=True)
class SolverConfig:
    method: str = PETVIASHVILI
    tol_residual: float = 1e-10
    max_iter: int = 2000
    init: object = GaussianInit()

    def __post_init__(self):
        if self.method not in (PETVIASHVILI, NEHARI_DESCENT):
            raise GridMismatchError(
                f"method: expected '{PETVIASHVILI}' or '{NEHARI_DESCENT}', got {self.method!r}"
            )
        if not self.tol_residual > 0:
            raise GridMismatchError(f"tol_residual: must be positive, got {self.tol_residual}")
        if not self.max_iter >= 1:
            raise GridMismatchError(f"max_iter: must be >= 1, got {self.max_iter}")


@dataclass
class SolveReport:
    method: str
    iterations: int
    converged: bool
    residual_history: list
    m_factor_history: list
    delta_history: list  # Petviashvili: ||phi_n - phi_{n-1}|| / ||phi_{n-1}|| at each check (inf first)
    functionals: FunctionalReport
    d: float
    symmetry_defects: dict
    zero_x_mean_defect: float
    max_location: tuple
    max_abs: float
    timings: dict  # setup_s, loop_s, report_s

    def to_dict(self) -> dict:
        out = asdict(self)
        out["functionals"] = self.functionals.to_dict()
        out["max_location"] = list(self.max_location)
        return out


def _init_values(config: SolverConfig, grid: sg.Grid) -> np.ndarray:
    init = config.init
    if isinstance(init, np.ndarray):  # checked like a field: shape and finiteness
        init = sg.Field(grid, init)
    if isinstance(init, sg.Field):
        if init.grid != grid:  # same samples and same box
            raise GridMismatchError(f"warm-start field is on {init.grid}, the solve on {grid}")
        return init.values.copy()
    return init.build(grid)


def _finish(method, phi, grid, params, hists, started, converged, stop=None):
    """(Field, SolveReport) of a converged loop; any other stop raises `stop` (a
    ConvergenceError if none: max_iter ran out) carrying the field and the report.

    hists = (residual, M, delta) histories; started = (call start, loop start)
    on time.perf_counter, which time the report's phases.
    """
    t_loop = time.perf_counter()
    res_hist, m_hist, delta_hist = hists
    f = sg.Field(grid, phi)
    fr = functional_report(f, params)
    amax = float(np.max(np.abs(phi)))
    jy, jx = np.unravel_index(int(np.argmax(np.abs(phi))), phi.shape)
    scale = amax if amax > 0 else 1.0
    report = SolveReport(
        method=method,
        iterations=len(res_hist),
        converged=converged,
        residual_history=[float(r) for r in res_hist],
        m_factor_history=[float(m) for m in m_hist],
        delta_history=[float(d) for d in delta_hist],
        functionals=fr,
        d=fr.S,
        symmetry_defects={
            "even_x": float(np.max(np.abs(phi - phi[:, (-np.arange(grid.nx)) % grid.nx])) / scale),
            "even_y": float(np.max(np.abs(phi - phi[(-np.arange(grid.ny)) % grid.ny, :])) / scale),
        },
        zero_x_mean_defect=zero_x_mean_and_sign(f)[0],
        max_location=(float(grid.x[jx]), float(grid.y[jy])),
        max_abs=amax,
        timings={"setup_s": started[1] - started[0], "loop_s": t_loop - started[1],
                 "report_s": time.perf_counter() - t_loop},
    )
    if converged:
        return f, report
    if stop is None:
        stop = ConvergenceError(f"{method} did not converge in {len(res_hist)} iterations "
                                f"(last residual {res_hist[-1]:.3e})")
    stop.report, stop.field = report, f
    raise stop


def spectral_residual(f: sg.Field, params: PhysicsParams) -> float:
    """Relative residual ||s*phi_hat - f_hat|| / ||s*phi_hat|| over xi != 0 modes.

    The nonlinear term is dealiased with `default_dealias_rule(params.m)`, the
    rule the solvers use.  The field is
    expected to carry no xi = 0 content (project first); those modes do not
    enter either norm.
    """
    g = f.grid
    rule = default_dealias_rule(params.m)
    modes = g.half(g.xi_nonzero)
    sph = np.where(modes, (params.c + g.half(g.dispersion)) * np.fft.rfft2(f.values), 0.0)
    fh = np.where(modes & g.half(g.dealias_mask(rule)), np.fft.rfft2(params.f(f.values)), 0.0)
    return _residual(sg.weighted_sq_sum(g, 1.0, sph - fh), sg.weighted_sq_sum(g, 1.0, sph))


def _residual(num_sq: float, den_sq: float) -> float:
    """sqrt(num_sq / den_sq): ||sph - fh|| / ||sph|| from the two squared norms."""
    if den_sq == 0.0:
        raise UndefinedResidualError("spectral residual of a zero field is undefined")
    return float(np.sqrt(num_sq / den_sq))


class _Modes:
    """The dealiased xi != 0 modes of a grid as a compact vector, and its transforms.

    The kept modes of the half spectrum lie in its first kc columns.
    `forward_half` is rfft along x, then fft along y on those columns only;
    `forward` gathers the kept modes from it: the masked rfft2.  `inverse`
    scatters into zeroed columns, runs ifft along y on them and irfft along x:
    irfft2 of the scattered half spectrum, pruned exactly because a compact
    vector has nothing past kc.  Every kept mode has column weight 2 (the
    xi = 0 and Nyquist columns are never kept), so a full-spectrum sum is twice
    the compact one; `dot` omits the 2 and the loops use it in ratios or
    restore it.  `s` is the profile symbol c + dispersion on the kept modes.
    The time stepper reads only kc and `forward_half`, so `s` and the buffer of
    `inverse` are built on first use (built up front, s alone raised the peak
    RSS of a 256^2 evolve by 0.5 MB).
    """

    def __init__(self, grid: sg.Grid, rule: str, c: float):
        keep = grid.half(grid.dealias_mask(rule)) & grid.half(grid.xi_nonzero)
        self.kc = int(np.flatnonzero(keep.any(axis=0))[-1]) + 1  # columns kc.. of keep are empty
        self.keep, self.grid, self.c = keep[:, : self.kc], grid, c

    @cached_property
    def s(self) -> np.ndarray:
        return self.c + self.grid.half(self.grid.dispersion)[:, : self.kc][self.keep]

    @cached_property
    def _half(self) -> np.ndarray:  # the work buffer of `inverse`; columns kc.. stay zero
        return np.zeros((self.grid.ny, self.grid.nx // 2 + 1), np.complex128)

    def forward_half(self, u: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
        """The half spectrum of u, exact in columns 0..kc-1; columns kc.. skip the fft along y."""
        out = np.fft.rfft(u, axis=1, out=out)
        cols = out[:, : self.kc]
        np.fft.fft(cols, axis=0, out=cols)
        return out

    def forward(self, u: np.ndarray) -> np.ndarray:
        return self.forward_half(u)[:, : self.kc][self.keep]

    def inverse(self, v: np.ndarray) -> np.ndarray:
        cols = self._half[:, : self.kc]
        cols.fill(0.0)
        cols[self.keep] = v
        np.fft.ifft(cols, axis=0, out=cols)
        return np.fft.irfft(self._half, n=self.grid.nx, axis=1)

    @staticmethod
    def dot(a: np.ndarray, b: np.ndarray) -> float:
        """Re sum a * conj(b) over the compact modes: half the full-spectrum sum.

        np.sum sums pairwise; einsum's running sum is noisy enough to flip Nehari's step tests.
        """
        return float(np.sum(a.view(np.float64) * b.view(np.float64)))


def petviashvili(config: SolverConfig, params: PhysicsParams, grid: sg.Grid):
    """Stabilized fixed-point iteration; returns (Field, SolveReport), raises as `_finish` does."""
    t0 = time.perf_counter()
    gamma = params.m / (params.m - 1.0)
    modes = _Modes(grid, default_dealias_rule(params.m), params.c)
    ph = modes.forward(_init_values(config, grid))
    phi = modes.inverse(ph)
    started = (t0, time.perf_counter())
    hists = res_hist, m_hist, delta_hist = [], [], []
    delta = np.inf
    converged, stop = False, None
    for _ in range(config.max_iter):
        fh = modes.forward(params.f(phi))
        sph = modes.s * ph
        num = modes.dot(sph, ph)
        den = modes.dot(fh, ph)
        if den == 0.0 or num == 0.0:
            stop = CollapseError("iterate lost all spectral content")
            break
        M = num / den
        r = sph - fh
        resid = _residual(modes.dot(r, r), modes.dot(sph, sph))
        res_hist.append(resid)
        m_hist.append(M)
        delta_hist.append(delta)
        if resid <= config.tol_residual and delta <= TOL_DELTA:
            converged = True
            break
        if M <= 0:
            stop = CollapseError(f"Petviashvili factor M = {M:.3e} <= 0 (bad initial guess)")
            break
        ph = M**gamma * fh / modes.s
        new = modes.inverse(ph)
        nrm_sq = sg.sq_sum(phi)
        delta = float(np.sqrt(sg.sq_sum(new - phi) / nrm_sq)) if nrm_sq > 0 else np.inf
        phi = new

    return _finish(PETVIASHVILI, phi, grid, params, hists, started, converged, stop)


def nehari_descent(config: SolverConfig, params: PhysicsParams, grid: sg.Grid):
    """Preconditioned descent of S on the Nehari manifold; returns (Field, SolveReport)."""
    t0 = time.perf_counter()
    modes = _Modes(grid, default_dealias_rule(params.m), params.c)
    w = 2.0 * grid.spectral_weight  # column weight of every kept mode, times Parseval's factor
    dA = grid.cell_area
    m = params.m
    res_hist: list = []

    def manifold_scale(zsq, uf):
        return (zsq / uf) ** (1.0 / (m - 1.0))

    ph = modes.forward(_init_values(config, grid))
    phi = modes.inverse(ph)
    zsq = modes.dot(modes.s * ph, ph) * w
    uf = float(np.sum(phi * params.f(phi)) * dA)
    if uf <= 0:
        return _finish(NEHARI_DESCENT, phi, grid, params, ([], [], []), (t0, time.perf_counter()), False,
                       CollapseError("initial guess has int u f(u) <= 0"))
    t = manifold_scale(zsq, uf)
    phi, ph = t * phi, t * ph
    zsq *= t * t
    S_old = 0.5 * zsq - float(np.sum(params.F(phi)) * dA)
    started = (t0, time.perf_counter())

    h = DESCENT_STEP
    converged, stop = False, None
    for _ in range(config.max_iter):
        fh = modes.forward(params.f(phi))
        sph = modes.s * ph
        r = sph - fh
        resid = _residual(modes.dot(r, r), modes.dot(sph, sph))
        res_hist.append(resid)
        if resid <= config.tol_residual:
            converged = True
            break
        d = modes.inverse(ph - fh / modes.s)
        for _try in range(40):
            v = phi - h * d
            vh = modes.forward(v)
            zv = modes.dot(modes.s * vh, vh) * w
            ufv = float(np.sum(v * params.f(v)) * dA)
            if ufv <= 0 or zv == 0.0:
                h *= 0.5
                continue
            tv = manifold_scale(zv, ufv)
            Sv = 0.5 * tv * tv * zv - float(np.sum(params.F(tv * v)) * dA)
            if Sv <= S_old + 1e-14 * abs(S_old):
                break
            h *= 0.5
        else:  # no step accepted
            stop = ConvergenceError("Nehari descent stalled: no step decreases the action")
            break
        phi, ph, S_old = tv * v, tv * vh, Sv
        h = min(h * 1.3, 0.9)

    return _finish(NEHARI_DESCENT, phi, grid, params, (res_hist, [], []), started, converged, stop)


def solve(config: SolverConfig, params: PhysicsParams, grid: sg.Grid):
    """Dispatch on config.method."""
    fn = petviashvili if config.method == PETVIASHVILI else nehari_descent
    return fn(config, params, grid)


def rescale_speed(f: sg.Field, c_from: float, c_to: float, m: float) -> sg.Field:
    """Map a profile solved at speed c_from to speed c_to, mode-exactly.

    phi_c2(x, y) = lam^(1/(m-1)) * phi_c1(lam x, lam y), lam = c_to/c_from; on
    the grid this is a pure amplitude factor with box lengths divided by lam
    (sample (i, j) keeps its indices), so there is no interpolation error.
    """
    if not (c_from > 0 and c_to > 0):
        raise GridMismatchError("speeds must be positive")
    lam = c_to / c_from
    g = f.grid
    new_grid = sg.Grid(g.nx, g.ny, g.lx / lam, g.ly / lam)
    return sg.Field(new_grid, lam ** (1.0 / (m - 1.0)) * f.values)


@dataclass
class SweepRow:
    value: float
    d: float
    l2_norm_sq: float
    exponent_x: float
    exponent_y: float
    iterations: int
    converged: bool


def sweep(
    param: str,
    values: Sequence[float],
    config: SolverConfig,
    params: PhysicsParams,
    grid: sg.Grid,
) -> list:
    """Continuation over c or m; each solve warm-starts from the previous one.

    For a c-sweep the warm start is the exact speed rescaling (the grid shrinks
    by c_new/c_old alongside); for an m-sweep the previous profile is reused on
    the same grid, and each solve takes gamma and the dealias rule from its own
    m.  Rows carry d = S(phi), ||phi||_2^2 and the fitted tail
    exponents along both axes.  A ConvergenceError carries the rows finished
    before it (`rows`).
    """
    def fit_exponent(fld, axis):
        half = fld.grid.lx / 2 if axis == "x" else fld.grid.ly / 2
        for hi in (0.11, 0.25, 0.8):
            try:
                e, _ = tail_exponent_fit(fld, axis, (0.04 * half, hi * half))
                return e
            except GridMismatchError:
                continue  # too few radii on coarse grids: widen
        return float("nan")

    if param not in ("c", "m"):
        raise GridMismatchError("sweep parameter must be 'c' or 'm'")
    rows = []
    prev_field = None
    prev_value = None
    cur_grid = grid
    for v in values:
        p = replace(params, **{param: float(v)})
        cfg = config
        if prev_field is not None:
            if param == "c":
                warm = rescale_speed(prev_field, prev_value, float(v), p.m)
                cur_grid = warm.grid
            else:
                warm = prev_field
            cfg = replace(config, init=warm)
        try:
            fld, rep = solve(cfg, p, cur_grid)
        except ConvergenceError as exc:
            exc.rows = rows
            raise
        ex = fit_exponent(fld, "x")
        ey = fit_exponent(fld, "y")
        rows.append(
            SweepRow(
                value=float(v),
                d=rep.d,
                l2_norm_sq=sg.lp_norm(fld, 2.0) ** 2,
                exponent_x=ex,
                exponent_y=ey,
                iterations=rep.iterations,
                converged=rep.converged,
            )
        )
        prev_field, prev_value = fld, float(v)
    return rows
