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
  relative change of the iterate at most TOL_DELTA.  Late iterates move along
  one slow mode, which Aitken extrapolation removes (Lakoba & Yang 2007): once
  AITKEN_EVERY plain steps follow the start or the last extrapolation, a step
  d = phi_{n+1} - phi_n parallel to the one before, d' (cos > 0.999), with
  lam = ||d||/||d'|| in (0.3, 0.99) also adds lam/(1 - lam) d; its change is
  recorded as inf, so no stop follows it.  Norms are sums over the Galerkin
  block, equal to the physical ones by Parseval (an iterate holds nothing else).

* `nehari_descent`: gradient descent of the action S restricted to the Nehari
  manifold {I = 0}.  The descent direction is the energy-metric gradient
  u_hat - f_hat/s (the raw L2 gradient s*u_hat - f_hat is hopelessly stiff:
  s reaches ~1e2-1e3 on small-|xi|/large-eta modes, so any fixed L2 step either
  diverges or crawls).  Each step is followed by the exact Nehari rescaling t_u,
  on which the action is S = (m-1)/(2(m+1)) ||u||_Z^2 (f is homogeneous); the
  step size backtracks on action increase and grows otherwise.  At the
  round-off floor the residual stops falling: NEHARI_STALL iterations without
  a new residual minimum stop the descent as stalled.

Both loops carry phi_hat on the Galerkin block of m (`grid.GalerkinBlock`: the
2/3 rule for m <= 2, the 1/2 rule otherwise), so nonlinear products are
truncated and the iterates solve the truncated Galerkin problem exactly at
convergence.  The block's xi = 0 column is zeroed after every transform, so it
stays 0 and the block sums are half the full-spectrum ones.  Petviashvili's
loop runs in fixed field buffers.  Reductions are pairwise np.sum, never a BLAS
dot.  `spectral_residual`, which checks stored fields, keeps the whole half
spectrum for s*phi_hat, so content outside the block still counts.

Every stop leaves through `_finish`, which builds the one SolveReport.  Short
of convergence it raises ConvergenceError (max_iter ran out, Nehari stalled) or
a CollapseError, carrying the last finite iterate as `field` and its report as
`report`.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, asdict, replace
from typing import Sequence

import numpy as np

from . import grid as sg
from .errors import CollapseError, ConvergenceError, InputError
from .decay import tail_fit_or_nan, zero_x_mean_and_sign
from .functionals import PhysicsParams, FunctionalReport, _f_integrals, _nehari_t, functional_report

PETVIASHVILI = "petviashvili"
NEHARI_DESCENT = "nehari_descent"
TOL_DELTA = 1e-11  # Petviashvili's gate on ||phi_n - phi_{n-1}|| / ||phi_{n-1}||
AITKEN_EVERY = 5  # Petviashvili's plain steps after the start or an Aitken step before it tries one
DESCENT_STEP = 1e-2  # Nehari's first step size
NEHARI_STALL = 50  # Nehari's iterations without a new residual minimum before it stops as stalled


@dataclass(frozen=True)
class GaussianInit:
    amplitude: float = 1.0
    sigma_x: float = 2.0
    sigma_y: float = 2.0

    def __post_init__(self):
        if not math.isfinite(self.amplitude):
            raise InputError(f"amplitude: must be finite, got {self.amplitude}")
        for name in ("sigma_x", "sigma_y"):
            sigma = getattr(self, name)
            if not (sigma > 0 and 0 < sigma * sigma < math.inf):  # build divides by sigma**2
                raise InputError(f"{name}: must be positive with a positive finite square, got {sigma}")

    def build(self, grid: sg.Grid) -> np.ndarray:
        u = -(grid.x[None, :] ** 2) / self.sigma_x**2 - (grid.y[:, None] ** 2) / self.sigma_y**2
        np.exp(u, out=u)
        u *= self.amplitude
        return u


@dataclass(frozen=True)
class FileInit:
    path: str

    def build(self, grid: sg.Grid) -> np.ndarray:
        from .io import read_field

        f, _ = read_field(self.path)
        if f.grid != grid:
            raise InputError(f"initial guess {self.path} is on {f.grid}, the solve on {grid}")
        return f.values


@dataclass(frozen=True)
class SolverConfig:
    method: str = PETVIASHVILI
    tol_residual: float = 1e-10
    max_iter: int = 2000
    init: object = GaussianInit()

    def __post_init__(self):
        if self.method not in (PETVIASHVILI, NEHARI_DESCENT):
            raise InputError(f"method: expected '{PETVIASHVILI}' or '{NEHARI_DESCENT}', got {self.method!r}")
        if not 0 < self.tol_residual < math.inf:
            raise InputError(f"tol_residual: must be positive and finite, got {self.tol_residual}")
        if not self.max_iter >= 1:
            raise InputError(f"max_iter: must be >= 1, got {self.max_iter}")
        if not isinstance(self.init, (GaussianInit, FileInit, sg.Field)):
            raise InputError(f"init: expected GaussianInit, FileInit or Field, got {type(self.init).__name__}")


@dataclass
class SolveReport:
    method: str
    iterations: int
    converged: bool
    extrapolations: int  # Petviashvili's Aitken steps; 0 for Nehari descent
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
        return asdict(self)


def _init_values(config: SolverConfig, grid: sg.Grid) -> np.ndarray:
    init = config.init
    if isinstance(init, sg.Field):
        if init.grid != grid:  # same samples and same box
            raise InputError(f"warm-start field is on {init.grid}, the solve on {grid}")
        return init.values.copy()
    return init.build(grid)


def _finish(method, grid, params, phi, hists, started, converged, stop=None, extrapolations=0):
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
        extrapolations=extrapolations,
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

    The nonlinear term keeps the Galerkin block of m, as the solvers do; s*phi_hat
    keeps the whole half spectrum, so content outside the block still counts.
    The field is expected to carry no xi = 0 content (project first); those
    modes do not enter either norm.
    """
    g, block = f.grid, sg.GalerkinBlock(f.grid, params.m)
    fh = _forward(block, params.f(f.values))
    sph = sg.rfft2(f.values, out=block.half)
    np.multiply(params.c + sg.dispersion_table(g), sph, out=sph)
    sph[:, 0] = 0.0  # the xi = 0 column
    den_sq = sg.weighted_sq_sum(g, 1.0, sph)
    sph[block.rows, : block.kc] -= fh
    return _residual(sg.weighted_sq_sum(g, 1.0, sph), den_sq)

def _residual(num_sq: float, den_sq: float) -> float:
    """sqrt(num_sq / den_sq): ||sph - fh|| / ||sph|| from the two squared norms."""
    if den_sq == 0.0:
        raise InputError("spectral residual of a zero field is undefined")
    return float(np.sqrt(num_sq / den_sq))


def _forward(block: sg.GalerkinBlock, u: np.ndarray) -> np.ndarray:
    """The block of rfft2(u) with its xi = 0 column zeroed: no iterate carries xi = 0 content."""
    b = block.forward(u)
    b[:, 0] = 0.0
    return b


def _dot(a: np.ndarray, b: np.ndarray) -> float:
    """Re sum a * conj(b) over a block whose xi = 0 column is 0: half the full-spectrum sum.

    np.sum sums pairwise; einsum's running sum is noisy enough to flip Nehari's step tests.
    """
    return float(np.sum(a.view(np.float64) * b.view(np.float64)))


def petviashvili(config: SolverConfig, params: PhysicsParams, grid: sg.Grid):
    """Stabilized fixed-point iteration; returns (Field, SolveReport), raises as `_finish` does."""
    return _finish(PETVIASHVILI, grid, params, *_petviashvili_loop(config, params, grid))


def _petviashvili_loop(config: SolverConfig, params: PhysicsParams, grid: sg.Grid):
    """(phi, hists, started, converged, stop, extrapolations) of `petviashvili`.  A call of its
    own, so its blocks and tables are freed before `_finish`.  phi, f(phi) and s ph keep their
    buffers, and in-place products keep the formulas' operand order (see `_Stepper`)."""
    t0 = time.perf_counter()
    gamma = params.m / (params.m - 1.0)
    block = sg.GalerkinBlock(grid, params.m)
    s = params.c + block.disp  # the profile symbol, c on xi = 0
    del block.disp  # the loop holds s only: its working set keeps one table of the block
    ph = _forward(block, _init_values(config, grid))
    phi = block.inverse(ph)
    fu, sph = np.empty_like(phi), np.empty_like(ph)
    started = (t0, time.perf_counter())
    hists = res_hist, m_hist, delta_hist = [], [], []
    delta = np.inf
    d_prev, plain, extrapolations = None, 0, 0
    converged, stop = False, None
    for _ in range(config.max_iter):
        fh = _forward(block, params.f(phi, out=fu))
        np.multiply(s, ph, out=sph)
        num = _dot(sph, ph)
        den = _dot(fh, ph)
        if den == 0.0 or num == 0.0:
            stop = CollapseError("iterate lost all spectral content")
            break
        M = num / den
        sph_sq = _dot(sph, sph)
        sph -= fh  # the residual s phi_hat - f_hat
        resid = _residual(_dot(sph, sph), sph_sq)
        res_hist.append(resid)
        m_hist.append(M)
        delta_hist.append(delta)
        if resid <= config.tol_residual and delta <= TOL_DELTA:
            converged = True
            break
        if M <= 0:
            stop = CollapseError(f"Petviashvili factor M = {M:.3e} <= 0 (bad initial guess)")
            break
        try:
            fh *= M**gamma
        except OverflowError:  # a float power past the double range, at a huge box or speed
            stop = CollapseError(f"Petviashvili factor M = {M:.3e}: M^{gamma:g} overflows")
            break
        fh /= s  # the plain update
        ph_sq = _dot(ph, ph)
        d = np.subtract(fh, ph, out=ph)
        d_sq = _dot(d, d)
        delta = math.sqrt(d_sq / ph_sq) if ph_sq > 0 else np.inf
        plain += 1
        if plain >= AITKEN_EVERY:  # so the step before was plain too, and d_prev holds it
            prev_sq = _dot(d_prev, d_prev)
            lam = math.sqrt(d_sq / prev_sq) if prev_sq > 0 else 0.0
            if 0.3 < lam < 0.99 and _dot(d, d_prev) > 0.999 * lam * prev_sq:  # cos > 0.999
                fh += np.multiply(lam / (1.0 - lam), d, out=d)
                delta, plain = np.inf, 0
                extrapolations += 1
        ph, d_prev = fh, d
        phi = block.inverse(ph, out=phi)
    return phi, hists, started, converged, stop, extrapolations


def nehari_descent(config: SolverConfig, params: PhysicsParams, grid: sg.Grid):
    """Preconditioned descent of S on the Nehari manifold; returns (Field, SolveReport)."""
    t0 = time.perf_counter()
    block = sg.GalerkinBlock(grid, params.m)
    s = params.c + block.disp
    w = 2.0 * grid.spectral_weight  # column weight of the block's xi != 0 modes, times Parseval's factor
    dA = grid.cell_area
    k = (params.m - 1.0) / (2.0 * params.p)  # S = k ||u||_Z^2 on the manifold
    res_hist: list = []

    ph = _forward(block, _init_values(config, grid))
    phi = block.inverse(ph)
    zsq = _dot(s * ph, ph) * w
    uf, _ = _f_integrals(phi, dA, params)
    if uf <= 0:
        return _finish(NEHARI_DESCENT, grid, params, phi, ([], [], []), (t0, time.perf_counter()), False,
                       CollapseError("initial guess has int u f(u) <= 0"))
    t = _nehari_t(zsq, uf, params.m)
    if not math.isfinite(t * np.max(np.abs(phi))):  # t phi would hold inf or nan
        return _finish(NEHARI_DESCENT, grid, params, phi, ([], [], []), (t0, time.perf_counter()), False,
                       CollapseError(f"Nehari rescaling t_u = {t:.3e} of the initial guess is not finite"))
    phi, ph = t * phi, t * ph
    S_old = k * t * t * zsq
    started = (t0, time.perf_counter())

    h = DESCENT_STEP
    best, best_at = np.inf, 0
    converged, stop = False, None
    for _ in range(config.max_iter):
        fh = _forward(block, params.f(phi))
        sph = s * ph
        r = sph - fh
        resid = _residual(_dot(r, r), _dot(sph, sph))
        res_hist.append(resid)
        if resid <= config.tol_residual:
            converged = True
            break
        if resid < best:
            best, best_at = resid, len(res_hist)
        elif len(res_hist) - best_at >= NEHARI_STALL:
            stop = ConvergenceError(f"Nehari descent stalled: no new residual minimum in {NEHARI_STALL} "
                                    f"iterations (best {best:.3e} at iteration {best_at})")
            break
        d = block.inverse(ph - fh / s)
        for _try in range(40):
            v = phi - h * d
            vh = _forward(block, v)
            zv = _dot(s * vh, vh) * w
            ufv, _ = _f_integrals(v, dA, params)
            if ufv <= 0 or zv == 0.0:
                h *= 0.5
                continue
            tv = _nehari_t(zv, ufv, params.m)
            Sv = k * tv * tv * zv
            if Sv <= S_old + 1e-14 * abs(S_old):
                break
            h *= 0.5
        else:  # no step accepted
            stop = ConvergenceError("Nehari descent stalled: no step decreases the action")
            break
        if not math.isfinite(tv * np.max(np.abs(v))):
            stop = CollapseError(f"Nehari step to a non-finite iterate (t_u = {tv:.3e})")
            break
        phi, ph, S_old = tv * v, tv * vh, Sv
        h = min(h * 1.3, 0.9)

    return _finish(NEHARI_DESCENT, grid, params, phi, (res_hist, [], []), started, converged, stop)


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
        raise InputError("speeds must be positive")
    if not 1 < m < math.inf:
        raise InputError(f"m: nonlinearity exponent must exceed 1 and be finite, got {m}")
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
    the same grid, and each solve takes gamma and the kept modes from its own
    m.  Rows carry d = S(phi), ||phi||_2^2 and the tail exponents along both
    axes, as `decay_report` fits them (`decay.tail_fit_or_nan`: nan where a window
    cannot be fitted).  A ConvergenceError carries the rows finished before it
    (`rows`).
    """
    if param not in ("c", "m"):
        raise InputError("sweep parameter must be 'c' or 'm'")
    physics = [replace(params, **{param: float(v)}) for v in values]  # every value checked up front
    rows, prev_field, prev_c = [], None, None
    for v, p in zip(values, physics):
        cfg, g = config, grid
        if prev_field is not None:
            warm = rescale_speed(prev_field, prev_c, p.c, p.m) if param == "c" else prev_field
            cfg, g = replace(config, init=warm), warm.grid
        try:
            fld, rep = solve(cfg, p, g)
        except ConvergenceError as exc:
            exc.rows = rows
            raise
        rows.append(
            SweepRow(
                value=float(v),
                d=rep.d,
                l2_norm_sq=sg.lp_norm(fld, 2.0) ** 2,
                exponent_x=tail_fit_or_nan(fld, "x")[0],
                exponent_y=tail_fit_or_nan(fld, "y")[0],
                iterations=rep.iterations,
                converged=rep.converged,
            )
        )
        prev_field, prev_c = fld, p.c
    return rows
