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

Both loops carry phi_hat on the Galerkin block of m (`grid.GalerkinBlock`: the 2/3 rule
for m <= 2, the 1/2 rule otherwise) and form each step there, Nehari's trials too, so
nonlinear products are truncated and the iterates solve the truncated Galerkin problem
exactly at convergence.  `GalerkinBlock.forward` zeroes the block's xi = 0 column, so it
stays 0 and the block sums are half the full-spectrum ones.  Petviashvili's loop runs in
fixed field buffers.  Reductions are pairwise np.sum, never a BLAS dot.  `verify` checks
a stored field: `spectral_residual`, which keeps the whole half spectrum for s*phi_hat
(content outside the block still counts), functionals, decay.

One way in, one way out: `_start`, the one reader of config.init, builds the
block and s and projects the start; each solver leaves through one `_finish`.
Short of convergence it raises a ConvergenceError (max_iter ran out, Nehari
stalled, the iterate collapsed), carrying the report (`report`) and the last
iterate (`field`), finite and non-zero unless the start was 0: a start whose
spectrum overflows stops as its own samples, and a loop stops before an
overflowing f(phi) or update, or a Nehari rescaling to a zero or non-finite
field, replaces it.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, asdict, replace
from typing import Sequence

import numpy as np

from . import grid as sg
from .errors import ConvergenceError, InputError
from .decay import DecayReport, decay_report, tail_fit_or_nan, zero_x_mean_and_sign
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
    path: str  # a stored field, read by `_start`


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


@dataclass
class VerifyReport:
    spectral_residual: float
    nehari_t_u: float  # nan where int u f(u) <= 0, inf past the double range (`_nehari_t`)
    functionals: FunctionalReport
    timings: dict  # residual_s, functionals_s, decay_s

    def to_dict(self) -> dict:
        return asdict(self)


def _start(config: SolverConfig, params: PhysicsParams, grid: sg.Grid):
    """(block, s, ph, phi) of a solve: its Galerkin block, s = c + disp (the block's own table dropped),
    and config.init, unless on another box, projected as coefficients and samples (its own if ph overflows)."""
    init, name = config.init, "warm-start field"
    if isinstance(init, FileInit):
        from .io import read_field
        name, (init, _) = f"initial guess {init.path}", read_field(init.path)
    if not isinstance(init, GaussianInit) and init.grid != grid:  # same samples and same box
        raise InputError(f"{name} is on {init.grid}, the solve on {grid}")
    block = sg.GalerkinBlock(grid, params.m)
    s = params.c + block.disp
    del block.disp  # a loop holds s only: its working set keeps one table of the block
    u = init.build(grid) if isinstance(init, GaussianInit) else init.values
    ph = block.forward(u)
    return block, s, ph, block.inverse(ph) if np.isfinite(ph).all() else u


def _finish(method, grid, params, phi, hists, started, converged, stop, extrapolations):
    """(Field, SolveReport) of a converged loop; any other stop raises `stop` (a
    ConvergenceError if None: max_iter ran out) carrying the field and the report.

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
    The field is expected to carry no xi = 0 content (project first); those modes enter neither norm
    (nan where it has no other: 0/0; a zero field is rejected).  Both spectra are scaled by 2^k, then 2^j,
    bringing max|phi|, then max|Re, Im s*phi_hat|, into [1/2, 1): exact, yet no square under- or overflows.
    nan too where c*phi_hat or f(phi) leaves the double range: f(phi) is formed before the scaling.
    """
    if not f.values.any():
        raise InputError("spectral residual of a zero field is undefined")
    g, block = f.grid, sg.GalerkinBlock(f.grid, params.m)
    k = -np.frexp(np.max(np.abs(f.values)))[1]
    buf = params.f(f.values)  # one field buffer: 2^k f(phi), then 2^k phi
    fh = block.forward(np.ldexp(buf, k, out=buf))
    sph = sg.rfft2(np.ldexp(f.values, k, out=buf), out=block.half)
    np.multiply(params.c + sg.dispersion_table(g), sph, out=sph)
    sph[:, 0] = 0.0  # the xi = 0 column
    j = -np.frexp(max(np.max(sph.view(np.float64)), -np.min(sph.view(np.float64))))[1]
    for a in (sph.view(np.float64), fh.view(np.float64)):  # in place: no spectrum-sized temporary
        np.ldexp(a, j, out=a)
    den_sq = sg.weighted_sq_sum(g, 1.0, sph)
    sph[block.rows, : block.kc] -= fh
    return _residual(sg.weighted_sq_sum(g, 1.0, sph), den_sq)

def _residual(num_sq: float, den_sq: float) -> float:
    """sqrt(num_sq / den_sq): ||sph - fh|| / ||sph|| from the two squared norms; nan where den_sq is 0."""
    return float(np.sqrt(num_sq / den_sq)) if den_sq else math.nan


def verify(f: sg.Field, params: PhysicsParams) -> tuple[VerifyReport, DecayReport]:
    """The reports of a stored field: its spectral residual, its functionals and the t_u read off them
    (`nehari_scale`'s value), its decay report, and the wall time of each."""
    t0 = time.perf_counter()
    residual = spectral_residual(f, params)
    t1 = time.perf_counter()
    fr = functional_report(f, params)
    t_u = _nehari_t(fr.z_norm_sq, fr.uf_int, params.m)
    t2 = time.perf_counter()
    dr = decay_report(f, params)
    timings = {"residual_s": t1 - t0, "functionals_s": t2 - t1, "decay_s": time.perf_counter() - t2}
    return VerifyReport(residual, t_u, fr, timings), dr


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
    block, s, ph, phi = _start(config, params, grid)
    fu, sph = np.empty_like(phi), np.empty_like(ph)
    started = (t0, time.perf_counter())
    hists = res_hist, m_hist, delta_hist = [], [], []
    delta, ph_sq = np.inf, _dot(ph, ph)
    d_prev, plain, extrapolations, converged = None, 0, 0, False
    stop = None if np.isfinite(ph).all() else ConvergenceError("initial guess overflows its spectrum")
    for _ in range(config.max_iter if stop is None else 0):
        fh = block.forward(params.f(phi, out=fu))
        np.multiply(s, ph, out=sph)
        num = _dot(sph, ph)
        den = _dot(fh, ph)
        if den == 0.0 or num == 0.0:
            stop = ConvergenceError("iterate lost all spectral content")
            break
        M = num / den
        if not math.isfinite(M):
            stop = ConvergenceError(f"Petviashvili factor M = {M:.3e} is not finite: f(phi) or s ph overflows")
            break
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
            stop = ConvergenceError(f"Petviashvili factor M = {M:.3e} <= 0 (bad initial guess)")
            break
        try:
            fh *= M**gamma
        except OverflowError:  # a float power past the double range, at a huge box or speed
            stop = ConvergenceError(f"Petviashvili factor M = {M:.3e}: M^{gamma:g} overflows")
            break
        fh /= s  # the plain update
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
        ph_sq = _dot(fh, fh)  # the next iterate's; phi still holds the last one, which is finite
        if not math.isfinite(ph_sq):
            stop = ConvergenceError(f"Petviashvili update overflows: ||phi_hat||^2 = {ph_sq:.3e}")
            break
        ph, d_prev = fh, d
        phi = block.inverse(ph, out=phi)
    return phi, hists, started, converged, stop, extrapolations


def nehari_descent(config: SolverConfig, params: PhysicsParams, grid: sg.Grid):
    """Preconditioned descent of S on the Nehari manifold; returns (Field, SolveReport)."""
    return _finish(NEHARI_DESCENT, grid, params, *_nehari_loop(config, params, grid))


def _nehari_loop(config: SolverConfig, params: PhysicsParams, grid: sg.Grid):
    """The tuple of `_petviashvili_loop` for `nehari_descent`; a stop at the start skips the loop."""
    t0 = time.perf_counter()
    block, s, ph, phi = _start(config, params, grid)
    w = 2.0 * grid.spectral_weight  # column weight of the block's xi != 0 modes, times Parseval's factor
    k = (params.m - 1.0) / (2.0 * params.p)  # S = k ||u||_Z^2 on the manifold
    res_hist: list = []
    zsq = _dot(s * ph, ph) * w
    uf, _ = _f_integrals(phi, grid.cell_area, params)
    converged, stop, t = False, None, _nehari_t(zsq, uf, params.m)
    if uf <= 0:
        stop = ConvergenceError("initial guess has int u f(u) <= 0")
    elif not 0 < t * np.max(np.abs(phi)) < math.inf:  # t phi would be 0 or hold inf or nan
        stop = ConvergenceError(f"initial guess rescaled to 0 or a non-finite field (t_u = {t:.3e})")
    if stop is None:
        phi, ph = t * phi, t * ph
        S_old = k * t * t * zsq
    started = (t0, time.perf_counter())
    h = DESCENT_STEP
    best, best_at = np.inf, 0
    for _ in range(config.max_iter if stop is None else 0):
        fh = block.forward(params.f(phi))
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
        d = ph - fh / s
        for _try in range(40):
            vh = ph - h * d
            v = block.inverse(vh)
            zv = _dot(s * vh, vh) * w
            ufv, _ = _f_integrals(v, grid.cell_area, params)
            if zv != 0.0:  # a nan action (int u f(u) <= 0) or an infinite one is not accepted
                tv = _nehari_t(zv, ufv, params.m)
                Sv = k * tv * tv * zv
                if Sv <= S_old + 1e-14 * abs(S_old):
                    break
            h *= 0.5
        else:  # no step accepted
            stop = ConvergenceError("Nehari descent stalled: no step decreases the action")
            break
        if not 0 < tv * np.max(np.abs(v)) < math.inf:
            stop = ConvergenceError(f"Nehari step to a zero or non-finite iterate (t_u = {tv:.3e})")
            break
        phi, ph, S_old = tv * v, tv * vh, Sv
        h = min(h * 1.3, 0.9)
    return phi, (res_hist, [], []), started, converged, stop, 0


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
    if not (0 < c_from < math.inf and 0 < c_to < math.inf):
        raise InputError("speeds must be positive and finite")
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
