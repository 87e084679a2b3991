"""Pseudospectral time integration of u_t - H(Laplacian u) + (f(u))_x = 0.

Spectrally, u_hat_t = sigma_L * u_hat - i xi * f(u)_hat with the purely
imaginary dispersive symbol sigma_L = i sgn(xi) (xi^2 + eta^2) (sgn(0) = 0, so
all xi = 0 modes are frozen by both terms).  The integrator is
integrating-factor RK4: the linear phase is applied exactly, classical RK4
handles the dealiased nonlinear term.  Transforms are real-to-complex: the
loop carries the half spectrum of `shrira.grid`, and dealiasing and the
x-derivative are one fused multiplier -i xi * keep.  One stepper per run holds
the phase tables and the work buffers; each stage runs in place (`out=`), the
inverse transform is ifft along y then irfft along x, and the forward one is
the solver's pruned `_Modes.forward_half`: rfft along x, then fft along y only
on the columns -i xi * keep leaves nonzero.
The step is bit-identical to the classical formula on fresh arrays.

Conservation: the equation is u_t = d/dx (L u - f(u)) with L self-adjoint, so
1/2 int u^2 and E(u) = 1/2 (||D_x^{1/2}u||^2 + ||D_x^{-1/2}u_y||^2) - int F(u)
are conserved, and remain exactly conserved (in continuous time) for the
dealiased Galerkin truncation; the measured drift therefore isolates the
integrator's O(dt^4) error, and the full action relates by
S(u) = E(u) + (c/2)||u||_2^2.

Default step: dt = min(0.25 dx / max(1, ||u0||_inf), 0.05 / max|sigma_L|) over
the retained modes.  The advective bound alone lets the fastest retained beat
phases turn ~1 rad per step, which costs ~1e-4 in conservation over O(10^2)
steps; the dispersive cap keeps the order-4 remainder near 1e-8.  dt is then
rounded down so the steps tile t_end exactly.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from math import ceil
from typing import Optional

import numpy as np

from . import grid as sg
from .errors import BlowUpError, GridMismatchError
from .functionals import PhysicsParams
from .solver import _Modes, default_dealias_rule

DISPERSIVE_STEP_FRACTION = 0.05


def linear_symbol(grid: sg.Grid) -> np.ndarray:
    """i * sgn(xi) * (xi^2 + eta^2) = i * xi * dispersion; purely imaginary, zero on xi = 0."""
    return 1j * grid.xi2d * grid.dispersion


def default_dt(grid: sg.Grid, u0: np.ndarray, rule: str) -> float:
    adv = 0.25 * grid.dx / max(1.0, float(np.max(np.abs(u0))))
    keep = grid.dealias_mask(rule)
    sig_max = float(np.max(np.abs(linear_symbol(grid).imag[keep])))
    disp = DISPERSIVE_STEP_FRACTION / sig_max if sig_max > 0 else np.inf
    return min(adv, disp)


@dataclass(frozen=True)
class EvolveConfig:
    t_end: float
    dt: Optional[float] = None  # None -> default_dt
    record_every: int = 20

    def __post_init__(self):
        if self.dt is not None and not self.dt > 0:
            raise GridMismatchError(f"dt: must be positive, got {self.dt}")
        if not self.t_end > 0:
            raise GridMismatchError(f"t_end: must be positive, got {self.t_end}")
        if not self.record_every >= 1:
            raise GridMismatchError(f"record_every: must be >= 1, got {self.record_every}")


@dataclass
class EvolveReport:
    dt: float
    times: list
    mass_series: list
    energy_series: list
    shape_error_series: list  # empty when no reference supplied
    final: sg.Field = field(repr=False, default=None)
    steps: int = 0
    timings: dict = field(default_factory=dict)  # setup_s, steps_s, records_s

    @property
    def mass_drift(self) -> float:
        m0 = self.mass_series[0]
        return max(abs(m - m0) for m in self.mass_series) / abs(m0)

    @property
    def energy_drift(self) -> float:
        e0 = self.energy_series[0]
        return max(abs(e - e0) for e in self.energy_series) / abs(e0)

    def to_dict(self) -> dict:
        d = {k: v for k, v in vars(self).items() if k != "final"}
        return dict(d, mass_drift=self.mass_drift, energy_drift=self.energy_drift)


class _Stepper:
    """The IFRK4 step of one run on the half spectrum: phase tables and work buffers built once.

    The stages write into the buffers in the operand order in which numpy
    evaluates the classical formula (complex a * b and b * a round differently,
    and from 256 KB on numpy forms e_half * (temporary) as temporary * e_half),
    so a step is bit-identical to it and allocates nothing of field size.
    """

    def __init__(self, grid, dt, rule, params):
        self.grid, self.dt, self.params = grid, dt, params
        e_half = np.exp(grid.half(linear_symbol(grid)) * (dt / 2))
        self.e_half, self.e_full = e_half, e_half * e_half
        keep = grid.half(grid.dealias_mask(rule))
        self.modes = _Modes(grid, rule, params.c)  # its forward_half prunes the column FFT
        self.mult = -1j * grid.half(grid.xi2d) * keep
        self.k = np.empty((5,) + keep.shape, np.complex128)  # k1..k4 and a stage argument
        self.u, self.fu = np.empty((2, grid.ny, grid.nx))

    def nonlinear(self, v, out):
        """out = -i xi keep * rfft2(f(irfft2(v))) by one-axis transforms, the forward one pruned."""
        np.fft.ifft(v, axis=0, out=out)
        np.fft.irfft(out, n=self.grid.nx, axis=1, out=self.u)
        self.modes.forward_half(self.params.f(self.u, out=self.fu), out=out)
        return np.multiply(self.mult, out, out=out)

    def step(self, uh, out):
        """out = e_full uh + dt/6 (e_full k1 + 2 e_half (k2 + k3) + k4), out distinct from uh."""
        dt, eh, ef, N = self.dt, self.e_half, self.e_full, self.nonlinear
        k1, k2, k3, k4, a = self.k
        # overflow here is legitimate blow-up; the caller checks finiteness
        with np.errstate(over="ignore", invalid="ignore"):
            N(uh, k1)  # k2 = N(e_half * (uh + (dt / 2) * k1)), the product taken as (...) * e_half
            np.multiply(np.add(uh, np.multiply(dt / 2, k1, out=a), out=a), eh, out=a)
            N(a, k2)  # k3 = N(e_half * uh + (dt / 2) * k2)
            np.add(np.multiply(eh, uh, out=a), np.multiply(dt / 2, k2, out=k3), out=a)
            N(a, k3)  # k4 = N(e_full * uh + dt * e_half * k3)
            np.multiply(np.multiply(dt, eh, out=k4), k3, out=k4)
            np.add(np.multiply(ef, uh, out=out), k4, out=a)
            N(a, k4)
            np.multiply(np.multiply(2, eh, out=a), np.add(k2, k3, out=k2), out=k2)
            np.add(np.add(np.multiply(ef, k1, out=k1), k2, out=k1), k4, out=k1)
            return np.add(out, np.multiply(dt / 6, k1, out=k1), out=out)


def step_if_rk4(s: sg.Spectrum, dt: float, params: PhysicsParams) -> sg.Spectrum:
    """One integrating-factor RK4 step; xi = 0 modes are exactly constant.

    The step runs on the half spectrum (columns 0..nx/2) with the stepper of
    `evolve` and the dealias rule of m; the xi < 0 columns are rebuilt by
    conjugate symmetry.  This is exact when s is the spectrum of a real field,
    as every caller passes.
    """
    g = s.grid
    half = g.half(s.coeffs)
    uh = _Stepper(g, dt, default_dealias_rule(params.m), params).step(half, np.empty_like(half))
    if not np.all(np.isfinite(uh)):
        raise BlowUpError("non-finite coefficients after one step", last_good=s)
    return sg.Spectrum(g, sg.full_from_half(g, uh))


def _mass_energy(uh, grid, params):
    """(1/2 ||u||^2, E(u)) of the real field with half spectrum uh."""
    u = np.fft.irfft2(uh, s=(grid.ny, grid.nx))
    mass = 0.5 * float(np.sum(u * u)) * grid.cell_area
    quad = 0.5 * sg.weighted_sq_sum(grid, grid.half(grid.dispersion), uh) * grid.spectral_weight
    energy = quad - float(np.sum(params.F(u))) * grid.cell_area
    return mass, energy


def evolve(
    initial: sg.Field,
    config: EvolveConfig,
    params: PhysicsParams,
    reference: Optional[tuple] = None,
    snapshot_cb=None,
) -> EvolveReport:
    """Integrate to t_end, recording diagnostics every record_every steps.

    reference = (Field phi, speed c) enables shape-error tracking against the
    exact spectral translate phi(. - c t, .).  snapshot_cb(step, t, Field) is
    invoked at each record time.  Raises GridMismatchError for an initial field
    that is zero or whose mass or energy overflows (its drifts are undefined),
    and BlowUpError (carrying the last good state, its time and the report up
    to the last record) if a step makes the coefficients, or a record the mass
    or energy, non-finite.
    """
    clock = time.perf_counter
    t_start = clock()  # timings: set-up (tables, transforms), steps, records
    g = initial.grid
    if not np.any(initial.values):
        raise GridMismatchError("initial field is zero: its mass and energy drifts are undefined")
    rule = default_dealias_rule(params.m)
    dt_req = config.dt if config.dt is not None else default_dt(g, initial.values, rule)
    nsteps = max(1, ceil(config.t_end / dt_req - 1e-12))
    dt = config.t_end / nsteps

    stepper = _Stepper(g, dt, rule, params)

    def real(h):
        return np.fft.irfft2(h, s=(g.ny, g.nx))

    ref_hat = ref_norm = None
    if reference is not None:
        ref_field, ref_speed = reference
        if ref_field.grid != g:
            raise GridMismatchError(f"reference field is on {ref_field.grid}, the run on {g}")
        ref_hat = np.fft.rfft2(ref_field.values)
        ref_norm = np.sqrt(sg.sq_sum(ref_field.values))

    uh = np.fft.rfft2(initial.values)
    nxt = np.empty_like(uh)  # the step writes here; uh stays the last good state
    times, masses, energies, shapes = [], [], [], []
    records_s = 0.0

    def record(step, t, h):
        """Append the diagnostics of state h; False, appending nothing, if they are not finite."""
        nonlocal records_s
        t0 = clock()
        with np.errstate(over="ignore", invalid="ignore"):  # a state about to blow up
            m, e = _mass_energy(h, g, params)
        if not (np.isfinite(m) and np.isfinite(e)):
            return False
        times.append(t)
        masses.append(m)
        energies.append(e)
        if ref_hat is not None:
            tr = real(ref_hat * np.exp(-1j * g.half(g.xi) * ref_speed * t))
            shapes.append(float(np.sqrt(sg.sq_sum(real(h) - tr)) / ref_norm))
        if snapshot_cb is not None:
            snapshot_cb(step, t, sg.Field(g, real(h)))
        records_s += clock() - t0
        return True

    def report(steps, final=None):
        timings = {"setup_s": t_setup - t_start, "steps_s": clock() - t_setup - records_s,
                   "records_s": records_s}
        return EvolveReport(dt, times, masses, energies, shapes, final, steps, timings)

    t_setup = clock()
    if not record(0, 0.0, uh):
        raise GridMismatchError("initial field: its mass or energy is not finite")
    for k in range(1, nsteps + 1):
        stepper.step(uh, nxt)
        at_record = k % config.record_every == 0 or k == nsteps
        if not np.all(np.isfinite(nxt)) or at_record and not record(k, k * dt, nxt):
            raise BlowUpError(f"blow-up detected at t = {k * dt:.6g}", last_good=sg.Field(g, real(uh)),
                              t=(k - 1) * dt, report=report(k - 1))
        uh, nxt = nxt, uh
    return report(nsteps, sg.Field(g, real(uh)))
