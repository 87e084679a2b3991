"""Pseudospectral time integration of u_t - H(Laplacian u) + (f(u))_x = 0.

Spectrally, u_hat_t = sigma_L * u_hat - i xi * f(u)_hat with the purely
imaginary dispersive symbol sigma_L = i sgn(xi) (xi^2 + eta^2) (sgn(0) = 0, so
all xi = 0 modes are frozen by both terms).  The integrator is
integrating-factor RK4: the linear phase is applied exactly, classical RK4
handles the nonlinear term, truncated to the Galerkin block of m
(`grid.GalerkinBlock`) and differentiated by -i xi.  `evolve` applies the
block's projection P to its input once; the step never leaves the block (each
stage is -i xi times a block, the phases are diagonal), so state, phase tables
and stages live on it only, and only the block knows its layout.  A run builds
one block, whose `xi` and `disp` give the phases, the energy weights and the
default step's cap; each nonlinear term runs its pruned `inverse` and `forward`.
A step is bit-identical to the classical formula on fresh half-spectrum arrays at P(uh).

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
rounded down so the steps tile t_end exactly; more than MAX_STEPS are refused.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from math import ceil, inf
from typing import Optional

import numpy as np

from . import grid as sg
from .errors import BlowUpError, InputError
from .functionals import PhysicsParams, _f_integrals

DISPERSIVE_STEP_FRACTION = 0.05
MAX_STEPS = 10**7  # a run planned past this many steps would not end in reasonable time


def default_dt(block: sg.GalerkinBlock, u0: np.ndarray) -> float:
    adv = 0.25 * block.grid.dx / max(1.0, float(np.max(np.abs(u0))))
    sig_max = float(np.max(np.abs(block.xi * block.disp)))  # |sigma_L| = |xi| disp
    return min(adv, DISPERSIVE_STEP_FRACTION / sig_max if sig_max > 0 else np.inf)


@dataclass(frozen=True)
class EvolveConfig:
    t_end: float
    dt: Optional[float] = None  # None -> default_dt
    record_every: int = 20

    def __post_init__(self):
        if self.dt is not None and not 0 < self.dt < inf:
            raise InputError(f"dt: must be positive and finite, got {self.dt}")
        if not 0 < self.t_end < inf:
            raise InputError(f"t_end: must be positive and finite, got {self.t_end}")
        if not self.record_every >= 1:
            raise InputError(f"record_every: must be >= 1, got {self.record_every}")


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
    projection_defect: float = 0.0  # ||u0 - P u0|| / ||u0||: what the projection onto the block removed

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
    """The IFRK4 step of one run on its Galerkin block: phase tables and work buffers built once.

    The stages write into the buffers in the operand order in which numpy
    evaluates the classical formula (complex a * b and b * a round differently,
    and from 256 KB on numpy forms e_half * (temporary) as temporary * e_half),
    so a step is bit-identical to it and allocates nothing of field size.
    """

    def __init__(self, block, dt, params):
        self.block, self.dt, self.params = block, dt, params  # the block's buffer, u and fu: the field-sized ones
        e_half = np.exp(1j * block.xi * block.disp * (dt / 2))  # exp(sigma_L dt/2) on the block
        self.e_half, self.e_full = e_half, e_half * e_half
        self.mult = -1j * block.xi  # the x derivative, 0 on the xi = 0 column
        self.k = np.empty((4,) + e_half.shape, np.complex128)  # k1, k2, k3 (then k4) and a stage argument
        self.u, self.fu = np.empty((2, block.grid.ny, block.grid.nx))

    def nonlinear(self, v, out):
        """out = -i xi * rfft2(f(irfft2(v))) on the block, both transforms pruned to kc columns."""
        fh = self.block.forward(self.params.f(self.block.inverse(v, out=self.u), out=self.fu), out)
        return np.multiply(self.mult, fh, out=out)

    def step(self, uh, out):
        """out = e_full uh + dt/6 (e_full k1 + 2 e_half (k2 + k3) + k4), out distinct from uh."""
        dt, eh, ef, N = self.dt, self.e_half, self.e_full, self.nonlinear
        k1, k2, k3, a = self.k
        # overflow here is legitimate blow-up; the caller checks finiteness
        with np.errstate(over="ignore", invalid="ignore"):
            N(uh, k1)  # k2 = N(e_half * (uh + (dt / 2) * k1)), the product taken as (...) * e_half
            np.multiply(np.add(uh, np.multiply(dt / 2, k1, out=a), out=a), eh, out=a)
            N(a, k2)  # k3 = N(e_half * uh + (dt / 2) * k2)
            np.add(np.multiply(eh, uh, out=a), np.multiply(dt / 2, k2, out=k3), out=a)
            N(a, k3)  # k4 = N(e_full * uh + dt * e_half * k3), into k3 once k2 + k3 is formed
            np.multiply(np.multiply(dt, eh, out=a), k3, out=a)
            np.add(k2, k3, out=k2)
            np.add(np.multiply(ef, uh, out=out), a, out=a)
            N(a, k3)
            np.multiply(np.multiply(2, eh, out=a), k2, out=k2)
            np.add(np.add(np.multiply(ef, k1, out=k1), k2, out=k1), k3, out=k1)
            return np.add(out, np.multiply(dt / 6, k1, out=k1), out=out)


def step_if_rk4(s: sg.Spectrum, dt: float, params: PhysicsParams) -> sg.Spectrum:
    """One integrating-factor RK4 step of P(s); xi = 0 modes are exactly constant.

    P zeroes the modes outside the Galerkin block of m; the step runs on that
    block with the stepper of `evolve`, and the xi < 0 columns are rebuilt by
    conjugate symmetry.  This is exact when s is the spectrum of a real field,
    as every caller passes.
    """
    g, half, block = s.grid, s.coeffs[:, : s.grid.nx // 2 + 1], sg.GalerkinBlock(s.grid, params.m)
    uh = _Stepper(block, dt, params).step(block.gather(half), np.empty(block.shape, np.complex128))
    if not np.all(np.isfinite(uh)):
        raise BlowUpError("non-finite coefficients after one step", last_good=s)
    return sg.Spectrum(g, sg.full_from_half(g, block.scatter(uh, np.empty_like(half))))


def _mass_energy(u, uh, disp, grid, params, out=None):
    """(1/2 ||u||^2, E(u)) of real samples u with half spectrum or block uh, disp on its modes, in out."""
    mass = 0.5 * float(np.sum(np.multiply(u, u, out=out))) * grid.cell_area
    quad = 0.5 * sg.weighted_sq_sum(grid, disp, uh) * grid.spectral_weight
    return mass, quad - _f_integrals(u, grid.cell_area, params, out)[1]


def evolve(
    initial: sg.Field,
    config: EvolveConfig,
    params: PhysicsParams,
    reference: Optional[tuple] = None,
    snapshot_cb=None,
) -> EvolveReport:
    """Integrate P(initial) to t_end, recording diagnostics every record_every steps.

    P projects onto the Galerkin block of m; projection_defect is what it
    removed.  reference = (Field phi, speed c) enables shape-error tracking of
    P(phi) against its exact translate phi(. - c t, .), by Parseval on the
    block.  snapshot_cb(step, t, Field) gets a copy of the samples at each
    record time.  Raises InputError for more than MAX_STEPS planned steps, a
    non-finite reference speed, a reference whose projection is zero or
    overflows (its shape error is undefined) and an initial field whose mass or
    energy is zero, underflowing ones included, or overflows (its drifts are
    undefined), and BlowUpError (carrying the last good state, its time and the report up
    to the last record) if a step makes the coefficients, or a record the
    mass or energy, non-finite.
    """
    clock = time.perf_counter
    t_start = clock()  # timings: set-up (tables, transforms), steps, records
    g, block = initial.grid, sg.GalerkinBlock(initial.grid, params.m)
    dt_req = config.dt if config.dt is not None else default_dt(block, initial.values)
    planned = config.t_end / dt_req if dt_req > 0 else inf
    if not planned <= MAX_STEPS:  # compared before ceil, which an infinite count would overflow
        raise InputError(f"evolve: t_end / dt = {planned:.6g} steps (dt = {dt_req:.6g}, "
                         f"t_end = {config.t_end:.6g}) exceed {MAX_STEPS:.0e}")
    nsteps = max(1, ceil(planned - 1e-12))
    dt = config.t_end / nsteps

    stepper = _Stepper(block, dt, params)
    ref_hat = None
    if reference is not None:
        ref_field, ref_speed = reference
        if not -inf < ref_speed < inf:
            raise InputError(f"reference_speed: must be finite, got {ref_speed}")
        if ref_field.grid != g:
            raise InputError(f"reference field is on {ref_field.grid}, the run on {g}")
        ref_hat = block.project(ref_field.values)[0]
        with np.errstate(over="ignore"):  # a huge reference, rejected next
            ref_sq = sg.weighted_sq_sum(g, 1.0, ref_hat)
        if not 0 < ref_sq < inf:
            raise InputError("reference field: its projection is zero or overflows; the shape error is undefined")

    uh, defect = block.project(initial.values)  # a huge field, or a zero one, is rejected below
    nxt = np.empty_like(uh)  # the step writes here; uh stays the last good state
    times, masses, energies, shapes = [], [], [], []
    records_s = 0.0

    def record(step, t, h):
        """Append the diagnostics of state h; False, appending nothing, if they are not finite."""
        nonlocal records_s
        t0 = clock()
        with np.errstate(over="ignore", invalid="ignore"):  # a state about to blow up
            if ref_hat is not None:  # ||u - translate|| / ||phi|| by Parseval
                diff = h - ref_hat * np.exp(-1j * block.xi * ref_speed * t)
                shape = np.sqrt(sg.weighted_sq_sum(g, 1.0, diff) / ref_sq)
            u = block.inverse(h, out=stepper.u)
            m, e = _mass_energy(u, h, block.disp, g, params, out=stepper.fu)
        if not (np.isfinite(m) and np.isfinite(e)):
            return False
        times.append(t)
        masses.append(m)
        energies.append(e)
        if ref_hat is not None:
            shapes.append(float(shape))
        if snapshot_cb is not None:
            snapshot_cb(step, t, sg.Field(g, u.copy()))
        records_s += clock() - t0
        return True

    def report(steps, final=None):
        timings = {"setup_s": t_setup - t_start, "steps_s": clock() - t_setup - records_s,
                   "records_s": records_s}
        return EvolveReport(dt, times, masses, energies, shapes, final, steps, timings, defect)

    t_setup = clock()
    if not record(0, 0.0, uh) or 0.0 in (masses[0], energies[0]):
        raise InputError("initial field: its mass or energy is zero or not finite; its drifts are undefined")
    for k in range(1, nsteps + 1):
        stepper.step(uh, nxt)
        at_record = k % config.record_every == 0 or k == nsteps
        if not np.all(np.isfinite(nxt)) or at_record and not record(k, k * dt, nxt):
            raise BlowUpError(f"blow-up detected at t = {k * dt:.6g}", t=(k - 1) * dt, report=report(k - 1),
                              last_good=sg.Field(g, block.inverse(uh, out=stepper.u)))
        uh, nxt = nxt, uh
    return report(nsteps, sg.Field(g, block.inverse(uh, out=stepper.u)))  # the run is over: its buffer u is handed out
