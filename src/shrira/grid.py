"""Anisotropic periodic grid, discrete Fourier transforms, and spectral operators.

The computational box is [-lx/2, lx/2) x [-ly/2, ly/2), sampled on nx x ny points
with x varying fastest (arrays are (ny, nx), C order).  Wavenumbers follow the
standard DFT layout xi[j] = 2*pi*j~/lx with signed index j~ in [-nx/2, nx/2).

Transform convention: `forward` is the plain unnormalized DFT, `inverse` carries
the 1/(nx*ny) factor.  Quadrature weights dx*dy convert sample sums to integrals,
so Parseval reads

    sum |f|^2 * dx*dy  ==  sum |f_hat|^2 * (lx*ly) / (nx*ny)^2

exactly for any discrete field.

This module is the one place that knows the dispersion relation: every symbol
of the equation (profile operator, energy weights, dispersive phase, kernel
denominator) is derived from `dispersion_table`, (xi^2 + eta^2)/|xi| on
xi != 0 and 0 on every xi = 0 mode.

Half-spectrum layout.  The hot loops (solvers, time stepping, functionals) run
on numpy.fft.rfft2 output, shape (ny, nx/2 + 1): columns 0..nx/2 of the full
layout, whose xi < 0 columns are the conjugates of their partners.  A half
table is the slice `Grid.half(table)` of the full one, so the Nyquist column
keeps fftfreq's xi = -pi*nx/lx and its symbols and phases.  Full-spectrum sums
are half-spectrum sums with column weights `Grid.half_weight`: 1 on the xi = 0
and Nyquist columns, 2 on the others.  The public `forward`, `inverse` and
`apply_multiplier` stay full-complex: their symbols need not be Hermitian.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import GridMismatchError, SymbolDomainError

TWO_THIRDS = "two_thirds"
HALF = "half"


@dataclass(frozen=True)
class Grid:
    """Periodic rectangular grid with wavenumber tables.

    nx, ny must be even and >= 8; lx, ly are the box side lengths.
    """

    nx: int
    ny: int
    lx: float
    ly: float

    def __post_init__(self):
        for name, n in (("nx", self.nx), ("ny", self.ny)):
            if n < 8 or n % 2 != 0:
                raise GridMismatchError(f"{name}: must be even and >= 8, got {n}")
        for name, length in (("lx", self.lx), ("ly", self.ly)):
            if not length > 0:
                raise GridMismatchError(f"{name}: box length must be positive, got {length}")

    @property
    def dx(self) -> float:
        return self.lx / self.nx

    @property
    def dy(self) -> float:
        return self.ly / self.ny

    @property
    def cell_area(self) -> float:
        return self.dx * self.dy

    @property
    def spectral_weight(self) -> float:
        """Factor converting sum |f_hat|^2 to the physical L2 norm squared."""
        return self.lx * self.ly / (self.nx * self.ny) ** 2

    @cached_property
    def x(self) -> np.ndarray:
        return -self.lx / 2 + self.dx * np.arange(self.nx)

    @cached_property
    def y(self) -> np.ndarray:
        return -self.ly / 2 + self.dy * np.arange(self.ny)

    @cached_property
    def xi(self) -> np.ndarray:
        return 2 * np.pi * np.fft.fftfreq(self.nx, d=self.dx)

    @cached_property
    def eta(self) -> np.ndarray:
        return 2 * np.pi * np.fft.fftfreq(self.ny, d=self.dy)

    @cached_property
    def eta_odd(self) -> np.ndarray:
        """eta, 0 on the Nyquist row: the part of i*eta real(ifft2) keeps, for irfft2 (read-only)."""
        return _read_only(np.where(np.arange(self.ny) == self.ny // 2, 0.0, self.eta))

    @cached_property
    def xi2d(self) -> np.ndarray:
        return np.broadcast_to(self.xi[None, :], (self.ny, self.nx))

    @cached_property
    def eta2d(self) -> np.ndarray:
        return np.broadcast_to(self.eta[:, None], (self.ny, self.nx))

    @cached_property
    def abs_xi(self) -> np.ndarray:
        return np.broadcast_to(np.abs(self.xi)[None, :], (self.ny, self.nx))

    @cached_property
    def xi_nonzero(self) -> np.ndarray:
        """Boolean mask of modes with xi != 0 (shape (ny, nx))."""
        return np.broadcast_to(self.xi[None, :] != 0, (self.ny, self.nx))

    @cached_property
    def half_weight(self) -> np.ndarray:
        """Half-spectrum column weights: 1 on xi = 0 and Nyquist, 2 elsewhere (read-only)."""
        w = np.full(self.nx // 2 + 1, 2.0)
        w[[0, -1]] = 1.0
        return _read_only(w)

    def half(self, table: np.ndarray) -> np.ndarray:
        """Columns 0..nx/2 of a full-layout (ny, nx) table: its half-spectrum view."""
        return table[..., : self.nx // 2 + 1]

    @cached_property
    def dispersion(self) -> np.ndarray:
        """Cached, read-only `dispersion_table` of this grid."""
        return _read_only(dispersion_table(self))

    def index_x(self) -> np.ndarray:
        """Signed integer x-indices j~ per spectral entry."""
        return np.rint(self.xi2d / (2 * np.pi / self.lx)).astype(int)

    def index_y(self) -> np.ndarray:
        return np.rint(self.eta2d / (2 * np.pi / self.ly)).astype(int)

    def dealias_mask(self, rule: str = TWO_THIRDS) -> np.ndarray:
        """Boolean keep-mask for the given truncation rule (cached, read-only)."""
        masks = self.__dict__.setdefault("_dealias_masks", {})
        if rule not in masks:
            frac = {TWO_THIRDS: 2.0 / 3.0, HALF: 0.5}.get(rule)
            if frac is None:
                raise GridMismatchError(f"unknown dealias rule {rule!r}")
            masks[rule] = _read_only(
                (np.abs(self.index_x()) <= frac * self.nx / 2)
                & (np.abs(self.index_y()) <= frac * self.ny / 2)
            )
        return masks[rule]

    def meshgrid(self):
        """Physical coordinate arrays X, Y of shape (ny, nx)."""
        return np.meshgrid(self.x, self.y, indexing="xy")


def dispersion_table(grid: Grid, half: bool = False) -> np.ndarray:
    """(xi^2 + eta^2)/|xi| on xi != 0 and 0 on xi = 0, as a new (ny, nx) array.

    The profile symbol is c + table, the energy weight is the table itself, the
    dispersive symbol is i*xi*table and the kernel denominator |xi|(1 + table).
    Callers that must not keep the array alive (the large kernel oracle grids)
    use this function; everything else reads the cached `Grid.dispersion`.
    half=True builds only the half-spectrum columns 0..nx/2.
    """
    xi = grid.half(grid.xi) if half else grid.xi
    return divide_off_xi0(grid, xi**2 + grid.eta[:, None] ** 2, np.abs(xi))


def divide_off_xi0(grid: Grid, num, den, dtype=np.float64) -> np.ndarray:
    """num/den on the xi != 0 modes and 0 on every xi = 0 mode.

    num and den broadcast to the full (ny, nx) or the half (ny, nx/2 + 1)
    layout and are never divided on xi = 0, so a symbol singular there
    (|xi|^-1/2, 1/|xi|) needs no special casing.
    """
    shape = np.broadcast_shapes(np.shape(num), np.shape(den))
    out = np.zeros(shape, dtype=dtype)
    return np.divide(num, den, out=out, where=grid.xi[: shape[-1]] != 0)


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def weighted_sq_sum(grid: Grid, weight, coeffs) -> float:
    """Full-spectrum sum weight * |coeffs|^2 from half-spectrum coeffs and an even weight.

    weight broadcasts to the half layout; times `Grid.spectral_weight` the sum is an integral.
    """
    return float(np.sum(weight * grid.half_weight * (coeffs.real**2 + coeffs.imag**2)))


def sq_sum(u: np.ndarray) -> float:
    """sum u^2 of a real field (einsum, not the BLAS dot of np.linalg.norm)."""
    return float(np.einsum("ij,ij->", u, u))


def full_from_half(grid: Grid, h: np.ndarray) -> np.ndarray:
    """The full (ny, nx) spectrum of a real field from its half spectrum h.

    The xi < 0 columns are rebuilt by conjugate symmetry, c[-k, -j] = conj c[k, j].
    """
    tail = np.conj(np.roll(h[::-1, grid.nx // 2 - 1 : 0 : -1], 1, axis=0))
    return np.concatenate((h, tail), axis=1)


@dataclass(frozen=True)
class Field:
    """Real sample array on a grid; shape (ny, nx), x fastest."""

    grid: Grid
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        if v.shape != (self.grid.ny, self.grid.nx):
            raise GridMismatchError(
                f"field shape {v.shape} does not match grid ({self.grid.ny}, {self.grid.nx})"
            )
        if not np.all(np.isfinite(v)):
            raise GridMismatchError("field contains non-finite entries")
        object.__setattr__(self, "values", v)


@dataclass(frozen=True)
class Spectrum:
    """Complex DFT coefficient array on a grid; same layout as Field."""

    grid: Grid
    coeffs: np.ndarray = field(repr=False)

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=np.complex128)
        if c.shape != (self.grid.ny, self.grid.nx):
            raise GridMismatchError(
                f"spectrum shape {c.shape} does not match grid ({self.grid.ny}, {self.grid.nx})"
            )
        object.__setattr__(self, "coeffs", c)


def forward(f: Field) -> Spectrum:
    """Unnormalized forward DFT."""
    return Spectrum(f.grid, np.fft.fft2(f.values))


def inverse(s: Spectrum) -> Field:
    """Inverse DFT with the 1/(nx*ny) factor; returns the real part."""
    return Field(s.grid, np.real(np.fft.ifft2(s.coeffs)))


def apply_multiplier(s: Spectrum, symbol) -> Spectrum:
    """Pointwise multiply coefficients by symbol(xi, eta).

    `symbol` is a callable acting on broadcastable wavenumber arrays, or a
    precomputed (ny, nx) array.  Non-finite symbol values are allowed only on
    modes whose coefficient is exactly zero; those modes map to zero.
    """
    g = s.grid
    sym = symbol(g.xi2d, g.eta2d) if callable(symbol) else np.asarray(symbol)
    sym = np.broadcast_to(sym, s.coeffs.shape)
    bad = ~np.isfinite(sym)
    if bad.any():
        if np.any(bad & (s.coeffs != 0)):
            raise SymbolDomainError("non-finite symbol value on a used mode")
        out = np.where(bad, 0.0, sym) * s.coeffs
    else:
        out = sym * s.coeffs
    return Spectrum(g, out)


def lp_norm(f: Field, p: float) -> float:
    """Rectangle-rule L^p norm; p = inf gives the sample max."""
    if np.isinf(p):
        return float(np.max(np.abs(f.values)))
    if p <= 0:
        raise GridMismatchError("p must be positive")
    return float((np.sum(np.abs(f.values) ** p) * f.grid.cell_area) ** (1.0 / p))

