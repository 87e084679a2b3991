"""Anisotropic periodic grid, discrete Fourier transforms, and spectral operators.

The computational box is [-lx/2, lx/2) x [-ly/2, ly/2), sampled on nx x ny points
with x varying fastest (arrays are (ny, nx), C order).  Wavenumbers follow the
standard DFT layout xi[j] = 2*pi*j~/lx with signed index j~ in [-nx/2, nx/2).

Transform convention: `forward` is the plain unnormalized DFT, `inverse` carries
the 1/(nx*ny) factor.  Quadrature weights dx*dy convert sample sums to integrals,
so Parseval reads

    sum |f|^2 * dx*dy  ==  sum |f_hat|^2 * (lx*ly) / (nx*ny)^2

exactly for any discrete field.

The dispersion relation is `dispersion_table`, (xi^2 + eta^2)/|xi| on xi != 0
and 0 on every xi = 0 mode; the profile operator, evolve's energy record, the
dispersive phase and the kernel denominator derive from it.  On the Galerkin
block it is read as `GalerkinBlock.disp`; `spectral_residual` and the kernel
oracle build it on every column.  `functionals` weights its two parts, |xi| and
eta^2/|xi|, apart: the Pohozaev identities need them separately.

Half-spectrum layout.  Every symbol of the equation takes conjugate values at
(xi, eta) and -(xi, eta) and acts on real fields, so every table is built on
the layout of numpy.fft.rfft2 output, shape (ny, nx/2 + 1): columns 0..nx/2
of the full layout, whose xi < 0 columns are the conjugates of their partners.
`Grid.xi_half` holds xi on those columns; the Nyquist column keeps fftfreq's
xi = -pi*nx/lx and its symbols and phases.
`GalerkinBlock(grid, m)` is the one place that decides which modes the
truncation of u^m keeps (its docstring states the dealias rule) and how they are
laid out: rows 0..K and ny-K..ny-1 of the first kc columns, one (2K + 1, kc)
array, moved by its `gather`, `scatter` and `subtract`.  The solvers, the
residual, the stepper and evolve's projection all run through it; a run builds
one, and no code outside it reads its layout.  It owns its inner product too:
`dot` is the full-spectrum sum of two blocks whose xi = 0 column is 0.  Its
`y_even` flag (evolve's, for a y-even field) halves the transforms' x passes.
`solver.spectral_residual` forms its whole-half-spectrum residual in the block's
buffer `half`: a buffer of its own would grow verify's working set by a spectrum.
Full-spectrum sums are half-spectrum sums with column weights
`Grid.half_weight`: 1 on the xi = 0 and Nyquist columns, 2 on the others.
The public `forward`, `inverse` and `apply_multiplier` stay full-complex:
their symbols need not be Hermitian.  Every real transform of the package
runs through `rfft2` or the block's transforms, the y pass in place, pruned to
the block's columns where the block transforms, except two:
`decay.y_weighted_seminorm` (row spectra, transformed in x only) and
`kernels.kernel_spectral_oracle` (a real float64 symbol, which an in-place
complex pass cannot hold).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from math import ceil

import numpy as np

from .errors import InputError

Y_EVEN_TOL = 1e-14  # the largest y-asymmetry `GalerkinBlock.set_y_even` rounds off


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
                raise InputError(f"{name}: must be even and >= 8, got {n}")
        for name, length in (("lx", self.lx), ("ly", self.ly)):
            if not 0 < length < np.inf:
                raise InputError(f"{name}: box length must be positive and finite, got {length}")

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
    def xi_half(self) -> np.ndarray:
        """xi on the half-spectrum columns 0..nx/2 (read-only)."""
        return _read_only(self.xi[: self.nx // 2 + 1])

    @cached_property
    def abs_xi(self) -> np.ndarray:
        return np.broadcast_to(np.abs(self.xi)[None, :], (self.ny, self.nx))

    @cached_property
    def half_weight(self) -> np.ndarray:
        """Half-spectrum column weights: 1 on xi = 0 and Nyquist, 2 elsewhere (read-only)."""
        w = np.full(self.nx // 2 + 1, 2.0)
        w[[0, -1]] = 1.0
        return _read_only(w)

    def meshgrid(self):
        """Physical coordinate arrays X, Y of shape (ny, nx)."""
        return np.meshgrid(self.x, self.y, indexing="xy")


def dispersion_table(grid: Grid, rows=slice(None), kc=None) -> np.ndarray:
    """(xi^2 + eta^2)/|xi| on xi != 0 and 0 on xi = 0, as a new half-layout array of eta rows `rows`
    and columns 0..kc-1 (all by default).

    The profile symbol is c + table, evolve's energy weight is the table itself, the
    dispersive symbol is i*xi*table and the kernel denominator |xi|(1 + table).
    """
    xi = grid.xi_half[:kc]
    return divide_off_xi0(grid, xi**2 + grid.eta[rows, None] ** 2, np.abs(xi))


def divide_off_xi0(grid: Grid, num, den) -> np.ndarray:
    """num/den on the xi != 0 modes and 0 on every xi = 0 mode.

    num and den broadcast to the half (ny, nx/2 + 1) or the full (ny, nx)
    layout and are never divided on xi = 0, so a symbol singular there
    (|xi|^-1/2, 1/|xi|) needs no special casing.
    """
    shape = np.broadcast_shapes(np.shape(num), np.shape(den))
    out = np.zeros(shape)
    return np.divide(num, den, out=out, where=grid.xi[: shape[-1]] != 0)


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def weighted_sq_sum(grid: Grid, weight, coeffs) -> float:
    """Full-spectrum sum weight * |coeffs|^2 from half-spectrum coeffs and an even weight.

    coeffs may hold the first columns only (a Galerkin block); weight broadcasts to coeffs.  Times
    `Grid.spectral_weight` the sum is an integral.
    """
    sq = np.square(coeffs.real)
    sq += np.square(coeffs.imag)
    return float(np.sum(np.multiply(weight * grid.half_weight[: coeffs.shape[-1]], sq, out=sq)))


def rfft2(u: np.ndarray, kc=None, out=None) -> np.ndarray:
    """numpy.fft.rfft2 of the real (ny, nx) array u, exact in columns 0..kc-1 (all by default):
    rfft along x, then fft along y in place on those columns; columns kc.. skip it."""
    out = np.fft.rfft(u, axis=1, out=out)
    cols = out[:, :kc]
    np.fft.fft(cols, axis=0, out=cols)
    return out


class GalerkinBlock:
    """The Galerkin block of m on a grid: its layout, xi, dispersion table, transforms, inner product
    and projection.

    The block holds the modes with |j| <= K on each axis, K the largest with (ceil(m) + 1) K < n.
    For integer m no alias of u^m then lands on it (Orszag 1971), so mass and energy are conserved
    semi-discretely; |u|^(m-1) u of a non-integer m is not band-limited and aliases under any rule,
    resolution its remedy.  Its layout: half-spectrum rows `rows` = 0..K and ny-K..ny-1 of columns
    0..kc-1, kc = K_x + 1, one array of `shape` (2K + 1, kc).  Its column 0 holds the xi = 0 modes,
    which `forward` returns as 0 (no wave carries them) and `project` keeps (evolve carries them
    frozen); the Nyquist column is never in it.  Every transform runs through the one buffer `half`.
    `disp` (built on first use) is `dispersion_table` on the block: the solvers' symbol s is
    c + disp, the stepper's linear symbol i*xi*disp.  `y_even` (off unless `set_y_even` sets it) declares
    every block and field the transforms see even in y: both run their x passes on rows 0..ny/2 and mirror
    the others, and `forward` writes the block's rows -k from its rows k, so a y-even state stays y-even.
    """

    def __init__(self, grid: Grid, m: float):
        self.grid, self.y_even = grid, False
        p = ceil(m) + 1  # u^m of the block reaches |j| <= m K; its aliases miss |j| <= K if m K < n - K
        self.K, self.kc = (grid.ny - 1) // p, (grid.nx - 1) // p + 1
        self.rows = np.r_[: self.K + 1, grid.ny - self.K : grid.ny]
        self.shape = (2 * self.K + 1, self.kc)
        self.xi = grid.xi_half[: self.kc]  # xi on the block's columns (read-only)
        self.half = np.empty((grid.ny, grid.nx // 2 + 1), np.complex128)

    @cached_property
    def disp(self) -> np.ndarray:
        """`dispersion_table` on the block's modes, 0 on its xi = 0 column (read-only)."""
        return _read_only(dispersion_table(self.grid, self.rows, self.kc))

    def gather(self, h: np.ndarray, out=None) -> np.ndarray:
        """The block of the half spectrum h, rows `rows` of columns 0..kc-1, in out or a new array."""
        out = np.empty(self.shape, np.complex128) if out is None else out
        out[: self.K + 1], out[self.K + 1 :] = h[: self.K + 1, : self.kc], h[self.grid.ny - self.K :, : self.kc]
        return out

    def scatter(self, b: np.ndarray, h: np.ndarray) -> np.ndarray:
        """h = the half spectrum whose block is b and which is 0 elsewhere."""
        k, kc, ny = self.K, self.kc, self.grid.ny
        h[:, kc:] = h[k + 1 : ny - k] = 0
        h[: k + 1, :kc], h[ny - k :, :kc] = b[: k + 1], b[k + 1 :]
        return h

    def forward(self, u: np.ndarray, out=None) -> np.ndarray:
        """The block of rfft2(u), pruned to kc columns, xi = 0 column zeroed (`project` keeps it), in out or new."""
        if self.y_even:  # the x pass on rows 0..ny/2, whose kc columns the other rows mirror
            h, cols = self.grid.ny // 2 + 1, self.half[:, : self.kc]
            np.fft.rfft(u[:h], axis=1, out=self.half[:h])
            np.fft.fft(self._mirror(cols), axis=0, out=cols)
        out = self.gather(self.half if self.y_even else rfft2(u, self.kc, out=self.half), out)
        out[:, 0] = 0.0
        return self._mirror(out)

    def inverse(self, b: np.ndarray, out=None) -> np.ndarray:
        """numpy.fft.irfft2 of the half spectrum whose block is b and which is 0 elsewhere: ifft along y
        in place on columns 0..kc-1 of `half` (the others are 0), then irfft along x, in out or new."""
        cols = self.scatter(b, self.half)[:, : self.kc]
        np.fft.ifft(cols, axis=0, out=cols)
        rows = slice(self.grid.ny // 2 + 1 if self.y_even else None)  # y-even: rows 0..ny/2, then mirrored
        out = np.empty((self.grid.ny, self.grid.nx)) if out is None else out
        np.fft.irfft(self.half[rows], n=self.grid.nx, axis=1, out=out[rows])
        return self._mirror(out)

    def _mirror(self, a: np.ndarray) -> np.ndarray:
        """If `y_even`, a[n - j] = a[j] for 0 < j < n/2 along the n rows of a: samples, column spectra, a block."""
        if self.y_even:
            a[len(a) // 2 + 1 :] = a[(len(a) - 1) // 2 : 0 : -1]
        return a

    def set_y_even(self, b: np.ndarray) -> float:
        """The y-asymmetry ||b_-k - b_k|| / ||b|| of the block b, nan for b = 0; at most Y_EVEN_TOL, it sets `y_even`
        and b_-k = b_k."""
        k, g = self.K, self.grid
        with np.errstate(over="ignore", invalid="ignore"):  # a huge block, or a zero one
            odd = np.subtract(b[k + 1 :], b[k:0:-1], out=self.half[:k, : self.kc])  # in `half`: no temporary block
            share = float(np.sqrt(np.divide(weighted_sq_sum(g, 1.0, odd), weighted_sq_sum(g, 1.0, b))))
        self.y_even = share <= Y_EVEN_TOL
        self._mirror(b)
        return share

    def dot(self, a: np.ndarray, b: np.ndarray) -> float:
        """Full-spectrum Re sum a * conj(b) of blocks whose xi = 0 column is 0, as `forward` returns: twice the
        block's pairwise np.sum (einsum's running sum is noisy enough to flip Nehari's step tests)."""
        return 2.0 * float(np.sum(a.view(np.float64) * b.view(np.float64)))

    def subtract(self, b: np.ndarray, h: np.ndarray) -> np.ndarray:
        """h -= the half spectrum whose block is b and which is 0 elsewhere."""
        h[self.rows, : self.kc] -= b
        return h

    def project(self, u: np.ndarray) -> tuple:
        """(P u, ||u - P u|| / ||u||) of the real samples u, the defect by Parseval and nan for u = 0: evolve's
        projection, which keeps the xi = 0 column (`forward` zeroes it) and transforms every column."""
        b = self.gather(rfft2(u, out=self.half))
        self.half[self.rows, : self.kc] = 0  # what is left is what P removed
        with np.errstate(over="ignore", invalid="ignore"):  # a huge field, or a zero one
            removed, kept = weighted_sq_sum(self.grid, 1.0, self.half), weighted_sq_sum(self.grid, 1.0, b)
            return b, float(np.sqrt(np.divide(removed, removed + kept)))


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
            raise InputError(f"field shape {v.shape} does not match grid ({self.grid.ny}, {self.grid.nx})")
        if not np.all(np.isfinite(v)):
            raise InputError("field contains non-finite entries")
        object.__setattr__(self, "values", v)


@dataclass(frozen=True)
class Spectrum:
    """Complex DFT coefficient array on a grid; same layout as Field."""

    grid: Grid
    coeffs: np.ndarray = field(repr=False)

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=np.complex128)
        if c.shape != (self.grid.ny, self.grid.nx):
            raise InputError(f"spectrum shape {c.shape} does not match grid ({self.grid.ny}, {self.grid.nx})")
        object.__setattr__(self, "coeffs", c)


def forward(f: Field) -> Spectrum:
    """Unnormalized forward DFT."""
    return Spectrum(f.grid, np.fft.fft2(f.values))


def inverse(s: Spectrum) -> Field:
    """Inverse DFT with the 1/(nx*ny) factor; returns the real part."""
    return Field(s.grid, np.real(np.fft.ifft2(s.coeffs)))


def apply_multiplier(s: Spectrum, symbol) -> Spectrum:
    """Pointwise multiply coefficients by symbol(xi, eta).

    `symbol` is a callable, called on xi as a (1, nx) row and eta as a (ny, 1)
    column, or a precomputed (ny, nx) array.  Non-finite symbol values are
    allowed only on modes whose coefficient is exactly zero; those modes map to
    zero.
    """
    g = s.grid
    sym = symbol(g.xi[None, :], g.eta[:, None]) if callable(symbol) else np.asarray(symbol)
    sym = np.broadcast_to(sym, s.coeffs.shape)
    bad = ~np.isfinite(sym)
    if bad.any():
        if np.any(bad & (s.coeffs != 0)):
            raise InputError("non-finite symbol value on a used mode")
        out = np.where(bad, 0.0, sym) * s.coeffs
    else:
        out = sym * s.coeffs
    return Spectrum(g, out)


def lp_norm(f: Field, p: float) -> float:
    """Rectangle-rule L^p norm; p = inf gives the sample max."""
    if not p > 0:
        raise InputError(f"p must be positive, got {p}")
    if np.isinf(p):
        return float(np.max(np.abs(f.values)))
    return float((np.sum(np.abs(f.values) ** p) * f.grid.cell_area) ** (1.0 / p))

