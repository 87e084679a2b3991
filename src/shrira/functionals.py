"""Variational functionals for the solitary-wave problem.

With f(u) = u^m (or the signed power |u|^(m-1) u) and F its primitive, the
objects computed here are

    ||u||_Z^2 = c ||u||_2^2 + ||D_x^{1/2} u||_2^2 + ||D_x^{-1/2} u_y||_2^2
    S(u)      = 1/2 ||u||_Z^2 - int F(u)
    I(u)      = <S'(u), u> = ||u||_Z^2 - int u f(u)
    G(u)      = int (1/2 u f(u) - F(u))

together with the three Pohojaev residuals (testing the profile equation against
u, y*u_y and x*u_x), the unique Nehari rescaling t_u with I(t_u u) = 0, and the
anisotropic Gagliardo-Nirenberg ratio.  The three parts of ||u||_Z^2 are
weighted sums over one half spectrum (weights 1, |xi| and eta^2/|xi|, the
xi = 0 modes counting only in the mass); int u f(u) and the GN numerator are
rectangle-rule sums in physical space.  Both are spectrally accurate for the
trigonometric polynomials represented on the grid.

f is homogeneous of degree m, so u f(u) = (m+1) F(u) pointwise: int F(u) is
int u f(u) / (m+1), from the one pass `_f_integrals`.  The same homogeneity
gives t_u = (||u||_Z^2 / int u f(u))^(1/(m-1)) (`_nehari_t`, which the Nehari
descent and `verify` share) and S = (1/2 - 1/(m+1)) ||u||_Z^2 on {I = 0}.

The eta^2/|xi| part counts every mode of the spectrum, the y-Nyquist row
eta = -pi*ny/ly included, which the real field D_x^{-1/2} u_y cannot carry.
Every functional reads the same three parts, so r1 = -I holds for every field,
not only for band-limited ones.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, asdict

import numpy as np

from . import grid as sg
from .errors import InputError

P_DECAY_THRESHOLD = (3.0 + math.sqrt(5.0)) / 2.0


@dataclass(frozen=True)
class PhysicsParams:
    """Wave speed and nonlinearity.

    m is the power in f(u) = u^m; p = m + 1 is the growth index used by the
    decay theory (the proven decay range needs p >= (3+sqrt(5))/2).  Non-integer
    m requires signed_power, which switches f to |u|^(m-1) u.
    """

    c: float = 1.0
    m: float = 2.0
    signed_power: bool = False

    def __post_init__(self):
        if not 0 < self.c < math.inf:
            raise InputError(f"c: wave speed must be positive and finite, got {self.c}")
        if not 1 < self.m < math.inf:
            raise InputError(f"m: nonlinearity exponent must exceed 1 and be finite, got {self.m}")
        if not self.signed_power and not float(self.m).is_integer():
            raise InputError(f"m: non-integer m = {self.m} requires signed_power=True")

    @property
    def p(self) -> float:
        return self.m + 1.0

    def f(self, u: np.ndarray, out=None) -> np.ndarray:
        """f(u), written into `out` when given (same values either way)."""
        if self.signed_power:
            out = np.abs(u, out=out)
            out **= self.m - 1.0
            return np.multiply(out, u, out=out)
        return _int_power(u, int(self.m), out)


def _int_power(u: np.ndarray, n: int, out=None) -> np.ndarray:
    """u^n (n >= 2) by square-and-multiply; n = 2 is u * u, as numpy computes u ** 2, and n = 3
    (u * u) * u, as repeated multiplication does (larger n round differently from it)."""
    # u ** n with n > 2 calls libm pow on mixed-sign arrays: ~100x slower
    out = np.multiply(u, u, out=out)
    for i, bit in enumerate(bin(n)[3:]):  # the bits after the leading one, whose square is out
        if i:
            np.multiply(out, out, out=out)
        if bit == "1":
            out *= u
    return out


@dataclass(frozen=True)
class FunctionalReport:
    z_norm_sq: float
    S: float
    I: float
    G: float
    F_int: float
    uf_int: float
    pohozaev_r1: float
    pohozaev_r2: float
    pohozaev_r3: float
    gn_ratio: float

    def to_dict(self) -> dict:
        return asdict(self)


def _energy_parts(f: sg.Field):
    """(||u||^2, ||D_x^{1/2} u||^2, ||D_x^{-1/2} u_y||^2) from one rfft2 of the field."""
    g = f.grid
    uh = sg.rfft2(f.values)
    abs_xi = np.abs(g.xi_half)
    eta2_xi = sg.divide_off_xi0(g, g.eta[:, None] ** 2, abs_xi)
    return tuple(sg.weighted_sq_sum(g, w, uh) * g.spectral_weight for w in (1.0, abs_xi, eta2_xi))


def _z_sq(params: PhysicsParams, parts) -> float:
    mass, dxh, dmy = parts
    return params.c * mass + dxh + dmy


def z_norm_sq(f: sg.Field, params: PhysicsParams) -> float:
    """Squared energy-space norm from the three spectral parts."""
    return _z_sq(params, _energy_parts(f))


def _f_integrals(u: np.ndarray, cell_area: float, params: PhysicsParams, out=None):
    """(int u f(u), int F(u)) of the samples u: one pass, int F = int u f(u) / (m+1), in `out` if given."""
    fu = params.f(u, out=out)
    uf = float(np.sum(np.multiply(u, fu, out=fu)) * cell_area)
    return uf, uf / params.p


def action_S(f: sg.Field, params: PhysicsParams) -> float:
    _, Fi = _f_integrals(f.values, f.grid.cell_area, params)
    return 0.5 * z_norm_sq(f, params) - Fi


def nehari_I(f: sg.Field, params: PhysicsParams) -> float:
    uf, _ = _f_integrals(f.values, f.grid.cell_area, params)
    return z_norm_sq(f, params) - uf


def _nehari_t(zsq: float, uf: float, m: float) -> float:
    """t_u = (||u||_Z^2 / int u f(u))^(1/(m-1)) from the two integrals: nan where int u f(u) <= 0
    (no t_u exists), inf past the double range."""
    try:
        return (zsq / uf) ** (1.0 / (m - 1.0)) if uf > 0 else math.nan
    except OverflowError:  # a float power past the double range
        return math.inf


def nehari_scale(f: sg.Field, params: PhysicsParams) -> float:
    """Unique t_u > 0 with I(t_u u) = 0, maximizing t -> S(t u), in closed form (`_nehari_t`): inf
    past the double range; a field with int u f(u) <= 0 has none and is rejected."""
    uf, _ = _f_integrals(f.values, f.grid.cell_area, params)
    if uf <= 0:
        raise InputError("int u f(u) <= 0: no positive Nehari rescaling")
    return _nehari_t(z_norm_sq(f, params), uf, params.m)


def _pohozaev(params: PhysicsParams, parts, uf: float, Fi: float):
    """(r1, r2, r3) of `pohozaev_residuals`."""
    mass, dxh, dmy = parts
    cm = params.c * mass
    return uf - _z_sq(params, parts), cm + dxh - dmy - 2.0 * Fi, cm + 2.0 * dmy - 2.0 * Fi


def pohozaev_residuals(f: sg.Field, params: PhysicsParams):
    """Absolute residuals (r1, r2) of the Nehari and y-dilation identities.

    r1 = int [-c u^2 - u*H(u_x) - (D_x^{-1/2} u_y)^2 + u f(u)]
    r2 = int [ c u^2 + u*H(u_x) - (D_x^{-1/2} u_y)^2 - 2 F(u)]
    r3 = int [ c u^2 + 2 (D_x^{-1/2} u_y)^2 - 2 F(u)]  (x-dilation; in functional_report only)

    All vanish on an exact solitary wave; for every field r1 = -I(u) and
    r1 + r2 + r3 = c ||u||^2 - (3 - m) int F(u).  int u*H(u_x) is ||D_x^{1/2} u||^2.
    """
    return _pohozaev(params, _energy_parts(f), *_f_integrals(f.values, f.grid.cell_area, params))[:2]


def _gn(f: sg.Field, p_gn: float, parts) -> float:
    if not 0.0 <= p_gn <= 2.0:
        raise InputError("gn_ratio exponent must lie in [0, 2]")
    l2, dxh, dmy = (math.sqrt(v) for v in parts)
    if l2 == 0.0 or dxh == 0.0 or dmy == 0.0:
        raise InputError("a denominator norm of the GN ratio vanishes")
    num = sg.lp_norm(f, p_gn + 2.0) ** (p_gn + 2.0)
    return num / (l2 ** (2.0 - p_gn) * dmy ** (p_gn / 2.0) * dxh ** (1.5 * p_gn))


def gn_ratio(f: sg.Field, p_gn: float) -> float:
    """Anisotropic Gagliardo-Nirenberg ratio for exponent p_gn in [0, 2]:

        ||u||_{p+2}^{p+2} / (||u||_2^{2-p} ||D_x^{-1/2}u_y||^{p/2} ||D_x^{1/2}u||^{3p/2})

    Invariant under amplitude scaling (exponents balance: 2-p + p/2 + 3p/2 = p+2).
    """
    return _gn(f, p_gn, _energy_parts(f))


def functional_report(f: sg.Field, params: PhysicsParams) -> FunctionalReport:
    """All variational diagnostics from one rfft2 and one pass over u f(u).

    The GN ratio is evaluated at p_gn = m - 1 (clipped to the lemma's [0, 2]
    range), so its numerator is the nonlinearity's own Lebesgue norm.
    """
    parts = _energy_parts(f)
    zsq = _z_sq(params, parts)
    uf, Fi = _f_integrals(f.values, f.grid.cell_area, params)
    r1, r2, r3 = _pohozaev(params, parts, uf, Fi)
    try:
        q = _gn(f, min(2.0, max(0.0, params.m - 1.0)), parts)
    except (InputError, ArithmeticError):  # p_gn is clipped: only a denominator that vanishes or overflows
        q = float("nan")
    return FunctionalReport(
        z_norm_sq=zsq,
        S=0.5 * zsq - Fi,
        I=zsq - uf,
        G=0.5 * uf - Fi,
        F_int=Fi,
        uf_int=uf,
        pohozaev_r1=r1,
        pohozaev_r2=r2,
        pohozaev_r3=r3,
        gn_ratio=q,
    )
