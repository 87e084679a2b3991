"""Reference outputs of the solvers, the evolution and the kernel oracle.

The values below were recorded from the implementation that built each spectral
symbol in its own module, before they were derived from the single operator
table in `shrira.grid`; the m = 3 case was recorded from the solver loops that
ran on the whole half spectrum, before they moved to the compact dealiased
modes.  The refactors must reproduce them: iteration counts and the time step
exactly, every float to a relative tolerance of RTOL.  The move of both solver
loops from the compact mode vector onto the Galerkin block of m, the one the
stepper uses, reproduced every iteration count exactly and every value within
RTOL.

The m = 3 case was recorded again when the Galerkin block took the alias-free
rule (ceil(m) + 1) K < n in place of |j| <= n/4: its block lost the edge row
pair and column (K 12 -> 11, kc 17 -> 16), and d moved 10.6086 -> 11.2931 and
z_norm_sq 42.4345 -> 45.1724 in the same 17 iterations.  m = 3 waves shrink to
the grid scale (no ground state exists at m >= 3), so d follows the block.

Petviashvili's iteration counts and its pohozaev_r2 were recorded again when
the iteration gained its Aitken extrapolation (53 -> 28 and 26 -> 17
iterations).  r2 = 0.254 moved by 7.5e-10 relative (1.9e-12 Z^2): at that
level it depends on the path of the iterates, as Nehari's r2 shows.  d,
z_norm_sq and pohozaev_r1 are the earlier recording.

Two quantities are compared against the scale they are computed from instead
of their own size, because they sit at the roundoff floor of that scale:

* pohozaev_r1 equals -I(phi), about 1e-14 at a converged wave; it is the
  difference of terms of size z_norm_sq, so |change| <= RTOL * z_norm_sq.
* oracle samples are entries of one inverse DFT; entries near a zero crossing
  carry the roundoff of the largest one, so |change| <= RTOL * max |K|.
"""

import math

import numpy as np
import pytest

from shrira import (
    EvolveConfig,
    Grid,
    PhysicsParams,
    SolverConfig,
    evolve,
    kernel_spectral_oracle,
    nehari_descent,
    petviashvili,
)

PI = math.pi
RTOL = 1e-10
GRID = Grid(64, 64, 16 * PI, 16 * PI)
PARAMS = PhysicsParams(c=1.0, m=2)

PETVIASHVILI = dict(
    iterations=28,
    d=16.472853926903014,
    z_norm_sq=98.83712356141803,
    pohozaev_r1=-1.8627685485053013e-14,
    pohozaev_r2=0.25382152089770216,
)
NEHARI = dict(
    iterations=68,
    d=16.47285392690302,
    z_norm_sq=98.83712356141808,
    pohozaev_r1=3.396813235509667e-14,
    pohozaev_r2=0.253821528048821,
)
# m = 3 keeps |j| <= K with 4 K < n (K = 15 in x, 11 in y); the grid and the box are not square
CUBIC_GRID = Grid(64, 48, 16 * PI, 12 * PI)
PETVIASHVILI_CUBIC = dict(iterations=17, d=11.293098628405247, z_norm_sq=45.17239451362103)
EVOLVE_DT = 0.0036231884057971015
EVOLVE_MASS = [
    22.95000863057282, 22.950008630439488, 22.95000863030616, 22.950008630172817,
    22.950008630039484, 22.950008629906154, 22.950008629772814, 22.950008629639484,
    22.950008629506144, 22.95000862937281, 22.95000862923948, 22.95000862910614,
    22.9500086289728, 22.950008628839466, 22.950008628732807,
]
EVOLVE_ENERGY = [
    -6.477154703669811, -6.477154703536481, -6.477154703403162, -6.4771547032698145,
    -6.477154703136481, -6.477154703003151, -6.477154702869811, -6.477154702736481,
    -6.477154702603155, -6.477154702469811, -6.4771547023364775, -6.477154702203126,
    -6.4771547020698, -6.47715470193647, -6.477154701829797,
]
ORACLE_MAX = 28.004261677533737
ORACLE_SUM_SQ = 1203.14127298896
ORACLE_SUBSAMPLE = [
    [
        -0.015055284156371862, -0.0110115068985297, -0.0004628787692400049,
        0.011642993582046568, 0.002201334780275843, 0.011642993582046568,
        -0.0004628787692400049, -0.0110115068985297,
    ],
    [
        -0.02994036711693343, -0.0228215424556471, -0.0026661049811273763, 0.02351263782243282,
        0.019234440999061575, 0.02351263782243282, -0.0026661049811273763, -0.0228215424556471,
    ],
    [
        -0.09822299308670417, -0.08169970308551075, -0.02471575078124802, 0.08062347036254275,
        0.12487388014227374, 0.08062347036254275, -0.02471575078124802, -0.08169970308551075,
    ],
    [
        -0.30299484440870333, -0.2852025857136465, -0.1949616302602222, 0.1846382408769043,
        0.8302225227692791, 0.1846382408769043, -0.1949616302602222, -0.2852025857136465,
    ],
    [
        -0.7509741602440456, -0.7920264017792957, -0.951854829233207, -1.4416079675370241,
        28.004261677533737, -1.4416079675370241, -0.951854829233207, -0.7920264017792957,
    ],
    [
        -0.30299484440870333, -0.2852025857136465, -0.1949616302602222, 0.1846382408769043,
        0.8302225227692791, 0.1846382408769043, -0.1949616302602222, -0.2852025857136465,
    ],
    [
        -0.09822299308670417, -0.08169970308551075, -0.02471575078124802, 0.08062347036254275,
        0.12487388014227374, 0.08062347036254275, -0.02471575078124802, -0.08169970308551075,
    ],
    [
        -0.02994036711693343, -0.0228215424556471, -0.0026661049811273763, 0.02351263782243282,
        0.019234440999061575, 0.02351263782243282, -0.0026661049811273763, -0.0228215424556471,
    ],
]


def _check_solve(rep, ref):
    f = rep.functionals
    assert rep.iterations == ref["iterations"]
    assert rep.d == pytest.approx(ref["d"], rel=RTOL)
    assert f.z_norm_sq == pytest.approx(ref["z_norm_sq"], rel=RTOL)
    assert abs(f.pohozaev_r1 - ref["pohozaev_r1"]) <= RTOL * ref["z_norm_sq"]
    assert f.pohozaev_r2 == pytest.approx(ref["pohozaev_r2"], rel=RTOL)


@pytest.fixture(scope="module")
def petviashvili_wave():
    return petviashvili(SolverConfig(), PARAMS, GRID)


def test_golden_petviashvili(petviashvili_wave):
    _check_solve(petviashvili_wave[1], PETVIASHVILI)


def test_golden_petviashvili_cubic():
    _, rep = petviashvili(SolverConfig(), PhysicsParams(c=1.0, m=3), CUBIC_GRID)
    assert rep.iterations == PETVIASHVILI_CUBIC["iterations"]
    assert rep.d == pytest.approx(PETVIASHVILI_CUBIC["d"], rel=RTOL)
    assert rep.functionals.z_norm_sq == pytest.approx(PETVIASHVILI_CUBIC["z_norm_sq"], rel=RTOL)


def test_golden_nehari_descent():
    _, rep = nehari_descent(SolverConfig(method="nehari_descent", max_iter=4000), PARAMS, GRID)
    _check_solve(rep, NEHARI)


def test_golden_evolve_series(petviashvili_wave):
    rep = evolve(petviashvili_wave[0], EvolveConfig(t_end=1.0), PARAMS)
    assert rep.dt == EVOLVE_DT
    assert rep.mass_series == pytest.approx(EVOLVE_MASS, rel=RTOL)
    assert rep.energy_series == pytest.approx(EVOLVE_ENERGY, rel=RTOL)


def test_golden_kernel_oracle():
    K = kernel_spectral_oracle(0.0, Grid(32, 32, 4 * PI, 4 * PI)).values
    assert float(np.max(np.abs(K))) == pytest.approx(ORACLE_MAX, rel=RTOL)
    assert float(np.sum(K**2)) == pytest.approx(ORACLE_SUM_SQ, rel=RTOL)
    assert np.max(np.abs(K[::4, ::4] - np.array(ORACLE_SUBSAMPLE))) <= RTOL * ORACLE_MAX
