"""Shared fixtures: the expensive ground-state solves are computed once."""

import math
import tracemalloc

import numpy as np
import pytest

from shrira import (
    Grid,
    PhysicsParams,
    SolverConfig,
    petviashvili,
)

PI = math.pi


@pytest.fixture(scope="session")
def params_m2():
    return PhysicsParams(c=1.0, m=2)


@pytest.fixture(scope="session")
def ground_state_256(params_m2):
    """Criterion-1 run: c=1, m=2, 256^2 on [-32pi, 32pi]^2, plus wall time."""
    import time

    grid = Grid(256, 256, 64 * PI, 64 * PI)
    cfg = SolverConfig(max_iter=500)
    t0 = time.perf_counter()
    field, report = petviashvili(cfg, params_m2, grid)
    elapsed = time.perf_counter() - t0
    return field, report, elapsed


@pytest.fixture(scope="session")
def ground_state_fine(params_m2):
    """Well-resolved solve (cutoff ~10.7) for identity checks: 512^2 on [-12pi, 12pi]^2."""
    grid = Grid(512, 512, 24 * PI, 24 * PI)
    field, report = petviashvili(SolverConfig(), params_m2, grid)
    return field, report


@pytest.fixture(scope="session")
def ground_state_big(params_m2):
    """Criterion-5 run: 512^2 on [-64pi, 64pi]^2."""
    grid = Grid(512, 512, 128 * PI, 128 * PI)
    field, report = petviashvili(SolverConfig(), params_m2, grid)
    return field, report


@pytest.fixture(scope="session")
def small_wave(params_m2):
    """Quick converged wave for CLI and io tests: 64^2 on [-8pi, 8pi]^2."""
    grid = Grid(64, 64, 16 * PI, 16 * PI)
    field, report = petviashvili(SolverConfig(), params_m2, grid)
    return field, report


def traced_peak(fn) -> int:
    """The peak bytes that tracemalloc traces while fn() runs."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def spectral_indices(grid):
    """Signed integer indices (jx, jy) of every entry of the full (ny, nx) DFT layout."""
    jx = np.rint(np.fft.fftfreq(grid.nx) * grid.nx).astype(int)
    jy = np.rint(np.fft.fftfreq(grid.ny) * grid.ny).astype(int)
    return np.meshgrid(jx, jy, indexing="xy")


def dealias_band(n, m):
    """The largest K with (ceil(m) + 1) K < n, found by search: then u^m of modes |j| <= K,
    reaching |j| <= m K, sends no alias onto |j| <= K (Orszag's rule, 2/3 at m = 2)."""
    K = 0
    while (math.ceil(m) + 1) * (K + 1) < n:
        K += 1
    return K


def galerkin_block(grid, m):
    """Full-layout mask of the Galerkin block of m, by definition: |j| <= dealias_band(n, m) on
    each axis."""
    jx, jy = spectral_indices(grid)
    return (np.abs(jx) <= dealias_band(grid.nx, m)) & (np.abs(jy) <= dealias_band(grid.ny, m))


def kept_modes(grid, m):
    """Full-layout mask of the modes kept for u^m: the Galerkin block without jx = 0."""
    return galerkin_block(grid, m) & (spectral_indices(grid)[0] != 0)


def random_field(grid, rng, band_limit=True):
    """Smooth random band-limited field with zero mean, unit-ish amplitude.

    band_limit keeps the band of m = 2, |j| <= dealias_band(n, 2) on each axis, the xi = 0
    column included."""
    coeffs = rng.standard_normal((grid.ny, grid.nx)) + 1j * rng.standard_normal(
        (grid.ny, grid.nx)
    )
    jx, jy = spectral_indices(grid)
    damp = np.exp(-0.3 * (np.abs(jx) + np.abs(jy)))
    coeffs *= damp
    if band_limit:
        coeffs[~galerkin_block(grid, 2)] = 0.0
    vals = np.real(np.fft.ifft2(coeffs))
    scale = np.max(np.abs(vals))
    from shrira import Field

    return Field(grid, vals / scale if scale > 0 else vals)
