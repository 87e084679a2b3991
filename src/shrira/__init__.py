"""Pseudospectral solitary-wave computation for the generalized 2D Shrira equation.

The model is u_t - H(Laplacian u) + (f(u))_x = 0 with the x-directional
Hilbert transform H and f(u) = u^m.  The package computes ground-state
traveling waves (Petviashvili iteration or Nehari-manifold descent), verifies
the variational and Pohojaev identities, measures the algebraic spatial decay,
evaluates the equation's convolution kernels, and propagates profiles in time.
"""

__version__ = "0.1.0"

from .grid import Grid, Field, Spectrum, forward, inverse, apply_multiplier, lp_norm
from .functionals import (
    PhysicsParams,
    FunctionalReport,
    z_norm_sq,
    action_S,
    nehari_I,
    nehari_scale,
    pohozaev_residuals,
    gn_ratio,
    functional_report,
)
from .solver import (
    SolverConfig,
    SolveReport,
    GaussianInit,
    FileInit,
    spectral_residual,
    petviashvili,
    nehari_descent,
    solve,
    rescale_speed,
    sweep,
)
from .kernels import (KernelSpec, KernelSample, h_nu_point, kernel_spectral_oracle, oracle_nodes,
                      quadrature_vs_oracle, lizorkin_sample)
from .decay import (
    DecayReport,
    tail_exponent_fit,
    weighted_sup,
    two_box_sup_drift,
    y_weighted_seminorm,
    zero_x_mean_and_sign,
    mixed_norm,
    decay_report,
)
from .evolution import EvolveConfig, EvolveReport, step_if_rk4, evolve
from .io import read_field, write_field

__all__ = [name for name in dir() if not name.startswith("_")]
