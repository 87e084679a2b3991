"""Rejected input raises one type, InputError, which is both a ValueError and a ShriraError."""

import math

import numpy as np
import pytest

from shrira import (Field, Grid, KernelSpec, PhysicsParams, apply_multiplier, forward, gn_ratio,
                    h_nu_point, kernel_spectral_oracle, lp_norm, mixed_norm, nehari_scale, oracle_nodes,
                    read_field, rescale_speed, spectral_residual, tail_exponent_fit)
from shrira.config import parse_config
from shrira.errors import InputError, ShriraError

G = Grid(32, 32, 2 * np.pi, 2 * np.pi)
F = Field(G, np.exp(-np.hypot(*G.meshgrid()) ** 2))
M2 = PhysicsParams(c=1.0, m=2)


def _corrupt_file(tmp_path):
    p = tmp_path / "nonl.field"
    p.write_bytes(b"x" * 10)
    return read_field(p)


def _underflowed_window(tmp_path):
    g = Grid(64, 64, 32.0, 32.0)
    X, Y = g.meshgrid()
    return tail_exponent_fit(Field(g, np.exp(-(X**2)) * (1 + Y**2) ** -1.5), "x", (8.0, 12.0))


def _used_mode_inf(tmp_path):
    return apply_multiplier(forward(Field(G, np.ones((32, 32)))),
                            lambda xi, eta: np.where((xi == 0) & (eta == 0), np.inf, 1.0))


@pytest.mark.parametrize("trigger, message", [
    (lambda tmp_path: parse_config('{"grid": {"nz": 4}}'), r"grid: unknown key\(s\) nz"),
    (_corrupt_file, "missing header line"),
    (lambda tmp_path: h_nu_point(KernelSpec(), 0.0, 0.0), "kernel is singular at the origin"),
    (lambda tmp_path: spectral_residual(Field(G, np.zeros((32, 32))), M2), "residual of a zero field"),
    (lambda tmp_path: gn_ratio(Field(G, np.zeros((32, 32))), 1.0), "denominator norm of the GN ratio"),
    (lambda tmp_path: nehari_scale(Field(G, -1.0 - np.cos(G.meshgrid()[0]) ** 2), M2),
     "no positive Nehari rescaling"),
    (_used_mode_inf, "non-finite symbol value on a used mode"),
    (_underflowed_window, "fewer than 3 samples in the window are above 1e-13"),
    (lambda tmp_path: Grid(6, 32, 1.0, 1.0), "^nx: must be even and >= 8, got 6$"),
    (lambda tmp_path: oracle_nodes(0.0, G, [(math.inf, 0.0)]), r"^point \(inf, 0.0\) lies outside the oracle"),
    (lambda tmp_path: lp_norm(F, math.nan), "^p must be positive, got nan$"),
    (lambda tmp_path: mixed_norm(F, 0, 2), "^q and r must be positive, got q = 0, r = 2$"),
    (lambda tmp_path: mixed_norm(F, -1, 2), "^q and r must be positive, got q = -1, r = 2$"),
    (lambda tmp_path: mixed_norm(F, 2, math.nan), "^q and r must be positive, got q = 2, r = nan$"),
    (lambda tmp_path: rescale_speed(F, 1, 2, m=1.0), "^m: .* must exceed 1 and be finite, got 1.0$"),
    (lambda tmp_path: rescale_speed(F, 1, 2, m=0.5), "^m: .* must exceed 1 and be finite, got 0.5$"),
    (lambda tmp_path: rescale_speed(F, math.inf, 1.0, 2.0), "^speeds must be positive and finite$"),
    (lambda tmp_path: oracle_nodes(math.nan, G, [(0.5, 0.5)]), "^nu: .* must exceed -3/2 and be finite, got nan$"),
    (lambda tmp_path: oracle_nodes(-2.0, G, [(0.5, 0.5)]), "^nu: .* must exceed -3/2 and be finite, got -2.0$"),
    (lambda tmp_path: kernel_spectral_oracle(math.nan, G), "^nu: .* must exceed -3/2 and be finite, got nan$"),
    (lambda tmp_path: kernel_spectral_oracle(-2.0, G), "^nu: .* must exceed -3/2 and be finite, got -2.0$"),
    (lambda tmp_path: h_nu_point(KernelSpec(), math.nan, 0.0), r"^kernel point \(nan, 0.0\) is not finite$"),
    (lambda tmp_path: h_nu_point(KernelSpec(), math.inf, 1.0), r"^kernel point \(inf, 1.0\) is not finite$"),
], ids=["config_key", "corrupt_file", "kernel_origin", "zero_residual", "gn_zero_field", "nehari_no_scaling",
        "symbol_domain", "underflow_window", "grid_range", "oracle_point_inf", "lp_norm_nan", "mixed_norm_zero",
        "mixed_norm_negative", "mixed_norm_nan", "rescale_speed_m1", "rescale_speed_m_half", "rescale_speed_inf",
        "oracle_nodes_nu_nan", "oracle_nodes_nu_m2", "oracle_nu_nan", "oracle_nu_m2", "kernel_point_nan",
        "kernel_point_inf"])
def test_rejected_input_raises_input_error(tmp_path, trigger, message):
    with pytest.raises(InputError, match=message) as exc:
        trigger(tmp_path)
    assert isinstance(exc.value, ValueError) and isinstance(exc.value, ShriraError)
