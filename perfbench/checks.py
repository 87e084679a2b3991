"""Output checks shared by the CLI runs and the traced in-process runs.

Each check returns a list of problems; an empty list means the output passed.
The bounds are the acceptance gate's (tests/test_acceptance.py), never looser.
"""

from __future__ import annotations

import math

RESIDUAL_TOL = 1e-10  # criterion 1
M_FACTOR_TOL = 1e-8  # criterion 1, Petviashvili only
NEHARI_I_TOL = 1e-8  # criterion 2, times Z^2
ACTION_TOL = 1e-8  # criterion 2, |S - G| relative to |S|
POHOZAEV_TOL = 1e-6  # criterion 2, times Z^2
IDENTITY_CASES = ("fine512",)  # criterion 2 holds only at the well-resolved run
EXPONENT_Y_RANGE = (2.5, 3.5)  # criterion 5
# The y-exponent is gated where the default fit window lies in the tail of an
# m = 2 profile: the 64pi boxes.  On the 24pi box the window ends 4.1 from the
# peak, inside the core, and the m = 3 profile is not yet algebraic there;
# both exponents are recorded, not gated.  The default-window x-exponent
# (0.92 at 256^2 against the paper's 3/2) is recorded only: criterion 5, on a
# 512^2 128pi box with a fixed window, is what gates x-decay.
DECAY_GATED_CASES = ("doc256", "nehari128")
ROW_MEAN_TOL = 1e-12  # criterion 6
SHAPE_TOL = 1e-4  # criterion 8
# (mass, energy) drift bounds at t = 1.  m = 2 keeps criterion 8's 1e-8 (it
# reads 6.0e-11 and 2.0e-10).  At m = 3 the default step is 1.77x longer (the
# 1/2 dealias rule keeps a smaller band, so the dispersive cap allows more) and
# the cubic term is stiffer, so the integrator's mass defect reads 2.8e-7 at
# t = 1.  Its mass bound is therefore 1e-6; its energy drift (2.5e-9) still
# meets 1e-8.  Criterion 8 itself gates only m = 2.
DRIFT_BOUNDS = {"m2": (1e-8, 1e-8), "m3": (1e-6, 1e-8)}
KERNEL_REL_TOL = 1e-2  # criterion 7
LIZORKIN_ROWS = 12
LIZORKIN_K0_MAX = 1.0 + 1e-12  # criterion 10


def solve(case: str, method: str, report: dict) -> list:
    problems = []
    res = report["residual_history"][-1]
    if not report["converged"]:
        problems.append(f"{case}: solver did not converge")
    if not res <= RESIDUAL_TOL:
        problems.append(f"{case}: residual {res:.3g} > {RESIDUAL_TOL:g}")
    if method == "petviashvili":
        dm = abs(report["m_factor_history"][-1] - 1.0)
        if not dm <= M_FACTOR_TOL:
            problems.append(f"{case}: |M - 1| = {dm:.3g} > {M_FACTOR_TOL:g}")
    if case in IDENTITY_CASES:
        fr = report["functionals"]
        zsq = fr["z_norm_sq"]
        if not abs(fr["I"]) <= NEHARI_I_TOL * zsq:
            problems.append(f"{case}: |I| = {abs(fr['I']):.3g} > {NEHARI_I_TOL:g} Z^2")
        if not abs(fr["S"] - fr["G"]) <= ACTION_TOL * abs(fr["S"]):
            problems.append(f"{case}: |S - G| > {ACTION_TOL:g} |S|")
        for key in ("pohozaev_r1", "pohozaev_r2"):
            if not abs(fr[key]) <= POHOZAEV_TOL * zsq:
                problems.append(f"{case}: |{key}| = {abs(fr[key]):.3g} > {POHOZAEV_TOL:g} Z^2")
    return problems


def decay(case: str, report: dict) -> list:
    problems = []
    lo, hi = EXPONENT_Y_RANGE
    ey = report["exponent_y"]
    if case in DECAY_GATED_CASES and not (ey is not None and lo <= ey <= hi):
        problems.append(f"{case}: exponent_y {ey} outside [{lo}, {hi}]")
    if report["sign_change"] is not True:
        problems.append(f"{case}: no sign change")
    if not report["zero_x_mean_defect"] <= ROW_MEAN_TOL:
        problems.append(f"{case}: row-mean defect {report['zero_x_mean_defect']:.3g}")
    return problems


def sweep(values: list, rows: list) -> list:
    """rows: dicts with at least 'value' and 'converged'."""
    got = [float(r["value"]) for r in rows]
    if got != values:
        return [f"sweep: values {got}, expected {values}"]
    return [f"sweep: c = {r['value']} did not converge" for r in rows if not int(r["converged"])]


def evolve(name: str, report: dict) -> list:
    problems = []
    shape = report["shape_error_series"][-1]
    if not shape <= SHAPE_TOL:
        problems.append(f"{name}: shape error {shape:.3g} > {SHAPE_TOL:g}")
    for key, bound in zip(("mass_drift", "energy_drift"), DRIFT_BOUNDS[name]):
        if not report[key] <= bound:
            problems.append(f"{name}: {key} {report[key]:.3g} > {bound:g}")
    return problems


def kernel(name: str, points: list, rows: list) -> tuple:
    """rows: (x, y, rel_diff) in output order.  Returns (problems, rows out of order).

    Rows are matched to their input by (x, y), so a reordering is counted but
    is not a failure.
    """
    problems = []
    if len(rows) != len(points):
        problems.append(f"{name}: {len(rows)} rows for {len(points)} points")
    by_point = {}
    for x, y, rel in rows:
        by_point.setdefault((x, y), []).append(rel)
    for p in points:
        rels = by_point.get(p, [])
        if len(rels) != 1:
            problems.append(f"{name}: point {p} has {len(rels)} rows")
        elif not rels[0] <= KERNEL_REL_TOL:
            problems.append(f"{name}: rel_diff {rels[0]:.3g} > {KERNEL_REL_TOL:g} at {p}")
    out_of_order = sum(1 for p, r in zip(points, rows) if p != (r[0], r[1]))
    return problems, out_of_order


def lizorkin(rows: list) -> list:
    """rows: (multiplier, k1, k2, sup_abs)."""
    problems = []
    if len(rows) != LIZORKIN_ROWS:
        problems.append(f"lizorkin: {len(rows)} rows, expected {LIZORKIN_ROWS}")
    for mult, k1, k2, v in rows:
        if not math.isfinite(v):
            problems.append(f"lizorkin: {mult} ({k1},{k2}) is not finite")
        elif (k1, k2) == (0, 0) and not v <= LIZORKIN_K0_MAX:
            problems.append(f"lizorkin: {mult} k=0 sup {v:.6g} > 1")
    return problems
