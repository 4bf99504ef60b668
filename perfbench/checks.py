"""Correctness checks whose failures feed ``failed_frac``.

Each check returns a list of problems; an operation fails when the list is
non-empty.  None of them may be loosened to make a run pass.
"""

from __future__ import annotations

import math

import numpy as np

# Apery's constant zeta(3), the sum over n of 1/n^3.
ZETA3 = 1.2020569031595942


def ideal_metal_reference(z, temperature, constants):
    """Closed-form ideal-metal free energy and pressure, independent of the engine.

    With s = 4 pi k_B T z / (hbar c), q = exp(-n s), G0 = q/(1-q),
    G1 = q/(1-q)^2 and G2 = q(1+q)/(1-q)^3:

        F = k_B T / (8 pi z^2) * 2 [-zeta(3)/2 - sum(s G1/n^2 + G0/n^3)]
        P = -k_B T / (8 pi z^3) * 2 [zeta(3) + sum(s^2 G2/n + 2 s G1/n^2 + 2 G0/n^3)]

    The n-sum runs until q^n is below 1e-26.
    """
    s = 4.0 * math.pi * constants.k_B * temperature * z / (constants.hbar * constants.c)
    n = np.arange(1.0, math.ceil(60.0 / s) + 2.0)
    q = np.exp(-n * s)
    g0 = q / (1.0 - q)
    g1 = q / (1.0 - q) ** 2
    g2 = q * (1.0 + q) / (1.0 - q) ** 3
    prefactor = constants.k_B * temperature / (8.0 * math.pi * z**2)
    free = prefactor * 2.0 * (-0.5 * ZETA3 - np.sum(s * g1 / n**2 + g0 / n**3))
    press = -prefactor / z * 2.0 * (
        ZETA3 + np.sum(s * s * g2 / n + 2.0 * s * g1 / n**2 + 2.0 * g0 / n**3)
    )
    return float(free), float(press)


def check_grid_point(tag, result, reference, tol):
    """Problems with one room-grid result at the reference's (z, T).

    ``reference`` is the closed-form ideal-metal (F, P).  The ideal metal
    must match it within the requested tolerance; every other model must be
    attractive, bounded by it (passivity, |r| <= 1) within that tolerance,
    and report an error estimate within the tolerance.
    """
    f_ref, p_ref = reference
    f, p = result.free_energy_per_area, result.pressure
    problems = []
    if not (math.isfinite(f) and math.isfinite(p)):
        return [f"{tag}: non-finite result F={f!r} P={p!r}"]
    if result.quadrature_error_estimate > tol:
        problems.append(f"{tag}: error estimate {result.quadrature_error_estimate:g} > {tol:g}")
    if tag == "ideal":
        for label, value, ref in (("F", f, f_ref), ("P", p, p_ref)):
            rel = abs(value - ref) / abs(ref)
            if rel > tol:
                problems.append(f"ideal: {label} off the closed form by {rel:.3g} > {tol:g}")
        return problems
    if not (f < 0.0 and p < 0.0):
        problems.append(f"{tag}: not attractive (F={f:.6e}, P={p:.6e})")
    if abs(f) > abs(f_ref) * (1.0 + tol):
        problems.append(f"{tag}: |F| exceeds the ideal-metal bound")
    if abs(p) > abs(p_ref) * (1.0 + tol):
        problems.append(f"{tag}: |P| exceeds the ideal-metal bound")
    return problems


def check_verdict(label, scan, expected):
    """Problems with one Nernst scan: its verdict must be the expected one."""
    if scan.verdict != expected:
        return [f"{label}: verdict {scan.verdict!r}, expected {expected!r}"]
    return []


def check_cli_output(name, returncode, output, reference):
    """Problems with one CLI invocation.

    It must exit 0, write a table headed by its command name and, as
    acceptance clause 9 requires, repeat the bytes of the first invocation
    of the same command in the run (``reference``, None for the first).
    """
    if returncode != 0:
        return [f"{name}: exit code {returncode}"]
    problems = []
    if not output.startswith(f"# thermal-casimir {name}\n".encode()):
        problems.append(f"{name}: output does not start with its table header")
    if reference is not None and output != reference:
        problems.append(f"{name}: output differs from the first invocation")
    return problems
