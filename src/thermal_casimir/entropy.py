"""Entropy of the fluctuating field and Nernst-theorem diagnostics.

The entropy S(z, T) = -dF/dT is obtained by Richardson-refined central
differences of the Lifshitz free energy.  A scan over a descending
temperature grid, extrapolated to T = 0 with low-order polynomial fits,
classifies each prescription as satisfying or violating the Nernst heat
theorem, with an inconclusive band in between.
"""

from __future__ import annotations

import dataclasses
import numbers
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .constants import CONSTANTS, ZETA3
from .errors import ConvergenceError, DomainError
from .lifshitz import EvaluationConfig, _free_energy_value
from .materials import Drude, PowerLawGamma
from .quadrature import L0_EDGES, kronrod_rule, kronrod_sum, split_edges

#: Engine tolerance used for entropy differences; the free-energy differences
#: being differentiated are three to four orders below the free energy itself.
ENTROPY_CONFIG = EvaluationConfig(rel_tolerance=1e-9)

#: Verdict thresholds in units of the extrapolation uncertainty.
VIOLATION_THRESHOLD = 5.0
CLEARANCE_THRESHOLD = 1.0

#: Richardson refinement of the entropy difference quotient: it has settled when
#: one halving of the step changes the estimate by less than
#: ``_RICHARDSON_REL_CHANGE``, and stops unsettled after ``_MAX_REFINEMENTS``.
_RICHARDSON_REL_CHANGE = 1e-3
_MAX_REFINEMENTS = 4

#: Relative tolerance of the zero-temperature entropy integral, and the panel
#: splits allowed to reach it.
_ZERO_T_REL_TOL = 1e-8
_MAX_LEVELS = 6

#: Cold-end fit variants: (polynomial degree, number of coldest grid points).
_FIT_VARIANTS = ((2, 12), (2, 9), (2, 6), (1, 5))


class EntropyEstimate(NamedTuple):
    """Finite-difference entropy with its convergence status."""

    value: float
    converged: bool
    refinements: int


def entropy(z, temperature, model, config=None, *, full_output=False):
    """Entropy per unit area S(z, T) = -dF/dT in J/(K m^2).

    Central differences with step h = T/50 below 1 K and max(T/50, 0.5 K)
    from 1 K up, Richardson-refined by halving the step until the estimate
    changes by less than a relative 1e-3, at most four times.  When
    refinement fails to settle, the best value is still returned and flagged
    through ``full_output``.
    """
    if not (0.0 < z < np.inf and 0.0 < temperature < np.inf):
        raise DomainError("separation and temperature must be positive and finite")
    h = temperature / 50.0 if temperature < 1.0 else max(temperature / 50.0, 0.5)
    cfg = config if config is not None else ENTROPY_CONFIG

    def derivative(step):
        upper = _free_energy_value(z, temperature + step, model, cfg)
        lower = _free_energy_value(z, temperature - step, model, cfg)
        return (upper - lower) / (2.0 * step)

    previous = derivative(h)
    best = previous
    converged = False
    refinements = 0
    for k in range(1, _MAX_REFINEMENTS + 1):
        refinements = k
        h *= 0.5
        current = derivative(h)
        richardson = (4.0 * current - previous) / 3.0
        change = abs(richardson - best) / max(abs(richardson), 1e-300)
        best = richardson
        previous = current
        if change <= _RICHARDSON_REL_CHANGE:
            converged = True
            break
    estimate = EntropyEstimate(value=-best, converged=converged, refinements=refinements)
    return estimate if full_output else estimate.value


def drude_zero_T_entropy(z, omega_p):
    """Zero-temperature entropy of the Drude prescription for a perfect lattice.

    S(z, 0) = k_B / (16 pi z^2) * Int_0^inf y dy ln[1 - g(y)^2 e^-y] with
    g = (y - sqrt(yhat^2 + y^2)) / (y + sqrt(yhat^2 + y^2)) and
    yhat = 2 z omega_p / c.  Strictly negative for every omega_p > 0.

    The integrand behaves like y ln y at the origin, as the ideal-metal l = 0
    term does, so it is integrated with the embedded Gauss-Kronrod pair on the
    engine's graded l = 0 panels.  The Kronrod sum is the result and
    |Kronrod - Gauss|, floored at the rounding level, its error estimate;
    panels are split in two until the estimate is within a relative 1e-8 of
    max(|I|, zeta(3)), and ConvergenceError, carrying the best estimate, is
    raised if it still is not after six splits.

    Parameters
    ----------
    z : float
        Separation, m.
    omega_p : float
        Plasma frequency, rad/s.
    """
    if not (0.0 < z < np.inf and 0.0 < omega_p < np.inf):
        raise DomainError("separation and plasma frequency must be positive and finite")
    y_hat = 2.0 * z * omega_p / CONSTANTS.c
    prefactor = CONSTANTS.k_B / (16.0 * np.pi * z**2)

    edges = L0_EDGES
    for _ in range(_MAX_LEVELS + 1):
        y, kronrod, gauss = kronrod_rule(edges)
        root = np.sqrt(y_hat**2 + y * y)
        g = (y - root) / (y + root)
        value, error = kronrod_sum(y * np.log1p(-(g * g) * np.exp(-y)), kronrod, gauss)
        achieved = error / max(abs(value), ZETA3)
        if achieved <= _ZERO_T_REL_TOL:
            return prefactor * value
        edges = split_edges(edges)
    raise ConvergenceError("zero-temperature entropy quadrature did not converge",
                           best_estimate=prefactor * value, achieved_tolerance=achieved)


def entropy_large_z_limit(z):
    """Large-separation limit of the Drude zero-temperature entropy.

    -k_B zeta(3) / (16 pi z^2); negative at every separation.
    """
    if not 0.0 < z < np.inf:
        raise DomainError("separation must be positive and finite")
    return -CONSTANTS.k_B * ZETA3 / (16.0 * np.pi * z**2)


@dataclass(frozen=True)
class EntropyScan:
    """Entropy samples over a descending temperature grid plus the T -> 0 verdict."""

    z: float
    temperatures: np.ndarray
    entropy_values: np.ndarray
    extrapolated_zero: float
    uncertainty: float
    verdict: str
    prescription: str
    fit_intercepts: tuple
    all_converged: bool

    def __post_init__(self):
        t = np.asarray(self.temperatures, dtype=float)
        if t.size < 2 or np.any(np.diff(t) >= 0.0):
            raise DomainError("temperature grid must be strictly descending")


def _resolve_gamma_map(model, gamma_map, residual_fraction):
    """Attach the requested relaxation map to a Drude model."""
    if not isinstance(model, Drude):
        return model
    params = model.parameters
    if isinstance(gamma_map, str):
        if gamma_map == "perfect-lattice":
            mapping = PowerLawGamma(params.gamma, params.reference_temperature)
        elif gamma_map == "residual":
            mapping = PowerLawGamma(
                params.gamma, params.reference_temperature,
                floor=residual_fraction * params.gamma,
            )
        else:
            raise DomainError(f"unknown gamma map {gamma_map!r}")
    elif gamma_map is None:
        if params.gamma_of_T is None:
            raise DomainError(
                "Nernst scan of a Drude model requires an explicit gamma(T) map"
            )
        return model
    else:
        mapping = gamma_map
    return Drude(dataclasses.replace(params, gamma_of_T=mapping))


def _extrapolate_to_zero(temperatures, values):
    """Extrapolate S(T) to T = 0 from the cold end of the grid.

    Fits low-order polynomials over several cold subsets; the spread of the
    intercepts is the extrapolation uncertainty.  Data arrive on a grid
    descending in T.
    """
    t = np.asarray(temperatures, dtype=float)[::-1]
    s = np.asarray(values, dtype=float)[::-1]
    scale = max(np.max(np.abs(s)), 1e-300)
    intercepts = []
    for degree, count in _FIT_VARIANTS:
        count = min(count, t.size)
        if count < degree + 2:
            continue
        coeffs = np.polyfit(t[:count], s[:count] / scale, degree)
        intercepts.append(float(coeffs[-1]) * scale)
    primary = intercepts[0]
    spread = max(abs(v - primary) for v in intercepts[1:]) if len(intercepts) > 1 else 0.0
    uncertainty = spread + 1e-6 * scale
    return primary, uncertainty, tuple(intercepts)


def nernst_verdict(model, z, gamma_map=None, *, t_max=300.0, t_min=1.0, points=25,
                   residual_fraction=0.1, config=None):
    """Scan S(z, T) toward T = 0 and classify the prescription.

    Parameters
    ----------
    model : MaterialResponse
    z : float
        Separation, m.
    gamma_map : str, callable or None
        For Drude models: "perfect-lattice" (relaxation vanishing at T = 0),
        "residual" (floor at ``residual_fraction`` of the reference value) or
        an explicit map T -> gamma.  Ignored for non-Drude models.
    t_max, t_min, points : float, float, int
        Log-spaced descending grid, defaults 300 K down to 1 K, 25 points;
        t_min may lie in the milli-Kelvin range (e.g. 1e-3).

    Returns
    -------
    EntropyScan
        With verdict "nernst-ok", "nernst-violated" or "inconclusive":
        violation needs |S(z, 0+)| above five times the extrapolation
        uncertainty, a pass needs it below one uncertainty.
    """
    if not 0.0 < z < np.inf:
        raise DomainError("separation must be positive and finite")
    if not (0.0 < t_min < t_max < np.inf and isinstance(points, numbers.Integral)
            and points >= 5):
        raise DomainError("need finite 0 < t_min < t_max and an integer of at least 5 "
                          "grid points")
    scan_model = _resolve_gamma_map(model, gamma_map, residual_fraction)
    temperatures = np.geomspace(t_max, t_min, points)
    estimates = [
        entropy(z, float(t), scan_model, config, full_output=True) for t in temperatures
    ]
    values = np.array([e.value for e in estimates])
    all_converged = all(e.converged for e in estimates)

    s_zero, uncertainty, intercepts = _extrapolate_to_zero(temperatures, values)
    if not all_converged:
        verdict = "inconclusive"
    elif abs(s_zero) > VIOLATION_THRESHOLD * uncertainty:
        verdict = "nernst-violated"
    elif abs(s_zero) < CLEARANCE_THRESHOLD * uncertainty:
        verdict = "nernst-ok"
    else:
        verdict = "inconclusive"

    return EntropyScan(
        z=z,
        temperatures=temperatures,
        entropy_values=values,
        extrapolated_zero=s_zero,
        uncertainty=uncertainty,
        verdict=verdict,
        prescription=scan_model.tag,
        fit_intercepts=intercepts,
        all_converged=all_converged,
    )
