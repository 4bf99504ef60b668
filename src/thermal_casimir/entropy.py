"""Entropy of the fluctuating field and Nernst-theorem diagnostics.

The entropy S(z, T) = -dF/dT comes from one pass of the Matsubara engine
(:func:`.lifshitz.entropy_pass`): the free energy at T(1 + 1e-3) and
T(1 - 1e-3) on one shared set of Matsubara nodes, whose exact central
difference is S, with an absolute error figure (quadrature and summation
parts of the difference sums, the bound on the entropy terms past the cut,
a rounding floor and the step error).  A scan over a descending temperature
grid, extrapolated to T = 0 with low-order polynomial fits, classifies each
prescription as satisfying or violating the Nernst heat theorem, with an
inconclusive band in between.
"""

from __future__ import annotations

import dataclasses
import numbers
from dataclasses import dataclass

import numpy as np

from . import lifshitz
from .constants import CONSTANTS, ZETA3
from .errors import DomainError
from .lifshitz import ENTROPY_CONFIG
from .materials import Drude, Plasma, PowerLawGamma
from .quadrature import L0_EDGES, kronrod_rule, kronrod_sum, refine, split_edges

#: Verdict thresholds in units of the extrapolation uncertainty.
VIOLATION_THRESHOLD = 5.0
CLEARANCE_THRESHOLD = 1.0

#: Relative tolerance of the zero-temperature entropy integral, and the
#: refinement levels allowed to reach it (up to six splits of every panel).
_ZERO_T_REL_TOL = 1e-8
_ZERO_T_LEVELS = 7

#: Floor of the "residual" gamma map as a fraction of the reference
#: relaxation, when no ``residual_fraction`` is given.
RESIDUAL_FRACTION = 0.1

#: Cold-end fit variants: (polynomial degree, number of coldest grid points).
_FIT_VARIANTS = ((2, 12), (2, 9), (2, 6), (1, 5))


def entropy(z, temperature, model, config=ENTROPY_CONFIG, *, full_output=False):
    """Entropy per unit area S(z, T) = -dF/dT in J/(K m^2).

    One engine pass (:func:`.lifshitz.entropy_pass`) evaluates the free energy
    at T(1 + 1e-3) and T(1 - 1e-3) on one shared set of Matsubara nodes and
    returns their exact central difference with an absolute error figure:
    the quadrature and summation parts of the difference sums, the bound on
    the terms past the cut, a rounding floor and the step error.  The engine
    runs at ``config`` (default ``ENTROPY_CONFIG``, 1e-9) for the free energy.
    With ``full_output`` an :class:`.lifshitz.EntropyEstimate` is returned,
    converged when the error is at most 1e-3 |S|.  Raises DomainError unless
    z and T are positive and finite, and ConvergenceError if the free energy
    misses its tolerance at every refinement level.
    """
    estimate = lifshitz.entropy_pass(z, temperature, model, config)
    return estimate if full_output else estimate.value


def drude_zero_T_entropy(z, omega_p):
    """Zero-temperature entropy of the Drude prescription for a perfect lattice.

    S(z, 0) = k_B / (16 pi z^2) * Int_0^inf y dy ln[1 - r_TE(y)^2 e^-y], the
    l = 0 TE term of the plasma model: r_TE is ``Plasma(omega_p)``'s
    zero-frequency TE amplitude at k_perp = y / (2 z), the one TE reflection
    the Drude prescription drops at T = 0.  Strictly negative for every
    omega_p > 0.

    The integrand behaves like y ln y at the origin, as the ideal-metal l = 0
    term does, so it is integrated with the embedded Gauss-Kronrod pair on the
    engine's graded l = 0 panels.  The Kronrod sum is the result and
    |Kronrod - Gauss|, floored at the rounding level, its error estimate.
    :func:`.quadrature.refine` splits every panel in two until the estimate
    is within a relative 1e-8 of max(|I|, zeta(3)), at most six times, and
    otherwise raises ConvergenceError ("zero-temperature entropy quadrature
    did not reach tolerance 1e-08 (achieved ...)") carrying the last
    estimate of S(z, 0).

    Parameters
    ----------
    z : float
        Separation, m.
    omega_p : float
        Plasma frequency, rad/s.
    """
    if not (0.0 < z < np.inf and 0.0 < omega_p < np.inf):
        raise DomainError("separation and plasma frequency must be positive and finite")
    plasma = Plasma(omega_p)
    prefactor = CONSTANTS.k_B / (16.0 * np.pi * z**2)

    def evaluate(level):
        y, kronrod, gauss = kronrod_rule(split_edges(L0_EDGES, level - 1))
        r_te = plasma.zero_frequency_reflection(y / (2.0 * z)).r_te
        value, error = kronrod_sum(y * np.log1p(-(r_te * r_te) * np.exp(-y)), kronrod, gauss)
        return prefactor * value, error / max(abs(value), ZETA3)

    return refine(evaluate, _ZERO_T_LEVELS, _ZERO_T_REL_TOL,
                  "zero-temperature entropy quadrature")[0]


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
    """Attach the requested relaxation map to a Drude model; DomainError for a
    map given to any other model, a residual fraction given with any map but
    "residual", or one outside (0, 1]."""
    if residual_fraction is not None and gamma_map != "residual":
        raise DomainError("a residual fraction goes with the 'residual' gamma map only")
    if not isinstance(model, Drude):
        if gamma_map is not None:
            raise DomainError(f"model {model.tag!r} does not use a gamma map")
        return model
    params = model.parameters
    if isinstance(gamma_map, str):
        if gamma_map == "perfect-lattice":
            mapping = PowerLawGamma(params.gamma)
        elif gamma_map == "residual":
            fraction = RESIDUAL_FRACTION if residual_fraction is None else residual_fraction
            if not 0.0 < fraction <= 1.0:
                raise DomainError("residual fraction must lie in (0, 1]")
            mapping = PowerLawGamma(params.gamma, floor=fraction * params.gamma)
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
    descending in T, of at least 5 points, so every variant has degree + 2.
    """
    t = np.asarray(temperatures, dtype=float)[::-1]
    s = np.asarray(values, dtype=float)[::-1]
    scale = max(np.max(np.abs(s)), 1e-300)
    intercepts = [float(np.polyfit(t[:count], s[:count] / scale, degree)[-1]) * scale
                  for degree, count in _FIT_VARIANTS]
    primary = intercepts[0]
    spread = max(abs(v - primary) for v in intercepts[1:])
    uncertainty = spread + 1e-6 * scale
    return primary, uncertainty, tuple(intercepts)


def nernst_verdict(model, z, gamma_map=None, *, t_max=300.0, t_min=1.0, points=25,
                   residual_fraction=None, config=ENTROPY_CONFIG):
    """Scan S(z, T) toward T = 0 and classify the prescription.

    Parameters
    ----------
    model : MaterialResponse
    z : float
        Separation, m.
    gamma_map : str, callable or None
        For Drude models: "perfect-lattice" (relaxation vanishing at T = 0),
        "residual" (floor at ``residual_fraction``, in (0, 1], of the
        reference value) or an explicit map T -> gamma.  DomainError for a
        map given to any other model.
    residual_fraction : float, optional
        Only with "residual" (DomainError otherwise); ``RESIDUAL_FRACTION``
        (0.1) when omitted.
    t_max, t_min, points : float, float, int
        Log-spaced descending grid, defaults 300 K down to 1 K, 25 points;
        t_min may lie in the milli-Kelvin range (e.g. 1e-3).
    config : EvaluationConfig
        Engine tolerance of every entropy pass (default ``ENTROPY_CONFIG``).

    Returns
    -------
    EntropyScan
        With verdict "nernst-ok", "nernst-violated" or "inconclusive":
        violation needs |S(z, 0+)| above five times the extrapolation
        uncertainty, a pass needs it below one uncertainty.
    """
    if not (0.0 < t_min < t_max < np.inf and isinstance(points, numbers.Integral)
            and points >= 5):
        raise DomainError("need finite 0 < t_min < t_max and an integer of at least 5 "
                          "grid points")
    # the engine's point check, before a missing gamma map is reported
    lifshitz._check_point(z, t_max)
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
