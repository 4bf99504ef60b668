"""Matsubara-summed free energy and pressure between parallel plates.

The transverse-wavevector integral of every Matsubara term is rewritten in
the dimensionless decay variable y = 2 q z, which turns each term into an
integral with an exp(-y) envelope on [y_l, infinity), y_l = 2 xi_l z / c.

Each term is integrated in one pass on two composite Gauss-Legendre rules
at once: the integrand is evaluated on the nodes of a fine rule and of the
coarse rule with half as many panels, stacked in one array, and the two
weight vectors give a (fine, coarse) pair of integrals.  The fine sum is
the result; its difference from the coarse sum is the quadrature error
estimate.  The sum stops once a ratio test on the fine terms estimates the
remaining tail below the tolerance; that tail estimate is added to the
quadrature estimate.  If the total misses the tolerance, every panel is
split once more and the sum is repeated, up to three levels.

Free energy and pressure come from the same pass:

    F = k_B T / (8 pi z^2) * sum_l w_l Int y   [ln(1 - r^2 e^-y)]
    P = -k_B T / (8 pi z^3) * sum_l w_l Int y^2 [r^2 e^-y / (1 - r^2 e^-y)]

with w_0 = 1/2, w_l = 1 otherwise, and both polarizations summed inside the
brackets.  The pressure integrand is the analytic z-derivative taken before
the change of variables, so no finite differencing is involved.

Everything here is a pure function of immutable inputs; term blocks are
always reduced in Matsubara-index order, so results are bit-reproducible
for a fixed configuration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import CONSTANTS, ZETA3
from .errors import ConvergenceError, DomainError
from .quadrature import L0_EDGES, panel_rule, split_edges

# The l = 0 term uses the graded L0_EDGES; terms with l >= 1 are analytic in y
# and use the plain set.
_LK_EDGES = (0.0, 0.0625, 0.25, 1.0, 2.0, 3.5, 5.5, 8.0, 12.0, 17.0, 23.0, 31.0, 40.0)
_PANEL_ORDER = 8
_MAX_TERMS = 2_000_000
# Consecutive negligible terms required before the sum may stop.
_TAIL_TERMS = 3
# Integrand nodes per block of l >= 1 terms; bounds the work done past the stop.
_BLOCK_NODES = 1 << 14


@dataclass(frozen=True)
class EvaluationConfig:
    """Numerical controls for the Matsubara evaluation.

    ``rel_tolerance`` is the target relative accuracy of the summed free
    energy and pressure, in (0, 1e-2].
    """

    rel_tolerance: float = 1e-7

    def __post_init__(self):
        if not (0.0 < self.rel_tolerance <= 1e-2):
            raise DomainError("rel_tolerance must lie in (0, 1e-2]")


DEFAULT_CONFIG = EvaluationConfig()


@dataclass(frozen=True)
class LifshitzResult:
    """Free energy per unit area and pressure at one (z, T) point.

    ``terms_used`` counts Matsubara terms including l = 0;
    ``quadrature_error_estimate`` is relative and includes the estimated
    truncation remainder of the sum; ``zero_frequency_share`` is the fraction
    of the free energy contributed by the l = 0 term.
    """

    z: float
    temperature: float
    model_tag: str
    free_energy_per_area: float
    pressure: float
    terms_used: int
    quadrature_error_estimate: float
    zero_frequency_share: float
    provenance: str = ""


def _stacked_rule(edges, level):
    """Fine (edges split ``level`` times) then coarse (``level - 1``) nodes."""
    coarse = np.asarray(edges, dtype=float)
    for _ in range(level - 1):
        coarse = split_edges(coarse)
    fine_nodes, fine_weights = panel_rule(split_edges(coarse), _PANEL_ORDER)
    coarse_nodes, coarse_weights = panel_rule(coarse, _PANEL_ORDER)
    return np.concatenate((fine_nodes, coarse_nodes)), (fine_weights, coarse_weights)


class _Rule:
    """Stacked fine/coarse nodes of one refinement level for l = 0 and l >= 1."""

    def __init__(self, level):
        self.l0_nodes, self.l0_weights = _stacked_rule(L0_EDGES, level)
        self.lk_nodes, self.lk_weights = _stacked_rule(_LK_EDGES, level)


def _fine_coarse(values, weights):
    """(fine, coarse) integrals of integrand values on stacked nodes (last axis)."""
    fine_weights, coarse_weights = weights
    split = fine_weights.size
    return np.stack((values[..., :split] @ fine_weights, values[..., split:] @ coarse_weights))


def _accumulate(pair, y, decay, want_pressure):
    """Sum of both polarization integrands at the given nodes.

    Returns the free-energy integrand values and (optionally) the pressure
    integrand values, without the y / y^2 measure factors.
    """
    f_val = np.zeros_like(y)
    p_val = np.zeros_like(y) if want_pressure else None
    for r in pair:
        r2 = np.asarray(r, dtype=float) ** 2
        x = r2 * decay
        denom = -np.expm1(-y) + (1.0 - r2) * decay
        f_val += np.where(x < 0.5, np.log1p(-x), np.log(denom))
        if want_pressure:
            p_val += x / denom
    return f_val, p_val


def _zero_term(z, l0_model, rule, want_pressure):
    """Weighted (fine, coarse) l = 0 term (carries the 1/2 Matsubara weight)."""
    y = rule.l0_nodes
    pair = l0_model.zero_frequency_reflection(y / (2.0 * z))
    f_val, p_val = _accumulate(pair, y, np.exp(-y), want_pressure)
    term_f = 0.5 * _fine_coarse(y * f_val, rule.l0_weights)
    term_p = 0.5 * _fine_coarse(y * y * p_val, rule.l0_weights) if want_pressure else np.zeros(2)
    return term_f, term_p


def _positive_terms(z, temperature, model, indices, y_step, rule, want_pressure):
    """(fine, coarse) rows of term integrals for a block of l >= 1 indices."""
    idx = np.asarray(indices, dtype=float)
    xi = (2.0 * np.pi * CONSTANTS.k_B * temperature / CONSTANTS.hbar) * idx[:, None]
    y = y_step * idx[:, None] + rule.lk_nodes[None, :]
    decay = np.exp(-y)
    k_perp = np.sqrt(np.maximum((y / (2.0 * z)) ** 2 - (xi / CONSTANTS.c) ** 2, 0.0))
    pair = model.reflection(xi, k_perp, temperature)
    f_val, p_val = _accumulate(pair, y, decay, want_pressure)
    term_f = _fine_coarse(y * f_val, rule.lk_weights)
    term_p = np.zeros_like(term_f)
    if want_pressure:
        term_p = _fine_coarse(y * y * p_val, rule.lk_weights)
    return term_f, term_p


def _stop_index(terms, tolerance):
    """First index where the ratio test lets the sum stop, or None.

    Requires ``_TAIL_TERMS`` consecutive terms each below tolerance times the
    running sum, and a geometric extrapolation of the remaining tail from the
    last two terms below half of it.  The tail is estimated, not bounded.
    The result at index l depends only on terms up to l.
    """
    magnitude = np.abs(terms)
    partial = np.abs(np.cumsum(terms))
    small = magnitude <= tolerance * partial
    ratio = magnitude[1:] / np.maximum(magnitude[:-1], 1e-300)
    ratio = np.clip(ratio, 0.0, 1.0 - 1e-9)
    tail_ok = magnitude[1:] * ratio / (1.0 - ratio) <= 0.5 * tolerance * partial[1:]

    run = small.copy()
    for shift in range(1, _TAIL_TERMS):
        run[shift:] &= small[:-shift]
    run[:_TAIL_TERMS] = False
    candidates = np.nonzero(run[1:] & tail_ok)[0]
    if candidates.size == 0:
        return None
    return int(candidates[0]) + 1


def _sum_terms(z, temperature, model, l0_model, tolerance, rule, want_pressure):
    """(fine, coarse) rows of weighted terms, up to where the fine sum may stop.

    The pressure rows are zero unless ``want_pressure``.
    """
    y_step = 4.0 * np.pi * CONSTANTS.k_B * temperature * z / (CONSTANTS.hbar * CONSTANTS.c)
    term_limit = _term_limit(y_step, tolerance)
    f0, p0 = _zero_term(z, l0_model, rule, want_pressure)
    chunks_f, chunks_p = [f0[:, None]], [p0[:, None]]
    block = max(1, _BLOCK_NODES // rule.lk_nodes.size)
    for start in range(1, term_limit, block):
        tf, tp = _positive_terms(
            z, temperature, model, np.arange(start, min(term_limit, start + block)),
            y_step, rule, want_pressure,
        )
        chunks_f.append(tf)
        chunks_p.append(tp)
        terms_f = np.concatenate(chunks_f, axis=1)
        cut = _stop_index(terms_f[0], tolerance)
        if cut is None:
            continue
        terms_p = np.concatenate(chunks_p, axis=1)
        if want_pressure:
            cut_p = _stop_index(terms_p[0], tolerance)
            if cut_p is None:
                continue
            cut = max(cut, cut_p)
        return terms_f[:, : cut + 1], terms_p[:, : cut + 1]
    return np.concatenate(chunks_f, axis=1), np.concatenate(chunks_p, axis=1)


def _tail_fraction(terms):
    """Geometric estimate of the neglected tail relative to the sum."""
    if terms.size < 2:
        return 0.0
    last, prev = abs(terms[-1]), abs(terms[-2])
    total = abs(terms.sum())
    if total == 0.0 or prev == 0.0 or last == 0.0:
        return 0.0
    ratio = min(last / prev, 1.0 - 1e-9)
    return last * ratio / (1.0 - ratio) / total


def _term_limit(y_step, tolerance):
    # Far enough out that the geometric tail of exp(-y_l) terms stays below
    # tolerance even when successive terms decay slowly (y_step << 1).
    cap_y = max(20.0, math.log(1.0 / tolerance) + math.log1p(1.0 / y_step) + 5.0)
    limit = int(math.ceil(cap_y / y_step)) + 1
    if limit > _MAX_TERMS:
        raise ConvergenceError(
            f"Matsubara sum would need more than {_MAX_TERMS} terms"
        )
    return limit


def _evaluate(z, temperature, model, config, l0_model, want_pressure):
    if not 0.0 < z < math.inf:
        raise DomainError("separation must be positive and finite")
    if not 0.0 < temperature < math.inf:
        raise DomainError("temperature must be positive and finite")
    tol = config.rel_tolerance
    for level in (1, 2, 3):
        terms_f, terms_p = _sum_terms(
            z, temperature, model, l0_model, tol, _Rule(level), want_pressure
        )
        sum_f, coarse_f = terms_f.sum(axis=1)
        sum_p, coarse_p = terms_p.sum(axis=1)
        quad_rel = abs(sum_f - coarse_f) / max(abs(sum_f), 1e-300)
        tail_rel = _tail_fraction(terms_f[0])
        if want_pressure:
            quad_rel = max(quad_rel, abs(sum_p - coarse_p) / max(abs(sum_p), 1e-300))
            tail_rel = max(tail_rel, _tail_fraction(terms_p[0]))
        estimate = quad_rel + tail_rel
        share = terms_f[0, 0] / sum_f if sum_f != 0.0 else 0.0
        if estimate <= tol:
            break
    return sum_f, sum_p, terms_f.shape[1], estimate, share, estimate <= tol


def free_energy(z, temperature, model, config=DEFAULT_CONFIG, *, zero_frequency_model=None):
    """Thermal free energy per unit area and pressure between two plates.

    Parameters
    ----------
    z : float
        Plate separation, m, strictly positive.
    temperature : float
        Temperature, K, strictly positive.
    model : MaterialResponse
        Material prescription for both plates (identical plates).
    config : EvaluationConfig
    zero_frequency_model : MaterialResponse, optional
        Use this material's zero-frequency rule instead of the model's own.
        The result is flagged as a mixed prescription in ``provenance``.

    Returns
    -------
    LifshitzResult

    Raises
    ------
    ConvergenceError
        If the panel refinement cannot reach the requested tolerance.  The
        exception carries the best estimate and the tolerance achieved.
    DomainError
        If the separation or the temperature is not positive and finite.
    """
    l0_model = model if zero_frequency_model is None else zero_frequency_model
    provenance = ""
    if zero_frequency_model is not None and zero_frequency_model is not model:
        provenance = f"mixed[xi>0:{model.tag},l0:{l0_model.tag}]"

    sum_f, sum_p, n_terms, estimate, share, converged = _evaluate(
        z, temperature, model, config, l0_model, want_pressure=True
    )
    prefactor = CONSTANTS.k_B * temperature / (8.0 * np.pi * z**2)
    result = LifshitzResult(
        z=z,
        temperature=temperature,
        model_tag=model.tag,
        free_energy_per_area=prefactor * sum_f,
        pressure=-prefactor / z * sum_p,
        terms_used=n_terms,
        quadrature_error_estimate=estimate,
        zero_frequency_share=share,
        provenance=provenance,
    )
    if not converged:
        raise ConvergenceError(
            f"quadrature did not reach tolerance {config.rel_tolerance:g} "
            f"(achieved {estimate:g})",
            best_estimate=result,
            achieved_tolerance=estimate,
        )
    return result


def _free_energy_value(z, temperature, model, config=DEFAULT_CONFIG):
    """Free energy per unit area only; skips the pressure integrand."""
    sum_f, _, _, estimate, _, converged = _evaluate(
        z, temperature, model, config, model, want_pressure=False
    )
    if not converged:
        raise ConvergenceError(
            f"quadrature did not reach tolerance {config.rel_tolerance:g} "
            f"(achieved {estimate:g})",
            best_estimate=CONSTANTS.k_B * temperature / (8.0 * np.pi * z**2) * sum_f,
            achieved_tolerance=estimate,
        )
    return CONSTANTS.k_B * temperature / (8.0 * np.pi * z**2) * sum_f


def pressure(z, temperature, model, config=DEFAULT_CONFIG, *, zero_frequency_model=None):
    """Plate-plate pressure -dF/dz in Pa; negative for attraction."""
    return free_energy(
        z, temperature, model, config, zero_frequency_model=zero_frequency_model
    ).pressure


def classical_limit(z, temperature, prescription="ideal"):
    """Large-separation (classical) free energy per unit area.

    ``"ideal"`` gives -k_B T zeta(3) / (8 pi z^2); ``"drude-like"`` carries
    only the TM zero-frequency term and is exactly half of that.
    """
    if z <= 0.0 or temperature <= 0.0:
        raise DomainError("separation and temperature must be positive")
    value = -CONSTANTS.k_B * temperature * ZETA3 / (8.0 * np.pi * z**2)
    if prescription == "ideal":
        return value
    if prescription == "drude-like":
        return 0.5 * value
    raise DomainError("prescription must be 'ideal' or 'drude-like'")
