"""Matsubara-summed free energy and pressure between parallel plates.

The transverse-wavevector integral of every Matsubara term is rewritten in
the dimensionless decay variable y = 2 q z, which turns each term into an
integral with an exp(-y) envelope on [y_l, infinity), y_l = 2 xi_l z / c.

Each term is integrated with the embedded Gauss-Kronrod pair (7-point
Gauss inside 15-point Kronrod) on every panel: one evaluation of the
integrand on the Kronrod nodes gives both sums.  The Kronrod sum is the
result; its difference from the Gauss sum is the quadrature error estimate.
The sum stops once a ratio test on the Kronrod terms estimates the remaining
tail below the tolerance; the test runs once on each block of terms, carrying
the running sum from block to block.  That tail estimate is added to the
quadrature estimate.  If the total misses the tolerance, every panel is split
once more and the sum is repeated, up to three levels.

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
from collections import namedtuple
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .constants import CONSTANTS, ZETA3
from .errors import ConvergenceError, DomainError
from .quadrature import L0_EDGES, kronrod_rule, split_edges

# The l = 0 term uses the graded L0_EDGES; terms with l >= 1 are analytic in y
# and use the plain set.
_LK_EDGES = (0.0, 0.0625, 0.25, 1.0, 2.0, 3.5, 5.5, 8.0, 12.0, 17.0, 23.0, 31.0, 40.0)
_MAX_TERMS = 2_000_000
# Consecutive negligible terms required before the sum may stop.
_TAIL_TERMS = 3
# Integrand nodes per block of l >= 1 terms; bounds the work done past the stop.
_BLOCK_NODES = 1 << 13


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


# Kronrod nodes of one refinement level for l = 0 and l >= 1; each weight matrix
# holds the Kronrod weights in row 0 and the embedded Gauss weights in row 1, so
# ``weights @ values`` gives the (result, estimate) pair of integrals.
_Rule = namedtuple("_Rule", "l0_nodes l0_weights lk_nodes lk_weights")


@lru_cache(maxsize=None)
def _rule(level, l0_edges, lk_edges):
    """Cached rule on the given edge sets, every panel split ``level - 1`` times."""
    parts = []
    for edges in (l0_edges, lk_edges):
        for _ in range(level - 1):
            edges = split_edges(edges)
        nodes, kronrod, gauss = kronrod_rule(edges)
        parts += [nodes, np.stack((kronrod, gauss))]
    return _Rule(*parts)


def _accumulate(pair, y, decay, want_pressure):
    """Sum of both polarization integrands at the given nodes.

    Returns the free-energy integrand values and (optionally) the pressure
    integrand values, without the y / y^2 measure factors.  A polarization
    with r^2 e^-y < 0.5 at every node skips the log branch kept for r^2 -> 1.
    """
    f_val, p_val, one_minus_decay = 0.0, 0.0, None
    for r in pair:
        r2 = np.asarray(r, dtype=float) ** 2
        x = r2 * decay
        one_branch = x.max() < 0.5
        if want_pressure or not one_branch:
            if one_minus_decay is None:
                one_minus_decay = -np.expm1(-y)
            denom = one_minus_decay + (1.0 - r2) * decay
        f_val = f_val + (np.log1p(-x) if one_branch
                         else np.where(x < 0.5, np.log1p(-x), np.log(denom)))
        if want_pressure:
            p_val = p_val + x / denom
    return f_val, p_val if want_pressure else None


def _zero_term(z, l0_model, rule, want_pressure):
    """Weighted (Kronrod, Gauss) l = 0 term (carries the 1/2 Matsubara weight)."""
    y = rule.l0_nodes
    pair = l0_model.zero_frequency_reflection(y / (2.0 * z))
    f_val, p_val = _accumulate(pair, y, np.exp(-y), want_pressure)
    term_f = 0.5 * (rule.l0_weights @ (y * f_val))
    term_p = 0.5 * (rule.l0_weights @ (y * y * p_val)) if want_pressure else np.zeros(2)
    return term_f, term_p


def _positive_terms(z, temperature, model, indices, y_step, rule, want_pressure):
    """(Kronrod, Gauss) rows of term integrals for a block of l >= 1 indices."""
    idx = np.asarray(indices, dtype=float)
    xi = (2.0 * np.pi * CONSTANTS.k_B * temperature / CONSTANTS.hbar) * idx[:, None]
    y = y_step * idx[:, None] + rule.lk_nodes[None, :]
    decay = np.exp(-y)
    k_perp = np.sqrt(np.maximum((y / (2.0 * z)) ** 2 - (xi / CONSTANTS.c) ** 2, 0.0))
    pair = model.reflection(xi, k_perp, temperature)
    f_val, p_val = _accumulate(pair, y, decay, want_pressure)
    term_f = rule.lk_weights @ (y * f_val).T
    term_p = rule.lk_weights @ (y * y * p_val).T if want_pressure else np.zeros_like(term_f)
    return term_f, term_p


class _StopRule:
    """Ratio test on a row of terms that arrives block by block.

    The sum may stop at index l >= ``_TAIL_TERMS`` once ``_TAIL_TERMS``
    consecutive terms are each below tolerance times the running sum and a
    geometric extrapolation of the remaining tail from the last two terms is
    below half of it.  The tail is estimated, not bounded.  The test at l
    depends only on terms up to l, so each term is tested once: between
    blocks the rule carries the running sum and the last ``_TAIL_TERMS``
    magnitudes and flags.
    """

    def __init__(self, tolerance):
        self.tolerance, self.seen, self.total = tolerance, 0, 0.0
        # placeholders ahead of index 0, which can never stop
        self.magnitude, self.small = np.ones(_TAIL_TERMS), np.zeros(_TAIL_TERMS, dtype=bool)

    def stop_index(self, terms):
        """Index in the whole row where the sum may stop, or None."""
        running = np.add.accumulate(np.concatenate(([self.total], terms)))
        partial = np.abs(running[1:])
        fresh = np.abs(terms)
        magnitude = np.concatenate((self.magnitude, fresh))
        small = np.concatenate((self.small, fresh <= self.tolerance * partial))
        ratio = np.clip(fresh / np.maximum(magnitude[_TAIL_TERMS - 1 : -1], 1e-300), 0, 1 - 1e-9)
        run = fresh * ratio / (1.0 - ratio) <= 0.5 * self.tolerance * partial
        for shift in range(_TAIL_TERMS):
            run &= small[_TAIL_TERMS - shift : small.size - shift]
        run[: max(0, _TAIL_TERMS - self.seen)] = False
        first, self.seen, self.total = self.seen, self.seen + fresh.size, running[-1]
        self.magnitude, self.small = magnitude[-_TAIL_TERMS:], small[-_TAIL_TERMS:]
        candidates = np.flatnonzero(run)
        return first + int(candidates[0]) if candidates.size else None


def _sum_terms(z, temperature, model, l0_model, tolerance, rule, want_pressure):
    """(Kronrod, Gauss) rows of weighted terms, up to where the Kronrod sum may stop.

    The pressure rows are zero unless ``want_pressure``.
    """
    y_step = 4.0 * np.pi * CONSTANTS.k_B * temperature * z / (CONSTANTS.hbar * CONSTANTS.c)
    term_limit = _term_limit(y_step, tolerance)
    f0, p0 = _zero_term(z, l0_model, rule, want_pressure)
    chunks = [(f0[:, None], p0[:, None])]
    tests = [_StopRule(tolerance) for _ in range(1 + want_pressure)]
    cuts = [test.stop_index(row[0]) for test, row in zip(tests, chunks[0])]
    block = max(1, _BLOCK_NODES // rule.lk_nodes.size)
    for start in range(1, term_limit, block):
        indices = np.arange(start, min(term_limit, start + block))
        chunks.append(_positive_terms(z, temperature, model, indices, y_step, rule, want_pressure))
        cuts = [test.stop_index(row[0]) if cut is None else cut
                for cut, test, row in zip(cuts, tests, chunks[-1])]
        if None not in cuts:
            break
    stop = None if None in cuts else max(cuts) + 1
    return tuple(np.concatenate(rows, axis=1)[:, :stop] for rows in zip(*chunks))


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
        rule = _rule(level, L0_EDGES, _LK_EDGES)
        terms_f, terms_p = _sum_terms(z, temperature, model, l0_model, tol, rule, want_pressure)
        sum_f, gauss_f = terms_f.sum(axis=1)
        sum_p, gauss_p = terms_p.sum(axis=1)
        quad_rel = abs(sum_f - gauss_f) / max(abs(sum_f), 1e-300)
        tail_rel = _tail_fraction(terms_f[0])
        if want_pressure:
            quad_rel = max(quad_rel, abs(sum_p - gauss_p) / max(abs(sum_p), 1e-300))
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
    if not (0.0 < z < math.inf and 0.0 < temperature < math.inf):
        raise DomainError("separation and temperature must be positive and finite")
    value = -CONSTANTS.k_B * temperature * ZETA3 / (8.0 * np.pi * z**2)
    if prescription == "ideal":
        return value
    if prescription == "drude-like":
        return 0.5 * value
    raise DomainError("prescription must be 'ideal' or 'drude-like'")
