"""Matsubara-summed free energy and pressure between parallel plates.

The transverse-wavevector integral of every Matsubara term is rewritten in
the dimensionless decay variable y = 2 q z, which turns each term into an
integral with an exp(-y) envelope on [y_l, infinity), y_l = l * y_step with
y_step = 4 pi k_B T z / (hbar c).

Each term is integrated with the embedded Gauss-Kronrod pair (7-point
Gauss inside 15-point Kronrod) on every panel: one evaluation of the
integrand on the Kronrod nodes gives both sums.  The Kronrod sum is the
result; its difference from the Gauss sum is the quadrature error estimate.

The sum over l has one path at every temperature:

* terms l < L are summed exactly;
* the terms l >= L become an integral over continuous l, taken in
  eta = l * y_step on Kronrod panels over [L y_step, y_max], graded
  geometrically near the lower end, plus Gregory's endpoint corrections
  (Euler-Maclaurin without derivatives) formed from the exact terms
  l = L, ..., L + 7;
* the cut y_max is where the tail of the ideal-metal majorant falls below a
  share of the tolerance.  |r| <= 1 and both integrands grow with r^2, so
  the closed-form tail of the r = 1 terms bounds everything the cut drops.

L starts at ``_EXACT_TERMS`` and doubles until the last Gregory correction
fits its share of the tolerance (finer panels cannot shrink it), for as long
as the integral needs fewer term evaluations than the terms it replaces;
otherwise every term up to y_max is summed exactly and the integral is empty,
as always at high temperature or large separation.  The integral at an L is
taken only if the correction fits that share of a provable bound on |sum|,
the terms so far plus the majorant tail of the rest, so none is computed
that the check against its own sum is sure to reject.

The relative error estimate has three parts: quadrature (Kronrod minus
Gauss, on the terms and on the integral), summation (the last Gregory
correction used) and truncation (the majorant bound beyond y_max).  If the
total misses the tolerance, every panel is split once more and the sum is
repeated, up to three levels (:func:`.quadrature.refine`).

Free energy and pressure come from the same pass:

    F = k_B T / (8 pi z^2) * sum_l w_l Int y   [ln(1 - r^2 e^-y)]
    P = -k_B T / (8 pi z^3) * sum_l w_l Int y^2 [r^2 e^-y / (1 - r^2 e^-y)]

with w_0 = 1/2, w_l = 1 otherwise, and both polarizations summed inside the
brackets.  The pressure integrand is the analytic z-derivative taken before
the change of variables, so no finite differencing is involved.

The engine's other mode is the entropy pass (:func:`entropy_pass`).  It makes
L, the gate and the cut once, and takes every F term integral (exact terms,
Gregory terms, tail nodes at continuous l) at T(1 + delta) and T(1 - delta)
on the same l values, y-offsets and l-space weights.  The l = 0 term does
not depend on T and enters only through the k_B T prefactor.  The result is
S = -(F+ - F-) / (2 delta T), the exact central difference of one fixed
discretization, with its own error figure.

Everything here is a pure function of immutable inputs, reduced in a fixed
order, so results are bit-reproducible for a fixed configuration.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .constants import CONSTANTS, ZETA3
from .errors import DomainError
from .quadrature import L0_EDGES, kronrod_rule, refine, split_edges

# Panels in the offset y - y_l of the terms with l >= 1 (the l = 0 term uses
# L0_EDGES).  A term is analytic in the offset, but near offset 0 it varies on
# the scale of y_l (its y ln y near-singularity lies y_l below) and of the skin
# scale 2 z omega_p / c, which are small at low T and at sub-nm z; so the first
# panels are graded by factors of 4 down to 1/256, as L0_EDGES is.  Past y = 1
# the exp(-y) envelope is smooth and the panels widen to 2.5, 5, 10 and 20:
# 150 nodes per term.
_LK_EDGES = (0.0, 1 / 256, 1 / 64, 1 / 16, 1 / 4, 1.0, 2.5, 5.0, 10.0, 20.0, 40.0)
# First L: terms l < L are summed exactly, the rest by the tail integral.
_EXACT_TERMS = 16
# Gregory coefficients G_1 .. G_8 (1/ln(1+x) - 1/x = sum_k G_(k+1) x^k): the
# sum over l >= L exceeds the integral from L by sum_k G_(k+1) Delta^k f_L.
_GREGORY = (1 / 2, -1 / 12, 1 / 24, -19 / 720, 3 / 160, -863 / 60480, 275 / 24192,
            -33953 / 3628800)
# Panel edges of the tail integral in eta past the geometric grading, which
# doubles the panel width from L * y_step up to the first edge here.  Sized so
# that low-temperature calls stay at level 1: doubling all the way to 64 is too
# coarse for a direct-sum check at tol 1e-9, and without the edge at 12 the
# |K - G| of the [8, 16] panel overstates the error of the entropy difference
# sum D at low T by orders of magnitude, forcing a second level.
_ETA_EDGES = (1.0, 2.0, 4.0, 8.0, 12.0, 16.0, 24.0, 32.0, 48.0, 64.0)
# Share of the tolerance allowed for the cut at y_max and for the last
# Gregory correction.
_SUM_SHARE = 1e-2
# Integrand nodes evaluated at once; bounds the working set of a long sum.
_CHUNK_NODES = 1 << 13
# Refinement levels tried: every panel is split up to twice.
_LEVELS = 3
# Relative temperature step delta of the entropy pass, the rounding level of
# its sums (D carries at most about _ENTROPY_ROUNDING |F| / delta of rounding)
# and the share of |S| its error must reach before a level is final.
_ENTROPY_STEP = 1e-3
_ENTROPY_ROUNDING = 4.0 * np.finfo(float).eps
_ENTROPY_REL_ERROR = 1e-3


def _gregory_weights():
    """Weights on f_L .. f_(L+7) of all Gregory corrections and of the last one."""
    weights = np.zeros(len(_GREGORY))
    for order, coefficient in enumerate(_GREGORY):
        last = np.array([coefficient * (-1) ** (order - j) * math.comb(order, j)
                         for j in range(order + 1)])
        weights[: order + 1] += last
    return weights, last


_GREGORY_WEIGHTS, _GREGORY_LAST = _gregory_weights()


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

    ``terms_used`` counts the term integrals evaluated: the exact Matsubara
    terms including l = 0 plus the nodes of the tail integral over continuous
    l (a deterministic function of the inputs); ``quadrature_error_estimate``
    is relative and adds three parts: quadrature (Kronrod minus Gauss),
    summation (the last Gregory correction) and truncation (a bound on the
    tail beyond the cut); ``zero_frequency_share`` is the fraction of the
    free energy contributed by the l = 0 term.
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
def _rule(level):
    """Cached rule on L0_EDGES and _LK_EDGES, every panel split ``level - 1`` times."""
    parts = []
    for edges in (L0_EDGES, _LK_EDGES):
        nodes, kronrod, gauss = kronrod_rule(split_edges(edges, level - 1))
        parts += [nodes, np.stack((kronrod, gauss))]
    return _Rule(*parts)


def _accumulate(pair, y, decay, want_pressure):
    """Sum of both polarization integrands at the given nodes.

    Returns the free-energy integrand values and (optionally) the pressure
    integrand values, without the y / y^2 measure factors.  The free-energy
    integrand is log1p(-x), x = r^2 e^-y, at every node: 1 - x >= 1 - e^-y,
    so rounding x costs at most about eps (1 + y) absolute in y ln(1 - x).
    """
    f_val, p_val = 0.0, 0.0
    one_minus_decay = -np.expm1(-y) if want_pressure else None
    for r in pair:
        r2 = np.asarray(r, dtype=float) ** 2
        x = r2 * decay
        f_val = f_val + np.log1p(-x)
        if want_pressure:
            p_val = p_val + x / (one_minus_decay + (1.0 - r2) * decay)
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
    """(Kronrod, Gauss) rows of term integrals for l >= 1; l need not be an integer."""
    idx = np.asarray(indices, dtype=float)
    xi = (2.0 * np.pi * CONSTANTS.k_B * temperature / CONSTANTS.hbar) * idx[:, None]
    y = y_step * idx[:, None] + rule.lk_nodes[None, :]
    pair = model.reflection(xi, y / (2.0 * z), temperature)
    f_val, p_val = _accumulate(pair, y, np.exp(-y), want_pressure)
    term_f = rule.lk_weights @ (y * f_val).T
    term_p = rule.lk_weights @ (y * y * p_val).T if want_pressure else np.zeros_like(term_f)
    return term_f, term_p


def _terms(z, temperature, model, indices, y_step, rule, entropy):
    """Term integrals, shape (quantity, Kronrod/Gauss, index), at most _CHUNK_NODES nodes at once.

    The quantities are F and P, or with ``entropy`` the F terms at T(1 + delta)
    and T(1 - delta) combined into their mean and their difference quotient
    ((1 + delta) f+ - (1 - delta) f-) / (2 delta), both on the same l values and
    y-offsets.
    """
    step = max(1, _CHUNK_NODES // rule.lk_nodes.size)

    def rows(part):
        if not entropy:
            return np.stack(_positive_terms(z, temperature, model, part, y_step, rule, True))
        upper, lower = (_positive_terms(z, scale * temperature, model, part, scale * y_step,
                                        rule, False)[0]
                        for scale in (1.0 + _ENTROPY_STEP, 1.0 - _ENTROPY_STEP))
        return np.stack((0.5 * (upper + lower),
                         ((1.0 + _ENTROPY_STEP) * upper - (1.0 - _ENTROPY_STEP) * lower)
                         / (2.0 * _ENTROPY_STEP)))

    parts = [rows(indices[start : start + step]) for start in range(0, indices.size, step)]
    return np.concatenate(parts, axis=2) if parts else np.zeros((2, 2, 0))


def _majorant_tail(a, y_step, entropy=False):
    """Bounds on the summed |F| and |P| terms, or |F| and entropy terms, with y_l >= a.

    One ideal-metal term is at most e(a) = 2 e^-a / (1 - e^-a) times (a + 1)
    for F and (a^2 + 2a + 2) for P; the sum over l is at most the first term
    plus the integral of the bound over [a, inf) divided by y_step.  An F term
    depends on T only through a = l y_step, so T d/dT of it is a times its
    a-derivative 2 a |ln(1 - e^-a)| <= a e(a); the entropy term f + T df/dT is
    therefore at most (a + 1)^2 e(a), which falls for a >= 1, so the entropy
    bound needs a >= 1 (the others hold for a > 0).  The exponent is capped
    below overflow, which only loosens the bound.
    """
    scale = 2.0 / math.expm1(min(a, 700.0))
    if entropy:
        return (scale * (a + 1.0 + (a + 2.0) / y_step),
                scale * ((a + 1.0) ** 2 + (a * a + 4.0 * a + 5.0) / y_step))
    return (scale * (a + 1.0 + (a + 2.0) / y_step),
            scale * (a * a + 2.0 * a + 2.0 + (a * a + 4.0 * a + 6.0) / y_step))


def _cut(y_step, targets, entropy=False):
    """y (>= 1) where the majorant tail of each quantity is within its target.

    ``targets`` holds one positive target per quantity of
    :func:`_majorant_tail`.  The log of the bound falls with slope close to
    -1, so each step moves by the log excess.
    """
    a = 1.0
    for _ in range(20):
        excess = max(math.log(bound / target)
                     for bound, target in zip(_majorant_tail(a, y_step, entropy), targets))
        a = max(1.0, a + excess)
        if a == 1.0 or abs(excess) < 1e-3:
            break
    return a


def _eta_edges(start, stop, level):
    """Panels of the tail integral on [start, stop], split ``level - 1`` times."""
    edges = [start]
    while 2.0 * edges[-1] < min(stop, _ETA_EDGES[0]):
        edges.append(2.0 * edges[-1])
    edges += [e for e in _ETA_EDGES if edges[-1] < e < stop - 1.0]
    edges.append(stop)
    return split_edges(edges, level - 1)


def _matsubara_sum(z, temperature, model, l0_model, tolerance, level, entropy=False):
    """Matsubara sums of two quantities with their error parts, at one refinement level.

    The quantities are F and P, or with ``entropy`` the mean of the F sums at
    T(1 +- delta) and their difference quotient D (see :func:`_terms`).  L,
    the gate and the cut are set once, so both temperatures share one
    discretization.  Returns the (quantity, Kronrod/Gauss) sums, the absolute
    (quadrature, summation, truncation) error parts, each with one entry per
    quantity, the number of terms evaluated (exact terms plus integral nodes)
    and the share of F from l = 0.
    """
    rule = _rule(level)
    y_step = 4.0 * np.pi * CONSTANTS.k_B * temperature * z / (CONSTANTS.hbar * CONSTANTS.c)
    # the quantities the sum must resolve: F and P, or F alone
    gated = slice(0, 1) if entropy else slice(0, 2)

    def cut_from(sums):
        # every F term is <= 0 and every P term >= 0, so |partial sum| <= |sum|
        targets = _SUM_SHARE * tolerance * np.abs(sums[:, 0])
        if not entropy:
            return _cut(y_step, targets)
        # a partial D need not be near the final one, which may cancel to the
        # rounding floor; a share of that floor bounds the cut of D
        targets[1] = _SUM_SHARE * _entropy_rounding(sums[0, 0])
        return _cut(y_step, targets, True)

    def terms(indices):
        return _terms(z, temperature, model, indices, y_step, rule, entropy)

    def fits(summation, scale):
        # finer panels cannot shrink the Gregory remainder, so it gets a fixed share
        return np.all((summation <= _SUM_SHARE * tolerance * scale)[gated])

    def finish(sums, outer_error, summation, truncated_from, count):
        errors = (np.abs(sums[:, 0] - sums[:, 1]) + outer_error, summation,
                  np.array(_majorant_tail(truncated_from, y_step, entropy)))
        return sums, errors, count, zero[0, 0] / sums[0, 0]

    zero_f, zero_p = _zero_term(z, l0_model, rule, not entropy)
    # the l = 0 term does not depend on T: D takes it through the k_B T prefactor only
    zero = np.stack((zero_f, zero_f if entropy else zero_p))
    exact, head_end = _EXACT_TERMS, _EXACT_TERMS + len(_GREGORY)
    if zero[0, 0]:
        # the l = 0 term alone may already put the cut below the first Gregory terms
        head_end = min(head_end, math.ceil(cut_from(zero) / y_step))
    head = terms(np.arange(1, head_end))
    while True:
        partial = zero + head.sum(axis=2)
        if not partial[0, 0]:
            # nothing reflects at any evaluated node: the sum is exactly zero
            return partial, (np.zeros(2),) * 3, head_end, 0.0
        y_max = cut_from(partial)
        end = max(head_end, math.ceil(y_max / y_step))
        if end == head_end or head_end < exact + len(_GREGORY):
            break
        edges = _eta_edges(exact * y_step, y_max, level)
        if 15 * (len(edges) - 1) >= end - head_end:  # 15 Kronrod nodes per panel
            break
        gregory = head[:, :, exact - 1 :]
        summation = np.abs(gregory[:, 0] @ _GREGORY_LAST)
        # |sum| <= |partial| + the majorant of the terms past the head, per quantity
        if fits(summation,
                np.abs(partial[:, 0]) + _majorant_tail(head_end * y_step, y_step, entropy)):
            nodes, kronrod, gauss = kronrod_rule(edges)
            values = terms(nodes / y_step)
            sums = (zero + head[:, :, : exact - 1].sum(axis=2) + gregory @ _GREGORY_WEIGHTS
                    + values @ kronrod / y_step)
            if fits(summation, np.abs(sums[:, 0])):
                outer_error = np.abs(values[:, 0] @ (kronrod - gauss)) / y_step
                return finish(sums, outer_error, summation, y_max, head_end + nodes.size)
        exact *= 2
        grown = min(exact + len(_GREGORY), end)
        head = np.concatenate((head, terms(np.arange(head_end, grown))), axis=2)
        head_end = grown
    sums = partial + terms(np.arange(head_end, end)).sum(axis=2)
    return finish(sums, 0.0, np.zeros(2), end * y_step, end)


def _entropy_rounding(mean):
    """Rounding floor of the difference quotient D of sums whose mean is ``mean``."""
    return _ENTROPY_ROUNDING * abs(mean) / _ENTROPY_STEP


def _check_point(z, temperature):
    """Reject a separation or temperature that is not positive and finite."""
    if not 0.0 < z < math.inf:
        raise DomainError("separation must be positive and finite")
    if not 0.0 < temperature < math.inf:
        raise DomainError("temperature must be positive and finite")


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
    _check_point(z, temperature)
    prefactor = CONSTANTS.k_B * temperature / (8.0 * np.pi * z**2)

    def evaluate(level):
        sums, errors, count, share = _matsubara_sum(z, temperature, model, l0_model,
                                                    config.rel_tolerance, level)
        scale = np.maximum(np.abs(sums[:, 0]), 1e-300)
        estimate = sum(float((part / scale).max()) for part in errors)
        sum_f, sum_p = (float(value) for value in sums[:, 0])
        result = LifshitzResult(
            z=z,
            temperature=temperature,
            model_tag=model.tag,
            free_energy_per_area=prefactor * sum_f,
            pressure=-prefactor / z * sum_p,
            terms_used=count,
            quadrature_error_estimate=estimate,
            zero_frequency_share=float(share),
            provenance=provenance,
        )
        return result, estimate

    return refine(evaluate, _LEVELS, config.rel_tolerance, "quadrature")[0]


def entropy_pass(z, temperature, model, config=DEFAULT_CONFIG):
    """Entropy per unit area S = -dF/dT and its absolute error, from one engine pass.

    S = -(F(T+) - F(T-)) / (2 delta T) at T+- = T (1 +- delta): the exact
    central difference of one discretization, whose level, cut, L and gate
    are set once from F at T (the mean of both sums), and whose terms are taken
    at both temperatures on the same l values, y-offsets and l-space weights.
    The error adds the quadrature and summation parts of the difference sums,
    the majorant bound on the entropy terms past the cut, the rounding floor of
    the difference and the step error delta^2 |S|.

    Panels are split once more while F misses ``config.rel_tolerance``, or
    while the error of S exceeds ``_ENTROPY_REL_ERROR`` |S| and its rounding
    floor alone does not, up to the last level.  Raises ConvergenceError,
    carrying the last (S, error) pair, if F misses its tolerance, and
    DomainError if the separation or the temperature is not positive and
    finite.
    """
    _check_point(z, temperature)
    prefactor = CONSTANTS.k_B / (8.0 * np.pi * z**2)
    tolerance = config.rel_tolerance

    def evaluate(level):
        sums, errors, _, _ = _matsubara_sum(z, temperature, model, model, tolerance, level, True)
        mean, difference = sums[:, 0]
        rounding = _entropy_rounding(mean)
        error = sum(part[1] for part in errors) + rounding + _ENTROPY_STEP**2 * abs(difference)
        achieved = float(sum(part[0] for part in errors)) / max(abs(mean), 1e-300)
        # a finer level cannot settle S below its rounding floor
        target = _ENTROPY_REL_ERROR * abs(difference)
        if error > target and rounding <= target and level < _LEVELS:
            achieved = math.inf
        return (-prefactor * float(difference), prefactor * float(error)), achieved

    return refine(evaluate, _LEVELS, tolerance, "quadrature")[0]


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
