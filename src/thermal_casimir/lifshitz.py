"""Matsubara-summed free energy and pressure between parallel plates.

The transverse-wavevector integral of every Matsubara term is rewritten in
the dimensionless decay variable y = 2 q z, which turns each term into an
integral with an exp(-y) envelope on [y_l, infinity), y_l = l * y_step with
y_step = 4 pi k_B T z / (hbar c).

Each term is integrated with the embedded Gauss-Kronrod pair (7-point
Gauss inside 15-point Kronrod) on every panel: one evaluation of the
integrand on the Kronrod nodes gives both sums.  The Kronrod sum is the
result; its difference from the Gauss sum is the quadrature error estimate.

The panels of a term l >= 1 are graded towards its lower end, for the terms
whose y_l is small.  A term lies at least y_l from its nearest singularities,
so once y_l reaches a graded edge e, one first panel [0, e] resolves it as
well as the graded panels resolve a term with y_l near 0.  Band 0 is the full
graded rule (150 nodes per term); bands 1 to 4 merge the panels below
e = 1/64, 1/16, 1/4 and 1 (135, 120, 105 and 90 nodes).  The entropy pass
takes each block of terms on the band of its first term; F and P take every
term on band 0.

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
on the same l values, y-offsets, band rules and l-space weights.  The l = 0
term does not depend on T and enters only through the k_B T prefactor.  The
result is S = -(F+ - F-) / (2 delta T), the exact central difference of one
fixed discretization, with its own error figure, in which the pressure
majorant bounds the difference terms past the cut (a proof for the ideal
metal only).

Both modes write a block's y, q = y/(2z), e^-y, amplitudes and integrands
into _CHUNK_NODES-value buffers per thread, reused by every block
(:func:`_workspace`), as allocating them per block made the allocator fault
the freed heap back in.  One routine forms the integrands in place
(:func:`_integrands`): F for both modes, P only when asked, so the entropy
pass and F+P give the same F terms bit for bit.

Apart from that per-thread scratch, everything here is a pure function of
immutable inputs, reduced in a fixed order, so results are bit-reproducible
for a fixed configuration.
"""

from __future__ import annotations

import math
import threading
from collections import namedtuple
from contextlib import contextmanager
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

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
# 150 nodes per term.  The graded edges past the first (those in (0, 1]) also
# set the band rules of :func:`_rule`, down to 90 nodes for y_l >= 1.
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
#: Engine tolerance of the free energy in an entropy pass: it sets the
#: refinement level and the cut of F.  The difference of the two free energies,
#: three to four orders below F itself, has its own cut and error figure.
ENTROPY_CONFIG = EvaluationConfig(rel_tolerance=1e-9)


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


class EntropyEstimate(NamedTuple):
    """Entropy with its absolute error figure and whether that error is small.

    ``converged`` is true when ``error`` is at most 1e-3 |value|: an exact
    zero with zero error counts as converged, any other value within its
    error of zero does not.
    """

    value: float
    converged: bool
    error: float


# Kronrod nodes of one refinement level for l = 0 and, per band, for l >= 1; each
# weight matrix holds the Kronrod weights in row 0 and the embedded Gauss weights
# in row 1, so ``weights @ values`` gives the (result, estimate) pair of integrals.
# ``bands`` holds one (nodes, weights) pair per band and ``band_floors`` the
# lowest y_l each band serves.
_Rule = namedtuple("_Rule", "l0_nodes l0_weights bands band_floors")


@lru_cache(maxsize=None)
def _rule(level):
    """Cached rules on L0_EDGES and the bands of _LK_EDGES, every panel split ``level - 1`` times.

    Band 0 is _LK_EDGES itself and serves every term.  Band k >= 1 replaces the
    graded panels below the k-th graded edge e (the edges in (0, 1] past the
    first) with one first panel [0, e] and serves the terms with y_l >= e.
    """
    def pair(edges):
        nodes, kronrod, gauss = kronrod_rule(split_edges(edges, level - 1))
        return nodes, np.stack((kronrod, gauss))

    graded = [e for e in _LK_EDGES[2:] if e <= 1.0]
    bands = [pair(_LK_EDGES)] + [pair([0.0] + [x for x in _LK_EDGES if x >= e]) for e in graded]
    return _Rule(*pair(L0_EDGES), tuple(bands), np.array([0.0] + graded))


# Buffers of the term kernel, one set per thread (see _workspace): y, q = y/(2z),
# e^-y, the two amplitudes, then 1 - e^-y, P and a scratch array for P alone.
_BUFFERS = 8
_LOCAL = threading.local()


@contextmanager
def _workspace(shape):
    """_BUFFERS float arrays of ``shape``, stacked, for one term kernel call.

    They are views of this thread's _BUFFERS buffers of _CHUNK_NODES values,
    made on first use and reused by every later block.  The buffers leave the
    thread while in use, so a call nested in a kernel call (a gamma map that
    runs one) makes its own; a block larger than they are gets fresh arrays.
    """
    buffers = getattr(_LOCAL, "buffers", None)
    if buffers is None:
        buffers = np.empty((_BUFFERS, _CHUNK_NODES))
    _LOCAL.buffers = None
    size = math.prod(shape)
    try:
        if size > buffers.shape[1]:
            yield np.empty((_BUFFERS, *shape))
        else:
            yield buffers[:, :size].reshape(_BUFFERS, *shape)
    finally:
        _LOCAL.buffers = buffers


def _integrands(pair, y, decay, out, want_pressure):
    """y ln(1 - x), then with ``want_pressure`` y^2 x / (1 - x), summed over the pair, in ``out``.

    x = r^2 e^-y.  ``out`` is the workspace past e^-y: each amplitude's buffer
    (which may hold it) receives its x, F accumulates into the first, and the
    other three serve P alone.  F is log1p(-x) at every node: 1 - x >= 1 - e^-y,
    so rounding x costs at most about eps (1 + y) absolute in y ln(1 - x).
    """
    f_val = p_val = 0.0
    if want_pressure:
        one_minus_decay, p_out, scratch = out[2:]
        np.negative(np.expm1(np.negative(y, out=one_minus_decay), out=one_minus_decay),
                    out=one_minus_decay)
    for r, buf in zip(pair, out):
        r2 = np.square(r, out=buf)
        if want_pressure:
            # 1 - x as (1 - e^-y) + (1 - r^2) e^-y, which does not cancel as r^2 -> 1
            denominator = np.multiply(np.subtract(1.0, r2, out=scratch), decay, out=scratch)
            np.add(one_minus_decay, denominator, out=denominator)
        x = np.multiply(r2, decay, out=buf)
        if want_pressure:
            p_val = np.add(p_val, np.divide(x, denominator, out=denominator), out=p_out)
        f_val = np.add(f_val, np.log1p(np.negative(x, out=x), out=x), out=out[0])
    f_val = np.multiply(y, f_val, out=f_val)
    if not want_pressure:
        return (f_val,)
    return f_val, np.multiply(np.multiply(y, y, out=scratch), p_val, out=p_val)


def _zero_term(z, l0_model, rule, want_pressure):
    """(Kronrod, Gauss) l = 0 term of F, then of P with ``want_pressure``, weighted by 1/2."""
    y = rule.l0_nodes
    pair = l0_model.zero_frequency_reflection(y / (2.0 * z))
    with _workspace(y.shape) as (_, _, _, *out):
        return [0.5 * (rule.l0_weights @ val)
                for val in _integrands(pair, y, np.exp(-y), out, want_pressure)]


def _positive_terms(z, temperature, model, indices, y_step, band, want_pressure):
    """(Kronrod, Gauss) rows of F term integrals for l >= 1, then of P ones with ``want_pressure``.

    ``band`` is the (nodes, weights) pair of one band of the rule; l need not
    be an integer.  y, q = y/(2z), e^-y, the amplitudes and the integrands are
    written into the thread's :func:`_workspace`; the rows are fresh arrays.
    """
    nodes, weights = band
    idx = np.asarray(indices, dtype=float)
    xi = (2.0 * np.pi * CONSTANTS.k_B * temperature / CONSTANTS.hbar) * idx[:, None]
    with _workspace((idx.size, nodes.size)) as (y, q, decay, *out):
        # numpy copies a broadcast ufunc operand into a buffer of the block's size;
        # assigning it to an array does not allocate
        y[...] = nodes
        np.add(y_step * idx[:, None], y, out=y)
        pair = model.reflection(xi, np.divide(y, 2.0 * z, out=q), temperature, out[:2])
        np.exp(np.negative(y, out=decay), out=decay)
        return [weights @ val.T for val in _integrands(pair, y, decay, out, want_pressure)]


def _terms(z, temperature, model, indices, y_step, rule, entropy):
    """Term integrals, shape (quantity, Kronrod/Gauss, index), at most _CHUNK_NODES nodes at once.

    The quantities are F and P, or with ``entropy`` the F terms at T(1 + delta)
    and T(1 - delta) combined into their mean and their difference quotient
    ((1 + delta) f+ - (1 - delta) f-) / (2 delta), both on the same l values and
    y-offsets.

    F and P are taken on band 0.  The entropy terms fill blocks greedily over
    the ascending ``indices``: a block starts at the lowest remaining index,
    takes the band of that term's y_l at T(1 - delta), which serves it at both
    temperatures and every later term of the block (each lies further from the
    singularity), and holds as many terms as fit _CHUNK_NODES nodes of the band.
    """
    def rows(part, band):
        if not entropy:
            return np.stack(_positive_terms(z, temperature, model, part, y_step, band, True))
        (upper,), (lower,) = (_positive_terms(z, scale * temperature, model, part,
                                              scale * y_step, band, False)
                              for scale in (1.0 + _ENTROPY_STEP, 1.0 - _ENTROPY_STEP))
        return np.stack((0.5 * (upper + lower),
                         ((1.0 + _ENTROPY_STEP) * upper - (1.0 - _ENTROPY_STEP) * lower)
                         / (2.0 * _ENTROPY_STEP)))

    floors = rule.band_floors if entropy else rule.band_floors[:1]
    parts, start = [], 0
    while start < indices.size:
        # the band of the block's first term, whose y_l is lowest at T(1 - delta)
        lowest = indices[start] * ((1.0 - _ENTROPY_STEP) * y_step)
        band = rule.bands[np.searchsorted(floors, lowest, side="right") - 1]
        stop = start + max(1, _CHUNK_NODES // band[0].size)
        parts.append(rows(indices[start:stop], band))
        start = stop
    return np.concatenate(parts, axis=2) if parts else np.zeros((2, 2, 0))


def _majorant_tail(a, y_step):
    """Bounds on the summed |F| and |P| terms with y_l >= a; the P one also bounds D.

    One ideal-metal term is at most e(a) = 2 e^-a / (1 - e^-a) times (a + 1)
    for F and (a^2 + 2a + 2) for P, both falling for every a > 0; the sum over
    l is at most the first term plus the integral of the bound over [a, inf)
    divided by y_step.  T d/dT of an F term is a times its a-derivative
    2 a |ln(1 - e^-a)| <= a e(a), so a term f + T df/dT of D (delta -> 0) is
    at most (a^2 + a + 1) e(a): proven for the ideal metal, and only tested
    for dispersive models and gamma(T) maps, whose terms also vary with T
    through xi and gamma.  The exponent is capped below overflow, which only
    loosens the bound.
    """
    scale = 2.0 / math.expm1(min(a, 700.0))
    return (scale * (a + 1.0 + (a + 2.0) / y_step),
            scale * (a * a + 2.0 * a + 2.0 + (a * a + 4.0 * a + 6.0) / y_step))


def _cut(y_step, targets):
    """y (>= 1) where the majorant tail of each quantity is within its target.

    ``targets`` holds one positive target per entry of :func:`_majorant_tail`.
    The log of the bound falls with slope close to -1, so each step moves by
    the log excess.
    """
    a = 1.0
    for _ in range(20):
        excess = max(math.log(bound / target)
                     for bound, target in zip(_majorant_tail(a, y_step), targets))
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
        if entropy:
            # a partial D need not be near the final one, which may cancel to the
            # rounding floor; a share of that floor bounds the cut of D
            targets[1] = _SUM_SHARE * _entropy_rounding(sums[0, 0])
        return _cut(y_step, targets)

    def terms(indices):
        return _terms(z, temperature, model, indices, y_step, rule, entropy)

    def fits(summation, scale):
        # finer panels cannot shrink the Gregory remainder, so it gets a fixed share
        return np.all((summation <= _SUM_SHARE * tolerance * scale)[gated])

    def finish(sums, outer_error, summation, truncated_from, count):
        errors = (np.abs(sums[:, 0] - sums[:, 1]) + outer_error, summation,
                  np.array(_majorant_tail(truncated_from, y_step)))
        return sums, errors, count, zero[0, 0] / sums[0, 0]

    zero = np.stack(_zero_term(z, l0_model, rule, not entropy))
    if entropy:
        # the l = 0 term does not depend on T: D takes it through the k_B T prefactor only
        zero = np.concatenate((zero, zero))
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
                np.abs(partial[:, 0]) + _majorant_tail(head_end * y_step, y_step)):
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


def entropy_pass(z, temperature, model, config=ENTROPY_CONFIG):
    """Entropy per unit area S = -dF/dT, as an :class:`EntropyEstimate`, from one engine pass.

    S = -(F(T+) - F(T-)) / (2 delta T) at T+- = T (1 +- delta): the exact
    central difference of one discretization, whose level, cut, L and gate
    are set once from F at T (the mean of both sums), and whose terms are taken
    at both temperatures on the same l values, y-offsets and l-space weights.
    The error adds the quadrature and summation parts of the difference sums,
    the pressure majorant past the cut (see :func:`_majorant_tail`), the
    rounding floor of the difference and the step error delta^2 |S|.

    Panels are split once more while F misses ``config.rel_tolerance``
    (default ``ENTROPY_CONFIG``, 1e-9), or while the error of S exceeds
    ``_ENTROPY_REL_ERROR`` |S| and its rounding floor alone does not, up to
    the last level; the estimate is converged when its error is within
    ``_ENTROPY_REL_ERROR`` |S|.  Raises ConvergenceError, carrying the last
    estimate, if F misses its tolerance, and DomainError if the separation or
    the temperature is not positive and finite.
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
        value, error = -prefactor * float(difference), prefactor * float(error)
        return EntropyEstimate(value, error <= _ENTROPY_REL_ERROR * abs(value), error), achieved

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
    _check_point(z, temperature)
    value = -CONSTANTS.k_B * temperature * ZETA3 / (8.0 * np.pi * z**2)
    if prescription == "ideal":
        return value
    if prescription == "drude-like":
        return 0.5 * value
    raise DomainError("prescription must be 'ideal' or 'drude-like'")
