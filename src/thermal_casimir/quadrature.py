"""Composite embedded Gauss-Kronrod panels: the library's one quadrature path.

The library integrates smooth, exponentially decaying integrands over finite
panels.  :func:`kronrod_rule` maps the nested 7-point Gauss / 15-point Kronrod
pair (QUADPACK, Piessens et al. 1983) onto every panel of a sequence of edges:
one evaluation of the integrand on the 15 Kronrod nodes yields both sums.  The
Kronrod sum is the result and the Gauss sum checks it.

:func:`kronrod_sum` forms the result and its error estimate |K - G|, floored at
the rounding level 50 eps sum w_K |f| below which the two sums cannot be told
apart.  The zero-temperature Drude entropy integral
(:func:`.entropy.drude_zero_T_entropy`) and the dispersion integral of
tabulated optical data (:func:`.materials.eps_from_table`) use it; the
Matsubara engine (:mod:`.lifshitz`) takes the same pair and forms its own
estimate from the signed Kronrod - Gauss difference.

All three refine alike (:func:`refine`): each level splits every panel in two
once more (:func:`split_edges`), the first level whose relative estimate meets
the tolerance is the result, and a miss raises ConvergenceError "<what> did not
reach tolerance <tol> (achieved <estimate>)" carrying the last level's pair.
"""

from __future__ import annotations

import numpy as np

from .errors import ConvergenceError

#: Panel edges in y for integrands that behave like y*ln(y) at the origin (the
#: l = 0 Matsubara term of a perfect reflector, the zero-temperature Drude
#: entropy); geometric grading of the first panels resolves the singularity.
L0_EDGES = (
    0.0, 1.52587890625e-05, 2.44140625e-04, 1.953125e-03, 1.5625e-02,
    0.0625, 0.25, 1.0, 2.0, 3.5, 5.5, 8.0, 12.0, 17.0, 23.0, 31.0, 40.0,
)


# Nonnegative abscissae of the 15-point Kronrod rule on [-1, 1], outermost first;
# the odd-numbered entries (1, 3, 5, 7) are the 7-point Gauss nodes.
_XK15 = (
    0.991455371120812639206854697526329, 0.949107912342758524526189684047851,
    0.864864423359769072789712788640926, 0.741531185599394439863864773280788,
    0.586087235467691130294144845693013, 0.405845151377397166906606412076961,
    0.207784955007898467600689403773245, 0.0,
)
_WK15 = (
    0.022935322010529224963732008058970, 0.063092092629978553290700663189204,
    0.104790010322250183839876322541518, 0.140653259715525918745189590510238,
    0.169004726639267902826583426598550, 0.190350578064785409913256402421014,
    0.204432940075298892414161999234649, 0.209482141084727828012999174891714,
)
# 7-point Gauss weights at _XK15[1], _XK15[3], _XK15[5], _XK15[7].
_WG7 = (
    0.129484966168869693270611432679082, 0.279705391489276667901467771423780,
    0.381830050505118944950369775488975, 0.417959183673469387755102040816327,
)

# The pair on [-1, 1]: 15 nodes, Kronrod weights, Gauss weights (zero off the
# Gauss nodes).
_BASE_X = np.concatenate((-np.array(_XK15), _XK15[-2::-1]))
_BASE_K = np.array(_WK15 + _WK15[-2::-1])
_BASE_G = np.zeros(15)
_BASE_G[1:15:2] = _WG7 + _WG7[-2::-1]

# QUADPACK's rounding level, relative to the integral of |f|.
_ROUNDING = 50.0 * np.finfo(float).eps


def split_edges(edges, times=1):
    """Insert the midpoint of every panel ``times`` times, doubling the panel count each time."""
    edges = np.asarray(edges, dtype=float)
    for _ in range(times):
        mids = 0.5 * (edges[:-1] + edges[1:])
        out = np.empty(edges.size + mids.size)
        out[0::2] = edges
        out[1::2] = mids
        edges = out
    return edges


def refine(evaluate, levels, tolerance, what):
    """First (value, relative error) of ``evaluate(level)`` that meets ``tolerance``.

    ``evaluate(level)`` integrates with every panel split ``level - 1`` times
    and returns the value with its achieved relative error.  Levels 1 ..
    ``levels`` are tried in turn, none past the first that meets the
    tolerance; a NaN error meets none.  If no level does, ConvergenceError
    names ``what`` and carries the last level's value and error.
    """
    for level in range(1, levels + 1):
        value, achieved = evaluate(level)
        if achieved <= tolerance:
            return value, achieved
    raise ConvergenceError(
        f"{what} did not reach tolerance {tolerance:g} (achieved {achieved:.3g})",
        best_estimate=value, achieved_tolerance=achieved)


def kronrod_rule(edges):
    """Embedded 7-point Gauss / 15-point Kronrod pair on every panel.

    Parameters
    ----------
    edges : sequence of float
        Finite, strictly increasing panel boundaries.

    Returns
    -------
    (ndarray, ndarray, ndarray)
        Flattened nodes (15 per panel), Kronrod weights, and Gauss weights
        on the same nodes (zero off the 7 Gauss nodes of each panel);
        read-only.
    """
    edges = np.asarray(edges, dtype=float)
    if (edges.ndim != 1 or edges.size < 2 or not np.all(np.isfinite(edges))
            or np.any(np.diff(edges) <= 0.0)):
        raise ValueError("panel edges must be finite and strictly increasing")
    half = 0.5 * np.diff(edges)
    mid = 0.5 * (edges[:-1] + edges[1:])
    arrays = [(mid[:, None] + half[:, None] * _BASE_X[None, :]).ravel()]
    arrays += [(half[:, None] * w[None, :]).ravel() for w in (_BASE_K, _BASE_G)]
    for array in arrays:
        array.setflags(write=False)
    return tuple(arrays)


def kronrod_sum(values, kronrod, gauss):
    """Kronrod result and error estimate of integrand values on a rule.

    ``values`` holds the integrand on the nodes of :func:`kronrod_rule` in its
    last axis.  The estimate is |K - G|, but never below the rounding level
    50 eps sum w_K |f|: on fine panels both sums round to the same value, and
    their difference then says nothing about the error.

    Returns
    -------
    (ndarray, ndarray)
        The Kronrod sums and their error estimates, one per leading index.
    """
    result = values @ kronrod
    error = np.maximum(np.abs(result - values @ gauss), _ROUNDING * (np.abs(values) @ kronrod))
    return result, error
