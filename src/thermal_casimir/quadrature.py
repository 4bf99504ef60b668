"""Composite panel rules: Gauss-Legendre and the embedded Gauss-Kronrod pair.

The library integrates smooth, exponentially decaying integrands over finite
panels.  A rule is the flattened set of mapped nodes and weights for a
sequence of panel edges; refinement splits every panel in two.

:func:`kronrod_rule` gives the nested 7-point Gauss / 15-point Kronrod pair on
every panel (QUADPACK, Piessens et al. 1983): one evaluation of the integrand
on the 15 Kronrod nodes yields both sums, and their difference is the error
estimate.  The Matsubara engine (:mod:`.lifshitz`) uses it.

:func:`panel_rule` gives plain Gauss-Legendre panels; there an error estimate
comes from comparing two consecutive refinement levels.  Its callers are the
zero-temperature Drude entropy integral (:func:`.entropy.drude_zero_T_entropy`)
and the dispersion integral of tabulated optical data
(:func:`.materials.eps_from_table`).
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

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


def split_edges(edges):
    """Insert the midpoint of every panel, doubling the panel count."""
    edges = np.asarray(edges, dtype=float)
    mids = 0.5 * (edges[:-1] + edges[1:])
    out = np.empty(edges.size + mids.size)
    out[0::2] = edges
    out[1::2] = mids
    return out


def _edges_key(edges):
    edges = tuple(float(e) for e in edges)
    if len(edges) < 2 or any(b <= a for a, b in zip(edges, edges[1:])):
        raise ValueError("panel edges must be strictly increasing")
    return edges


def _mapped(edges_key, base_x, *base_weights):
    """Read-only nodes and weights of a reference rule mapped onto every panel."""
    edges = np.asarray(edges_key, dtype=float)
    half = 0.5 * np.diff(edges)
    mid = 0.5 * (edges[:-1] + edges[1:])
    arrays = [(mid[:, None] + half[:, None] * base_x[None, :]).ravel()]
    arrays += [(half[:, None] * w[None, :]).ravel() for w in base_weights]
    for array in arrays:
        array.setflags(write=False)
    return tuple(arrays)


@lru_cache(maxsize=None)
def _panel_rule_cached(edges_key, order):
    return _mapped(edges_key, *np.polynomial.legendre.leggauss(order))


@lru_cache(maxsize=None)
def _kronrod_reference():
    half_x = np.array(_XK15)
    base_x = np.concatenate((-half_x, half_x[-2::-1]))
    base_k = np.array(_WK15 + _WK15[-2::-1])
    gauss = np.zeros(8)
    gauss[1::2] = _WG7
    base_g = np.concatenate((gauss, gauss[-2::-1]))
    return base_x, base_k, base_g


@lru_cache(maxsize=None)
def _kronrod_rule_cached(edges_key):
    return _mapped(edges_key, *_kronrod_reference())


def panel_rule(edges, order):
    """Nodes and weights of a composite Gauss-Legendre rule.

    Parameters
    ----------
    edges : sequence of float
        Strictly increasing panel boundaries.
    order : int
        Gauss-Legendre order per panel.

    Returns
    -------
    (ndarray, ndarray)
        Flattened nodes and weights; read-only and cached.
    """
    return _panel_rule_cached(_edges_key(edges), int(order))


def kronrod_rule(edges, *, cache=True):
    """Embedded 7-point Gauss / 15-point Kronrod pair on every panel.

    Parameters
    ----------
    edges : sequence of float
        Strictly increasing panel boundaries.
    cache : bool
        Keep the rule for later calls with the same edges.  Pass False for
        edges that change from call to call, so the cache does not grow
        without bound.

    Returns
    -------
    (ndarray, ndarray, ndarray)
        Flattened nodes (15 per panel), Kronrod weights, and Gauss weights
        on the same nodes (zero off the 7 Gauss nodes of each panel);
        read-only.
    """
    key = _edges_key(edges)
    return _kronrod_rule_cached(key) if cache else _mapped(key, *_kronrod_reference())
