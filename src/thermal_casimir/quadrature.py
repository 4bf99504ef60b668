"""Composite Gauss-Legendre panel rules.

The library integrates smooth, exponentially decaying integrands over finite
panels.  A rule is the flattened set of mapped Gauss-Legendre nodes and
weights for a sequence of panel edges; refinement splits every panel in two,
so comparing two consecutive levels gives a defensible error estimate without
nested rules.

Every Gauss-Legendre rule in the library comes from :func:`panel_rule`.  Its
three callers are the Matsubara engine (:mod:`.lifshitz`), the zero-temperature
Drude entropy integral (:func:`.entropy.drude_zero_T_entropy`) and the
dispersion integral of tabulated optical data (:func:`.materials.eps_from_table`).
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


def split_edges(edges):
    """Insert the midpoint of every panel, doubling the panel count."""
    edges = np.asarray(edges, dtype=float)
    mids = 0.5 * (edges[:-1] + edges[1:])
    out = np.empty(edges.size + mids.size)
    out[0::2] = edges
    out[1::2] = mids
    return out


@lru_cache(maxsize=None)
def _panel_rule_cached(edges_key, order):
    edges = np.asarray(edges_key, dtype=float)
    base_x, base_w = np.polynomial.legendre.leggauss(order)
    half = 0.5 * np.diff(edges)
    mid = 0.5 * (edges[:-1] + edges[1:])
    nodes = (mid[:, None] + half[:, None] * base_x[None, :]).ravel()
    weights = (half[:, None] * base_w[None, :]).ravel()
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights


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
    edges = tuple(float(e) for e in edges)
    if len(edges) < 2 or any(b <= a for a, b in zip(edges, edges[1:])):
        raise ValueError("panel edges must be strictly increasing")
    return _panel_rule_cached(edges, int(order))

