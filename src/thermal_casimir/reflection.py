"""Reflection coefficients at imaginary frequency.

Both polarizations are real on the imaginary frequency axis.  The sign
convention keeps the ideal-metal limit at (+1, +1); only squared amplitudes
enter the plate free energy, so the convention carries no physical weight.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .constants import CONSTANTS
from .errors import DomainError


class ReflectionPair(NamedTuple):
    """TM and TE reflection amplitudes at a single (frequency, wavevector)."""

    r_tm: float
    r_te: float


def _checked_point(caller, xi, k_perp):
    """xi and q = sqrt(k_perp^2 + xi^2/c^2) as arrays, after ``caller``'s
    check of finite xi > 0 and finite k_perp >= 0."""
    xi = np.asarray(xi, dtype=float)
    k_perp = np.asarray(k_perp, dtype=float)
    if not np.all((0.0 < xi) & (xi < np.inf)):
        raise DomainError(f"{caller} requires finite xi > 0")
    if not np.all((0.0 <= k_perp) & (k_perp < np.inf)):
        raise DomainError(f"{caller} requires finite k_perp >= 0")
    return xi, np.sqrt(k_perp**2 + (xi / CONSTANTS.c) ** 2)


def fresnel_reflection(xi, k_perp, eps):
    """Fresnel reflection amplitudes of a half-space with permittivity ``eps``.

    Parameters
    ----------
    xi : float or ndarray
        Imaginary angular frequency, rad/s, strictly positive.
    k_perp : float or ndarray
        In-plane wavevector, 1/m, nonnegative.
    eps : float or ndarray
        Permittivity evaluated at ``i*xi``; must be >= 1.

    Returns
    -------
    ReflectionPair
        r_tm = (eps*q - k)/(eps*q + k), r_te = (k - q)/(k + q) with
        q = sqrt(k_perp^2 + xi^2/c^2) and k = sqrt(k_perp^2 + eps*xi^2/c^2).
    """
    xi, q = _checked_point("fresnel_reflection", xi, k_perp)
    eps = np.asarray(eps, dtype=float)
    if not np.all((1.0 <= eps) & (eps < np.inf)):
        raise DomainError("fresnel_reflection requires finite eps >= 1")
    return fresnel_q(xi, q, eps)


def _pair(out, *operands):
    """``out``, or a fresh pair of float arrays of the operands' broadcast shape."""
    if out is None:
        shape = np.broadcast_shapes(*map(np.shape, operands))
        out = np.empty(shape), np.empty(shape)
    return out


def fresnel_q(xi, q, eps, out=None):
    """Fresnel amplitudes in the vacuum decay constant q = sqrt(k_perp^2 + xi^2/c^2).

    The kernel behind :func:`fresnel_reflection`, without its input checks:
    the caller guarantees xi > 0, q >= xi/c and eps >= 1.  Inside the
    half-space k = sqrt(q^2 + (eps - 1) xi^2/c^2).

    The amplitudes go into ``out``, float arrays of the broadcast shape of
    ``xi``, ``q`` and ``eps`` sharing no memory with ``q``, or into a fresh
    pair (numpy scalars for scalar input); one temporary of that shape remains.
    """
    r_tm, r_te = _pair(out, xi, q, eps)
    k = np.multiply(q, q, out=r_te)
    np.sqrt(np.add(k, (eps - 1.0) * (xi / CONSTANTS.c) ** 2, out=k), out=k)
    r_tm[...] = eps  # numpy would copy a broadcast eps operand into a new buffer
    eps_q = np.multiply(r_tm, q, out=r_tm)
    # an array, not the numpy scalar ``eps_q - k`` gives for 0-d operands
    numerator = np.subtract(eps_q, k, out=np.empty_like(k))
    np.divide(numerator, np.add(eps_q, k, out=r_tm), out=r_tm)
    np.subtract(k, q, out=numerator)
    np.divide(numerator, np.add(k, q, out=r_te), out=r_te)
    return ReflectionPair(r_tm, r_te) if out is not None else ReflectionPair(r_tm[()], r_te[()])


def impedance_reflection(xi, k_perp, impedance):
    """Reflection amplitudes under the Leontovich surface-impedance condition.

    Valid for small impedance; ``impedance`` outside (0, 1] is rejected
    because the boundary condition itself breaks down there.
    """
    return impedance_q(*_checked_point("impedance_reflection", xi, k_perp), impedance)


def impedance_q(xi, q, impedance, out=None):
    """Leontovich amplitudes in the vacuum decay constant q = sqrt(k_perp^2 + xi^2/c^2).

    The kernel behind :func:`impedance_reflection`.  It checks only the
    impedance, which has the size of ``xi``, and rejects Z outside (0, 1],
    NaN included, before it writes anything; the caller guarantees xi > 0 and
    q >= xi/c.  ``out`` is read as by :func:`fresnel_q`.
    """
    impedance = np.asarray(impedance, dtype=float)
    if not np.all((0.0 < impedance) & (impedance <= 1.0)):
        raise DomainError("surface impedance must lie in (0, 1]")
    r_tm, r_te = _pair(out, xi, q, impedance)
    z_xi = impedance * xi
    cq = np.multiply(CONSTANTS.c, q, out=r_te)
    numerator = np.subtract(cq, z_xi, out=np.empty_like(cq))
    np.divide(numerator, np.add(cq, z_xi, out=r_tm), out=r_tm)
    z_cq = np.multiply(cq, impedance, out=r_te)
    np.subtract(xi, z_cq, out=numerator)
    np.divide(numerator, np.add(xi, z_cq, out=r_te), out=r_te)
    return ReflectionPair(r_tm, r_te) if out is not None else ReflectionPair(r_tm[()], r_te[()])


def perfect_q(xi, q, response, out=None):
    """Perfect-reflector amplitudes (1, 1) as values at every (xi, q); no argument is used."""
    return ReflectionPair(1.0, 1.0)


def zero_frequency_reflection(model, k_perp):
    """Zero-frequency reflection pair prescribed by a material response.

    The l = 0 Matsubara term is never obtained as a limit of the finite
    frequency coefficients; each material carries an explicit rule and this
    helper evaluates it, as arrays shaped like ``k_perp`` (a rule may state a
    constant amplitude as a plain float).

    Parameters
    ----------
    model : MaterialResponse
    k_perp : float or ndarray
        In-plane wavevector, 1/m, strictly positive.
    """
    k_perp = np.asarray(k_perp, dtype=float)
    if not np.all((0.0 < k_perp) & (k_perp < np.inf)):
        raise DomainError("zero_frequency_reflection requires finite k_perp > 0")
    return ReflectionPair(*(np.broadcast_to(r, k_perp.shape).astype(float)
                            for r in model.zero_frequency_reflection(k_perp)))
