"""Yukawa-type fifth-force pressures, forces and exclusion bounds.

The hypothetical interaction adds alpha * exp(-r/lambda) to the Newtonian
point potential.  Pairwise volume integration over the test bodies is linear
in the mass densities, so every supported geometry has a closed form: each
body is a sum of homogeneous pieces, one per density step (half-spaces for
plates and slabs, concentric solid spheres for a coated sphere), and the
interaction is e^{-z/lambda} times one superposition weight per body.  Only
the alpha term is integrated: the Newtonian background is smooth in
separation and subtracted in the experiments that produce residual bounds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import math

import numpy as np

from .constants import CONSTANTS
from .errors import DomainError


@dataclass(frozen=True)
class YukawaParams:
    """Strength alpha (dimensionless, any sign) and range lambda (m)."""

    alpha: float
    lam: float

    def __post_init__(self):
        if not math.isfinite(self.alpha):
            raise DomainError("interaction strength must be finite")
        if not 0.0 < self.lam < math.inf:
            raise DomainError("interaction range must be positive and finite")


@dataclass(frozen=True)
class Layer:
    """One coating layer: thickness (m) and mass density (kg/m^3)."""

    thickness: float
    density: float

    def __post_init__(self):
        if not (0.0 < self.thickness < math.inf and 0.0 < self.density < math.inf):
            raise DomainError("layer thickness and density must be positive and finite")


def _check_coatings(coatings):
    return tuple(
        layer if isinstance(layer, Layer) else Layer(*layer) for layer in coatings
    )


@dataclass(frozen=True)
class SemispacePlate:
    """Half-space body, optionally coated; coatings listed outermost first."""

    density: float
    coatings: Tuple[Layer, ...] = ()

    def __post_init__(self):
        if not 0.0 < self.density < math.inf:
            raise DomainError("density must be positive and finite")
        object.__setattr__(self, "coatings", _check_coatings(self.coatings))


@dataclass(frozen=True)
class FiniteSlab:
    """Slab of finite thickness, optionally coated (outermost first)."""

    thickness: float
    density: float
    coatings: Tuple[Layer, ...] = ()

    def __post_init__(self):
        if not (0.0 < self.thickness < math.inf and 0.0 < self.density < math.inf):
            raise DomainError("slab thickness and density must be positive and finite")
        object.__setattr__(self, "coatings", _check_coatings(self.coatings))


@dataclass(frozen=True)
class Sphere:
    """Sphere, optionally coated (outermost first); coatings thinner than R."""

    radius: float
    density: float
    coatings: Tuple[Layer, ...] = ()

    def __post_init__(self):
        if not (0.0 < self.radius < math.inf and 0.0 < self.density < math.inf):
            raise DomainError("sphere radius and density must be positive and finite")
        coatings = _check_coatings(self.coatings)
        if sum(c.thickness for c in coatings) >= self.radius:
            raise DomainError("sphere coatings must be thinner than the radius")
        object.__setattr__(self, "coatings", coatings)


def yukawa_potential(r, m1, m2, params):
    """Point-mass potential -G m1 m2 (1 + alpha e^{-r/lambda}) / r in J."""
    r = np.asarray(r, dtype=float)
    if not np.all((0.0 < r) & (r < np.inf)):
        raise DomainError("distance must be positive and finite")
    if not all(np.all((0.0 < m) & (m < np.inf)) for m in np.broadcast_arrays(m1, m2)):
        raise DomainError("masses must be positive and finite")
    value = -CONSTANTS.G * m1 * m2 * (1.0 + params.alpha * np.exp(-r / params.lam)) / r
    return value if value.ndim else float(value)


def _sphere_bracket(radius, lam):
    """Shape factor R - lambda + e^{-2R/lambda}(R + lambda) of a solid sphere.

    Evaluated by series for 2R/lambda << 1 where the direct expression
    cancels catastrophically.
    """
    x = 2.0 * radius / lam
    if x >= 0.5:
        return radius - lam + np.exp(-x) * (radius + lam)
    total = 0.0
    sign = 1.0
    factorial = 2.0  # 3! / 3
    power = x**3
    for n in range(3, 18):
        factorial *= n
        total += sign * power * (n - 2) / (2.0 * factorial)
        sign = -sign
        power *= x
    return lam * total


def _weight(body, lam):
    """Superposition weight W(lambda) = sum of drho e^{-offset/lambda} shape.

    Each density step drho at depth ``offset`` below the surface starts a
    homogeneous piece: a half-space (shape 1) in a plate or slab, a solid
    sphere of radius R - offset (shape ``_sphere_bracket``) in a sphere.  A
    slab ends with a step back to zero density.
    """
    steps, offset, density = [], 0.0, 0.0
    for layer in body.coatings:
        steps.append((offset, layer.density - density))
        offset, density = offset + layer.thickness, layer.density
    steps.append((offset, body.density - density))
    if isinstance(body, FiniteSlab):
        steps.append((offset + body.thickness, -body.density))
    total = 0.0
    for offset, step in steps:
        shape = _sphere_bracket(body.radius - offset, lam) if isinstance(body, Sphere) else 1.0
        total += step * np.exp(-offset / lam) * shape
    return total


def _plate_weight(body, lam):
    """``_weight`` of a body that must be plate-like (half-space or slab)."""
    if not isinstance(body, (SemispacePlate, FiniteSlab)):
        raise DomainError("expected a plate-like body (semispace or slab)")
    return _weight(body, lam)


def yukawa_energy_plates(z, body_a, body_b, params):
    """Yukawa interaction energy per unit area of two plate-like bodies, J/m^2.

    E(z) = -2 pi G alpha lambda^3 e^{-z/lambda} W_a W_b.
    """
    if not 0.0 < z < math.inf:
        raise DomainError("separation must be positive and finite")
    lam = params.lam
    weights = _plate_weight(body_a, lam) * _plate_weight(body_b, lam)
    return -2.0 * np.pi * CONSTANTS.G * params.alpha * lam**3 * np.exp(-z / lam) * weights


def yukawa_pressure_plates(z, body_a, body_b, params):
    """Yukawa pressure between two plate-like bodies, Pa; negative attracts.

    P(z) = -dE/dz = -2 pi G alpha lambda^2 e^{-z/lambda} W_a W_b.
    """
    return yukawa_energy_plates(z, body_a, body_b, params) / params.lam


def yukawa_force_sphere_plate(z, sphere, plate, params):
    """Yukawa force between a sphere and a plate-like body, N.

    F(z) = -4 pi^2 G alpha lambda^3 e^{-z/lambda} W_sphere W_plate.
    """
    if not 0.0 < z < math.inf:
        raise DomainError("separation must be positive and finite")
    if not isinstance(sphere, Sphere):
        raise DomainError("first body must be a sphere")
    lam = params.lam
    weights = _weight(sphere, lam) * _plate_weight(plate, lam)
    return -4.0 * np.pi**2 * CONSTANTS.G * params.alpha * lam**3 * np.exp(-z / lam) * weights


def sphere_plate_effective_pressure(z, sphere, plate, params):
    """Equivalent pressure -(1 / 2 pi R) dF/dz for a sphere-plate pair, Pa.

    The force scales as e^{-z/lambda}, so dF/dz = -F/lambda exactly.
    """
    force = yukawa_force_sphere_plate(z, sphere, plate, params)
    return force / (2.0 * np.pi * sphere.radius * params.lam)


@dataclass(frozen=True)
class ResidualBound:
    """Half-width of the experiment-theory confidence interval on a z grid."""

    z: np.ndarray
    delta_tot: np.ndarray

    def __post_init__(self):
        z = np.array(self.z, dtype=float)
        delta = np.array(self.delta_tot, dtype=float)
        if z.ndim != 1 or z.size == 0 or z.shape != delta.shape:
            raise DomainError("residual bound needs matching z and delta columns")
        if not (np.all(np.isfinite(z)) and np.all(np.isfinite(delta))):
            raise DomainError("residual bound values must be finite")
        if z[0] <= 0.0 or np.any(np.diff(z) <= 0.0):
            raise DomainError("z grid must be positive and strictly increasing")
        if np.any(delta <= 0.0):
            raise DomainError("confidence half-widths must be positive")
        z.setflags(write=False)
        delta.setflags(write=False)
        object.__setattr__(self, "z", z)
        object.__setattr__(self, "delta_tot", delta)


@dataclass(frozen=True)
class ExclusionCurve:
    """Maximum allowed |alpha| per interaction range lambda."""

    lambdas: np.ndarray
    alpha_max: np.ndarray
    provenance: str = ""

    def __post_init__(self):
        lam = np.asarray(self.lambdas, dtype=float)
        alpha = np.asarray(self.alpha_max, dtype=float)
        if lam.ndim != 1 or lam.size == 0 or lam.shape != alpha.shape:
            raise DomainError("exclusion curve needs matching lambda and alpha columns")
        lam = lam.copy()
        alpha = alpha.copy()
        lam.setflags(write=False)
        alpha.setflags(write=False)
        object.__setattr__(self, "lambdas", lam)
        object.__setattr__(self, "alpha_max", alpha)


def _hypothetical_pressure_fn(geometry):
    try:
        body_a, body_b = geometry
    except (TypeError, ValueError):
        raise DomainError("geometry must be a pair of bodies") from None
    if isinstance(body_b, Sphere):
        body_a, body_b = body_b, body_a
    if isinstance(body_b, Sphere):
        raise DomainError("sphere-sphere geometry is not supported")
    if isinstance(body_a, Sphere):
        return lambda z, params: sphere_plate_effective_pressure(z, body_a, body_b, params)
    return lambda z, params: yukawa_pressure_plates(z, body_a, body_b, params)


def exclusion_bound(bound, geometry, lambdas, provenance=""):
    """Exclusion curve alpha_max(lambda) from a residual pressure bound.

    The hypothetical pressure is exactly linear in alpha, so
    alpha_max(lambda) = min over the z grid of delta_tot(z) / |P(z; alpha=1)|.
    Grid points where the unit-strength pressure vanishes are skipped; if
    every point is skipped the bound is unbounded (inf) at that lambda.

    Parameters
    ----------
    bound : ResidualBound
    geometry : (body, body)
        Two plate-like bodies, or a sphere paired with a plate-like body.
    lambdas : array_like
        Interaction ranges, m.
    """
    lambdas = np.asarray(lambdas, dtype=float)
    if lambdas.size == 0 or not np.all((0.0 < lambdas) & (lambdas < math.inf)):
        raise DomainError("lambda grid must be nonempty, positive and finite")
    pressure_fn = _hypothetical_pressure_fn(geometry)
    alpha_max = np.empty(lambdas.size)
    for i, lam in enumerate(lambdas):
        params = YukawaParams(alpha=1.0, lam=float(lam))
        magnitudes = np.array([abs(pressure_fn(float(zi), params)) for zi in bound.z])
        usable = magnitudes > 0.0
        if not np.any(usable):
            alpha_max[i] = np.inf
        else:
            alpha_max[i] = np.min(bound.delta_tot[usable] / magnitudes[usable])
    return ExclusionCurve(lambdas=lambdas, alpha_max=alpha_max, provenance=provenance)
