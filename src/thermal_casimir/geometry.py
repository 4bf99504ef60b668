"""Closed-form ideal-metal results for plane, cylinder-plate and sphere-plate.

The curved geometries use the proximity-force (PFT) expressions valid for
z << R, plus the known short-separation correction for the cylinder.  The
sphere-plate problem has no exact electromagnetic solution; only the PFT
value is exposed, with a conservative |error| <= z/R bound.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .constants import CONSTANTS
from .errors import DomainError

#: z/R beyond which the short-separation asymptotics are flagged unreliable.
ASYMPTOTIC_LIMIT = 0.1

# Leading relative force correction to the cylinder-plate PFT result.
_CYLINDER_FORCE_COEFFICIENT = 0.6 * (20.0 / (3.0 * np.pi**2) - 7.0 / 36.0)


@dataclass(frozen=True)
class GeometryCase:
    """One geometry: plate-plate, cylinder-plate or sphere-plate.

    ``radius`` is the cylinder or sphere radius and must be absent for
    plate-plate.
    """

    kind: str
    z: float
    radius: Optional[float] = None

    def __post_init__(self):
        if self.kind not in ("plate-plate", "cylinder-plate", "sphere-plate"):
            raise DomainError(f"unknown geometry kind {self.kind!r}")
        if not 0.0 < self.z < np.inf:
            raise DomainError("separation must be positive and finite")
        if self.kind == "plate-plate":
            if self.radius is not None:
                raise DomainError("plate-plate geometry takes no radius")
        elif self.radius is None or not 0.0 < self.radius < np.inf:
            raise DomainError("curved geometry needs a positive, finite radius")

    @property
    def aspect(self):
        """Separation over radius, the PFT expansion parameter."""
        if self.radius is None:
            return 0.0
        return self.z / self.radius

    @property
    def asymptotics_reliable(self):
        """True while z/R stays within the trusted short-separation range."""
        return self.aspect <= ASYMPTOTIC_LIMIT


class PftErrorCoefficients(NamedTuple):
    """Leading relative PFT errors for the cylinder-plate geometry."""

    force: float
    energy: float
    ratio: float


def ideal_plate_pressure(z):
    """Zero-temperature pressure between ideal-metal plates, Pa.

    P(z) = -pi^2 hbar c / (240 z^4).
    """
    if z <= 0.0:
        raise DomainError("separation must be positive")
    return -(np.pi**2) * CONSTANTS.hbar * CONSTANTS.c / (240.0 * z**4)


def ideal_plate_energy(z):
    """Zero-temperature energy per unit area between ideal-metal plates, J/m^2."""
    if z <= 0.0:
        raise DomainError("separation must be positive")
    return -(np.pi**2) * CONSTANTS.hbar * CONSTANTS.c / (720.0 * z**3)


def pft_force(case):
    """Proximity-force value of the Casimir force for a curved geometry.

    Returns N/m for a cylinder above a plate (force per unit length) and N
    for a sphere above a plate.  Not defined for plate-plate.
    """
    if case.kind == "plate-plate":
        raise DomainError("proximity-force result is undefined for plate-plate")
    hc = CONSTANTS.hbar * CONSTANTS.c
    if case.kind == "cylinder-plate":
        return -(np.pi**3) / (384.0 * np.sqrt(2.0)) * np.sqrt(case.radius / case.z) * hc / case.z**3
    return -(np.pi**3) / 360.0 * hc * case.radius / case.z**3


def exact_cylinder_force(z, radius):
    """Cylinder-plate force per unit length with the leading PFT correction.

    Valid as an asymptotic expansion for z << R; beyond z/R = 0.1 the
    dropped higher orders are unquantified and ``GeometryCase`` flags the
    result as unreliable.
    """
    case = GeometryCase("cylinder-plate", z, radius)
    correction = 1.0 - _CYLINDER_FORCE_COEFFICIENT * case.aspect
    return pft_force(case) * correction


def pft_error_coefficients():
    """Leading relative PFT error coefficients (force, energy, their ratio).

    The PFT overestimates the cylinder-plate force by 0.288618 z/R and the
    energy by 0.48103 z/R; the energy error exceeds the force error by the
    exact factor 5/3.
    """
    force = -_CYLINDER_FORCE_COEFFICIENT
    energy = force * 5.0 / 3.0
    return PftErrorCoefficients(force=force, energy=energy, ratio=5.0 / 3.0)


def pressure_from_gradient(force_gradient, radius):
    """Equivalent plate pressure from a measured sphere-plate force gradient.

    P = -(1 / (2 pi R)) dF/dz, the standard dynamic-experiment conversion.
    """
    if radius <= 0.0:
        raise DomainError("radius must be positive")
    return -force_gradient / (2.0 * np.pi * radius)
