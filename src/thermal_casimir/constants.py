"""Physical constants and unit conversions.

All internal computation uses SI throughout (rad/s, J, m, K).  Electron-volt
values are accepted only at API and CLI boundaries and pass through the single
conversion point :func:`ev_to_angular_frequency`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

# h, e, k_B and c are exact SI defining values; G is the CODATA recommended
# value (unchanged from 2018 to 2022).
_HBAR = 6.62607015e-34 / (2.0 * math.pi)

#: Apery's constant zeta(3), correctly rounded to double precision.
ZETA3 = 1.2020569031595942


@dataclass(frozen=True)
class PhysicalConstants:
    """CODATA-pinned constants, immutable.

    Attributes
    ----------
    hbar : float
        Reduced Planck constant, J s.
    c : float
        Speed of light in vacuum, m/s.
    k_B : float
        Boltzmann constant, J/K.
    G : float
        Newtonian gravitational constant, m^3/(kg s^2).
    ev_to_rad_per_s : float
        Angular frequency corresponding to a photon energy of 1 eV, equal
        to e/hbar.
    """

    hbar: float = _HBAR
    c: float = 299792458.0
    k_B: float = 1.380649e-23
    G: float = 6.6743e-11
    ev_to_rad_per_s: float = 1.602176634e-19 / _HBAR


CONSTANTS = PhysicalConstants()


def ev_to_angular_frequency(energy_ev):
    """Convert a photon energy in eV to an angular frequency in rad/s."""
    return energy_ev * CONSTANTS.ev_to_rad_per_s


def angular_frequency_to_ev(omega):
    """Convert an angular frequency in rad/s to a photon energy in eV."""
    return omega / CONSTANTS.ev_to_rad_per_s
