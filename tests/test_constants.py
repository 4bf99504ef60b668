import dataclasses

import pytest
import scipy.constants as sc
from scipy.special import zeta

from thermal_casimir.constants import (
    CONSTANTS,
    ZETA3,
    angular_frequency_to_ev,
    ev_to_angular_frequency,
)


def test_codata_values():
    assert CONSTANTS.hbar == sc.hbar
    assert CONSTANTS.c == sc.c
    assert CONSTANTS.k_B == sc.k
    assert CONSTANTS.G == sc.G
    assert CONSTANTS.ev_to_rad_per_s == sc.e / sc.hbar
    assert ZETA3 == zeta(3.0)


def test_ev_conversion_factor_is_e_over_hbar():
    assert CONSTANTS.ev_to_rad_per_s == pytest.approx(sc.e / sc.hbar, rel=1e-10)


def test_constants_are_immutable():
    with pytest.raises(dataclasses.FrozenInstanceError):
        CONSTANTS.hbar = 1.0


def test_ev_round_trip():
    omega = ev_to_angular_frequency(9.0)
    assert omega == pytest.approx(1.3673407030907634e16, rel=1e-12)
    assert angular_frequency_to_ev(omega) == pytest.approx(9.0, rel=1e-14)
