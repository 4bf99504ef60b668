"""Bundled material presets.

Metallic presets carry plasma frequency and relaxation parameter in eV and
build any of the supported prescriptions; the silicon preset is a bundled
optical table whose dispersion integral reproduces the static permittivity
11.66.  User-supplied files override presets simply by being passed instead.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from importlib import resources

from .constants import ev_to_angular_frequency
from .errors import DomainError
from .fileio import load_optical_table
from .materials import (
    ConstantEpsilon,
    Drude,
    DrudeParameters,
    IdealMetal,
    InfraredOpticsImpedance,
    Plasma,
    SkinEffectImpedance,
    TabulatedPermittivity,
)

SI_STATIC_PERMITTIVITY = 11.66


@dataclass(frozen=True)
class MetallicPreset:
    """Drude parameters of a bundled metal, stored in eV."""

    name: str
    omega_p_ev: float
    gamma_ev: float

    @property
    def omega_p(self):
        return ev_to_angular_frequency(self.omega_p_ev)

    @property
    def gamma(self):
        return ev_to_angular_frequency(self.gamma_ev)


METALLIC_PRESETS = {
    "au-paper": MetallicPreset("Au-paper", 9.0, 0.035),
    "au-resistivity": MetallicPreset("Au-resistivity", 8.9, 0.0357),
}

#: The one bundled table preset, matched case-insensitively like the metallic ones.
TABLE_PRESET = "Si-static"
#: Every preset name, metallic ones first, as the CLI help and errors list them.
PRESET_NAMES = tuple(p.name for p in METALLIC_PRESETS.values()) + (TABLE_PRESET,)


def get_metallic_preset(name):
    """Look up a metallic preset by (case-insensitive) name."""
    try:
        return METALLIC_PRESETS[name.lower()]
    except KeyError:
        known = ", ".join(p.name for p in METALLIC_PRESETS.values())
        raise DomainError(f"unknown metallic preset {name!r} (known: {known})") from None


def si_static_table():
    """Bundled synthetic silicon table with the constant-eps(0)=11.66 rule."""
    with resources.as_file(resources.files("thermal_casimir.data") / "si_static_imeps.txt") as path:
        table = load_optical_table(path, ConstantEpsilon(SI_STATIC_PERMITTIVITY))
    return replace(
        table, provenance="bundled synthetic Si oscillator table (static permittivity 11.66)"
    )


#: The prescription names ``build_model`` accepts, each with the Drude
#: parameters it reads (from the eV overrides or the preset) and its constructor.
_PRESCRIPTIONS = {
    "ideal": ((), IdealMetal),
    "drude": (("omega_p", "gamma"), lambda omega_p, gamma: Drude(DrudeParameters(omega_p, gamma))),
    "plasma": (("omega_p",), Plasma),
    "impedance-ir": (("omega_p",), InfraredOpticsImpedance),
    "impedance-skin": (("omega_p", "gamma"), SkinEffectImpedance),
    "table": ((), TabulatedPermittivity),
}
MODEL_KINDS = tuple(_PRESCRIPTIONS)
DEFAULT_PRESET = "Au-paper"


def build_model(kind, preset=DEFAULT_PRESET, omega_p_ev=None, gamma_ev=None, table=None):
    """Construct a material response from a prescription name and parameters.

    Parameters
    ----------
    kind : str
        One of ``MODEL_KINDS``; DomainError for any other name, before any
        other check.
    preset : str
        Parameter preset for metallic prescriptions, or "Si-static" for the
        bundled table; "" names none.  DomainError for any other name, for
        every kind, even one that reads no preset.
    omega_p_ev, gamma_ev : float, optional
        Explicit overrides of the preset values, in eV.  DomainError if the
        prescription does not use the value: neither for "ideal" and
        "table", gamma for "plasma" and "impedance-ir".
    table : OpticalTable, optional
        Explicit table for kind="table"; overrides the preset.
    """
    if kind not in _PRESCRIPTIONS:
        raise DomainError(f"unknown model kind {kind!r}")
    reads, construct = _PRESCRIPTIONS[kind]
    overrides = {"omega_p": omega_p_ev, "gamma": gamma_ev}
    for name, value in overrides.items():
        if value is not None and name not in reads:
            raise DomainError(f"model {kind!r} does not use {name}_ev")
    table_preset = bool(preset) and preset.lower() == TABLE_PRESET.lower()
    if preset and not table_preset and preset.lower() not in METALLIC_PRESETS:
        raise DomainError(f"unknown preset {preset!r} (known: {', '.join(PRESET_NAMES)})")
    if kind == "ideal":
        return construct()
    if kind == "table":
        if table is None:
            if not table_preset:
                raise DomainError(
                    f"tabulated models need an optical table or the {TABLE_PRESET} preset")
            table = si_static_table()
        return construct(table)

    if table_preset:
        raise DomainError(f"preset {preset!r} provides a table, not Drude parameters")
    metal = get_metallic_preset(preset)
    return construct(*(getattr(metal, name) if overrides[name] is None
                       else ev_to_angular_frequency(overrides[name]) for name in reads))
