"""Material response models evaluated on the imaginary frequency axis.

A material response bundles a way to evaluate the dielectric permittivity
eps(i*xi) (or a Leontovich impedance Z(i*xi)) for xi > 0 together with an
explicit reflection rule for the zero-frequency Matsubara term.  The zero
frequency term is never obtained by letting xi -> 0 in the permittivity;
every variant states its own rule.

Internal units are SI.  Plasma frequencies and relaxation parameters in eV
must be converted at the boundary via :mod:`thermal_casimir.constants`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, ClassVar, Optional

import math

import numpy as np

from .constants import CONSTANTS
from .errors import DomainError, ExtrapolationError, PrescriptionError
from .quadrature import kronrod_rule, kronrod_sum, refine, split_edges
from .reflection import ReflectionPair, fresnel_q, impedance_q, perfect_q
# the validated (xi, k_perp) forms stay importable here, where perfbench/tracer.py
# and perfbench/tests look them up
from .reflection import fresnel_reflection, impedance_reflection  # noqa: F401

#: Relative tolerance of the dispersion integral behind eps_from_table, and the
#: refinement levels allowed to reach it (up to four splits of every panel).
_DISPERSION_REL_TOL = 1e-6
_DISPERSION_LEVELS = 5

#: Temperature (K) at which a Drude relaxation parameter is quoted and from
#: which a power-law gamma(T) map scales by default.
REFERENCE_TEMPERATURE = 300.0


def matsubara_frequency(index, temperature):
    """Matsubara angular frequency xi_l = 2 pi k_B T l / hbar.

    Parameters
    ----------
    index : int or ndarray of int
        Matsubara index l >= 0.
    temperature : float
        Temperature in K, strictly positive.

    Returns
    -------
    float or ndarray
        Angular frequency in rad/s; exactly zero for l = 0.
    """
    index = np.asarray(index)
    if not np.issubdtype(index.dtype, np.integer):
        raise DomainError("Matsubara index must be an integer")
    if np.any(index < 0):
        raise DomainError("Matsubara index must be nonnegative")
    if not 0.0 < temperature < math.inf:
        raise DomainError("temperature must be positive and finite")
    value = 2.0 * np.pi * CONSTANTS.k_B * temperature / CONSTANTS.hbar * index
    return value if value.ndim else float(value)


# ---------------------------------------------------------------------------
# relaxation-parameter maps gamma(T)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PowerLawGamma:
    """Relaxation parameter falling as a power of temperature.

    gamma(T) = max(floor, gamma_ref * (T / T_ref)**exponent).  The default
    exponent 5 mimics the low-temperature phonon scaling of a perfect
    lattice; a nonzero floor models residual impurity scattering.
    """

    gamma_ref: float
    reference_temperature: float = REFERENCE_TEMPERATURE
    exponent: float = 5.0
    floor: float = 0.0

    def __post_init__(self):
        if not (0.0 <= self.gamma_ref < math.inf and 0.0 <= self.floor < math.inf):
            raise DomainError("relaxation parameters must be nonnegative and finite")
        if not (0.0 < self.reference_temperature < math.inf and 0.0 < self.exponent < math.inf):
            raise DomainError("reference temperature and exponent must be positive and finite")

    def __call__(self, temperature):
        t = np.asarray(temperature, dtype=float)
        value = self.gamma_ref * (t / self.reference_temperature) ** self.exponent
        out = np.maximum(value, self.floor)
        return out if out.ndim else float(out)


@dataclass(frozen=True)
class TabulatedGamma:
    """Relaxation parameter interpolated from (T, gamma) samples.

    Samples must be nonnegative and nondecreasing in T so that gamma is
    monotone nonincreasing toward T = 0; evaluation clamps outside the
    tabulated range.
    """

    temperatures: tuple
    gammas: tuple

    def __post_init__(self):
        t = np.asarray(self.temperatures, dtype=float)
        g = np.asarray(self.gammas, dtype=float)
        if t.size < 2 or t.size != g.size:
            raise DomainError("gamma table needs matching T and gamma columns, two rows minimum")
        if not (np.all(np.isfinite(t)) and np.all(np.isfinite(g))):
            raise DomainError("gamma table values must be finite")
        if np.any(t < 0.0) or np.any(np.diff(t) <= 0.0):
            raise DomainError("gamma table temperatures must be nonnegative and strictly increasing")
        if np.any(g < 0.0):
            raise DomainError("gamma table values must be nonnegative")
        if np.any(np.diff(g) < 0.0):
            raise DomainError("gamma table must be nondecreasing in T")
        object.__setattr__(self, "temperatures", tuple(float(x) for x in t))
        object.__setattr__(self, "gammas", tuple(float(x) for x in g))

    def __call__(self, temperature):
        value = np.interp(np.asarray(temperature, dtype=float), self.temperatures, self.gammas)
        return value if value.ndim else float(value)


@dataclass(frozen=True)
class DrudeParameters:
    """Drude parameters with an optional temperature map for the relaxation.

    Attributes
    ----------
    omega_p : float
        Plasma frequency, rad/s.
    gamma : float
        Relaxation parameter at ``REFERENCE_TEMPERATURE``, rad/s.
    gamma_of_T : callable, optional
        Map T -> gamma(T) in rad/s.  When absent, gamma is held at its
        reference value for every temperature.
    """

    omega_p: float
    gamma: float
    gamma_of_T: Optional[Callable[[float], float]] = None

    def __post_init__(self):
        if not 0.0 < self.omega_p < math.inf:
            raise DomainError("plasma frequency must be positive and finite")
        if not 0.0 <= self.gamma < math.inf:
            raise DomainError("relaxation parameter must be nonnegative and finite")
        if self.gamma_of_T is not None and not callable(self.gamma_of_T):
            raise DomainError("gamma_of_T must be None or a callable map T -> gamma")

    def relaxation(self, temperature=None):
        """gamma at the given temperature (reference value when no map is set)."""
        if temperature is None:
            temperature = REFERENCE_TEMPERATURE
        if self.gamma_of_T is None:
            return self.gamma
        value = self.gamma_of_T(temperature)
        gamma = np.asarray(value)
        if not np.all((0.0 <= gamma) & (gamma < math.inf)):
            raise DomainError("gamma_of_T must return a nonnegative, finite relaxation parameter")
        return value


# ---------------------------------------------------------------------------
# closed-form permittivities and impedances
# ---------------------------------------------------------------------------


def _imaginary_frequency(xi):
    """``xi`` as a float array; rejects xi <= 0, which has its own rule, and nan/inf."""
    xi = np.asarray(xi, dtype=float)
    if np.any(xi <= 0.0):
        raise DomainError("zero-frequency term must use the prescription rule, not eps(i*xi)")
    if not np.all(xi < math.inf):
        raise DomainError("imaginary frequency must be finite")
    return xi


def eps_drude(xi, parameters, temperature=None):
    """Drude permittivity at i*xi: ``Drude(parameters).response``."""
    return Drude(parameters).response(xi, temperature)


def eps_plasma(xi, omega_p):
    """Plasma permittivity at i*xi: ``Plasma(omega_p).response``."""
    return Plasma(omega_p).response(xi)


def impedance_from_eps(xi, eps):
    """Leontovich impedance 1/sqrt(eps) where both descriptions overlap."""
    _imaginary_frequency(xi)
    eps = np.asarray(eps, dtype=float)
    if not np.all((1.0 <= eps) & (eps < math.inf)):
        raise DomainError("impedance conversion requires finite eps >= 1")
    value = 1.0 / np.sqrt(eps)
    return value if value.ndim else float(value)


# ---------------------------------------------------------------------------
# tabulated optical data and the dispersion integral
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DrudeTail:
    """Continue Im eps below the grid with a Drude absorption profile; the
    zero-frequency rule is then Drude's (TM amplitude 1, TE 0)."""

    omega_p: float
    gamma: float
    zero_frequency_tm: ClassVar[float] = 1.0

    def __post_init__(self):
        if not (0.0 < self.omega_p < math.inf and 0.0 < self.gamma < math.inf):
            raise DomainError("Drude tail needs positive, finite omega_p and gamma")

    def below_grid_integral(self, xi, omega_min):
        """Closed-form dispersion integral over [0, omega_min]: the Drude profile
        makes the integrand omega_p^2 gamma / ((omega^2 + gamma^2)(omega^2 + xi^2))."""
        g = self.gamma
        w = omega_min
        out = np.empty(xi.shape)
        near = np.abs(xi - g) < 1e-6 * g
        x = xi[~near]
        out[~near] = (np.arctan(w / g) / g - np.arctan(w / x) / x) / (x**2 - g**2)
        if np.any(near):
            # the divided difference of arctan(w/x)/x at g, to first order in xi - g
            x = xi[near]
            s = w / (w**2 + g**2)
            p = s + np.arctan(w / g) / g
            out[near] = (p / g - (s / (w**2 + g**2) + p / g**2) * (x - g)) / (x + g)
        return self.omega_p**2 * g * out


@dataclass(frozen=True)
class ConstantEpsilon:
    """No absorption below the grid; the material is a plain dielectric there.

    ``eps_static`` is the static permittivity, which a consistent table
    integrates to as xi -> 0; the zero-frequency rule is then the dielectric
    one (TM amplitude (eps_static - 1)/(eps_static + 1), TE 0).
    """

    eps_static: float

    def __post_init__(self):
        if not 1.0 <= self.eps_static < math.inf:
            raise DomainError("static permittivity must be finite and >= 1")

    @property
    def zero_frequency_tm(self):
        return (self.eps_static - 1.0) / (self.eps_static + 1.0)

    def below_grid_integral(self, xi, omega_min):
        """The dispersion integral over [0, omega_min]: no absorption, 0."""
        return 0.0


@dataclass(frozen=True)
class OpticalTable:
    """Tabulated Im eps(omega) on a strictly increasing frequency grid.

    Attributes
    ----------
    omega : ndarray
        Angular frequencies, rad/s, strictly increasing and positive.
    im_eps : ndarray
        Imaginary part of the permittivity at ``omega``; nonnegative
        (passivity).
    extrapolation : DrudeTail, ConstantEpsilon or None
        Continuation below ``omega[0]``, which states the below-grid part of
        the dispersion integral and the zero-frequency TM amplitude; ``None``
        means the table carries no information there at all.
    provenance : str
        Free-form description of where the data came from.
    """

    omega: np.ndarray
    im_eps: np.ndarray
    extrapolation: object = None
    provenance: str = ""

    def __post_init__(self):
        omega = np.array(self.omega, dtype=float)
        im_eps = np.array(self.im_eps, dtype=float)
        if omega.ndim != 1 or omega.size < 2 or omega.shape != im_eps.shape:
            raise DomainError("optical table needs matching 1-d omega and Im eps columns")
        if not (np.all(np.isfinite(omega)) and np.all(np.isfinite(im_eps))):
            raise DomainError("optical table values must be finite")
        if omega[0] <= 0.0 or np.any(np.diff(omega) <= 0.0):
            raise DomainError("optical table frequencies must be positive and strictly increasing")
        if np.any(im_eps < 0.0):
            raise DomainError("Im eps must be nonnegative (passivity)")
        if self.extrapolation is not None and not isinstance(
            self.extrapolation, (DrudeTail, ConstantEpsilon)
        ):
            raise DomainError("unknown extrapolation rule")
        omega.setflags(write=False)
        im_eps.setflags(write=False)
        object.__setattr__(self, "omega", omega)
        object.__setattr__(self, "im_eps", im_eps)


def _grid_dispersion_integral(xi, table, level):
    """Integral of omega * Im eps / (omega^2 + xi^2) over the tabulated range.

    Performed in log frequency with the tabulated absorption interpolated
    linearly in log omega, on one Kronrod panel per table interval split
    ``level - 1`` times.  Returns the integrals and the largest relative
    error estimate |K - G| / |K| over the requested xi.
    """
    u = np.log(table.omega)
    nodes_u, kronrod, gauss = kronrod_rule(split_edges(u, level - 1))
    omega2 = np.exp(nodes_u) ** 2
    # integrand in u: omega^2 * Im eps / (omega^2 + xi^2), one block-sized array
    numerator = omega2 * np.interp(nodes_u, u, table.im_eps)
    result, error = np.empty(xi.size), np.empty(xi.size)
    for start in range(0, xi.size, 16):
        block = slice(start, start + 16)
        kernel = omega2 + xi[block, None] ** 2
        np.divide(numerator, kernel, out=kernel)
        result[block], error[block] = kronrod_sum(kernel, kronrod, gauss)
    return result, float(np.max(error / np.maximum(np.abs(result), 1e-300), initial=0.0))


def eps_from_table(xi, table):
    """Permittivity at imaginary frequency from tabulated absorption data.

    Evaluates 1 + (2/pi) * integral of omega Im eps(omega) / (omega^2 + xi^2)
    with the below-grid integrand supplied by the table's extrapolation rule
    and no absorption assumed above the grid.  The tabulated range is
    integrated with the embedded Gauss-Kronrod pair, one panel per table
    interval: the Kronrod sum is the result and |Kronrod - Gauss|, floored at
    the rounding level, its error estimate, which must stay within a relative
    1e-6 at every xi.  :func:`.quadrature.refine` splits every panel in two
    until it does, at most four times.

    Parameters
    ----------
    xi : float or ndarray
        Imaginary angular frequency, rad/s, strictly positive.
    table : OpticalTable

    Returns
    -------
    float or ndarray
        eps(i*xi) >= 1.

    Raises
    ------
    ExtrapolationError
        If the table has no extrapolation rule but the region below the grid
        would contribute more than 1% of the integral (estimated by a 1/omega
        continuation of the lowest tabulated absorption); checked at each
        refinement level before a finer one is evaluated.
    ConvergenceError
        "dispersion integral did not reach tolerance 1e-06 (achieved ...)"
        if four splits do not reach it; carries the last estimate of
        eps(i*xi) and the tolerance it achieved.
    """
    xi_in = _imaginary_frequency(xi)
    xi_arr = np.ravel(xi_in).astype(float)

    omega_min = table.omega[0]
    rule = table.extrapolation
    tail = 0.0 if rule is None else rule.below_grid_integral(xi_arr, omega_min)

    def evaluate(level):
        grid_part, achieved = _grid_dispersion_integral(xi_arr, table, level)
        if rule is None:
            # probe with a 1/omega continuation of the lowest sample
            probe = table.im_eps[0] * omega_min * np.arctan(omega_min / xi_arr) / xi_arr
            total = grid_part + probe
            mask = total > 0.0
            if np.any(probe[mask] > 0.01 * total[mask]):
                raise ExtrapolationError(
                    "extrapolation required: below-grid absorption would exceed "
                    "1% of the dispersion integral"
                )
        value = 1.0 + (2.0 / np.pi) * (grid_part + tail)
        return (value.reshape(xi_in.shape) if xi_in.ndim else float(value[0])), achieved

    return refine(evaluate, _DISPERSION_LEVELS, _DISPERSION_REL_TOL, "dispersion integral")[0]


def drude_absorption(omega, omega_p, gamma):
    """Real-axis Drude absorption Im eps = omega_p^2 gamma / (omega (omega^2 + gamma^2))."""
    omega = np.asarray(omega, dtype=float)
    if not np.all((0.0 < omega) & (omega < np.inf)):
        raise DomainError("real-axis frequency must be positive and finite")
    return omega_p**2 * gamma / (omega * (omega**2 + gamma**2))


def synthesize_drude_table(omega_p, gamma, omega_min, omega_max, points):
    """Optical table sampled from the closed-form Drude absorption profile,
    continued below the grid by the same Drude tail."""
    omega = np.geomspace(omega_min, omega_max, points)
    return OpticalTable(
        omega=omega,
        im_eps=drude_absorption(omega, omega_p, gamma),
        extrapolation=DrudeTail(omega_p, gamma),
        provenance=f"synthetic Drude absorption, omega_p={omega_p:.6e} rad/s, gamma={gamma:.6e} rad/s",
    )


# ---------------------------------------------------------------------------
# material response variants
# ---------------------------------------------------------------------------


class MaterialResponse:
    """Base class for the supported material prescriptions.

    A subclass states its response at imaginary frequency once, unchecked,
    as ``_response(xi, temperature)``, and its explicit zero-frequency rule
    as ``zero_frequency_reflection(k_perp)``, a constant amplitude as a
    float.  Its class-level ``kernel`` reads the response: eps(i*xi) for
    :func:`.fresnel_q`, the Leontovich impedance Z(i*xi) for
    :func:`.impedance_q`; :func:`.perfect_q` ignores it.  ``response`` is
    the checked public form of ``_response``.  ``reflection(xi, q,
    temperature, out)``, the kernel applied to ``_response``, is the only
    reflection path; it takes xi > 0 and the vacuum decay constant
    q = sqrt(k_perp^2 + xi^2/c^2) >= xi/c, the variable the Matsubara engine
    integrates in, and does not validate them.  The kernel writes amplitudes it
    computes as arrays into ``out`` (the engine passes views of its workspace)
    or into a pair it allocates (see :func:`.fresnel_q`).  Instances are
    immutable and safe to share across threads.
    """

    tag: ClassVar[str] = "abstract"

    def _response(self, xi, temperature):
        raise NotImplementedError

    def response(self, xi, temperature=None):
        """eps(i*xi) or Z(i*xi), per ``kernel``, at finite xi > 0 (else DomainError)."""
        value = self._response(_imaginary_frequency(xi), temperature)
        return value if np.ndim(value) else float(value)

    def reflection(self, xi, q, temperature=None, out=None):
        return self.kernel(xi, q, self._response(xi, temperature), out)

    def zero_frequency_reflection(self, k_perp):
        raise NotImplementedError


@dataclass(frozen=True)
class IdealMetal(MaterialResponse):
    """Perfect reflector; both polarizations reflect fully at every frequency.

    Its response is eps(i*xi) = inf, the perfect-conductor limit.  At zero
    frequency this reproduces the Schwinger prescription (take the
    perfect-conductor limit before setting l = 0).
    """

    tag: ClassVar[str] = "ideal"
    kernel: ClassVar[Callable] = staticmethod(perfect_q)

    def _response(self, xi, temperature):
        return np.full(np.shape(xi), np.inf)

    def zero_frequency_reflection(self, k_perp):
        return ReflectionPair(1.0, 1.0)


@dataclass(frozen=True)
class Drude(MaterialResponse):
    """Drude metal; the TE zero-frequency reflection vanishes identically."""

    parameters: DrudeParameters
    tag: ClassVar[str] = "drude"
    kernel: ClassVar[Callable] = staticmethod(fresnel_q)

    def _response(self, xi, temperature):
        gamma = self.parameters.relaxation(temperature)
        return 1.0 + self.parameters.omega_p**2 / (xi * (xi + gamma))

    def zero_frequency_reflection(self, k_perp):
        return ReflectionPair(1.0, 0.0)


@dataclass(frozen=True)
class Plasma(MaterialResponse):
    """Dissipationless plasma; the TE zero-frequency reflection stays finite."""

    omega_p: float
    tag: ClassVar[str] = "plasma"
    kernel: ClassVar[Callable] = staticmethod(fresnel_q)

    def __post_init__(self):
        if not 0.0 < self.omega_p < math.inf:
            raise DomainError("plasma frequency must be positive and finite")

    def _response(self, xi, temperature):
        return 1.0 + (self.omega_p / xi) ** 2

    def zero_frequency_reflection(self, k_perp):
        ck = CONSTANTS.c * np.asarray(k_perp, dtype=float)
        root = np.sqrt(ck**2 + self.omega_p**2)
        return ReflectionPair(1.0, (root - ck) / (root + ck))


@dataclass(frozen=True)
class TabulatedPermittivity(MaterialResponse):
    """Material described by tabulated optical data via the dispersion integral.

    The table's extrapolation states both the below-grid part of the
    dispersion integral and the zero-frequency TM amplitude: 1 for a Drude
    tail, the dielectric Fresnel limit for a constant static permittivity;
    the TE amplitude is 0 for both.  A table without extrapolation has no
    zero-frequency rule at all.
    """

    table: OpticalTable
    tag: ClassVar[str] = "table"
    kernel: ClassVar[Callable] = staticmethod(fresnel_q)

    def _response(self, xi, temperature):
        return eps_from_table(xi, self.table)

    def zero_frequency_reflection(self, k_perp):
        rule = self.table.extrapolation
        if rule is None:
            raise PrescriptionError(
                "prescription required: tabulated data without extrapolation has "
                "no zero-frequency reflection rule"
            )
        return ReflectionPair(rule.zero_frequency_tm, 0.0)


@dataclass(frozen=True)
class InfraredOpticsImpedance(MaterialResponse):
    """Leontovich impedance taken from the infrared-optics (plasma) response."""

    omega_p: float
    tag: ClassVar[str] = "impedance-ir"
    kernel: ClassVar[Callable] = staticmethod(impedance_q)

    def __post_init__(self):
        if not 0.0 < self.omega_p < math.inf:
            raise DomainError("plasma frequency must be positive and finite")

    def _response(self, xi, temperature):
        return xi / np.sqrt(xi**2 + self.omega_p**2)

    def zero_frequency_reflection(self, k_perp):
        ck = CONSTANTS.c * np.asarray(k_perp, dtype=float)
        return ReflectionPair(1.0, (self.omega_p - ck) / (self.omega_p + ck))


@dataclass(frozen=True)
class SkinEffectImpedance(MaterialResponse):
    """Leontovich impedance in the normal skin-effect regime.

    Z(i*xi) = sqrt(xi * gamma) / omega_p, the low-frequency limit of the
    Drude impedance.  Its zero-frequency reflection rule coincides with the
    perfect-reflector one.
    """

    omega_p: float
    gamma: float
    tag: ClassVar[str] = "impedance-skin"
    kernel: ClassVar[Callable] = staticmethod(impedance_q)

    def __post_init__(self):
        if not (0.0 < self.omega_p < math.inf and 0.0 < self.gamma < math.inf):
            raise DomainError("skin-effect impedance needs positive, finite omega_p and gamma")

    def _response(self, xi, temperature):
        return np.sqrt(xi * self.gamma) / self.omega_p

    def zero_frequency_reflection(self, k_perp):
        return ReflectionPair(1.0, 1.0)
