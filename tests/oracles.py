"""Independent numerical oracles used to pin expected values.

Every oracle here deliberately follows a different route than the library:
pairwise-sum quantities are reduced to low-dimensional integrals evaluated
with scipy quadrature and differentiated by central differences, and special
function integrals use composite fixed-order Gauss-Legendre panels or 30-digit
mpmath tanh-sinh quadrature instead of the library's panel refinement.  The
Matsubara oracle integrates every term adaptively in the in-plane wavevector,
not on the library's fixed panels in the decay variable.
"""

import itertools
import math

import mpmath as mp
import numpy as np
from scipy import integrate

import scipy.constants as sc


# ---------------------------------------------------------------------------
# Yukawa pairwise-sum oracles
# ---------------------------------------------------------------------------


def plate_energy_numeric(z, rho_a, rho_b, alpha, lam):
    """Energy per area between homogeneous half-spaces.

    Pair-distance reduction: the number of pairs at separation s per unit
    plate area is pi * s * (s - z)^2 ds, so the pairwise sum of the Yukawa
    term collapses to a single integral over s.
    """
    value, _ = integrate.quad(
        lambda s: (s - z) ** 2 * np.exp(-s / lam),
        z, z + 200.0 * lam, epsabs=0.0, epsrel=1e-12, limit=400,
    )
    return -np.pi * sc.G * alpha * rho_a * rho_b * value


def plate_pressure_numeric(z, rho_a, rho_b, alpha, lam):
    h = 1e-5 * z
    upper = plate_energy_numeric(z + h, rho_a, rho_b, alpha, lam)
    lower = plate_energy_numeric(z - h, rho_a, rho_b, alpha, lam)
    return -(upper - lower) / (2.0 * h)


def layered_plate_pressure_numeric(z, profile_a, profile_b, depth_a, depth_b, alpha, lam):
    """Pressure between plates with depth-dependent densities.

    ``profile_*`` map depth (m) to density (kg/m^3); ``depth_*`` bound the
    material extent.  Double quadrature over both depth coordinates of the
    exponentially attenuated pair interaction, then a central difference.
    """

    def energy(gap):
        value, _ = integrate.dblquad(
            lambda t2, t1: profile_a(t1) * profile_b(t2) * np.exp(-(gap + t1 + t2) / lam),
            0.0, depth_a, 0.0, depth_b, epsabs=0.0, epsrel=1e-10,
        )
        return -2.0 * np.pi * sc.G * alpha * lam * value

    h = 1e-5 * z
    return -(energy(z + h) - energy(z - h)) / (2.0 * h)


def point_plate_potential_numeric(d, rho_p, alpha, lam):
    """Yukawa-term potential of a unit point mass above a half-space."""
    value, _ = integrate.quad(
        lambda t: np.exp(-(d + t) / lam), 0.0, 60.0 * lam,
        epsabs=0.0, epsrel=1e-12, limit=400,
    )
    return -2.0 * np.pi * sc.G * alpha * rho_p * lam * value


def sphere_plate_energy_numeric(z, radius, rho_s, rho_p, alpha, lam):
    """Slice the sphere into plane-parallel disks against the plate potential."""

    def disk(x):
        area = np.pi * (radius**2 - (x - z - radius) ** 2)
        return area * rho_s * point_plate_potential_numeric(x, rho_p, alpha, lam)

    value, _ = integrate.quad(disk, z, z + 2.0 * radius,
                              epsabs=0.0, epsrel=1e-10, limit=400)
    return value


def sphere_plate_force_numeric(z, radius, rho_s, rho_p, alpha, lam):
    h = 1e-5 * z
    upper = sphere_plate_energy_numeric(z + h, radius, rho_s, rho_p, alpha, lam)
    lower = sphere_plate_energy_numeric(z - h, radius, rho_s, rho_p, alpha, lam)
    return -(upper - lower) / (2.0 * h)


# ---------------------------------------------------------------------------
# fixed-panel Gauss-Legendre oracle for the zero-temperature entropy integral
# ---------------------------------------------------------------------------


def drude_zero_entropy_numeric(z, omega_p):
    """Composite fixed-order Gauss-Legendre version of the entropy integral."""
    y_hat = 2.0 * z * omega_p / sc.c

    def integrand(y):
        root = np.sqrt(y_hat**2 + y * y)
        g = (y - root) / (y + root)
        return y * np.log1p(-(g * g) * np.exp(-y))

    nodes, weights = np.polynomial.legendre.leggauss(40)
    edges = np.concatenate([np.linspace(0.0, 4.0, 17), np.geomspace(4.5, 90.0, 24)])
    total = 0.0
    for a, b in zip(edges[:-1], edges[1:]):
        half, mid = 0.5 * (b - a), 0.5 * (a + b)
        total += half * np.sum(weights * integrand(mid + half * nodes))
    return sc.k / (16.0 * np.pi * z**2) * total


def drude_zero_entropy_mp(z, omega_p):
    """30-digit tanh-sinh version of the entropy integral.

    Uses the cancellation-free form g = -yhat^2 / (y + sqrt(yhat^2 + y^2))^2
    and integrates to infinity rather than to a cut-off.
    """
    with mp.workdps(30):
        y_hat = 2 * mp.mpf(z) * mp.mpf(omega_p) / mp.mpf(sc.c)

        def integrand(y):
            g = -y_hat**2 / (y + mp.sqrt(y_hat**2 + y * y)) ** 2
            return y * mp.log1p(-g * g * mp.exp(-y))

        total = mp.quad(integrand, [0, 1, 4, 16, 40, mp.inf])
        return float(sc.k / (16 * mp.pi * mp.mpf(z) ** 2) * total)


# ---------------------------------------------------------------------------
# 40-digit single-node integrands
# ---------------------------------------------------------------------------


def integrands_mp(r2, y):
    """y ln(1 - r2 e^-y) and r2 e^-y / (1 - r2 e^-y) at 40 digits, as mpf.

    ``r2`` and ``y`` are taken as the exact values of the given floats.
    """
    with mp.workdps(40):
        x = mp.mpf(r2) * mp.exp(-mp.mpf(y))
        return mp.mpf(y) * mp.log(1 - x), x / (1 - x)


# ---------------------------------------------------------------------------
# finite-difference pressure oracle
# ---------------------------------------------------------------------------


def finite_difference_pressure(z, temperature, model, config):
    """-dF/dz by central differences at the documented step z/1000."""
    from thermal_casimir import free_energy

    h = z / 1000.0
    upper = free_energy(z + h, temperature, model, config).free_energy_per_area
    lower = free_energy(z - h, temperature, model, config).free_energy_per_area
    return -(upper - lower) / (2.0 * h)


# ---------------------------------------------------------------------------
# term-by-term Matsubara oracle
# ---------------------------------------------------------------------------


def lifshitz_sum_quad(z, temperature, eps_of_xi, zero_frequency_pair, rel_tol):
    """Free energy per area and pressure, each Matsubara term by scipy ``quad``.

    Every term is integrated over the in-plane wavevector k in the variable
    t = 2 k z on [0, inf) with adaptive quadrature, with Fresnel coefficients
    formed here from ``eps_of_xi(xi)``; the l = 0 term takes its reflection
    pair from ``zero_frequency_pair(k)``.  Terms are added until both fall
    below rel_tol / 1000 of the running sums.  Returns (F, P) in J/m^2, Pa.
    """
    def integrals(pairs_at, y_l):
        def log_term(t):
            big_q = math.hypot(t, y_l)
            return sum(math.log1p(-r * r * math.exp(-big_q)) for r in pairs_at(t))

        def force_term(t):
            big_q = math.hypot(t, y_l)
            return big_q * sum(x / (1.0 - x)
                               for x in (r * r * math.exp(-big_q) for r in pairs_at(t)))

        options = dict(epsabs=0.0, epsrel=1e-13, limit=200)
        return [sum(integrate.quad(lambda t: t * f(t), a, b, **options)[0]
                    for a, b in ((0.0, 1.0), (1.0, np.inf)))
                for f in (log_term, force_term)]

    def zero_pairs(t):
        return [float(r) for r in zero_frequency_pair(t / (2.0 * z))]

    total_f, total_p = (0.5 * v for v in integrals(zero_pairs, 0.0))
    for index in itertools.count(1):
        xi = 2.0 * np.pi * index * sc.k * temperature / sc.hbar
        y_l = 2.0 * xi * z / sc.c
        eps = float(eps_of_xi(xi))

        def pairs(t, eps=eps, y_l=y_l):
            big_q, big_k = math.hypot(t, y_l), math.sqrt(t * t + eps * y_l * y_l)
            return (eps * big_q - big_k) / (eps * big_q + big_k), (big_q - big_k) / (big_q + big_k)

        term_f, term_p = integrals(pairs, y_l)
        total_f += term_f
        total_p += term_p
        if abs(term_f) < 1e-3 * rel_tol * abs(total_f) and abs(term_p) < 1e-3 * rel_tol * abs(total_p):
            break
    prefactor = sc.k * temperature / (8.0 * np.pi * z**2)
    return prefactor * total_f, -prefactor / z * total_p


# ---------------------------------------------------------------------------
# brute-force Matsubara sum on the engine's own term integrals
# ---------------------------------------------------------------------------


def matsubara_sum_direct(z, temperature, model, level=3, y_stop=80.0):
    """Free energy per area and pressure, summing every Matsubara term one by one.

    Uses the engine's term integrals at refinement ``level`` and adds every
    term with y_l = l * y_step <= ``y_stop``, far past any cut the engine
    makes (the ideal-metal tail beyond y = 80 is below 1e-30 of one term),
    with no integral, no endpoint correction and no stop test.  Terms are
    added with ``math.fsum``.  Returns (F, P) in J/m^2 and Pa.
    """
    from thermal_casimir import lifshitz as engine

    rule = engine._rule(level)
    y_step = 4.0 * np.pi * sc.k * temperature * z / (sc.hbar * sc.c)
    zero_f, zero_p = engine._zero_term(z, model, rule, True)
    terms_f, terms_p = [zero_f[:1]], [zero_p[:1]]
    count = int(y_stop / y_step)
    for start in range(1, count + 1, 256):
        indices = np.arange(start, min(start + 256, count + 1))
        block_f, block_p = engine._positive_terms(z, temperature, model, indices, y_step, rule,
                                                  True)
        terms_f.append(block_f[0])
        terms_p.append(block_p[0])
    prefactor = sc.k * temperature / (8.0 * np.pi * z**2)
    return (prefactor * math.fsum(np.concatenate(terms_f)),
            -prefactor / z * math.fsum(np.concatenate(terms_p)))


# ---------------------------------------------------------------------------
# 30-digit ideal-metal Matsubara sum
# ---------------------------------------------------------------------------


def ideal_metal_mp(z, temperature, direct=16, corrections=6):
    """Ideal-metal free energy per area and pressure, summed at 30 digits.

    With r = 1 in both polarizations the Matsubara term at a = l * y_step
    is a closed form in Li_q(e^-a):

        2 Int_a^inf y ln(1 - e^-y) dy = -2 [a Li_2 + Li_3]
        2 Int_a^inf y^2 e^-y / (1 - e^-y) dy = 2 [a^2 Li_1 + 2 a Li_2 + 2 Li_3]

    Terms l < ``direct`` are added one by one (l = 0 with weight 1/2); the
    rest by Euler-Maclaurin, whose integral and odd derivatives at
    a = direct * y_step are closed forms as well, since
    d/da Li_q(e^-a) = -Li_(q-1)(e^-a).  The first omitted correction is of
    order y_step (2 pi direct)^(-2 corrections) relative to a sum of order
    1 / y_step.  Returns (F, P) in J/m^2 and Pa as mpf.
    """
    with mp.workdps(30):
        z, temperature = mp.mpf(z), mp.mpf(temperature)
        y_step = (4 * mp.pi * mp.mpf(sc.k) * temperature * z
                  / (mp.mpf(sc.hbar) * mp.mpf(sc.c)))

        # a term is sum c a^p Li_q(e^-a) over its (c, p, q)
        def derivative(parts, a, order):
            return mp.fsum(c * mp.binomial(order, i) * mp.ff(p, i) * a ** (p - i)
                           * (-1) ** (order - i) * mp.polylog(q - order + i, mp.exp(-a))
                           for c, p, q in parts for i in range(min(order, p) + 1))

        def integral(parts, a):
            # over [a, inf), by parts p times
            return mp.fsum(c * mp.ff(p, i) * a ** (p - i) * mp.polylog(q + 1 + i, mp.exp(-a))
                           for c, p, q in parts for i in range(p + 1))

        sums = []
        for parts in (((-2, 1, 2), (-2, 0, 3)), ((2, 2, 1), (4, 1, 2), (4, 0, 3))):
            start = direct * y_step
            total = mp.fsum(c * mp.zeta(q) for c, p, q in parts if p == 0) / 2
            total += mp.fsum(derivative(parts, l * y_step, 0) for l in range(1, direct))
            total += integral(parts, start) / y_step + derivative(parts, start, 0) / 2
            total -= mp.fsum(mp.bernoulli(2 * k) / mp.factorial(2 * k) * y_step ** (2 * k - 1)
                             * derivative(parts, start, 2 * k - 1)
                             for k in range(1, corrections + 1))
            sums.append(total)
        prefactor = mp.mpf(sc.k) * temperature / (8 * mp.pi * z**2)
        return prefactor * sums[0], -prefactor / z * sums[1]
