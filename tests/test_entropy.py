import importlib
import sys
from concurrent.futures import ThreadPoolExecutor

import mpmath as mp
import numpy as np
import pytest

import thermal_casimir as tc
from thermal_casimir import lifshitz
from thermal_casimir.constants import CONSTANTS, ev_to_angular_frequency
from thermal_casimir.errors import DomainError

from oracles import drude_zero_entropy_mp, drude_zero_entropy_numeric, ideal_metal_mp

# the package's ``entropy`` attribute is the function, so look the module up by name
entropy_module = importlib.import_module("thermal_casimir.entropy")


@pytest.fixture(scope="module")
def perfect_lattice_scan(drude_au):
    return tc.nernst_verdict(drude_au, 1e-6, "perfect-lattice")


@pytest.fixture(scope="module")
def plasma_scan(plasma_au):
    return tc.nernst_verdict(plasma_au, 1e-6)


@pytest.fixture
def sum_levels(monkeypatch):
    """Refinement level of every Matsubara sum the test runs, in order."""
    levels = []
    matsubara_sum = lifshitz._matsubara_sum

    def recording(*args):
        levels.append(args[5])
        return matsubara_sum(*args)

    monkeypatch.setattr(lifshitz, "_matsubara_sum", recording)
    return levels


class TestZeroTemperatureEntropy:
    def test_matches_independent_quadrature(self, au_omega_p):
        value = tc.drude_zero_T_entropy(1e-6, au_omega_p)
        oracle = drude_zero_entropy_numeric(1e-6, au_omega_p)
        assert value == pytest.approx(oracle, rel=1e-8)
        assert value == pytest.approx(-3.03018281223268e-13, rel=1e-10)

    @pytest.mark.parametrize("z, wp_ev", [(1e-6, 9.0), (0.1e-6, 1.0), (10e-6, 15.0)])
    def test_matches_30_digit_oracle(self, z, wp_ev):
        omega_p = ev_to_angular_frequency(wp_ev)
        assert tc.drude_zero_T_entropy(z, omega_p) == pytest.approx(
            drude_zero_entropy_mp(z, omega_p), rel=1e-10
        )

    def test_unreachable_tolerance_raises_with_best_estimate(self, monkeypatch):
        omega_p = ev_to_angular_frequency(1.0)
        monkeypatch.setattr(entropy_module, "_ZERO_T_REL_TOL", 1e-20)
        with pytest.raises(tc.ConvergenceError) as info:
            tc.drude_zero_T_entropy(0.1e-6, omega_p)
        assert info.value.best_estimate < 0.0
        assert info.value.best_estimate == pytest.approx(
            drude_zero_entropy_mp(0.1e-6, omega_p), rel=1e-10
        )
        assert info.value.achieved_tolerance > 1e-20

    def test_strictly_negative_on_parameter_grid(self):
        for z in np.geomspace(0.1e-6, 10e-6, 5):
            for wp_ev in np.geomspace(1.0, 15.0, 5):
                value = tc.drude_zero_T_entropy(float(z), ev_to_angular_frequency(wp_ev))
                assert value < 0.0

    def test_transparent_limit_vanishes(self):
        value = tc.drude_zero_T_entropy(1e-6, 1e3)
        assert abs(value) < 1e-9 * abs(tc.entropy_large_z_limit(1e-6))

    def test_approaches_large_separation_limit(self):
        # The leading relative deficit is 8 c / (2 z omega_p); allow the next
        # order with a 10x headroom factor on the first-correction scale.
        for z in (1e-6, 2e-6):
            for wp_ev in (9.0, 15.0):
                omega_p = ev_to_angular_frequency(wp_ev)
                value = tc.drude_zero_T_entropy(z, omega_p)
                limit = tc.entropy_large_z_limit(z)
                deviation = abs(value - limit) / abs(limit)
                assert deviation < 10.0 * CONSTANTS.c / (2.0 * z * omega_p)

    def test_deficit_halves_when_separation_doubles(self, au_omega_p):
        def deficit(z):
            return abs(
                (tc.drude_zero_T_entropy(z, au_omega_p) - tc.entropy_large_z_limit(z))
                / tc.entropy_large_z_limit(z)
            )

        assert deficit(1e-6) / deficit(2e-6) == pytest.approx(2.0, rel=0.1)


class TestLargeSeparationLimit:
    @pytest.mark.parametrize("bad", [0.0, -1e-6, float("nan"), float("inf")])
    def test_preconditions(self, bad, au_omega_p):
        with pytest.raises(DomainError):
            tc.entropy_large_z_limit(bad)
        with pytest.raises(DomainError):
            tc.drude_zero_T_entropy(bad, au_omega_p)
        with pytest.raises(DomainError):
            tc.drude_zero_T_entropy(1e-6, bad)

    def test_negative_and_scaling(self):
        assert tc.entropy_large_z_limit(1e-6) < 0.0
        assert tc.entropy_large_z_limit(1e-6) / tc.entropy_large_z_limit(2e-6) == pytest.approx(
            4.0, rel=1e-13
        )

    def test_equals_minus_high_temperature_drude_entropy(self):
        # classical free energy is linear in T, so S_highT = -F/T exactly;
        # the zero-temperature value is its negative.
        z, temperature = 3e-6, 200.0
        high_t_entropy = -tc.classical_limit(z, temperature, "drude-like") / temperature
        assert tc.entropy_large_z_limit(z) == pytest.approx(-high_t_entropy, rel=1e-13)


class TestEntropyFiniteDifferences:
    def test_ideal_metal_classical_entropy_is_positive(self, ideal_metal):
        from scipy.special import zeta

        value = tc.entropy(15e-6, 300.0, ideal_metal)
        expected = CONSTANTS.k_B * zeta(3.0) / (8.0 * np.pi * (15e-6) ** 2)
        assert value == pytest.approx(expected, rel=1e-3)

    def test_plasma_entropy_vanishes_toward_zero_temperature(self, plasma_au):
        value = tc.entropy(1e-6, 1.0, plasma_au)
        assert abs(value) < 1e-3 * abs(tc.entropy_large_z_limit(1e-6))

    def test_perfect_lattice_drude_reaches_negative_plateau(self, au_parameters, au_omega_p):
        model = tc.Drude(
            tc.DrudeParameters(
                au_parameters.omega_p, au_parameters.gamma,
                tc.PowerLawGamma(au_parameters.gamma, 300.0),
            )
        )
        value = tc.entropy(1e-6, 1.0, model)
        assert value == pytest.approx(tc.drude_zero_T_entropy(1e-6, au_omega_p), rel=0.02)

    def test_perfect_lattice_drude_gap_to_zero_temperature_grows_as_t_squared(
            self, au_parameters, au_omega_p):
        # the whole engine + entropy path against the closed-form S(z, 0), itself
        # checked against a 30-digit oracle: gamma ~ T^5 leaves a gap of order T^2
        model = tc.Drude(
            tc.DrudeParameters(
                au_parameters.omega_p, au_parameters.gamma,
                tc.PowerLawGamma(au_parameters.gamma, 300.0),
            )
        )
        s_zero = tc.drude_zero_T_entropy(1e-6, au_omega_p)
        gaps = [abs(tc.entropy(1e-6, t, model) / s_zero - 1.0) for t in (1.0, 2.0, 3.0)]
        assert gaps[0] < 1e-5
        assert gaps[1] / gaps[0] == pytest.approx(4.0, rel=0.02)
        assert gaps[2] / gaps[0] == pytest.approx(9.0, rel=0.02)

    def test_sub_kelvin_step_is_relative(self, plasma_au):
        # the step is delta T at every T, so 0.4 K computes instead of stepping
        # past T = 0; there the plasma entropy still follows its T^2 fall from 1 K
        cold = tc.entropy(1e-6, 0.4, plasma_au, full_output=True)
        warm = tc.entropy(1e-6, 1.0, plasma_au, full_output=True)
        assert warm.converged
        assert abs(cold.value) < 1e-3 * abs(tc.entropy_large_z_limit(1e-6))
        assert abs(cold.value - 0.16 * warm.value) <= cold.error + 0.16 * warm.error

    @pytest.mark.parametrize("bad", [0.0, -1.0, float("nan"), float("inf")])
    def test_temperature_must_be_positive_and_finite(self, plasma_au, bad):
        with pytest.raises(DomainError, match="finite"):
            tc.entropy(1e-6, bad, plasma_au)

    @pytest.mark.parametrize("temperature", [0.1, 0.01])
    def test_perfect_lattice_drude_reaches_zero_temperature_entropy_below_one_kelvin(
            self, au_parameters, au_omega_p, temperature):
        # the whole engine + sub-kelvin entropy path against the closed-form S(z, 0)
        model = tc.Drude(
            tc.DrudeParameters(
                au_parameters.omega_p, au_parameters.gamma,
                tc.PowerLawGamma(au_parameters.gamma, 300.0),
            )
        )
        assert tc.entropy(1e-6, temperature, model) == pytest.approx(
            tc.drude_zero_T_entropy(1e-6, au_omega_p), rel=1e-6)

    def test_full_output_reports_convergence(self, plasma_au):
        # converged means an error figure within 1e-3 |S|; the plasma entropy at
        # 10 mK lies below the rounding floor of the difference, so it reads as
        # zero within its error and is not converged
        warm = tc.entropy(1e-6, 10.0, plasma_au, full_output=True)
        assert warm.converged
        assert 0.0 < warm.error <= 1e-3 * abs(warm.value)
        cold = tc.entropy(1e-6, 0.01, plasma_au, full_output=True)
        assert not cold.converged
        assert np.isfinite(cold.value)
        assert abs(cold.value) < cold.error
        assert tc.entropy(1e-6, 10.0, plasma_au) == warm.value

    def test_engine_pass_defaults_to_the_entropy_tolerance(self, drude_au):
        # every entropy entry point runs F at ENTROPY_CONFIG unless given a config
        assert lifshitz.entropy_pass(1e-6, 10.0, drude_au) == tc.entropy(
            1e-6, 10.0, drude_au, full_output=True)

    @pytest.mark.parametrize("temperature", [300.0, 30.0, 3.0, 1.0, 0.1, 0.01])
    def test_ideal_metal_meets_the_scale_free_identity(self, ideal_metal, temperature):
        # F(z, T) = T^3 f(z T) for the ideal metal, so T S = z P - 3 F exactly;
        # F and P from the 40-digit polylogarithm sum, as z P and 3 F cancel to
        # T^3 of F at low temperature.  Where S cannot be resolved it must read
        # as zero within its error, not as a wrong number.
        z = 1e-6
        estimate = tc.entropy(z, temperature, ideal_metal, full_output=True)
        digits = 40
        free, pressure = ideal_metal_mp(z, temperature, digits=digits)
        with mp.workdps(digits):
            exact = float((mp.mpf(z) * pressure - 3 * free) / temperature)
        assert abs(estimate.value - exact) <= estimate.error
        assert estimate.converged == (temperature >= 1.0)

    def test_concurrent_evaluation_is_bitwise_serial(self, drude_au, plasma_au, ideal_metal):
        perfect_lattice = entropy_module._resolve_gamma_map(drude_au, "perfect-lattice", None)
        jobs = [(z, temperature, model)
                for model in (perfect_lattice, plasma_au, ideal_metal)
                for z, temperature in ((0.5e-6, 300.0), (1e-6, 3.0), (2e-6, 0.1))]
        # start cold so the worker threads fill the shared rule cache concurrently,
        # with frequent thread switches to provoke interleaving
        lifshitz._rule.cache_clear()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                threaded = list(pool.map(lambda job: tc.entropy(*job, full_output=True),
                                         jobs, timeout=120))
        finally:
            sys.setswitchinterval(interval)
        serial = [tc.entropy(*job, full_output=True) for job in jobs]
        assert threaded == serial


class TestNernstVerdict:
    def test_perfect_lattice_violates(self, perfect_lattice_scan, au_omega_p):
        scan = perfect_lattice_scan
        assert scan.verdict == "nernst-violated"
        assert scan.extrapolated_zero == pytest.approx(
            tc.drude_zero_T_entropy(1e-6, au_omega_p), rel=0.02
        )
        assert abs(scan.extrapolated_zero) > 5.0 * scan.uncertainty

    def test_plasma_passes(self, plasma_scan):
        assert plasma_scan.verdict == "nernst-ok"
        assert abs(plasma_scan.extrapolated_zero) < plasma_scan.uncertainty

    def test_residual_relaxation_stays_on_negative_plateau_above_one_kelvin(self, drude_au):
        # With a residual relaxation of 0.1 gamma_300 the entropy recovery
        # toward zero happens far below the 1 K floor of the default grid
        # (and of the finite-difference step), so an honest scan cannot
        # certify the zero-temperature limit and must not report nernst-ok.
        scan = tc.nernst_verdict(drude_au, 1e-6, "residual")
        assert scan.verdict != "nernst-ok"
        assert scan.extrapolated_zero < 0.0
        # the scan still sees the entropy bending back toward zero
        assert abs(scan.entropy_values[-1]) < abs(scan.entropy_values[-8])

    def test_scan_grid_is_descending_and_continuous(self, perfect_lattice_scan):
        scan = perfect_lattice_scan
        assert np.all(np.diff(scan.temperatures) < 0.0)
        magnitudes = np.abs(scan.entropy_values)
        scale = magnitudes.max()
        for left, right in zip(scan.entropy_values[:-1], scan.entropy_values[1:]):
            jump = abs(right - left)
            local = max(abs(left), abs(right))
            assert jump <= 0.25 * local or local < 0.05 * scale

    def test_drude_without_map_is_rejected(self, drude_au):
        with pytest.raises(DomainError, match="gamma"):
            tc.nernst_verdict(drude_au, 1e-6)

    def test_non_callable_map_is_rejected(self, drude_au):
        # before, a number as the map surfaced as TypeError inside the engine
        with pytest.raises(DomainError, match="callable"):
            tc.nernst_verdict(drude_au, 1e-6, 3.0)

    @pytest.mark.parametrize("gamma_map", ["perfect-lattice", "no-such-map",
                                           tc.PowerLawGamma(1e13, 300.0)])
    def test_gamma_map_on_a_non_drude_model_is_rejected(self, plasma_au, gamma_map):
        with pytest.raises(DomainError, match="'plasma' does not use a gamma map"):
            tc.nernst_verdict(plasma_au, 1e-6, gamma_map)

    @pytest.mark.parametrize("fraction", [0.0, -0.1, 1.5, float("nan")])
    def test_residual_fraction_outside_unit_interval_is_rejected(self, drude_au, fraction):
        # 0 would be the perfect-lattice map, and above 1 the floor exceeds gamma itself
        with pytest.raises(DomainError, match=r"residual fraction must lie in \(0, 1\]"):
            tc.nernst_verdict(drude_au, 1e-6, "residual", residual_fraction=fraction)

    @pytest.mark.parametrize("gamma_map", ["perfect-lattice", tc.PowerLawGamma(1e13), None])
    @pytest.mark.parametrize("fraction", [7.0, 0.3])
    def test_residual_fraction_with_another_map_is_rejected(self, drude_au, gamma_map, fraction):
        # before, the fraction was silently ignored unless the map was "residual"
        with pytest.raises(DomainError, match="residual fraction goes with the 'residual'"):
            tc.nernst_verdict(drude_au, 1e-6, gamma_map, residual_fraction=fraction,
                              points=5, t_min=100.0)

    def test_explicit_map_is_accepted(self, au_parameters):
        mapping = tc.PowerLawGamma(au_parameters.gamma, 300.0, floor=0.5 * au_parameters.gamma)
        scan = tc.nernst_verdict(tc.Drude(au_parameters), 1e-6, mapping,
                                 t_max=40.0, t_min=2.0, points=8)
        assert scan.prescription == "drude"
        assert scan.temperatures.size == 8

    def test_grid_validation(self, plasma_au):
        with pytest.raises(DomainError):
            tc.nernst_verdict(plasma_au, 1e-6, t_max=1.0, t_min=10.0)
        with pytest.raises(DomainError):
            tc.nernst_verdict(plasma_au, 1e-6, points=3)
        for bad in (float("inf"), float("nan")):
            with pytest.raises(DomainError, match="finite"):
                tc.nernst_verdict(plasma_au, 1e-6, t_max=bad)
            with pytest.raises(DomainError, match="finite"):
                tc.nernst_verdict(plasma_au, 1e-6, t_min=bad)
            with pytest.raises(DomainError, match="finite"):
                tc.nernst_verdict(plasma_au, bad)
        for points in (5.5, 25.0, "25", None):
            with pytest.raises(DomainError, match="integer"):
                tc.nernst_verdict(plasma_au, 1e-6, points=points)

    def test_bad_separation_is_reported_before_a_missing_gamma_map(self, drude_au):
        # the CLI's default Drude model carries no gamma map
        with pytest.raises(DomainError, match="separation must be positive and finite"):
            tc.nernst_verdict(drude_au, -1e-6)

    def test_perfect_lattice_scan_runs_every_sum_at_level_one(self, drude_au, sum_levels):
        # the tail-integral ladder is sized for level 1 on this scan; an
        # escalation would silently double the cost of that call
        scan = tc.nernst_verdict(drude_au, 1e-6, "perfect-lattice",
                                 config=tc.EvaluationConfig(rel_tolerance=1e-9), points=25)
        assert scan.all_converged
        assert sum_levels and set(sum_levels) == {1}

    @pytest.mark.parametrize("temperature", [1.0, 1.6, 2.6])
    def test_cold_plasma_entropy_settles_at_level_one(self, plasma_au, sum_levels,
                                                      temperature):
        # where S is small, the level-1 pass alone must bring the error of D
        # within 1e-3 |D|: a level-2 pass would double the cost of the point
        z, tolerance = 1e-6, 1e-9
        estimate = tc.entropy(z, temperature, plasma_au,
                              tc.EvaluationConfig(rel_tolerance=tolerance), full_output=True)
        assert sum_levels == [1]
        assert estimate.converged
        sums, *_ = lifshitz._matsubara_sum(z, temperature, plasma_au, plasma_au, tolerance, 3,
                                           True)
        reference = -CONSTANTS.k_B / (8.0 * np.pi * z**2) * sums[1, 0]
        assert abs(estimate.value - reference) <= estimate.error

    def test_coarse_grid_on_a_vanishing_entropy_is_inconclusive(self, plasma_au):
        # A sparse grid leaves the cold-end extrapolation genuinely
        # undecided: the intercept is neither clearly zero nor five
        # uncertainties away from it.
        scan = tc.nernst_verdict(plasma_au, 1e-6, points=11)
        assert scan.verdict == "inconclusive"
        assert scan.uncertainty < abs(scan.extrapolated_zero) < 5.0 * scan.uncertainty
