import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import thermal_casimir as tc
from thermal_casimir import lifshitz as engine
from thermal_casimir.constants import CONSTANTS
from thermal_casimir.errors import ConvergenceError, DomainError
from thermal_casimir.reflection import ReflectionPair

from oracles import finite_difference_pressure


class VacuumModel(tc.MaterialResponse):
    """Material that reflects nothing at any frequency."""

    tag = "vacuum"

    def reflection(self, xi, k_perp, temperature=None):
        shape = np.broadcast(np.asarray(xi), np.asarray(k_perp)).shape
        return ReflectionPair(np.zeros(shape), np.zeros(shape))

    def zero_frequency_reflection(self, k_perp):
        zero = np.zeros_like(np.asarray(k_perp, dtype=float))
        return ReflectionPair(zero, zero.copy())


class TestFreeEnergy:
    def test_ideal_reaches_classical_value_at_large_separation(self, ideal_metal):
        result = tc.free_energy(10e-6, 300.0, ideal_metal)
        assert result.free_energy_per_area == pytest.approx(
            tc.classical_limit(10e-6, 300.0, "ideal"), rel=0.01
        )
        assert result.free_energy_per_area < 0.0
        assert result.zero_frequency_share == pytest.approx(1.0, abs=1e-3)

    def test_drude_reaches_half_the_classical_value(self, drude_au):
        result = tc.free_energy(10e-6, 300.0, drude_au)
        assert result.free_energy_per_area == pytest.approx(
            tc.classical_limit(10e-6, 300.0, "drude-like"), rel=0.01
        )

    def test_vacuum_gives_exactly_zero(self):
        result = tc.free_energy(1e-6, 300.0, VacuumModel())
        assert result.free_energy_per_area == 0.0
        assert result.pressure == 0.0

    def test_result_invariants(self, drude_au, plasma_au, ideal_metal):
        for model in (drude_au, plasma_au, ideal_metal):
            result = tc.free_energy(1e-6, 300.0, model)
            assert result.free_energy_per_area < 0.0
            assert result.pressure < 0.0
            assert result.terms_used >= 1
            assert result.quadrature_error_estimate <= engine.DEFAULT_CONFIG.rel_tolerance
            assert 0.0 < result.zero_frequency_share <= 1.0

    def test_preconditions(self, ideal_metal):
        nan, inf = float("nan"), float("inf")
        for z, temperature in ((0.0, 300.0), (1e-6, -5.0), (nan, 300.0), (inf, 300.0),
                               (1e-6, nan), (1e-6, inf)):
            with pytest.raises(DomainError):
                tc.free_energy(z, temperature, ideal_metal)
            with pytest.raises(DomainError):
                engine._free_energy_value(z, temperature, ideal_metal)

    def test_result_serializes_to_a_flat_record(self, drude_au):
        import dataclasses

        record = dataclasses.asdict(tc.free_energy(2e-6, 300.0, drude_au))
        expected_keys = {
            "z", "temperature", "model_tag", "free_energy_per_area", "pressure",
            "terms_used", "quadrature_error_estimate", "zero_frequency_share",
            "provenance",
        }
        assert set(record) == expected_keys
        assert all(isinstance(v, (int, float, str)) for v in record.values())

    def test_mixed_prescription_is_flagged(self, plasma_au, ideal_metal):
        mixed = tc.free_energy(1e-6, 300.0, plasma_au, zero_frequency_model=ideal_metal)
        plain = tc.free_energy(1e-6, 300.0, plasma_au)
        assert "mixed" in mixed.provenance
        assert plain.provenance == ""
        assert abs(mixed.free_energy_per_area) > abs(plain.free_energy_per_area)

    def test_tabulated_silicon_is_attractive_but_weaker_than_metal(self, ideal_metal):
        from thermal_casimir.presets import si_static_table

        silicon = tc.TabulatedPermittivity(si_static_table())
        result = tc.free_energy(1e-6, 300.0, silicon)
        metal = tc.free_energy(1e-6, 300.0, ideal_metal)
        assert result.free_energy_per_area < 0.0
        assert result.pressure < 0.0
        assert abs(result.free_energy_per_area) < abs(metal.free_energy_per_area)

    def test_prescription_ordering_with_shared_permittivity(self, au_omega_p, plasma_au,
                                                            ideal_metal):
        drude_no_relaxation = tc.Drude(tc.DrudeParameters(au_omega_p, 0.0))
        for z in (0.5e-6, 1e-6, 5e-6):
            f_drude = tc.free_energy(z, 300.0, drude_no_relaxation).free_energy_per_area
            f_plasma = tc.free_energy(z, 300.0, plasma_au).free_energy_per_area
            f_ideal = tc.free_energy(
                z, 300.0, plasma_au, zero_frequency_model=ideal_metal
            ).free_energy_per_area
            assert abs(f_drude) <= abs(f_plasma) <= abs(f_ideal)


def test_concurrent_evaluation_is_bitwise_serial(ideal_metal, drude_au):
    from thermal_casimir.presets import si_static_table
    from thermal_casimir.quadrature import _panel_rule_cached

    silicon = tc.TabulatedPermittivity(si_static_table())
    jobs = [(z, model) for model in (ideal_metal, drude_au, silicon)
            for z in (0.1e-6, 0.5e-6, 2e-6)]
    # start cold so the worker threads fill the shared rule cache concurrently,
    # with frequent thread switches to provoke interleaving
    _panel_rule_cached.cache_clear()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            threaded = list(pool.map(lambda job: tc.free_energy(job[0], 300.0, job[1]),
                                     jobs, timeout=120))
    finally:
        sys.setswitchinterval(interval)
    serial = [tc.free_energy(z, 300.0, model) for z, model in jobs]
    assert threaded == serial


class TestPressure:
    def test_ideal_classical_pressure(self, ideal_metal):
        from scipy.special import zeta

        expected = -CONSTANTS.k_B * 300.0 * zeta(3.0) / (4.0 * np.pi * (10e-6) ** 3)
        assert tc.pressure(10e-6, 300.0, ideal_metal) == pytest.approx(expected, rel=0.01)

    def test_plasma_approaches_zero_temperature_ideal_value_from_below(self):
        strong = tc.Plasma(100.0 * 1.3673407030907634e16)
        value = tc.pressure(200e-9, 5.0, strong)
        reference = tc.ideal_plate_pressure(200e-9)
        assert abs(value) < abs(reference)
        assert value == pytest.approx(reference, rel=0.01)

    @pytest.mark.parametrize("z", [0.2e-6, 1e-6])
    def test_matches_finite_differences(self, drude_au, z):
        config = tc.EvaluationConfig(rel_tolerance=1e-9)
        analytic = tc.pressure(z, 300.0, drude_au, config)
        numeric = finite_difference_pressure(z, 300.0, drude_au, config)
        assert analytic == pytest.approx(numeric, rel=1e-4)

    def test_magnitude_strictly_decreases_with_separation(self, drude_au, plasma_au,
                                                          ideal_metal, au_omega_p, au_gamma):
        models = (
            ideal_metal, drude_au, plasma_au,
            tc.InfraredOpticsImpedance(au_omega_p),
            tc.SkinEffectImpedance(au_omega_p, au_gamma),
        )
        grid = np.geomspace(100e-9, 10e-6, 20)
        for model in models:
            values = [abs(tc.pressure(float(z), 300.0, model)) for z in grid]
            assert all(b < a for a, b in zip(values, values[1:])), model.tag


class TestTruncationAndErrors:
    def test_doubling_the_cutoff_changes_less_than_the_estimate(self, drude_au):
        z, temperature = 1e-6, 30.0
        result = tc.free_energy(z, temperature, drude_au)
        rule = engine._Rule(1)
        y_step = 4.0 * np.pi * CONSTANTS.k_B * temperature * z / (CONSTANTS.hbar * CONSTANTS.c)
        f0, _ = engine._zero_term(z, drude_au, rule, False)
        rest, _ = engine._positive_terms(
            z, temperature, drude_au, np.arange(1, 2 * result.terms_used), y_step, rule, False
        )
        doubled_f = f0[0] + rest[0].sum()
        prefactor = CONSTANTS.k_B * temperature / (8.0 * np.pi * z**2)
        change = abs(prefactor * doubled_f - result.free_energy_per_area)
        assert change <= result.quadrature_error_estimate * abs(result.free_energy_per_area)

    def test_coarse_diagnostic_rule_reports_failure(self, ideal_metal, monkeypatch):
        # two order-2 panels cannot resolve the l = 0 term at any refinement level
        monkeypatch.setattr(engine, "L0_EDGES", (0.0, 20.0, 40.0))
        monkeypatch.setattr(engine, "_LK_EDGES", (0.0, 20.0, 40.0))
        monkeypatch.setattr(engine, "_PANEL_ORDER", 2)
        config = tc.EvaluationConfig(rel_tolerance=1e-7)
        with pytest.raises(ConvergenceError) as excinfo:
            tc.free_energy(5e-6, 300.0, ideal_metal, config)
        error = excinfo.value
        assert error.best_estimate is not None
        assert error.achieved_tolerance > 1e-7
        assert error.best_estimate.free_energy_per_area < 0.0

    @pytest.mark.parametrize("z, temperature", [(1e-6, 30.0), (0.1e-6, 300.0)])
    def test_block_size_does_not_change_the_result(self, drude_au, monkeypatch, z,
                                                    temperature):
        config = tc.EvaluationConfig(rel_tolerance=1e-9)
        reference = tc.free_energy(z, temperature, drude_au, config)
        for block_nodes in (1, 64 << 14):
            monkeypatch.setattr(engine, "_BLOCK_NODES", block_nodes)
            result = tc.free_energy(z, temperature, drude_au, config)
            assert result.terms_used == reference.terms_used
            assert result.free_energy_per_area == pytest.approx(
                reference.free_energy_per_area, rel=1e-13, abs=0.0)
            assert result.pressure == pytest.approx(reference.pressure, rel=1e-13, abs=0.0)

    def test_long_sum_memory_stays_bounded(self, drude_au):
        # at 1 K and 1 um the sum runs to thousands of terms; term blocks of
        # fixed node count keep the working set independent of that length
        import tracemalloc

        tracemalloc.start()
        try:
            tc.free_energy(1e-6, 1.0, drude_au, tc.EvaluationConfig(rel_tolerance=1e-9))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20

    def test_impedance_and_plasma_prescriptions_agree_at_micron_scale(self, plasma_au,
                                                                      au_omega_p):
        impedance = tc.InfraredOpticsImpedance(au_omega_p)
        for z in (1e-6, 3e-6, 10e-6):
            f_imp = tc.free_energy(z, 300.0, impedance).free_energy_per_area
            f_pla = tc.free_energy(z, 300.0, plasma_au).free_energy_per_area
            assert f_imp == pytest.approx(f_pla, rel=0.02)


class TestEvaluationConfig:
    @pytest.mark.parametrize("tol", [0.0, -1e-3, 0.5])
    def test_tolerance_bounds(self, tol):
        with pytest.raises(DomainError):
            tc.EvaluationConfig(rel_tolerance=tol)


class TestClassicalLimit:
    def test_factor_two_between_prescriptions(self):
        ideal = tc.classical_limit(3e-6, 250.0, "ideal")
        drude_like = tc.classical_limit(3e-6, 250.0, "drude-like")
        assert ideal == pytest.approx(2.0 * drude_like, rel=1e-14)

    def test_inverse_square_scaling(self):
        assert tc.classical_limit(1e-6, 300.0) == pytest.approx(
            4.0 * tc.classical_limit(2e-6, 300.0), rel=1e-14
        )

    def test_full_evaluation_matches_at_large_separation(self, ideal_metal):
        full = tc.free_energy(15e-6, 300.0, ideal_metal).free_energy_per_area
        assert full == pytest.approx(tc.classical_limit(15e-6, 300.0, "ideal"), rel=3e-3)

    def test_unknown_prescription(self):
        with pytest.raises(DomainError):
            tc.classical_limit(1e-6, 300.0, "casimir-polder")
