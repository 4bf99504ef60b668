import math
import sys
from concurrent.futures import ThreadPoolExecutor
from functools import lru_cache

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import thermal_casimir as tc
from thermal_casimir import lifshitz as engine
from thermal_casimir.constants import CONSTANTS
from thermal_casimir.errors import ConvergenceError, DomainError
from thermal_casimir.reflection import ReflectionPair

from oracles import (finite_difference_pressure, ideal_metal_mp, integrands_mp,
                     lifshitz_sum_quad, matsubara_sum_direct)


class VacuumModel(tc.MaterialResponse):
    """Material that reflects nothing at any frequency."""

    tag = "vacuum"

    def reflection(self, xi, q, temperature=None):
        shape = np.broadcast(np.asarray(xi), np.asarray(q)).shape
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

    def test_millimetre_separation_is_the_zero_frequency_term(self, drude_au):
        # the first l >= 1 term sits at y_1 > 700, past where exp(-y) underflows
        result = tc.free_energy(1e-3, 300.0, drude_au)
        assert result.zero_frequency_share == 1.0
        assert result.quadrature_error_estimate <= engine.DEFAULT_CONFIG.rel_tolerance
        assert result.free_energy_per_area == pytest.approx(
            tc.classical_limit(1e-3, 300.0, "drude-like"), rel=1e-7)

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
                engine.entropy_pass(z, temperature, ideal_metal)

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

    silicon = tc.TabulatedPermittivity(si_static_table())
    jobs = [(z, model) for model in (ideal_metal, drude_au, silicon)
            for z in (0.1e-6, 0.5e-6, 2e-6)]
    # start cold so the worker threads fill the shared rule cache concurrently,
    # with frequent thread switches to provoke interleaving
    engine._rule.cache_clear()
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


class TestIntegrand:
    @pytest.mark.parametrize("r2", [1.0, 1 - 1e-15, 1 - 1e-12, 1 - 1e-9, 0.5, 1e-9])
    def test_one_branch_logarithm_matches_40_digit_oracle(self, r2):
        # log1p(-x) at every node: 1 - x >= 1 - e^-y, so rounding x costs at
        # most about eps (1 + y) absolute in y ln(1 - x), even as r^2 -> 1;
        # where x <= 1/2 the error is also a few eps relative, as weak
        # reflectors need (log(1 - x) fails this)
        eps = np.finfo(float).eps
        y = np.geomspace(1e-9, 40.0, 241)
        r = np.full_like(y, math.sqrt(r2))
        f_val, p_val = engine._accumulate((r,), y, np.exp(-y), True)
        f_only, no_pressure = engine._accumulate((r,), y, np.exp(-y), False)
        assert no_pressure is None
        assert np.array_equal(f_only, f_val)
        for y_i, r_i, f_i, p_i in zip(y, r, y * f_val, p_val):
            exact_f, exact_p = integrands_mp(r_i * r_i, y_i)
            assert abs(f_i - exact_f) <= 2.0 * eps * (1.0 + y_i), y_i
            if r_i * r_i * math.exp(-y_i) <= 0.5:
                assert abs(f_i - exact_f) <= 4.0 * eps * abs(exact_f), y_i
            assert abs(p_i - exact_p) <= 4.0 * eps * exact_p, y_i


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
    @pytest.mark.parametrize("temperature", [30.0, 3.0])
    def test_doubling_the_cutoff_changes_less_than_the_estimate(self, drude_au, monkeypatch,
                                                                temperature):
        z = 1e-6
        result = tc.free_energy(z, temperature, drude_au)
        cut = engine._cut
        monkeypatch.setattr(engine, "_cut", lambda y_step, targets: 2.0 * cut(y_step, targets))
        doubled = tc.free_energy(z, temperature, drude_au)
        assert doubled.terms_used > result.terms_used
        change = abs(doubled.free_energy_per_area - result.free_energy_per_area)
        assert change <= result.quadrature_error_estimate * abs(result.free_energy_per_area)

    @pytest.mark.parametrize("z, tolerance", [(1e-10, 1e-11), (1e-12, 1e-10)])
    def test_sub_nanometre_separations_converge(self, drude_au, z, tolerance):
        # the first term panels are graded towards offset 0, so where the skin
        # scale 2 z omega_p / c is small (9e-3 at 0.1 nm, 9e-5 at 1 pm) a tight
        # tolerance converges and agrees with a loose one within its estimate
        coarse = tc.free_energy(z, 300.0, drude_au, tc.EvaluationConfig(rel_tolerance=1e-7))
        fine = tc.free_energy(z, 300.0, drude_au, tc.EvaluationConfig(rel_tolerance=tolerance))
        assert fine.quadrature_error_estimate <= tolerance
        for name in ("free_energy_per_area", "pressure"):
            value = getattr(coarse, name)
            assert abs(getattr(fine, name) - value) <= coarse.quadrature_error_estimate * abs(value)

    def test_coarse_diagnostic_rule_reports_failure(self, ideal_metal, monkeypatch):
        # two order-2 panels cannot resolve the l = 0 term at any refinement level
        monkeypatch.setattr(engine, "L0_EDGES", (0.0, 20.0, 40.0))
        monkeypatch.setattr(engine, "_LK_EDGES", (0.0, 20.0, 40.0))
        # an uncached rule reads the patched edges and leaves the shared cache clean
        monkeypatch.setattr(engine, "_rule", engine._rule.__wrapped__)
        config = tc.EvaluationConfig(rel_tolerance=1e-7)
        with pytest.raises(ConvergenceError) as excinfo:
            tc.free_energy(5e-6, 300.0, ideal_metal, config)
        error = excinfo.value
        assert error.best_estimate is not None
        assert error.achieved_tolerance > 1e-7
        assert error.best_estimate.free_energy_per_area < 0.0

    @pytest.mark.parametrize("z, temperature", [(1e-6, 30.0), (0.1e-6, 300.0), (1e-6, 3.0)])
    def test_exact_terms_and_cut_do_not_change_the_result(self, drude_au, monkeypatch, z,
                                                          temperature):
        # more exact terms (a later start of the integral) and a later cut both
        # move the result by less than the reported estimate
        config = tc.EvaluationConfig(rel_tolerance=1e-9)
        reference = tc.free_energy(z, temperature, drude_au, config)
        cut = engine._cut
        for exact, stretch in ((24, 1.0), (64, 1.0), (16, 1.5)):
            monkeypatch.setattr(engine, "_EXACT_TERMS", exact)
            monkeypatch.setattr(engine, "_cut",
                                lambda y_step, targets, s=stretch: s * cut(y_step, targets))
            result = tc.free_energy(z, temperature, drude_au, config)
            bound = reference.quadrature_error_estimate + result.quadrature_error_estimate
            assert result.free_energy_per_area == pytest.approx(
                reference.free_energy_per_area, rel=bound, abs=0.0)
            assert result.pressure == pytest.approx(reference.pressure, rel=bound, abs=0.0)

    @pytest.mark.parametrize("z, temperature", [(1e-6, 30.0), (0.1e-6, 300.0), (1e-6, 1.0)])
    def test_block_size_does_not_change_the_result(self, drude_au, monkeypatch, z,
                                                    temperature):
        config = tc.EvaluationConfig(rel_tolerance=1e-9)
        reference = tc.free_energy(z, temperature, drude_au, config)
        for chunk_nodes in (1, 64 << 14):
            monkeypatch.setattr(engine, "_CHUNK_NODES", chunk_nodes)
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

    def test_millikelvin_sum_costs_about_what_one_kelvin_costs(self, drude_au, monkeypatch):
        nodes = [0]
        reflection = tc.Drude.reflection

        def counting(model, xi, q, temperature=None):
            nodes[0] += np.size(q)
            return reflection(model, xi, q, temperature)

        monkeypatch.setattr(tc.Drude, "reflection", counting)
        config = tc.EvaluationConfig(rel_tolerance=1e-9)
        counts = []
        for temperature in (1.0, 1e-3):
            nodes[0] = 0
            result = tc.free_energy(1e-6, temperature, drude_au, config)
            assert result.quadrature_error_estimate <= config.rel_tolerance
            assert result.free_energy_per_area < 0.0 and result.pressure < 0.0
            counts.append(nodes[0])
        assert counts[1] <= 2 * counts[0]

    def test_impedance_and_plasma_prescriptions_agree_at_micron_scale(self, plasma_au,
                                                                      au_omega_p):
        impedance = tc.InfraredOpticsImpedance(au_omega_p)
        for z in (1e-6, 3e-6, 10e-6):
            f_imp = tc.free_energy(z, 300.0, impedance).free_energy_per_area
            f_pla = tc.free_energy(z, 300.0, plasma_au).free_energy_per_area
            assert f_imp == pytest.approx(f_pla, rel=0.02)


class TestGregoryTail:
    @pytest.mark.parametrize("z, temperature", [(1e-6, 30.0), (0.1e-6, 300.0), (1e-6, 3.0)])
    def test_eight_more_exact_terms_agree(self, drude_au, plasma_au, monkeypatch, z,
                                          temperature):
        # the result is unchanged, within its estimate, when L grows by eight
        config = tc.EvaluationConfig(rel_tolerance=1e-9)
        for model in (drude_au, plasma_au):
            reference = tc.free_energy(z, temperature, model, config)
            monkeypatch.setattr(engine, "_EXACT_TERMS", engine._EXACT_TERMS + 8)
            result = tc.free_energy(z, temperature, model, config)
            monkeypatch.undo()
            estimate = reference.quadrature_error_estimate
            assert result.free_energy_per_area == pytest.approx(
                reference.free_energy_per_area, rel=estimate, abs=0.0), model.tag
            assert result.pressure == pytest.approx(reference.pressure, rel=estimate,
                                                    abs=0.0), model.tag

    @pytest.mark.parametrize("decay", [0.05, 0.1, 0.3])
    def test_weights_give_the_exponential_tail(self, decay):
        # sum_{l >= L} e^(-a l) - int_L^inf e^(-a l) dl = e^(-a L) (1/(1 - e^-a) - 1/a)
        values = np.exp(-decay * np.arange(len(engine._GREGORY)))
        exact = 1.0 / -np.expm1(-decay) - 1.0 / decay
        last = abs(values @ engine._GREGORY_LAST)
        assert abs(values @ engine._GREGORY_WEIGHTS - exact) <= last
        assert last <= decay ** 7

    @pytest.mark.parametrize("temperature", [15.0, 20.0, 30.0])
    @pytest.mark.parametrize("tag", ["ideal", "drude", "plasma"])
    def test_one_tail_integral_per_call(self, monkeypatch, tag, temperature):
        # the first Gregory correction exceeds its share even of the bound on
        # |sum|, so no integral is taken for it; the only one taken is the one kept
        integrals = [0]
        terms = engine._terms

        def counting(z, temperature, model, indices, *args):
            integrals[0] += bool(np.any(indices != np.round(indices)))
            return terms(z, temperature, model, indices, *args)

        monkeypatch.setattr(engine, "_terms", counting)
        config = tc.EvaluationConfig(rel_tolerance=1e-9)
        for evaluate in (tc.free_energy, engine.entropy_pass):
            integrals[0] = 0
            evaluate(1e-6, temperature, _model(tag), config)
            assert integrals[0] == 1, evaluate.__name__


class TestEmbeddedPair:
    @pytest.mark.parametrize("z, temperature", [(0.1e-6, 300.0), (1e-6, 300.0), (1e-6, 10.0)])
    def test_level_two_moves_less_than_the_level_one_estimate(self, drude_au, plasma_au, z,
                                                              temperature):
        from thermal_casimir.presets import si_static_table

        silicon = tc.TabulatedPermittivity(si_static_table())
        tolerance = 1e-9
        for model in (drude_au, plasma_au, silicon):
            sums = []
            for level in (1, 2):
                level_sums, *_ = engine._matsubara_sum(z, temperature, model, model, tolerance,
                                                       level)
                sums.append(level_sums[:, 0])
            (f1, p1), (f2, p2) = sums
            estimate = tc.free_energy(z, temperature, model,
                                      tc.EvaluationConfig(rel_tolerance=tolerance)
                                      ).quadrature_error_estimate
            assert abs(f2 - f1) <= estimate * abs(f1), model.tag
            assert abs(p2 - p1) <= estimate * abs(p1), model.tag

    @pytest.mark.parametrize("z", [1e-6, 0.2e-6])
    def test_matches_term_by_term_adaptive_quadrature(self, drude_au, plasma_au, z):
        temperature, tolerance = 300.0, 1e-9
        config = tc.EvaluationConfig(rel_tolerance=tolerance)
        for model, eps in ((drude_au, lambda xi: drude_au.eps(xi, temperature)),
                           (plasma_au, plasma_au.eps)):
            oracle_f, oracle_p = lifshitz_sum_quad(
                z, temperature, eps, model.zero_frequency_reflection, tolerance)
            result = tc.free_energy(z, temperature, model, config)
            assert result.free_energy_per_area == pytest.approx(oracle_f, rel=tolerance, abs=0.0)
            assert result.pressure == pytest.approx(oracle_p, rel=tolerance, abs=0.0)


_TAGS = ("ideal", "drude", "plasma", "impedance-ir", "impedance-skin", "table")


@lru_cache(maxsize=None)
def _model(tag):
    from thermal_casimir.presets import build_model

    return build_model(tag, preset="Si-static" if tag == "table" else "Au-paper")


@lru_cache(maxsize=None)
def _direct_sum(tag, z, temperature):
    return matsubara_sum_direct(z, temperature, _model(tag), level=2)


def _assert_matches_direct_sum(tag, z, temperature, tolerance):
    result = tc.free_energy(z, temperature, _model(tag),
                            tc.EvaluationConfig(rel_tolerance=tolerance))
    direct_f, direct_p = _direct_sum(tag, z, temperature)
    assert result.quadrature_error_estimate <= tolerance
    assert result.free_energy_per_area == pytest.approx(direct_f, rel=0.01 * tolerance, abs=0.0)
    assert result.pressure == pytest.approx(direct_p, rel=0.01 * tolerance, abs=0.0)


class TestIdealMetalOracle:
    @pytest.mark.parametrize("z, temperature", [(1e-6, 300.0), (1e-7, 30.0), (1e-6, 1.0),
                                                (1e-6, 0.01), (1e-9, 1e-3)])
    def test_matches_the_30_digit_polylogarithm_sum(self, ideal_metal, z, temperature):
        # at 1 K and below thousands of terms sit at a = l y_step near 0, where
        # a Li_2 and Li_3 cancel to first order in a; the oracle works in 30 digits
        tol = 1e-11
        result = tc.free_energy(z, temperature, ideal_metal, tc.EvaluationConfig(tol))
        exact_f, exact_p = ideal_metal_mp(z, temperature)
        for value, exact in ((result.free_energy_per_area, exact_f), (result.pressure, exact_p)):
            error = abs(value / exact - 1)
            assert error <= tol
            assert error <= result.quadrature_error_estimate

    @pytest.mark.parametrize("temperature", [1.0, 0.01])
    def test_oracle_reaches_the_low_temperature_expansion(self, temperature):
        # F = E0 [1 + 45 zeta(3) / pi^3 t^3 - t^4], t = 2 z k_B T / (hbar c), up
        # to terms of order exp(-pi / t), far below 1e-20 here
        z = 1e-6
        with mp.workdps(30):
            t = 2 * mp.mpf(z) * mp.mpf(CONSTANTS.k_B) * temperature / (
                mp.mpf(CONSTANTS.hbar) * mp.mpf(CONSTANTS.c))
            e0 = -mp.pi**2 * mp.mpf(CONSTANTS.hbar) * mp.mpf(CONSTANTS.c) / (720 * mp.mpf(z) ** 3)
            expansion = e0 * (1 + 45 * mp.zeta(3) / mp.pi**3 * t**3 - t**4)
            assert abs(ideal_metal_mp(z, temperature)[0] / expansion - 1) < 1e-20


class TestDirectSum:
    """The hybrid sum against every term added one by one (``matsubara_sum_direct``)."""

    @pytest.mark.parametrize("tag", _TAGS)
    def test_low_temperatures(self, tag):
        for temperature in (1.0, 3.0, 10.0):
            _assert_matches_direct_sum(tag, 1e-6, temperature, 1e-9)

    @pytest.mark.parametrize("temperature", [10.0, 300.0])
    @pytest.mark.parametrize("z", [50e-9, 0.1e-6, 1e-6, 10e-6])
    @pytest.mark.parametrize("tag", _TAGS)
    def test_accuracy_grid(self, tag, z, temperature):
        for tolerance in (1e-5, 1e-7, 1e-9, 1e-10, 1e-11):
            _assert_matches_direct_sum(tag, z, temperature, tolerance)


@settings(max_examples=40, deadline=None)
@given(tag=st.sampled_from(_TAGS), log_z=st.floats(-7.5, -5.0),
       log_y_step=st.floats(math.log10(0.05), math.log10(5.0)), head=st.floats(0.0, 30.0))
def test_partial_sum_plus_majorant_bounds_the_sum(tag, log_z, log_y_step, head):
    # the bound behind the tail-integral gate: every F term is <= 0 and every P
    # term >= 0, so |sum| <= |sum over l < L| + the majorant of the terms l >= L;
    # L y_step stays below 31, where the majorant is still above rounding, and
    # the slack covers rounding of sums of like-signed terms
    z, y_step = 10.0**log_z, 10.0**log_y_step
    exact = 1 + int(head / y_step)
    temperature = y_step * CONSTANTS.hbar * CONSTANTS.c / (4.0 * np.pi * CONSTANTS.k_B * z)
    model, rule = _model(tag), engine._rule(2)
    partial = (np.stack(engine._zero_term(z, model, rule, True))[:, 0]
               + engine._terms(z, temperature, model, np.arange(1, exact), y_step, rule,
                               False)[:, 0].sum(axis=1))
    bound = np.abs(partial) + engine._majorant_tail(exact * y_step, y_step)
    direct_f, direct_p = matsubara_sum_direct(z, temperature, model, level=2)
    prefactor = CONSTANTS.k_B * temperature / (8.0 * np.pi * z**2)
    assert abs(direct_f / prefactor) <= bound[0] * (1.0 + 1e-12)
    assert abs(direct_p * z / prefactor) <= bound[1] * (1.0 + 1e-12)


@settings(max_examples=60, deadline=None)
@given(tag=st.sampled_from(_TAGS), log_z=st.floats(-8.0, -5.0), log_t=st.floats(-1.0, 3.0))
def test_pressure_is_minus_the_separation_derivative(tag, log_z, log_t):
    # Central differences at h = z/1000 err by (h/z)^2 (n+1)(n+2)/6 for F ~ z^-n.
    # F falls no faster than z^-4 here (its effective exponent stays within
    # 2.0-3.2), and the errors of F at both ends, each <= tol |F|, add at most
    # tol (z/h) / n with n >= 2.
    tolerance, step = 1e-10, 1e-3
    bound = step**2 * 5.0 * 6.0 / 6.0 + tolerance / step / 2.0
    z, temperature = 10.0**log_z, 10.0**log_t
    config = tc.EvaluationConfig(rel_tolerance=tolerance)
    analytic = tc.pressure(z, temperature, _model(tag), config)
    numeric = finite_difference_pressure(z, temperature, _model(tag), config)
    assert numeric == pytest.approx(analytic, rel=bound, abs=0.0)


@settings(max_examples=40, deadline=None)
@given(log_z=st.floats(-8.0, -5.0), log_t=st.floats(-1.0, 3.0))
def test_plasma_binds_at_least_as_strongly_as_drude(log_z, log_t):
    # term by term: eps_plasma(i xi) = 1 + wp^2/xi^2 exceeds the Drude value at
    # every xi > 0, so both reflection coefficients are larger, and at l = 0 the
    # plasma TE mode reflects while the Drude one does not; hence F_plasma <=
    # F_drude up to the two relative error estimates
    z, temperature = 10.0**log_z, 10.0**log_t
    plasma = tc.free_energy(z, temperature, _model("plasma"))
    drude = tc.free_energy(z, temperature, _model("drude"))
    slack = (abs(plasma.free_energy_per_area) * plasma.quadrature_error_estimate
             + abs(drude.free_energy_per_area) * drude.quadrature_error_estimate)
    assert plasma.free_energy_per_area <= drude.free_energy_per_area + slack


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

    def test_preconditions(self):
        nan, inf = float("nan"), float("inf")
        for z, temperature in ((0.0, 300.0), (nan, 300.0), (inf, 300.0), (1e-6, -1.0),
                               (1e-6, nan), (1e-6, inf)):
            with pytest.raises(DomainError):
                tc.classical_limit(z, temperature)
