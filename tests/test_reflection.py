import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import thermal_casimir as tc
from thermal_casimir import reflection
from thermal_casimir.constants import CONSTANTS
from thermal_casimir.errors import DomainError, PrescriptionError

from oracles import fresnel_q_reference, impedance_q_reference


class TestFresnel:
    def test_vacuum_reflects_nothing(self):
        pair = tc.fresnel_reflection(1e15, 1e6, 1.0)
        assert pair.r_tm == 0.0 and pair.r_te == 0.0
        # scalar input gives numpy scalars, not 0-d arrays
        assert all(type(r) is np.float64 for r in pair)

    def test_perfect_conductor_limit(self):
        pair = tc.fresnel_reflection(1e15, 1e6, 1e12)
        assert pair.r_tm == pytest.approx(1.0, abs=1e-5)
        assert pair.r_te == pytest.approx(1.0, abs=1e-5)
        assert pair.r_tm**2 == pytest.approx(1.0, abs=2e-5)
        assert pair.r_te**2 == pytest.approx(1.0, abs=2e-5)

    def test_hand_evaluated_point(self):
        # xi = c k_perp, eps = 2: q = sqrt(2) k, k_med = sqrt(3) k
        k_perp = 1e6
        pair = tc.fresnel_reflection(CONSTANTS.c * k_perp, k_perp, 2.0)
        assert pair.r_tm == pytest.approx(0.2404082057734576, rel=1e-12)
        assert abs(pair.r_te) == pytest.approx(0.10102051443364374, rel=1e-12)
        # the medium wavevector exceeds the vacuum one, TE amplitude
        # (medium - vacuum convention) stays positive
        assert pair.r_te > 0.0

    def test_amplitudes_bounded_by_one(self):
        rng_xi = np.geomspace(1e11, 1e17, 12)[:, None]
        rng_k = np.geomspace(1e2, 1e9, 15)[None, :]
        pair = tc.fresnel_reflection(rng_xi, rng_k, 37.5)
        assert np.all(np.abs(pair.r_tm) <= 1.0)
        assert np.all(np.abs(pair.r_te) <= 1.0)

    def test_preconditions(self):
        with pytest.raises(DomainError):
            tc.fresnel_reflection(0.0, 1e6, 2.0)
        with pytest.raises(DomainError):
            tc.fresnel_reflection(1e15, -1.0, 2.0)
        with pytest.raises(DomainError):
            tc.fresnel_reflection(1e15, 1e6, 0.9)


class TestImpedanceReflection:
    def test_small_impedance_approaches_perfect_reflection(self):
        pair = tc.impedance_reflection(1e15, 1e6, 1e-9)
        assert pair.r_tm == pytest.approx(1.0, abs=1e-6)
        assert pair.r_te == pytest.approx(1.0, abs=1e-6)

    def test_matched_impedance_at_normal_incidence(self):
        pair = tc.impedance_reflection(1e15, 0.0, 1.0)
        assert pair.r_tm == pytest.approx(0.0, abs=1e-15)
        assert pair.r_te == pytest.approx(0.0, abs=1e-15)
        # scalar input gives numpy scalars, not 0-d arrays
        assert all(type(r) is np.float64 for r in pair)

    def test_invalid_impedance_rejected(self):
        for bad in (0.0, -0.2, 1.5):
            with pytest.raises(DomainError):
                tc.impedance_reflection(1e15, 1e6, bad)

    @pytest.mark.parametrize("bad", [math.nan, [0.1, math.nan]])
    def test_kernel_rejects_nan_impedance(self, bad):
        # the kernel holds the only (0, 1] check, which a NaN impedance fails
        with pytest.raises(DomainError, match=r"surface impedance must lie in \(0, 1\]"):
            reflection.impedance_q(1e15, 1e7, np.asarray(bad))

    @pytest.mark.parametrize("xi_factor", [0.01, 1.0 / 30.0])
    def test_agrees_with_fresnel_to_second_order_in_impedance(self, au_omega_p, xi_factor):
        # Leontovich regime: xi << omega_p so Z << 1; propagating k_perp.
        xi = xi_factor * au_omega_p
        eps = tc.eps_plasma(xi, au_omega_p)
        impedance = tc.impedance_from_eps(xi, eps)
        for k_perp in (0.1 * xi / CONSTANTS.c, xi / CONSTANTS.c):
            exact = tc.fresnel_reflection(xi, k_perp, eps)
            approx = tc.impedance_reflection(xi, k_perp, impedance)
            assert abs(exact.r_tm - approx.r_tm) < 0.1 * impedance**2
            assert abs(exact.r_te - approx.r_te) < 0.1 * impedance**2


@pytest.mark.parametrize("evaluate", [
    lambda v: tc.fresnel_reflection(v, 1e6, 2.0),
    lambda v: tc.fresnel_reflection(1e15, v, 2.0),
    lambda v: tc.fresnel_reflection(1e15, 1e6, v),
    lambda v: tc.impedance_reflection(v, 1e6, 0.1),
    lambda v: tc.impedance_reflection(1e15, v, 0.1),
    lambda v: tc.impedance_reflection(1e15, 1e6, v),
    lambda v: tc.zero_frequency_reflection(tc.IdealMetal(), v),
])
@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_non_finite_inputs_rejected(evaluate, value):
    with pytest.raises(DomainError):
        evaluate(value)

class TestAmplitudeBounds:
    def _models(self, au_omega_p, au_gamma, table):
        return (
            tc.IdealMetal(),
            tc.Drude(tc.DrudeParameters(au_omega_p, au_gamma)),
            tc.Plasma(au_omega_p),
            tc.TabulatedPermittivity(table),
            tc.InfraredOpticsImpedance(au_omega_p),
            tc.SkinEffectImpedance(au_omega_p, au_gamma),
        )

    def test_all_prescriptions_stay_bounded(self, au_omega_p, au_gamma,
                                            drude_synthetic_table):
        xi = np.geomspace(1e12, 1e17, 8)[:, None]
        k_perp = np.geomspace(1e3, 1e9, 9)[None, :]
        q = np.sqrt(k_perp**2 + (xi / CONSTANTS.c) ** 2)
        for model in self._models(au_omega_p, au_gamma, drude_synthetic_table):
            pair = model.reflection(xi, q, 300.0)
            assert np.all(np.abs(pair.r_tm) <= 1.0), model.tag
            assert np.all(np.abs(pair.r_te) <= 1.0), model.tag
            zero = tc.zero_frequency_reflection(model, k_perp)
            assert zero.r_tm.shape == zero.r_te.shape == k_perp.shape, model.tag
            assert np.all(np.abs(zero.r_tm) <= 1.0), model.tag
            assert np.all(np.abs(zero.r_te) <= 1.0), model.tag

    def test_all_responses_are_physical_on_the_imaginary_axis(self, au_omega_p, au_gamma,
                                                              drude_synthetic_table):
        # each response is of the kind its kernel reads: eps >= 1 or 0 < Z <= 1
        xi = np.geomspace(1e12, 1e17, 30)
        for model in self._models(au_omega_p, au_gamma, drude_synthetic_table):
            values = model.response(xi, 300.0)
            assert values.shape == xi.shape, model.tag
            if model.kernel is reflection.fresnel_q:
                assert np.all(values >= 1.0), model.tag
            elif model.kernel is reflection.impedance_q:
                assert np.all((0.0 < values) & (values <= 1.0)), model.tag
            else:
                assert model.kernel is reflection.perfect_q, model.tag
                assert np.all(values == np.inf), model.tag

    def test_ideal_metal_response_is_the_perfect_conductor_limit(self):
        model = tc.IdealMetal()
        assert model.response(1e15) == math.inf
        with pytest.raises(DomainError, match="prescription"):
            model.response(0.0)


_TAGS = ("ideal", "drude", "plasma", "impedance-ir", "impedance-skin", "table")


@settings(max_examples=60, deadline=None)
@given(tag=st.sampled_from(_TAGS),
       log_xi=st.floats(9.0, 18.0),
       log_excess=st.floats(0.0, 8.0),
       temperature=st.floats(1e-3, 1e3))
def test_reflection_never_exceeds_one(tag, log_xi, log_excess, temperature):
    # |r| <= 1 for every model at every (xi, q >= xi/c): the ideal-metal majorant
    # that bounds the cut Matsubara tail rests on it
    from thermal_casimir.presets import build_model

    model = build_model(tag, preset="Si-static" if tag == "table" else "Au-paper")
    xi = 10.0**log_xi
    q = xi / CONSTANTS.c * np.array([1.0, 10.0**log_excess])
    pair = model.reflection(xi, q, temperature)
    assert np.all(np.abs(pair.r_tm) <= 1.0) and np.all(np.abs(pair.r_te) <= 1.0)


_REFERENCE_KERNELS = {
    reflection.fresnel_q: fresnel_q_reference,
    reflection.impedance_q: impedance_q_reference,
    reflection.perfect_q: lambda xi, q, response: (1.0, 1.0),
}


@pytest.mark.parametrize("tag", _TAGS)
def test_out_pair_receives_the_amplitudes_bit_for_bit(tag):
    # the engine hands the kernel views of its per-thread buffers; with or
    # without them the amplitudes are those of the plain expressions, bit for bit
    from thermal_casimir.presets import build_model

    model = build_model(tag, preset="Si-static" if tag == "table" else "Au-paper")
    xi = np.geomspace(1e11, 1e17, 7)[:, None]
    q = xi / CONSTANTS.c * np.geomspace(1.0, 1e6, 11)[None, :]
    buffers = np.full((2, 100), np.nan)
    out = [buffer[: q.size].reshape(q.shape) for buffer in buffers]
    for temperature in (None, 1.0, 300.0):
        expected = _REFERENCE_KERNELS[model.kernel](xi, q, model.response(xi, temperature))
        plain = model.reflection(xi, q, temperature)
        written = model.reflection(xi, q, temperature, out)
        for value, fresh, amplitude, buffer in zip(expected, plain, written, out):
            for computed in (fresh, amplitude):
                assert (np.broadcast_to(computed, q.shape).tobytes()
                        == np.broadcast_to(value, q.shape).tobytes())
            if isinstance(amplitude, np.ndarray):
                assert amplitude.shape == q.shape and np.shares_memory(amplitude, buffer)


@pytest.mark.parametrize("bad", [0.0, -0.2, 1.5, math.nan, [0.1, math.nan]])
def test_impedance_kernel_checks_before_writing_out(bad):
    out = (np.full(2, 7.0), np.full(2, 7.0))
    with pytest.raises(DomainError, match=r"surface impedance must lie in \(0, 1\]"):
        reflection.impedance_q(1e15, np.array([1e7, 2e7]), np.asarray(bad), out)
    assert np.all(out[0] == 7.0) and np.all(out[1] == 7.0)


class TestZeroFrequencyRules:
    def test_ideal_and_skin_effect_reflect_fully(self, au_omega_p, au_gamma):
        k = np.geomspace(1e3, 1e8, 7)
        for model in (tc.IdealMetal(), tc.SkinEffectImpedance(au_omega_p, au_gamma)):
            pair = tc.zero_frequency_reflection(model, k)
            assert np.all(pair.r_tm == 1.0) and np.all(pair.r_te == 1.0)

    def test_drude_te_vanishes(self, drude_au):
        pair = tc.zero_frequency_reflection(drude_au, np.array([1e4, 1e6]))
        assert np.all(pair.r_tm == 1.0)
        assert np.all(pair.r_te == 0.0)

    def test_plasma_value_at_matched_wavevector(self, plasma_au, au_omega_p):
        pair = tc.zero_frequency_reflection(plasma_au, au_omega_p / CONSTANTS.c)
        assert pair.r_tm == 1.0
        assert pair.r_te == pytest.approx(0.17157287525380996, rel=1e-12)

    def test_plasma_approaches_ideal_at_large_plasma_frequency(self):
        previous = tc.zero_frequency_reflection(tc.Plasma(1e20), 1e6).r_te
        pair = tc.zero_frequency_reflection(tc.Plasma(1e23), 1e6)
        assert pair.r_te == pytest.approx(1.0, abs=1e-8)
        assert previous < pair.r_te < 1.0

    def test_plasma_rule_is_the_small_frequency_fresnel_limit(self, plasma_au, au_omega_p):
        k_perp = 3.0e6
        rule = tc.zero_frequency_reflection(plasma_au, k_perp)
        limit = tc.fresnel_reflection(1e6, k_perp, tc.eps_plasma(1e6, au_omega_p))
        assert rule.r_te == pytest.approx(float(limit.r_te), rel=1e-6)
        assert rule.r_tm == pytest.approx(1.0)

    def test_infrared_optics_value(self, au_omega_p):
        model = tc.InfraredOpticsImpedance(au_omega_p)
        k = au_omega_p / (2.0 * CONSTANTS.c)
        pair = tc.zero_frequency_reflection(model, k)
        assert pair.r_te == pytest.approx((1.0 - 0.5) / (1.0 + 0.5), rel=1e-12)

    def test_ordering_of_te_prescriptions(self, drude_au, plasma_au, au_omega_p):
        k = np.geomspace(1e3, 1e9, 25)
        te_drude = tc.zero_frequency_reflection(drude_au, k).r_te ** 2
        te_plasma = tc.zero_frequency_reflection(plasma_au, k).r_te ** 2
        te_ideal = tc.zero_frequency_reflection(tc.IdealMetal(), k).r_te ** 2
        assert np.all(te_drude <= te_plasma) and np.all(te_plasma <= te_ideal)

    def test_tabulated_rules(self, drude_synthetic_table, au_omega_p, au_gamma):
        drude_tail = tc.TabulatedPermittivity(drude_synthetic_table)
        pair = tc.zero_frequency_reflection(drude_tail, 1e6)
        assert pair.r_tm == 1.0 and pair.r_te == 0.0

        static = tc.TabulatedPermittivity(
            tc.OpticalTable(drude_synthetic_table.omega, drude_synthetic_table.im_eps,
                            tc.ConstantEpsilon(11.66))
        )
        pair = tc.zero_frequency_reflection(static, 1e6)
        assert pair.r_tm == pytest.approx((11.66 - 1.0) / (11.66 + 1.0), rel=1e-12)
        assert pair.r_te == 0.0

        bare = tc.TabulatedPermittivity(
            tc.OpticalTable(drude_synthetic_table.omega, drude_synthetic_table.im_eps, None)
        )
        with pytest.raises(PrescriptionError, match="prescription required"):
            tc.zero_frequency_reflection(bare, 1e6)

    def test_nonpositive_wavevector_rejected(self, drude_au):
        with pytest.raises(DomainError):
            tc.zero_frequency_reflection(drude_au, 0.0)
