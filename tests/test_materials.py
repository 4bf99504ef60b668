import numpy as np
import pytest

import thermal_casimir as tc
from thermal_casimir.constants import CONSTANTS, ev_to_angular_frequency
from thermal_casimir.errors import DomainError, ExtrapolationError
from thermal_casimir.materials import REFERENCE_TEMPERATURE, drude_absorption
from thermal_casimir.presets import MODEL_KINDS, build_model, get_metallic_preset, si_static_table

from oracles import drude_tail_integral_mp


class TestMatsubaraFrequency:
    def test_zero_index_is_zero(self):
        assert tc.matsubara_frequency(0, 300.0) == 0.0

    def test_first_frequency_at_room_temperature(self):
        # direct arithmetic: 2 pi k_B T / hbar
        assert tc.matsubara_frequency(1, 300.0) == pytest.approx(2.467790253641e14, rel=1e-12)

    def test_linear_in_index_times_temperature(self):
        assert tc.matsubara_frequency(2, 150.0) == tc.matsubara_frequency(1, 300.0)

    def test_dimensionless_identity(self):
        ls = np.arange(1, 50)
        xi = tc.matsubara_frequency(ls, 17.0)
        ratio = xi * CONSTANTS.hbar / (CONSTANTS.k_B * 17.0)
        assert ratio == pytest.approx(2.0 * np.pi * ls, rel=1e-14)

    @pytest.mark.parametrize("temperature", [0.0, -1.0])
    def test_nonpositive_temperature_rejected(self, temperature):
        with pytest.raises(DomainError):
            tc.matsubara_frequency(1, temperature)

    def test_negative_or_fractional_index_rejected(self):
        with pytest.raises(DomainError):
            tc.matsubara_frequency(-1, 300.0)
        with pytest.raises(DomainError):
            tc.matsubara_frequency(np.array([0.5]), 300.0)


class TestClosedFormPermittivities:
    def test_drude_at_plasma_frequency_without_relaxation(self, au_omega_p):
        params = tc.DrudeParameters(au_omega_p, 0.0)
        assert tc.eps_drude(au_omega_p, params) == pytest.approx(2.0, rel=1e-14)

    def test_drude_transparency_at_high_frequency(self, au_parameters, au_omega_p):
        value = tc.eps_drude(1e4 * au_omega_p, au_parameters)
        assert value == pytest.approx(1.0, abs=2e-8)

    def test_drude_at_xi_equal_gamma(self, au_parameters, au_gamma):
        # hand evaluation: 1 + (9.0/0.035)^2 / 2
        assert tc.eps_drude(au_gamma, au_parameters) == pytest.approx(33062.22448979591, rel=1e-9)

    def test_plasma_simple_ratios(self, au_omega_p):
        assert tc.eps_plasma(au_omega_p, au_omega_p) == pytest.approx(2.0, rel=1e-14)
        assert tc.eps_plasma(au_omega_p / 3.0, au_omega_p) == pytest.approx(10.0, rel=1e-14)

    def test_drude_without_relaxation_equals_plasma(self, au_omega_p):
        params = tc.DrudeParameters(au_omega_p, 0.0)
        xi = np.geomspace(1e10, 1e18, 50)
        assert tc.eps_drude(xi, params) == pytest.approx(tc.eps_plasma(xi, au_omega_p), rel=1e-14)

    def test_zero_frequency_is_rejected(self, au_parameters, au_omega_p):
        with pytest.raises(DomainError, match="prescription"):
            tc.eps_drude(0.0, au_parameters)
        with pytest.raises(DomainError):
            tc.eps_plasma(-1.0, au_omega_p)

    def test_monotone_decreasing_on_log_grid(self, au_parameters, au_omega_p, au_gamma):
        xi = np.geomspace(1e-3 * au_gamma, 1e3 * au_omega_p, 100)
        for values in (tc.eps_drude(xi, au_parameters), tc.eps_plasma(xi, au_omega_p)):
            assert np.all(np.diff(values) < 0.0)

    def test_impedance_from_eps(self, au_omega_p):
        assert tc.impedance_from_eps(1.0, 1.0) == 1.0
        assert tc.impedance_from_eps(1.0, 4.0) == 0.5
        eps = tc.eps_drude(au_omega_p, tc.DrudeParameters(au_omega_p, 0.0))
        assert tc.impedance_from_eps(au_omega_p, eps) == pytest.approx(1.0 / np.sqrt(2.0), rel=1e-14)
        with pytest.raises(DomainError):
            tc.impedance_from_eps(1.0, 0.5)


class TestGammaMaps:
    def test_power_law_reaches_floor(self):
        gamma_map = tc.PowerLawGamma(1e13, 300.0, floor=1e12)
        assert gamma_map(300.0) == pytest.approx(1e13)
        assert gamma_map(1.0) == 1e12
        assert gamma_map(0.0) == 1e12

    def test_power_law_is_nonincreasing_toward_zero(self):
        gamma_map = tc.PowerLawGamma(1e13, 300.0)
        t = np.linspace(0.0, 300.0, 200)
        values = gamma_map(t)
        assert np.all(values >= 0.0)
        assert np.all(np.diff(values) >= 0.0)

    def test_tabulated_map_interpolates_and_clamps(self):
        gamma_map = tc.TabulatedGamma((1.0, 10.0, 300.0), (1e11, 1e12, 1e13))
        assert gamma_map(1.0) == 1e11
        assert gamma_map(0.1) == 1e11
        assert 1e11 < gamma_map(5.0) < 1e12

    def test_tabulated_map_must_be_nondecreasing(self):
        with pytest.raises(DomainError):
            tc.TabulatedGamma((1.0, 10.0), (1e12, 1e11))

    def test_drude_parameters_validation(self):
        nan, inf = float("nan"), float("inf")
        for omega_p, gamma in ((-1.0, 1.0), (1e16, -1.0), (nan, 1.0), (inf, 1.0),
                               (1e16, nan), (1e16, inf)):
            with pytest.raises(DomainError):
                tc.DrudeParameters(omega_p, gamma)

    @pytest.mark.parametrize("mapping", [3.0, "perfect-lattice", (1.0, 2.0)])
    def test_gamma_map_must_be_callable(self, mapping):
        with pytest.raises(DomainError, match="callable"):
            tc.DrudeParameters(1e16, 1e13, mapping)

    def test_reference_temperature_is_one_constant(self):
        # before, DrudeParameters took an unchecked reference_temperature (nan ran)
        with pytest.raises(TypeError):
            tc.DrudeParameters(1e16, 1e13, reference_temperature=float("nan"))
        assert tc.DrudeParameters(1e16, 1e13, lambda t: t).relaxation() == REFERENCE_TEMPERATURE
        assert tc.PowerLawGamma(1e13).reference_temperature == REFERENCE_TEMPERATURE == 300.0

    @pytest.mark.parametrize("build", [
        lambda v: tc.Plasma(v),
        lambda v: tc.PowerLawGamma(v),
        lambda v: tc.PowerLawGamma(1e13, floor=v),
        lambda v: tc.PowerLawGamma(1e13, reference_temperature=v),
        lambda v: tc.InfraredOpticsImpedance(v),
        lambda v: tc.SkinEffectImpedance(v, 1e13),
        lambda v: tc.SkinEffectImpedance(1e16, v),
        lambda v: tc.DrudeTail(v, 1e13),
        lambda v: tc.DrudeTail(1e16, v),
        lambda v: tc.ConstantEpsilon(v),
        lambda v: tc.matsubara_frequency(1, v),
        lambda v: tc.eps_drude(v, tc.DrudeParameters(1e16, 1e13)),
        lambda v: tc.eps_plasma(v, 1e16),
        lambda v: tc.eps_plasma(1e15, v),
        lambda v: tc.impedance_from_eps(v, 2.0),
        lambda v: tc.impedance_from_eps(1e15, v),
        lambda v: tc.eps_from_table(v, si_static_table()),
        lambda v: tc.InfraredOpticsImpedance(1e16).response(v),
        lambda v: tc.SkinEffectImpedance(1e16, 1e13).response(v),
        lambda v: tc.Drude(tc.DrudeParameters(1e16, 1e13)).response(v),
        lambda v: tc.Plasma(1e16).response(v),
        lambda v: tc.TabulatedPermittivity(si_static_table()).response(v),
        lambda v: tc.TabulatedGamma((1.0, v), (1e11, 1e12)),
        lambda v: tc.TabulatedGamma((1.0, 2.0), (1e11, v)),
        lambda v: tc.DrudeParameters(1e16, 1e13, lambda t: v).relaxation(10.0),
        # before, the nan relaxation surfaced as ConvergenceError "(achieved nan)"
        lambda v: tc.free_energy(1e-6, 10.0, tc.Drude(tc.DrudeParameters(1e16, 1e13,
                                                                         lambda t: v))),
        lambda v: drude_absorption(v, 1e16, 1e13),
    ])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_parameters_rejected(self, build, value):
        with pytest.raises(DomainError, match="finite"):
            build(value)


@pytest.mark.parametrize("omega_min", [1e13, 2e14])
@pytest.mark.parametrize("offset", [0.0, 1e-9, -1e-9, 1e-7, -1e-7, -5e-7, 9.9e-7, -9.9e-7,
                                    1.01e-6, 2e-6])
def test_drude_tail_integral_near_gamma(omega_min, offset):
    # within 1e-6 gamma of xi = gamma the closed form cancels, so it is taken
    # as a divided difference; the window's edges and beyond check the switch
    omega_p, gamma = 1.37e16, 5.3e13
    xi = gamma * (1.0 + offset)
    value = tc.DrudeTail(omega_p, gamma).below_grid_integral(np.array([xi]), omega_min)[0]
    exact = drude_tail_integral_mp(omega_p, gamma, xi, omega_min)
    assert abs(value - exact) <= 1e-9 * abs(exact)


class TestOpticalTable:
    def test_validation(self):
        with pytest.raises(DomainError):
            tc.OpticalTable(np.array([2.0, 1.0]), np.array([0.1, 0.1]))
        with pytest.raises(DomainError):
            tc.OpticalTable(np.array([1.0, 2.0]), np.array([-0.1, 0.1]))

    @pytest.mark.parametrize("omega, im_eps", [
        ([1.0, np.nan], [0.1, 0.1]),
        ([1.0, np.inf], [0.1, 0.1]),
        ([1.0, 2.0], [np.nan, 0.1]),
        ([1.0, 2.0], [0.1, np.inf]),
    ])
    def test_non_finite_values_rejected(self, omega, im_eps):
        with pytest.raises(DomainError, match="finite"):
            tc.OpticalTable(np.array(omega), np.array(im_eps))

    def test_drude_round_trip(self, drude_synthetic_table, au_parameters, au_omega_p, au_gamma):
        xi = np.geomspace(0.1 * au_gamma, 10.0 * au_omega_p, 40)
        reconstructed = tc.eps_from_table(xi, drude_synthetic_table)
        exact = tc.eps_drude(xi, au_parameters)
        assert np.max(np.abs(reconstructed - exact) / exact) < 5e-3

    def test_round_trip_converges_with_grid_density(self, au_omega_p, au_gamma, au_parameters):
        xi = np.geomspace(0.1 * au_gamma, 10.0 * au_omega_p, 25)
        exact = tc.eps_drude(xi, au_parameters)
        errors = []
        for points in (60, 120, 240):
            table = tc.synthesize_drude_table(au_omega_p, au_gamma, 0.01 * au_gamma,
                                              100.0 * au_omega_p, points)
            value = tc.eps_from_table(xi, table)
            errors.append(np.max(np.abs(value - exact) / exact))
        assert errors[0] / errors[1] >= 3.0
        assert errors[1] / errors[2] >= 3.0

    def test_zero_absorption_gives_vacuum(self):
        table = tc.OpticalTable(np.geomspace(1e14, 1e16, 20), np.zeros(20),
                                tc.ConstantEpsilon(11.66))
        values = tc.eps_from_table(np.array([1e12, 1e15, 1e18]), table)
        assert values == pytest.approx(np.ones(3), abs=1e-14)

    def test_missing_extrapolation_raises_when_tail_matters(self, au_omega_p, au_gamma):
        omega = np.geomspace(0.01 * au_gamma, 100.0 * au_omega_p, 240)
        bare = tc.OpticalTable(omega, drude_absorption(omega, au_omega_p, au_gamma), None)
        with pytest.raises(ExtrapolationError, match="extrapolation required"):
            tc.eps_from_table(0.1 * au_gamma, bare)
        # at high frequency the below-grid region carries almost no weight
        assert tc.eps_from_table(10.0 * au_omega_p, bare) > 1.0

    def test_result_is_at_least_one(self, drude_synthetic_table):
        xi = np.geomspace(1e10, 1e19, 30)
        assert np.all(tc.eps_from_table(xi, drude_synthetic_table) >= 1.0)

    def test_unreachable_tolerance_raises_with_best_estimate(self, monkeypatch):
        from thermal_casimir import materials

        table = si_static_table()
        xi = np.geomspace(1e12, 1e17, 5)
        converged = tc.eps_from_table(xi, table)
        # K15 and G7 cannot agree beyond the rounding level, so 1e-20 is out of reach
        monkeypatch.setattr(materials, "_DISPERSION_REL_TOL", 1e-20)
        with pytest.raises(tc.ConvergenceError, match="dispersion integral") as info:
            tc.eps_from_table(xi, table)
        assert info.value.best_estimate == pytest.approx(converged, rel=1e-12)
        assert 1e-20 < info.value.achieved_tolerance < 1e-12


class TestPresets:
    def test_au_paper_parameters(self):
        preset = get_metallic_preset("Au-paper")
        assert preset.omega_p_ev == 9.0 and preset.gamma_ev == 0.035
        assert preset.omega_p == pytest.approx(ev_to_angular_frequency(9.0))

    def test_au_resistivity_parameters(self):
        preset = get_metallic_preset("au-resistivity")
        assert preset.omega_p_ev == 8.9 and preset.gamma_ev == 0.0357

    def test_unknown_preset(self):
        with pytest.raises(DomainError):
            get_metallic_preset("unobtainium")

    def test_table_preset_for_a_metallic_kind(self):
        with pytest.raises(DomainError, match="provides a table"):
            build_model("plasma", preset="Si-static")

    def test_table_preset_messages_and_case(self):
        with pytest.raises(DomainError, match=r"\(known: Au-paper, Au-resistivity, Si-static\)$"):
            build_model("drude", preset="Nonexistent")
        with pytest.raises(DomainError, match="need an optical table or the Si-static preset$"):
            build_model("table", preset="Au-paper")
        assert isinstance(build_model("table", preset="SI-STATIC"), tc.TabulatedPermittivity)

    def test_unknown_kind(self):
        # reported before the override it would not use
        with pytest.raises(DomainError, match="unknown model kind 'gold'"):
            build_model("gold", gamma_ev=0.1)

    def test_si_static_limit(self):
        table = si_static_table()
        low = tc.eps_from_table(1e10, table)
        assert low == pytest.approx(11.66, rel=1e-3)
        assert tc.eps_from_table(1e19, table) == pytest.approx(1.0, abs=1e-3)


@pytest.mark.parametrize("kind", MODEL_KINDS)
def test_response_of_no_frequencies_is_empty(kind):
    model = build_model(kind, preset="Si-static" if kind == "table" else "Au-paper")
    values = model.response(np.array([]), 300.0)
    assert isinstance(values, np.ndarray) and values.shape == (0,)
