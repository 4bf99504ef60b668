import numpy as np
import pytest

import thermal_casimir as tc
from thermal_casimir.errors import DomainError
from thermal_casimir.geometry import PftErrorCoefficients


class TestIdealPlatePressure:
    def test_value_at_one_micron(self):
        # direct arithmetic: -pi^2 hbar c / 240 / z^4
        assert tc.ideal_plate_pressure(1e-6) == pytest.approx(-1.3001257732443657e-3, rel=1e-12)

    def test_inverse_fourth_power_scaling(self):
        assert tc.ideal_plate_pressure(1e-6) / tc.ideal_plate_pressure(2e-6) == pytest.approx(
            16.0, rel=1e-14
        )

    def test_energy_is_the_antiderivative(self):
        z = 0.4e-6
        h = z * 1e-6
        numeric = -(tc.ideal_plate_energy(z + h) - tc.ideal_plate_energy(z - h)) / (2.0 * h)
        assert numeric == pytest.approx(tc.ideal_plate_pressure(z), rel=1e-9)

    def test_positive_separation_required(self):
        for bad in (0.0, float("nan"), float("inf")):
            with pytest.raises(DomainError):
                tc.ideal_plate_pressure(bad)
            with pytest.raises(DomainError):
                tc.ideal_plate_energy(bad)


class TestProximityForce:
    def test_sphere_value(self):
        case = tc.GeometryCase("sphere-plate", 100e-9, 100e-6)
        # direct arithmetic of -pi^3/360 * hbar c R / z^3
        assert tc.pft_force(case) == pytest.approx(-2.7229770519781657e-10, rel=1e-12)

    def test_cylinder_scaling(self):
        near = tc.pft_force(tc.GeometryCase("cylinder-plate", 100e-9, 100e-6))
        far = tc.pft_force(tc.GeometryCase("cylinder-plate", 200e-9, 100e-6))
        assert near / far == pytest.approx(2.0**3.5, rel=1e-13)

    def test_sphere_force_is_proximity_identity(self):
        z, radius = 150e-9, 50e-6
        case = tc.GeometryCase("sphere-plate", z, radius)
        assert tc.pft_force(case) == pytest.approx(
            2.0 * np.pi * radius * tc.ideal_plate_energy(z), rel=1e-14
        )

    def test_plate_plate_unsupported(self):
        with pytest.raises(DomainError):
            tc.pft_force(tc.GeometryCase("plate-plate", 1e-6))


class TestExactCylinder:
    def test_approaches_proximity_result(self):
        radius = 1.0
        ratios = [
            tc.exact_cylinder_force(zr * radius, radius)
            / tc.pft_force(tc.GeometryCase("cylinder-plate", zr * radius, radius))
            for zr in (1e-2, 1e-4, 1e-6)
        ]
        assert abs(ratios[-1] - 1.0) < 1e-5
        assert abs(ratios[0] - 1.0) > abs(ratios[1] - 1.0) > abs(ratios[2] - 1.0)

    def test_relative_deviation_at_typical_parameters(self):
        z, radius = 100e-9, 100e-6
        pft = tc.pft_force(tc.GeometryCase("cylinder-plate", z, radius))
        exact = tc.exact_cylinder_force(z, radius)
        deviation = (pft - exact) / pft
        assert deviation == pytest.approx(0.288618 * z / radius, rel=1e-5)

    def test_proximity_result_overestimates(self):
        radius = 10e-6
        for aspect in np.linspace(0.005, 0.1, 8):
            z = aspect * radius
            exact = tc.exact_cylinder_force(z, radius)
            pft = tc.pft_force(tc.GeometryCase("cylinder-plate", z, radius))
            assert abs(exact) < abs(pft)

    def test_deviation_scales_linearly_in_aspect_ratio(self):
        radius = 100e-6
        coeff = tc.pft_error_coefficients().force
        for z in (50e-9, 100e-9, 1e-6, 5e-6):
            pft = tc.pft_force(tc.GeometryCase("cylinder-plate", z, radius))
            exact = tc.exact_cylinder_force(z, radius)
            assert (exact - pft) / pft == pytest.approx(coeff * z / radius, rel=1e-9)


class TestPftErrorCoefficients:
    def test_values(self):
        coeffs = tc.pft_error_coefficients()
        assert isinstance(coeffs, PftErrorCoefficients)
        assert coeffs.force == pytest.approx(-0.288618, abs=1e-6)
        assert coeffs.energy == pytest.approx(-0.48103, abs=1e-4)
        assert coeffs.ratio == pytest.approx(1.6667, abs=1e-3)

    def test_force_coefficient_identity(self):
        expected = 0.6 * (20.0 / (3.0 * np.pi**2) - 7.0 / 36.0)
        assert abs(tc.pft_error_coefficients().force) == pytest.approx(expected, rel=1e-14)

    def test_energy_is_five_thirds_of_force(self):
        coeffs = tc.pft_error_coefficients()
        assert coeffs.energy == pytest.approx(coeffs.force * 5.0 / 3.0, rel=1e-12)


class TestPressureFromGradient:
    def test_zero_gradient(self):
        assert tc.pressure_from_gradient(0.0, 1e-4) == 0.0

    def test_units_identity(self):
        radius = 1e-4
        assert tc.pressure_from_gradient(2.0 * np.pi * radius * 1.0, radius) == pytest.approx(
            -1.0, rel=1e-14
        )

    def test_recovers_plate_pressure_from_sphere_proximity_force(self):
        z, radius = 200e-9, 100e-6
        case = tc.GeometryCase("sphere-plate", z, radius)
        gradient = -3.0 * tc.pft_force(case) / z  # d/dz of a z^-3 law
        assert tc.pressure_from_gradient(gradient, radius) == pytest.approx(
            tc.ideal_plate_pressure(z), rel=1e-12
        )

    def test_positive_radius_required(self):
        with pytest.raises(DomainError):
            tc.pressure_from_gradient(1.0, 0.0)

    @pytest.mark.parametrize("radius", [np.nan, np.inf])
    def test_finite_radius_required(self, radius):
        with pytest.raises(DomainError):
            tc.pressure_from_gradient(1.0, radius)

    @pytest.mark.parametrize("gradient", [np.nan, -np.inf, np.array([1.0, np.nan])])
    def test_finite_gradient_required(self, gradient):
        with pytest.raises(DomainError, match="force gradient must be finite"):
            tc.pressure_from_gradient(gradient, 1e-4)


class TestGeometryCase:
    def test_validity_flag_threshold(self):
        assert tc.GeometryCase("sphere-plate", 1e-6, 100e-6).asymptotics_reliable
        assert not tc.GeometryCase("sphere-plate", 21e-6, 100e-6).asymptotics_reliable

    def test_validation(self):
        with pytest.raises(DomainError):
            tc.GeometryCase("sphere-plate", 1e-6)
        with pytest.raises(DomainError):
            tc.GeometryCase("plate-plate", 1e-6, 1e-4)
        with pytest.raises(DomainError):
            tc.GeometryCase("moebius-plate", 1e-6, 1e-4)
        with pytest.raises(DomainError):
            tc.GeometryCase("cylinder-plate", -1e-6, 1e-4)
        for bad in (float("nan"), float("inf")):
            with pytest.raises(DomainError):
                tc.GeometryCase("cylinder-plate", bad, 1e-4)
            with pytest.raises(DomainError):
                tc.GeometryCase("sphere-plate", 1e-6, bad)
