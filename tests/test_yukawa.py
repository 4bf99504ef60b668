import numpy as np
import pytest

import thermal_casimir as tc
from thermal_casimir.constants import CONSTANTS
from thermal_casimir.errors import DomainError
from thermal_casimir.yukawa import _sphere_bracket

from oracles import (
    layered_plate_pressure_numeric,
    plate_pressure_numeric,
    sphere_plate_force_numeric,
)

GOLD = 19300.0


class TestYukawaPotential:
    def test_zero_strength_is_newtonian(self):
        params = tc.YukawaParams(0.0, 1e-6)
        assert tc.yukawa_potential(2e-6, 1.0, 2.0, params) == pytest.approx(
            -CONSTANTS.G * 2.0 / 2e-6, rel=1e-14
        )

    def test_correction_factor_at_one_range(self):
        params = tc.YukawaParams(3.0, 1e-6)
        newtonian = -CONSTANTS.G / 1e-6
        assert tc.yukawa_potential(1e-6, 1.0, 1.0, params) == pytest.approx(
            newtonian * (1.0 + 3.0 / np.e), rel=1e-14
        )

    def test_fractional_excess_at_three_ranges(self):
        params = tc.YukawaParams(1.0, 1e-6)
        value = tc.yukawa_potential(3e-6, 1.0, 1.0, params)
        newtonian = -CONSTANTS.G / 3e-6
        assert value / newtonian - 1.0 == pytest.approx(np.exp(-3.0), rel=1e-12)

    def test_positive_distance_required(self):
        with pytest.raises(DomainError):
            tc.yukawa_potential(0.0, 1.0, 1.0, tc.YukawaParams(1.0, 1e-6))

    @pytest.mark.parametrize("mass", [np.nan, np.inf, 0.0, -1.0, np.array([1.0, np.nan])])
    def test_positive_finite_masses_required(self, mass):
        params = tc.YukawaParams(1.0, 1e-6)
        for masses in ((mass, 1.0), (1.0, mass)):
            with pytest.raises(DomainError, match="masses must be positive and finite"):
                tc.yukawa_potential(1e-6, *masses, params)


class TestPlatePressure:
    def test_zero_strength(self):
        plate = tc.SemispacePlate(GOLD)
        assert tc.yukawa_pressure_plates(1e-6, plate, plate, tc.YukawaParams(0.0, 1e-6)) == 0.0

    def test_short_range_suppression(self):
        plate = tc.SemispacePlate(GOLD)
        value = tc.yukawa_pressure_plates(1e-6, plate, plate, tc.YukawaParams(1e8, 1e-9))
        assert value == 0.0  # e^{-1000} underflows; physically negligible

    def test_pinned_value_against_pairwise_oracle(self):
        # brute-force pairwise-sum oracle, frozen: z = 1 um, lambda = 1 um,
        # alpha = 1e8, homogeneous gold half-spaces
        plate = tc.SemispacePlate(GOLD)
        value = tc.yukawa_pressure_plates(1e-6, plate, plate, tc.YukawaParams(1e8, 1e-6))
        assert value == pytest.approx(-5.746530659478938e-06, rel=1e-4)
        oracle = plate_pressure_numeric(1e-6, GOLD, GOLD, 1e8, 1e-6)
        assert value == pytest.approx(oracle, rel=1e-6)

    def test_exactly_linear_in_strength(self):
        plate = tc.SemispacePlate(GOLD)
        one = tc.yukawa_pressure_plates(0.4e-6, plate, plate, tc.YukawaParams(1.0, 0.7e-6))
        two = tc.yukawa_pressure_plates(0.4e-6, plate, plate, tc.YukawaParams(2.0, 0.7e-6))
        assert two == pytest.approx(2.0 * one, rel=1e-15)

    def test_magnitude_increases_with_range(self):
        plate = tc.SemispacePlate(GOLD)
        lams = np.geomspace(0.1e-6, 10e-6, 10)
        values = [
            abs(tc.yukawa_pressure_plates(1e-6, plate, plate, tc.YukawaParams(1.0, float(lam))))
            for lam in lams
        ]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_energy_is_pressure_antiderivative(self):
        plate = tc.SemispacePlate(GOLD)
        params = tc.YukawaParams(1e6, 0.5e-6)
        z, h = 1e-6, 1e-11
        numeric = -(
            tc.yukawa_energy_plates(z + h, plate, plate, params)
            - tc.yukawa_energy_plates(z - h, plate, plate, params)
        ) / (2.0 * h)
        assert numeric == pytest.approx(
            tc.yukawa_pressure_plates(z, plate, plate, params), rel=1e-6
        )

    def test_layered_plates_match_depth_profile_oracle(self):
        coated = tc.SemispacePlate(2330.0, (tc.Layer(150e-9, GOLD),))
        slab = tc.FiniteSlab(2e-6, 2500.0, (tc.Layer(100e-9, GOLD),))
        params = tc.YukawaParams(1e8, 0.4e-6)
        value = tc.yukawa_pressure_plates(0.8e-6, coated, slab, params)

        def profile_coated(t):
            return GOLD if t < 150e-9 else 2330.0

        def profile_slab(t):
            if t < 100e-9:
                return GOLD
            return 2500.0 if t < 2.1e-6 else 0.0

        oracle = layered_plate_pressure_numeric(
            0.8e-6, profile_coated, profile_slab, 40 * 0.4e-6, 2.1e-6, 1e8, 0.4e-6
        )
        assert value == pytest.approx(oracle, rel=1e-3)

    def test_coating_with_substrate_density_is_transparent(self):
        plain = tc.SemispacePlate(GOLD)
        coated = tc.SemispacePlate(GOLD, (tc.Layer(200e-9, GOLD),))
        params = tc.YukawaParams(1e8, 1e-6)
        assert tc.yukawa_pressure_plates(1e-6, coated, plain, params) == pytest.approx(
            tc.yukawa_pressure_plates(1e-6, plain, plain, params), rel=1e-14
        )

    def test_sphere_rejected(self):
        with pytest.raises(DomainError):
            tc.yukawa_pressure_plates(
                1e-6, tc.Sphere(1e-4, GOLD), tc.SemispacePlate(GOLD), tc.YukawaParams(1.0, 1e-6)
            )


class TestSpherePlate:
    def test_pinned_value_against_pairwise_oracle(self):
        sphere = tc.Sphere(50e-6, GOLD)
        plate = tc.SemispacePlate(GOLD)
        value = tc.yukawa_force_sphere_plate(1e-6, sphere, plate, tc.YukawaParams(1e8, 0.5e-6))
        assert value == pytest.approx(-8.21876052867165e-17, rel=1e-6)
        oracle = sphere_plate_force_numeric(1e-6, 50e-6, GOLD, GOLD, 1e8, 0.5e-6)
        assert value == pytest.approx(oracle, rel=1e-4)

    def test_zero_strength(self):
        sphere = tc.Sphere(50e-6, GOLD)
        plate = tc.SemispacePlate(GOLD)
        assert tc.yukawa_force_sphere_plate(1e-6, sphere, plate, tc.YukawaParams(0.0, 1e-6)) == 0.0

    def test_proximity_consistency_at_short_range(self):
        radius = 200e-6
        z = lam = radius / 200.0
        sphere = tc.Sphere(radius, GOLD)
        plate = tc.SemispacePlate(GOLD)
        params = tc.YukawaParams(1e8, lam)
        force = tc.yukawa_force_sphere_plate(z, sphere, plate, params)
        energy = tc.yukawa_energy_plates(z, plate, plate, params)
        assert force / (2.0 * np.pi * radius) == pytest.approx(energy, rel=0.01)

    def test_degenerate_coating_matches_homogeneous_sphere(self):
        plain = tc.Sphere(50e-6, GOLD)
        coated = tc.Sphere(50e-6, GOLD, (tc.Layer(1e-6, GOLD),))
        plate = tc.SemispacePlate(GOLD)
        params = tc.YukawaParams(1e8, 1e-6)
        assert tc.yukawa_force_sphere_plate(1e-6, coated, plate, params) == pytest.approx(
            tc.yukawa_force_sphere_plate(1e-6, plain, plate, params), rel=1e-13
        )

    def test_coated_sphere_against_oracle(self):
        sphere = tc.Sphere(30e-6, 2500.0, (tc.Layer(0.5e-6, GOLD),))
        plate = tc.SemispacePlate(GOLD)
        params = tc.YukawaParams(1e8, 0.8e-6)
        value = tc.yukawa_force_sphere_plate(1.2e-6, sphere, plate, params)
        # superpose two homogeneous oracle spheres: outer gold, inner deficit
        outer = sphere_plate_force_numeric(1.2e-6, 30e-6, GOLD, GOLD, 1e8, 0.8e-6)
        inner = sphere_plate_force_numeric(1.2e-6 + 0.5e-6, 29.5e-6, 2500.0 - GOLD, GOLD,
                                           1e8, 0.8e-6)
        assert value == pytest.approx(outer + inner, rel=1e-4)

    def test_sphere_over_slab_against_oracle(self):
        sphere = tc.Sphere(50e-6, GOLD)
        slab = tc.FiniteSlab(1e-6, 2500.0)
        params = tc.YukawaParams(1e8, 0.4e-6)
        value = tc.yukawa_force_sphere_plate(0.8e-6, sphere, slab, params)
        # a slab is a half-space minus the half-space one thickness further away
        near = sphere_plate_force_numeric(0.8e-6, 50e-6, GOLD, 2500.0, 1e8, 0.4e-6)
        far = sphere_plate_force_numeric(1.8e-6, 50e-6, GOLD, 2500.0, 1e8, 0.4e-6)
        assert value == pytest.approx(near - far, rel=1e-4)

    def test_sphere_as_plate_rejected(self):
        sphere = tc.Sphere(50e-6, GOLD)
        plate = tc.SemispacePlate(GOLD)
        params = tc.YukawaParams(1.0, 1e-6)
        with pytest.raises(DomainError):
            tc.yukawa_force_sphere_plate(1e-6, sphere, tc.Sphere(1e-4, GOLD), params)
        with pytest.raises(DomainError):
            tc.yukawa_energy_plates(1e-6, tc.Sphere(1e-4, GOLD), plate, params)
        with pytest.raises(DomainError):
            tc.yukawa_energy_plates(1e-6, plate, tc.Sphere(1e-4, GOLD), params)

    def test_bracket_series_matches_direct_expression_near_switch(self):
        radius = 1e-6
        for x in (0.2, 0.49):
            lam = 2.0 * radius / x
            direct = radius - lam + np.exp(-x) * (radius + lam)
            assert _sphere_bracket(radius, lam) == pytest.approx(direct, rel=1e-9)

    def test_bracket_long_range_limit(self):
        radius = 1e-6
        lam = 1e-3
        assert _sphere_bracket(radius, lam) == pytest.approx(
            2.0 * radius**3 / (3.0 * lam**2), rel=1e-3
        )

    def test_effective_pressure_uses_gradient_identity(self):
        sphere = tc.Sphere(50e-6, GOLD)
        plate = tc.SemispacePlate(GOLD)
        params = tc.YukawaParams(1e8, 0.5e-6)
        z, h = 1e-6, 1e-11
        gradient = (
            tc.yukawa_force_sphere_plate(z + h, sphere, plate, params)
            - tc.yukawa_force_sphere_plate(z - h, sphere, plate, params)
        ) / (2.0 * h)
        expected = -gradient / (2.0 * np.pi * sphere.radius)
        assert tc.sphere_plate_effective_pressure(z, sphere, plate, params) == pytest.approx(
            expected, rel=1e-6
        )


class TestExclusionBound:
    @pytest.fixture
    def flat_bound(self):
        return tc.ResidualBound(z=np.array([0.2e-6, 0.5e-6, 1e-6]),
                                delta_tot=np.array([1e-3, 1e-3, 1e-3]))

    @pytest.fixture
    def plate_pair(self):
        return (tc.SemispacePlate(GOLD), tc.SemispacePlate(GOLD))

    def test_scaling_with_bound(self, flat_bound, plate_pair):
        lams = np.geomspace(0.1e-6, 5e-6, 7)
        base = tc.exclusion_bound(flat_bound, plate_pair, lams)
        doubled = tc.exclusion_bound(
            tc.ResidualBound(flat_bound.z, 2.0 * flat_bound.delta_tot), plate_pair, lams
        )
        assert doubled.alpha_max == pytest.approx(2.0 * base.alpha_max, rel=1e-14)

    def test_finite_and_positive_over_requested_range(self, flat_bound, plate_pair):
        lams = np.geomspace(10e-9, 10e-6, 12)
        curve = tc.exclusion_bound(flat_bound, plate_pair, lams)
        assert np.all(np.isfinite(curve.alpha_max))
        assert np.all(curve.alpha_max > 0.0)

    def test_monotone_on_flat_bound(self, flat_bound, plate_pair):
        lams = np.geomspace(0.2e-6, 10e-6, 15)
        curve = tc.exclusion_bound(flat_bound, plate_pair, lams)
        assert np.all(np.diff(curve.alpha_max) <= 0.0)

    def test_consistent_with_direct_pressure_ratio(self, flat_bound, plate_pair):
        lam = 0.7e-6
        curve = tc.exclusion_bound(flat_bound, plate_pair, np.array([lam]))
        ratios = [
            delta / abs(tc.yukawa_pressure_plates(float(z), *plate_pair, tc.YukawaParams(1.0, lam)))
            for z, delta in zip(flat_bound.z, flat_bound.delta_tot)
        ]
        assert curve.alpha_max[0] == pytest.approx(min(ratios), rel=1e-12)

    def test_matches_pairwise_oracle_at_sampled_ranges(self, flat_bound, plate_pair):
        # large ranges compared to every grid separation, pinned by the
        # brute-force pairwise oracle
        lams = np.array([2e-6, 5e-6, 20e-6])
        curve = tc.exclusion_bound(flat_bound, plate_pair, lams)
        for lam, alpha in zip(lams, curve.alpha_max):
            expected = min(
                delta / abs(plate_pressure_numeric(float(z), GOLD, GOLD, 1.0, float(lam)))
                for z, delta in zip(flat_bound.z, flat_bound.delta_tot)
            )
            assert alpha == pytest.approx(expected, rel=1e-3)

    def test_sphere_plate_geometry(self, flat_bound):
        geometry = (tc.Sphere(150e-6, GOLD), tc.SemispacePlate(GOLD))
        curve = tc.exclusion_bound(flat_bound, geometry, np.geomspace(0.1e-6, 2e-6, 5))
        assert np.all(np.isfinite(curve.alpha_max))
        assert np.all(curve.alpha_max > 0.0)
        # the sphere may come second
        swapped = tc.exclusion_bound(flat_bound, geometry[::-1], curve.lambdas)
        assert swapped.alpha_max.tobytes() == curve.alpha_max.tobytes()

    def test_underflowing_pressure_marks_unbounded(self, plate_pair):
        bound = tc.ResidualBound(z=np.array([1e-3]), delta_tot=np.array([1e-3]))
        curve = tc.exclusion_bound(bound, plate_pair, np.array([1e-9]))
        assert np.isinf(curve.alpha_max[0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, 0.0])
    def test_lambda_grid_must_be_positive_and_finite(self, flat_bound, plate_pair, bad):
        with pytest.raises(DomainError):
            tc.exclusion_bound(flat_bound, plate_pair, np.array([1e-6, bad]))

    @pytest.mark.parametrize("geometry", [(tc.SemispacePlate(GOLD),),
                                          (tc.SemispacePlate(GOLD),) * 3,
                                          tc.SemispacePlate(GOLD), None])
    def test_geometry_must_be_a_pair(self, flat_bound, geometry):
        with pytest.raises(DomainError, match="geometry must be a pair of bodies"):
            tc.exclusion_bound(flat_bound, geometry, np.array([1e-6]))

    def test_sphere_sphere_rejected(self, flat_bound):
        with pytest.raises(DomainError):
            tc.exclusion_bound(
                flat_bound, (tc.Sphere(1e-4, GOLD), tc.Sphere(1e-4, GOLD)), np.array([1e-6])
            )

    def test_residual_bound_validation(self):
        with pytest.raises(DomainError):
            tc.ResidualBound(z=np.array([2e-6, 1e-6]), delta_tot=np.array([1.0, 1.0]))
        with pytest.raises(DomainError):
            tc.ResidualBound(z=np.array([1e-6, 2e-6]), delta_tot=np.array([1.0, -1.0]))
        with pytest.raises(DomainError, match="finite"):
            tc.ResidualBound(z=np.array([1e-6, np.nan]), delta_tot=np.array([1.0, 1.0]))
        with pytest.raises(DomainError, match="finite"):
            tc.ResidualBound(z=np.array([1e-6, 2e-6]), delta_tot=np.array([1.0, np.inf]))


class TestBodyValidation:
    def test_sphere_coatings_must_fit(self):
        with pytest.raises(DomainError):
            tc.Sphere(1e-6, GOLD, (tc.Layer(1e-6, 1000.0),))

    def test_positive_densities(self):
        with pytest.raises(DomainError):
            tc.SemispacePlate(-1.0)
        with pytest.raises(DomainError):
            tc.FiniteSlab(1e-6, 0.0)
        with pytest.raises(DomainError):
            tc.Layer(1e-9, -5.0)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    @pytest.mark.parametrize("build", [
        lambda v: tc.YukawaParams(1.0, v),
        lambda v: tc.Layer(v, GOLD),
        lambda v: tc.Layer(1e-9, v),
        lambda v: tc.SemispacePlate(v),
        lambda v: tc.FiniteSlab(v, GOLD),
        lambda v: tc.FiniteSlab(1e-6, v),
        lambda v: tc.Sphere(v, GOLD),
        lambda v: tc.Sphere(1e-4, v),
        lambda v: tc.yukawa_energy_plates(v, tc.SemispacePlate(GOLD), tc.SemispacePlate(GOLD),
                                          tc.YukawaParams(1.0, 1e-6)),
        lambda v: tc.yukawa_force_sphere_plate(v, tc.Sphere(1e-4, GOLD), tc.SemispacePlate(GOLD),
                                               tc.YukawaParams(1.0, 1e-6)),
        lambda v: tc.yukawa_potential(v, 1.0, 1.0, tc.YukawaParams(1.0, 1e-6)),
        lambda v: tc.YukawaParams(v, 1e-6),
    ])
    def test_non_finite_parameters_rejected(self, build, value):
        with pytest.raises(DomainError, match="finite"):
            build(value)
