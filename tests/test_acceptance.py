"""Acceptance suite.

Each test covers one acceptance criterion at its stated tolerance and prints
one PASS/FAIL line per clause before asserting, so a full run (pytest -v -s
tests/test_acceptance.py) reads as a checklist.  Values marked as pinned come
from the independent oracles in oracles.py.
"""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import thermal_casimir as tc

from oracles import plate_pressure_numeric, sphere_plate_force_numeric

GOLD = 19300.0


def _clause(criterion, description, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f"  [{detail}]" if detail else ""
    print(f"ACCEPTANCE {criterion} {status} - {description}{suffix}")
    return ok


def test_criterion_1_classical_factor_two(ideal_metal, drude_au):
    started = time.time()
    f_ideal = tc.free_energy(15e-6, 300.0, ideal_metal).free_energy_per_area
    f_drude = tc.free_energy(15e-6, 300.0, drude_au).free_energy_per_area
    elapsed = time.time() - started
    ratio = f_ideal / f_drude
    checks = [
        _clause(1, "ideal/Drude free-energy ratio at 15 um, 300 K is 2.00 +/- 0.04",
                abs(ratio - 2.0) <= 0.04, f"ratio={ratio:.6f}"),
        _clause(1, "runtime below 5 s", elapsed < 5.0, f"{elapsed:.2f}s"),
    ]
    assert all(checks)


def test_criterion_2_ideal_classical_value(ideal_metal):
    checks = []
    for z, tolerance in ((10e-6, 0.01), (6e-6, 0.03)):
        value = tc.free_energy(z, 300.0, ideal_metal).free_energy_per_area
        reference = tc.classical_limit(z, 300.0, "ideal")
        deviation = abs(value / reference - 1.0)
        checks.append(
            _clause(2, f"ideal free energy at {z*1e6:.0f} um within {tolerance:.0%} "
                       "of the classical value",
                    deviation <= tolerance, f"deviation={deviation:.2e}")
        )
    assert all(checks)


def test_criterion_3_proximity_force_error():
    z, radius = 100e-9, 100e-6
    pft = tc.pft_force(tc.GeometryCase("cylinder-plate", z, radius))
    exact = tc.exact_cylinder_force(z, radius)
    deviation = (pft - exact) / pft
    coefficient = 0.6 * (20.0 / (3.0 * np.pi**2) - 7.0 / 36.0)
    coeffs = tc.pft_error_coefficients()
    checks = [
        _clause(3, "cylinder PFT deviation at R=100 um, z=100 nm is 2.886e-4 +/- 1e-6",
                abs(deviation - 2.886e-4) <= 1e-6, f"deviation={deviation:.6e}"),
        _clause(3, "force coefficient identity equals 0.288618 to 1e-6",
                abs(coefficient - 0.288618) <= 1e-6, f"value={coefficient:.9f}"),
        _clause(3, "energy/force error ratio is 1.6667 +/- 1e-3",
                abs(coeffs.ratio - 1.6667) <= 1e-3, f"ratio={coeffs.ratio:.6f}"),
    ]
    assert all(checks)


def test_criterion_4_thermal_correction_split(drude_au, plasma_au):
    p_drude = tc.pressure(1e-6, 300.0, drude_au)
    p_plasma = tc.pressure(1e-6, 300.0, plasma_au)
    split = abs(p_drude - p_plasma) / abs(p_plasma)

    p_room = tc.pressure(0.5e-6, 300.0, plasma_au)
    p_cold = tc.pressure(0.5e-6, 1.0, plasma_au)
    thermal = abs(p_room - p_cold) / abs(p_cold)
    checks = [
        _clause(4, "Drude vs plasma pressure split at 1 um, 300 K is 19% +/- 4 points",
                0.15 <= split <= 0.23, f"split={split:.4f}"),
        _clause(4, "plasma thermal correction below 1% at 0.5 um",
                thermal < 0.01, f"correction={thermal:.5f}"),
    ]
    assert all(checks)


def test_criterion_5_nernst_suite(drude_au, plasma_au, au_omega_p):
    started = time.time()
    s_zero = tc.drude_zero_T_entropy(1e-6, au_omega_p)
    verdicts = (
        tc.nernst_verdict(drude_au, 1e-6, "perfect-lattice").verdict,
        tc.nernst_verdict(drude_au, 1e-6, "residual").verdict,
        tc.nernst_verdict(plasma_au, 1e-6).verdict,
    )
    elapsed = time.time() - started
    limit = tc.entropy_large_z_limit(1e-6)
    limit_deviation = abs(s_zero - limit) / abs(limit)

    checks = [
        _clause(5, "Drude zero-temperature entropy at 1 um is negative",
                s_zero < 0.0, f"S={s_zero:.6e}"),
        _clause(5, "perfect-lattice Drude scan reports nernst-violated",
                verdicts[0] == "nernst-violated", verdicts[0]),
        _clause(5, "residual-relaxation Drude scan reports nernst-ok",
                verdicts[1] == "nernst-ok",
                f"{verdicts[1]}; entropy recovery lies below the 1 K grid floor "
                "(crossover near milli-Kelvin), unreachable by the mandated scan"),
        _clause(5, "plasma scan reports nernst-ok",
                verdicts[2] == "nernst-ok", verdicts[2]),
        _clause(5, "runtime below 30 s", elapsed < 30.0, f"{elapsed:.1f}s"),
        _clause(5, "zero-temperature entropy within 0.5% of the large-separation limit",
                limit_deviation <= 0.005,
                f"deviation={limit_deviation:.4f}; true first-order deficit is "
                "8c/(2 z omega_p) = 8.8% at 2 z omega_p / c = 91, "
                "oracle-confirmed to 15 digits"),
    ]
    assert all(checks)


def test_criterion_6_derivative_consistency(ideal_metal, drude_au, plasma_au, au_omega_p):
    config = tc.EvaluationConfig(rel_tolerance=1e-9)
    models = (ideal_metal, drude_au, plasma_au, tc.InfraredOpticsImpedance(au_omega_p))
    checks = []
    for model in models:
        worst = 0.0
        for z in (0.2e-6, 1e-6, 5e-6):
            h = z / 1000.0
            analytic = tc.pressure(z, 300.0, model, config)
            upper = tc.free_energy(z + h, 300.0, model, config).free_energy_per_area
            lower = tc.free_energy(z - h, 300.0, model, config).free_energy_per_area
            numeric = -(upper - lower) / (2.0 * h)
            worst = max(worst, abs(analytic - numeric) / abs(analytic))
        checks.append(
            _clause(6, f"analytic pressure matches finite differences to 1e-4 ({model.tag})",
                    worst <= 1e-4, f"worst={worst:.2e}")
        )
    assert all(checks)


def test_criterion_7_dispersion_round_trip(drude_synthetic_table, au_parameters,
                                           au_omega_p, au_gamma):
    xi = np.geomspace(0.1 * au_gamma, 10.0 * au_omega_p, 40)
    reconstructed = tc.eps_from_table(xi, drude_synthetic_table)
    exact = tc.eps_drude(xi, au_parameters)
    worst = float(np.max(np.abs(reconstructed - exact) / exact))
    ok = _clause(7, "table-reconstructed permittivity within 0.5% of the closed form "
                    "over [0.1 gamma, 10 omega_p]",
                 worst <= 0.005, f"worst={worst:.2e}")
    assert ok


def test_criterion_8_yukawa_oracle_equivalence():
    rng = np.random.default_rng(20260810)
    plate = tc.SemispacePlate(GOLD)
    sphere = tc.Sphere(50e-6, GOLD)
    checks = []
    worst_plate = worst_sphere = 0.0
    for _ in range(5):
        z = float(10 ** rng.uniform(-6.5, -5.7))
        lam = float(10 ** rng.uniform(-6.7, -5.8))
        alpha = float(10 ** rng.uniform(6.0, 9.0))
        params = tc.YukawaParams(alpha, lam)

        value = tc.yukawa_pressure_plates(z, plate, plate, params)
        oracle = plate_pressure_numeric(z, GOLD, GOLD, alpha, lam)
        worst_plate = max(worst_plate, abs(value / oracle - 1.0))

        force = tc.yukawa_force_sphere_plate(z, sphere, plate, params)
        force_oracle = sphere_plate_force_numeric(z, 50e-6, GOLD, GOLD, alpha, lam)
        worst_sphere = max(worst_sphere, abs(force / force_oracle - 1.0))
    checks.append(_clause(8, "plate-plate closed form within 0.1% of the pairwise oracle "
                             "at 5 random points", worst_plate <= 1e-3,
                          f"worst={worst_plate:.2e}"))
    checks.append(_clause(8, "sphere-plate closed form within 0.1% of the pairwise oracle "
                             "at 5 random points", worst_sphere <= 1e-3,
                          f"worst={worst_sphere:.2e}"))

    params = tc.YukawaParams(1.0, 0.6e-6)
    single = tc.yukawa_pressure_plates(0.8e-6, plate, plate, params)
    double = tc.yukawa_pressure_plates(0.8e-6, plate, plate, tc.YukawaParams(2.0, 0.6e-6))
    bound = tc.ResidualBound(np.array([0.3e-6, 0.6e-6]), np.array([1e-3, 5e-4]))
    lams = np.geomspace(0.1e-6, 2e-6, 6)
    curve = tc.exclusion_bound(bound, (plate, plate), lams)
    scaled = tc.exclusion_bound(
        tc.ResidualBound(bound.z, 2.0 * bound.delta_tot), (plate, plate), lams
    )
    linear = abs(double - 2.0 * single) <= 1e-13 * abs(double)
    scaling = np.allclose(scaled.alpha_max, 2.0 * curve.alpha_max, rtol=1e-14, atol=0.0)
    checks.append(_clause(8, "hypothetical pressure is linear in alpha to machine precision",
                          linear and scaling))
    assert all(checks)


def test_criterion_9_cli_determinism(tmp_path):
    bound = tmp_path / "bound.csv"
    bound.write_text("200, 1.2\n300, 0.8\n500, 0.5\n")
    geometry = tmp_path / "geometry.json"
    geometry.write_text(json.dumps({
        "body_a": {"shape": "sphere", "radius_m": 150e-6, "density_kg_m3": 19300.0},
        "body_b": {"shape": "semispace", "density_kg_m3": 19300.0},
    }))
    table = tmp_path / "gold.txt"
    import thermal_casimir.materials as materials
    from thermal_casimir.constants import angular_frequency_to_ev, ev_to_angular_frequency

    omega = np.geomspace(ev_to_angular_frequency(1e-3), ev_to_angular_frequency(900.0), 120)
    rows = [f"{angular_frequency_to_ev(w):.10e} "
            f"{materials.drude_absorption(w, ev_to_angular_frequency(9.0), ev_to_angular_frequency(0.035)):.10e}"
            for w in omega]
    table.write_text("\n".join(rows) + "\n")

    commands = {
        "pressure": ["pressure", "--z-min-um", "1", "--z-max-um", "5", "--points", "3",
                     "--model", "plasma"],
        "free-energy": ["free-energy", "--z-min-um", "1", "--z-max-um", "5", "--points", "3"],
        "entropy": ["entropy", "--z-um", "1", "--model", "drude",
                    "--gamma-map", "residual", "--points", "7", "--t-min", "20"],
        "pft": ["pft", "--kind", "cylinder", "--z-um", "0.1", "--R-um", "100"],
        "yukawa": ["yukawa", "--bound-file", str(bound), "--geometry-file", str(geometry),
                   "--lambda-min-um", "0.1", "--lambda-max-um", "2", "--points", "4"],
        "optics-convert": ["optics-convert", "--table-file", str(table),
                           "--extrapolation", "drude:9.0:0.035",
                           "--xi-min-ev", "0.01", "--xi-max-ev", "10", "--points", "4"],
    }
    # the CLI runs from the same package as this suite, installed or not
    env = {**os.environ, "PYTHONPATH": str(Path(tc.__file__).resolve().parents[1])}
    checks = []
    for name, argv in commands.items():
        outputs = []
        for attempt in ("a", "b"):
            out = tmp_path / f"{name}-{attempt}.out"
            completed = subprocess.run(
                [sys.executable, "-m", "thermal_casimir.cli", *argv, "--out", str(out)],
                capture_output=True, text=True, env=env,
            )
            assert completed.returncode == 0, completed.stderr
            outputs.append(out.read_bytes())
        checks.append(
            _clause(9, f"two {name} runs produce byte-identical output",
                    outputs[0] == outputs[1])
        )
    assert all(checks)
