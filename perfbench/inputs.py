"""Seeded input generation for the three workloads (standard library only).

Every input a workload reads is written here from ``random.Random(seed)``,
so the same seed gives byte-identical files.  The library under test
receives only these files; it never sees the seed.
"""

from __future__ import annotations

import json
import math
import random
from pathlib import Path

WORKLOADS = ("cli-oneshot", "room-grid", "nernst-scan")

# cli-oneshot: the six acceptance-clause-9 commands, each run twice per round.
CLI_COMMANDS = {
    "pressure": ["pressure", "--z-min-um", "1", "--z-max-um", "5", "--points", "3",
                 "--model", "plasma"],
    "free-energy": ["free-energy", "--z-min-um", "1", "--z-max-um", "5", "--points", "3"],
    "entropy": ["entropy", "--z-um", "1", "--model", "drude", "--gamma-map", "residual",
                "--points", "7", "--t-min", "20"],
    "pft": ["pft", "--kind", "cylinder", "--z-um", "0.1", "--R-um", "100"],
    "yukawa": ["yukawa", "--bound-file", "bound.csv", "--geometry-file", "geometry.json",
               "--lambda-min-um", "0.1", "--lambda-max-um", "2", "--points", "4"],
    "optics-convert": ["optics-convert", "--table-file", "gold.txt",
                       "--extrapolation", "drude:9.0:0.035",
                       "--xi-min-ev", "0.01", "--xi-max-ev", "10", "--points", "4"],
}
CLI_ROUNDS = 8

# room-grid: six model tags at 300 K, separations log-uniform over 0.1-15 um.
GRID_MODELS = ("ideal", "drude", "plasma", "impedance-ir", "impedance-skin", "table")
GRID_SEPARATIONS = 4000
GRID_WARMUP = 3

# nernst-scan: the clause-5 suite at 1 um; the seed sets only the scan order,
# because the residual verdict sits within a factor of two of its threshold.
NERNST_SCANS = {
    "drude-perfect-lattice": {"model": "drude", "gamma_map": "perfect-lattice",
                              "expect": "nernst-violated"},
    "drude-residual": {"model": "drude", "gamma_map": "residual",
                       "expect": "nernst-violated"},
    "plasma": {"model": "plasma", "gamma_map": None, "expect": "nernst-ok"},
}
NERNST_SUITES = 8

# Au-paper Drude parameters in eV, matching the optics-convert extrapolation.
_AU_OMEGA_P_EV, _AU_GAMMA_EV = 9.0, 0.035


def _write_json(path, document):
    path.write_text(json.dumps(document, indent=1, sort_keys=True) + "\n")


def _log_uniform(rng, low, high):
    return math.exp(rng.uniform(math.log(low), math.log(high)))


def _cli_inputs(rng, directory):
    z_nm = sorted(rng.sample(range(150, 1001, 10), rng.randint(3, 6)))
    (directory / "bound.csv").write_text(
        "# z_nm, delta_mPa\n"
        + "".join(f"{z}, {rng.uniform(0.3, 1.5):.3f}\n" for z in z_nm)
    )
    gold = {"thickness_m": round(rng.uniform(100e-9, 300e-9), 12), "density_kg_m3": 19300.0}
    _write_json(directory / "geometry.json", {
        "body_a": {"shape": "sphere", "radius_m": round(rng.uniform(100e-6, 200e-6), 10),
                   "density_kg_m3": round(rng.uniform(2200.0, 2600.0), 1),
                   "coatings": [gold]},
        "body_b": {"shape": "semispace", "density_kg_m3": round(rng.uniform(2200.0, 2600.0), 1),
                   "coatings": [gold]},
    })
    # Gold absorption Im eps = wp^2 g / (w (w^2 + g^2)) on a seeded log grid in eV.
    points = rng.randint(110, 130)
    low = math.log(_log_uniform(rng, 0.8e-3, 1.2e-3))
    high = math.log(_log_uniform(rng, 800.0, 1000.0))
    rows = []
    for k in range(points):
        w = math.exp(low + (high - low) * k / (points - 1))
        im_eps = _AU_OMEGA_P_EV**2 * _AU_GAMMA_EV / (w * (w * w + _AU_GAMMA_EV**2))
        rows.append(f"{w:.10e} {im_eps:.10e}\n")
    (directory / "gold.txt").write_text("".join(rows))
    invocations = [name for name in CLI_COMMANDS for _ in range(2)]
    rounds = []
    for _ in range(CLI_ROUNDS):
        rng.shuffle(invocations)
        rounds.append(list(invocations))
    _write_json(directory / "cli.json", {"commands": CLI_COMMANDS, "rounds": rounds})


def _grid_inputs(rng, directory):
    def separations(count):
        return [_log_uniform(rng, 0.1e-6, 15e-6) for _ in range(count)]

    _write_json(directory / "grid.json", {
        "temperature": 300.0,
        "tol": 1e-7,
        "models": list(GRID_MODELS),
        "warmup_z": separations(GRID_WARMUP),
        "z": separations(GRID_SEPARATIONS),
    })


def _nernst_inputs(rng, directory):
    labels = list(NERNST_SCANS)
    suites = []
    for _ in range(NERNST_SUITES):
        rng.shuffle(labels)
        suites.append(list(labels))
    _write_json(directory / "nernst.json", {
        "z": 1e-6, "tol": 1e-9, "t_max": 300.0, "t_min": 1.0, "points": 25,
        "scans": NERNST_SCANS, "suites": suites,
    })


def generate(workload, seed, directory):
    """Write the inputs of ``workload`` for ``seed`` into ``directory``."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    rng = random.Random(f"{workload}:{seed}")
    {"cli-oneshot": _cli_inputs, "room-grid": _grid_inputs,
     "nernst-scan": _nernst_inputs}[workload](rng, directory)
