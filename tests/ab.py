"""In-process A/B timing of two checkouts of the library.

Run as ``python tests/ab.py A B [--workload nernst|grid] [--rounds N]``, where
A and B are checkout roots (each with ``src/thermal_casimir``).  Both packages
are imported into this one interpreter, one after the other, and each side's
models are built while its package is the one in ``sys.modules`` (a build may
look package data up by name through ``importlib.resources``, as the
Si-static preset does).  The rounds then alternate the sides, A first in even
rounds and B first in odd ones, after one untimed warm-up call of each.

The workloads:

* ``nernst``: the three-scan Nernst suite of acceptance clause 5 at 1 um
  (Drude perfect-lattice, Drude residual, plasma; 300 K to 1 K, 25 points,
  tol 1e-9), as the benchmark's nernst-scan runs it;
* ``grid``: ``free_energy`` (tol 1e-7, 300 K) at 50 log-spaced separations in
  0.1-15 um for each closed-form model kind (every kind but ``table``, whose
  ``eps_from_table`` cost does not depend on the engine).

It prints each side's median time per round, the median of the per-round
ratios B/A with their quartiles, and the number of rounds B was faster.
Separate processes on one machine can read the same suite several per cent
apart, so a gap of a few per cent shows in this paired form and not across
processes.  pytest does not collect this file.
"""

import argparse
import importlib
import os
import statistics
import sys
import time
from pathlib import Path

# one BLAS thread, as the benchmark's workers run; set before numpy is imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

PACKAGE = "thermal_casimir"


def load(checkout):
    """Import the package of ``checkout`` afresh; return its file and one callable per workload."""
    for name in [n for n in sys.modules if n == PACKAGE or n.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    sys.path.insert(0, str(Path(checkout).resolve() / "src"))
    try:
        lifshitz = importlib.import_module(PACKAGE + ".lifshitz")
        entropy = importlib.import_module(PACKAGE + ".entropy")
        presets = importlib.import_module(PACKAGE + ".presets")
        models = {kind: presets.build_model(kind, preset="Au-paper")
                  for kind in presets.MODEL_KINDS if kind != "table"}
    finally:
        sys.path.pop(0)

    def nernst():
        for model, gamma_map in ((models["drude"], "perfect-lattice"),
                                 (models["drude"], "residual"), (models["plasma"], None)):
            entropy.nernst_verdict(model, 1e-6, gamma_map)

    config = lifshitz.EvaluationConfig(rel_tolerance=1e-7)
    separations = [0.1e-6 * 150.0 ** (i / 49) for i in range(50)]

    def grid():
        for model in models.values():
            for z in separations:
                lifshitz.free_energy(z, 300.0, model, config)

    return lifshitz.__file__, {"nernst": nernst, "grid": grid}


def timed(run):
    start = time.perf_counter()
    run()
    return time.perf_counter() - start


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("a", help="checkout root of side A (the reference)")
    parser.add_argument("b", help="checkout root of side B")
    parser.add_argument("--workload", choices=("nernst", "grid"), default="nernst")
    parser.add_argument("--rounds", type=int, default=20)
    args = parser.parse_args(argv)

    sides = []
    for label, checkout in (("A", args.a), ("B", args.b)):
        source, workloads = load(checkout)
        print(f"{label}: {source}")
        sides.append(workloads[args.workload])
    for run in sides:
        run()  # warm-up: rule caches and the per-thread workspace
    times = ([], [])
    for round_ in range(args.rounds):
        order = (0, 1) if round_ % 2 == 0 else (1, 0)
        for side in order:
            times[side].append(timed(sides[side]))
    ratios = [b / a for a, b in zip(*times)]
    q1, _, q3 = statistics.quantiles(ratios, n=4)
    for label, values in zip("AB", times):
        print(f"{label} median: {1e3 * statistics.median(values):.1f} ms")
    wins = sum(ratio < 1.0 for ratio in ratios)
    print(f"B/A median ratio: {statistics.median(ratios):.3f} "
          f"(quartiles {q1:.3f}-{q3:.3f}); B faster in {wins} of {args.rounds} rounds")


if __name__ == "__main__":
    main()
