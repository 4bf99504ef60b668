"""Result battery: a fingerprint of every F, P and S the engine returns.

Run as ``PYTHONPATH=src python tests/battery.py``.  It prints the number of
results and the sha256 of ``repr`` of the result list, so two source trees
can be compared for bitwise-identical results on the same machine with one
command each.  Two more lines give the same for each engine mode on its own:
the free-energy tuples, then the rest (the ``entropy_pass`` tuples and the
two scans), so a change shows which mode it moved.  The last two lines count
the l >= 1 integrand nodes and kernel calls of the entropy half, then of the
F/P half, so a change can show its saving in work next to its bitwise state.
pytest does not collect this file.

The battery covers every model kind (``table`` on the Si-static preset, the
others on Au-paper) at z in {5 nm, 0.1, 1, 10 um}, T in {1, 30, 300 K} and
tol in {1e-7, 1e-10}: at each point ``free_energy`` as (tag, z, T, tol, F,
P, error estimate, terms used) and then ``entropy_pass`` at the same config
as (value, error), the table model only above 10 K.  Last come the two Drude
Nernst scans at 1 um, "perfect-lattice" and "residual", as (verdict, entropy
values).
"""

import hashlib

from thermal_casimir import lifshitz
from thermal_casimir.entropy import nernst_verdict
from thermal_casimir.presets import MODEL_KINDS, build_model

SEPARATIONS = (5e-9, 0.1e-6, 1e-6, 10e-6)
TEMPERATURES = (1.0, 30.0, 300.0)
TOLERANCES = (1e-7, 1e-10)


def battery():
    """The result list, in a fixed order."""
    results = []
    for tag in MODEL_KINDS:
        model = build_model(tag, preset="Si-static" if tag == "table" else "Au-paper")
        for z in SEPARATIONS:
            for temperature in TEMPERATURES:
                for tol in TOLERANCES:
                    config = lifshitz.EvaluationConfig(rel_tolerance=tol)
                    r = lifshitz.free_energy(z, temperature, model, config)
                    results.append((tag, z, temperature, tol, r.free_energy_per_area,
                                    r.pressure, r.quadrature_error_estimate, r.terms_used))
                    if tag == "table" and temperature <= 10.0:
                        continue
                    s = lifshitz.entropy_pass(z, temperature, model, config)
                    results.append((s.value, s.error))
    drude = build_model("drude", preset="Au-paper")
    for gamma_map in ("perfect-lattice", "residual"):
        scan = nernst_verdict(drude, 1e-6, gamma_map)
        results.append((scan.verdict, tuple(scan.entropy_values)))
    return results


def count_nodes():
    """Wrap ``lifshitz._positive_terms`` to count the nodes of its calls, per mode.

    Returns the running [nodes, kernel calls] pairs, keyed by ``want_pressure``:
    False for the entropy pass, True for F and P.
    """
    counts = {False: [0, 0], True: [0, 0]}
    positive_terms = lifshitz._positive_terms

    def counted(z, temperature, model, indices, y_step, band, want_pressure):
        tally = counts[want_pressure]
        tally[0] += len(indices) * band[0].size
        tally[1] += 1
        return positive_terms(z, temperature, model, indices, y_step, band, want_pressure)

    lifshitz._positive_terms = counted
    return counts


def fingerprint(results):
    """Count and sha256 of ``repr`` of a result list."""
    return f"{len(results)} {hashlib.sha256(repr(results).encode()).hexdigest()}"


def main():
    counts = count_nodes()
    results = battery()
    print(fingerprint(results))
    # the free-energy tuples are the only ones that start with a model tag
    print("F/P:", fingerprint([r for r in results if r[0] in MODEL_KINDS]))
    print("entropy:", fingerprint([r for r in results if r[0] not in MODEL_KINDS]))
    for label, want_pressure in (("entropy", False), ("F/P", True)):
        nodes, calls = counts[want_pressure]
        print(f"{label} l >= 1 nodes: {nodes} in {calls} kernel calls")


if __name__ == "__main__":
    main()
