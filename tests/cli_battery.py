"""CLI battery: a fingerprint of what 23 ``thermal-casimir`` commands print.

Run as ``python tests/cli_battery.py [TREE]``.  Each command runs as
``python -m thermal_casimir.cli`` in a fresh interpreter with
``PYTHONPATH=TREE/src`` (TREE defaults to the checkout holding this file),
in a scratch directory holding the benchmark's cli-oneshot inputs for seed
5 and ``plates.json``, a coated slab facing a coated half-space.  One line
per command gives its exit code, a short hash of its stdout and stderr, and
its arguments; the last line gives the number of commands and the sha256 of
``repr`` of the (argv, exit code, stdout, stderr) list, so two source trees
can be compared for byte-identical CLI output with one command each.  pytest
does not collect this file.

The commands are the six of ``perfbench/inputs.CLI_COMMANDS`` (its
``yukawa`` is sphere-plate); ``yukawa`` on ``plates.json``; ``entropy``
and ``pft --kind sphere`` as JSON; a cylinder beyond the z/R limit;
``optics-convert`` on the Si-static preset; ``pressure`` on every model kind;
five usage errors (exit 2) and one tolerance out of reach (exit 3).
"""

import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
sys.path.insert(0, str(ROOT / "src"))

import inputs  # noqa: E402
from thermal_casimir.presets import MODEL_KINDS  # noqa: E402

PRESSURE = ("pressure", "--z-min-um", "1", "--z-max-um", "1", "--points", "1")
GOLD = {"thickness_m": 1e-7, "density_kg_m3": 19300.0}
PLATES = {
    "body_a": {"shape": "slab", "thickness_m": 2e-6, "density_kg_m3": 2500.0, "coatings": [GOLD]},
    "body_b": {"shape": "semispace", "density_kg_m3": 2330.0, "coatings": [GOLD]},
}
COMMANDS = [
    *inputs.CLI_COMMANDS.values(),
    ["yukawa", "--bound-file", "bound.csv", "--geometry-file", "plates.json",
     "--lambda-min-um", "0.1", "--lambda-max-um", "5", "--points", "5"],
    [*inputs.CLI_COMMANDS["entropy"], "--format", "json"],
    ["pft", "--kind", "sphere", "--z-um", "0.1", "--R-um", "100", "--format", "json"],
    ["pft", "--kind", "cylinder", "--z-um", "20", "--R-um", "100"],
    ["optics-convert", "--preset", "Si-static", "--xi-min-ev", "1e-4", "--xi-max-ev", "20",
     "--points", "50"],
    *(["pressure", "--z-min-um", "0.5", "--z-max-um", "5", "--points", "4", "--model", kind,
       *(("--preset", "Si-static") if kind == "table" else ())] for kind in MODEL_KINDS),
    [*PRESSURE, "--preset", "Nonexistent"],
    [*PRESSURE, "--model", "plasma", "--gamma-ev", "1"],
    [*PRESSURE, "--model", "drude", "--preset", "Si-static"],
    ["entropy", "--z-um", "-1"],
    ["entropy", "--z-um", "1", "--model", "drude", "--gamma-map", "residual:1.5"],
    ["pressure", "--z-min-um", "1e-6", "--z-max-um", "1e-6", "--points", "1", "--tol", "1e-13"],
]


def run_all(tree):
    """(argv, exit code, stdout, stderr) of every command on the sources of ``tree``."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env.update(PYTHONPATH=str(Path(tree).resolve() / "src"), PYTHONHASHSEED="0")
    results = []
    with tempfile.TemporaryDirectory() as work:
        inputs.generate("cli-oneshot", 5, work)
        (Path(work) / "plates.json").write_text(json.dumps(PLATES))
        for argv in COMMANDS:
            done = subprocess.run([sys.executable, "-m", "thermal_casimir.cli", *argv],
                                  env=env, cwd=work, capture_output=True, text=True)
            results.append((list(argv), done.returncode, done.stdout, done.stderr))
    return results


def main():
    results = run_all(sys.argv[1] if len(sys.argv) > 1 else ROOT)
    for argv, code, stdout, stderr in results:
        digest = hashlib.sha256((stdout + "\0" + stderr).encode()).hexdigest()[:12]
        print(code, digest, " ".join(argv))
    print(len(results), hashlib.sha256(repr(results).encode()).hexdigest())


if __name__ == "__main__":
    main()
