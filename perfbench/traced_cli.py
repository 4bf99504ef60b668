"""Run one thermal-casimir command with the benchmark's tracer installed.

    python3 perfbench/traced_cli.py SPANS_FILE OP_ID -- COMMAND [ARGS...]

Used by the traced cli-oneshot run.  Writes the recorded spans to
SPANS_FILE and exits with the command's exit code.
"""

from __future__ import annotations

import importlib
import sys

import tracer as tracing


def main(argv):
    spans_file, op, separator, *command = argv
    if separator != "--":
        raise SystemExit("usage: traced_cli.py SPANS_FILE OP_ID -- COMMAND [ARGS...]")
    cli = importlib.import_module("thermal_casimir.cli")
    tracer = tracing.Tracer()
    tracer.op = op
    tracing.install(tracer)
    try:
        return cli.main(command)
    finally:
        tracer.restore()
        tracer.dump(spans_file)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
