"""Command-line front end.

Every subcommand resolves its parameters, runs the corresponding library
computation and returns its table: units, rows and any notes or
diagnostics.  Only then does :func:`main` render it as one deterministic
table (CSV or JSON) and write it to --out or stdout.  Exit codes: 0
success, 2 usage or parse error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import inspect
import sys
from pathlib import Path

import numpy as np

from .constants import CONSTANTS, angular_frequency_to_ev
from .entropy import nernst_verdict
from .errors import ConvergenceError, DomainError, ExtrapolationError, PrescriptionError
from .fileio import (
    FileFormatError,
    load_gamma_map,
    load_geometry_pair,
    load_optical_table,
    load_residual_bound,
    parse_extrapolation,
    render_table,
)
from .geometry import ASYMPTOTIC_LIMIT, GeometryCase, exact_cylinder_force, pft_force
from .lifshitz import DEFAULT_CONFIG, ENTROPY_CONFIG, EvaluationConfig, free_energy
from .materials import eps_from_table
from .presets import DEFAULT_PRESET, MODEL_KINDS, PRESET_NAMES, build_model
from .yukawa import exclusion_bound


def _add_model_arguments(parser):
    parser.add_argument("--model", choices=MODEL_KINDS, default="drude",
                        help="material prescription (default: drude)")
    parser.add_argument("--preset", default=DEFAULT_PRESET,
                        help=f"parameter preset: {', '.join(PRESET_NAMES[:-1])} "
                             f"or {PRESET_NAMES[-1]}")
    parser.add_argument("--table-file", default=None,
                        help="optical table file (omega_eV, Im_eps) for --model table")
    parser.add_argument("--extrapolation", default=None,
                        help="low-frequency rule for --table-file: "
                             "drude:WP_EV:GAMMA_EV, constant:EPS0 or none")
    parser.add_argument("--omega-p-ev", type=float, default=None,
                        help="override the preset plasma frequency, eV")
    parser.add_argument("--gamma-ev", type=float, default=None,
                        help="override the preset relaxation parameter, eV")


def _add_output_arguments(parser, tol=DEFAULT_CONFIG.rel_tolerance):
    """Add --format and --out, and --tol with default ``tol`` unless it is None."""
    if tol is not None:
        parser.add_argument("--tol", type=float, default=tol,
                            help="relative tolerance of the evaluation (default %(default)g)")
    parser.add_argument("--format", dest="fmt", choices=("csv", "json"), default="csv")
    parser.add_argument("--out", default=None, help="output file (default: stdout)")


def _table_file(args):
    """The optical table that --table-file names, or None without one."""
    if args.table_file is None:
        return None
    return load_optical_table(args.table_file, parse_extrapolation(args.extrapolation))


def _resolve_model(args):
    table = _table_file(args)
    return build_model(
        "table" if table is not None else args.model, preset=args.preset,
        omega_p_ev=args.omega_p_ev, gamma_ev=args.gamma_ev, table=table,
    )


#: Options whose unset value is recorded as "" rather than null.
_BLANK_WHEN_UNSET = ("table_file", "extrapolation", "gamma_map")


def _run_config(args):
    """The resolved configuration in a run's header: every parsed option but
    the handler and the output format and destination."""
    config = {
        key: "" if value is None and key in _BLANK_WHEN_UNSET else value
        for key, value in vars(args).items() if key not in ("handler", "fmt", "out")
    }
    if "model" in config and args.table_file is not None:
        config["model"] = "table"
    if args.command == "yukawa":
        for key in ("bound_file", "geometry_file"):
            config[key] = Path(config[key]).name
    return config


def _log_grid(low, high, points, scale, name):
    """``points`` log-spaced values from ``low * scale`` to ``high * scale``; one
    point needs ``low == high``.  ``name`` labels the --NAME-min/--NAME-max pair."""
    if points < 1:
        raise DomainError(f"{name} grid needs at least one point")
    if not (0.0 < low <= high < np.inf):
        raise DomainError(f"need 0 < {name}-min <= {name}-max, both finite")
    if points == 1 and low != high:
        raise DomainError(f"a single-point {name} grid needs {name}-min == {name}-max")
    return np.geomspace(low * scale, high * scale, points)


_LIFSHITZ_UNITS = {
    "z_m": "m",
    "free_energy_J_per_m2": "J/m^2",
    "pressure_Pa": "Pa",
    "terms_used": "1",
    "zero_frequency_share": "1",
    "error_estimate": "relative",
}


def cmd_lifshitz_table(args):
    config = EvaluationConfig(rel_tolerance=args.tol)
    model = _resolve_model(args)
    grid = _log_grid(args.z_min_um, args.z_max_um, args.points, 1e-6, "z")
    results = [free_energy(float(z), args.temperature_K, model, config) for z in grid]
    units = dict(_LIFSHITZ_UNITS)
    if args.command == "free-energy":
        del units["pressure_Pa"]
    values = [dict(zip(_LIFSHITZ_UNITS, (r.z, r.free_energy_per_area, r.pressure, r.terms_used,
                                         r.zero_frequency_share, r.quadrature_error_estimate)))
              for r in results]
    return {"units": units, "rows": [[v[c] for c in units] for v in values]}


def _gamma_map_arguments(spec):
    """The nernst_verdict keyword arguments that a --gamma-map value selects."""
    if spec in (None, "perfect-lattice", "residual"):
        return {"gamma_map": spec}
    if spec.startswith("residual:"):
        try:
            fraction = float(spec.split(":", 1)[1])
        except ValueError:
            raise FileFormatError(f"bad residual fraction in {spec!r}") from None
        return {"gamma_map": "residual", "residual_fraction": fraction}
    if Path(spec).exists():
        return {"gamma_map": load_gamma_map(spec)}
    raise FileFormatError(
        f"gamma map {spec!r} is neither 'perfect-lattice', 'residual[:FRACTION]' "
        "nor an existing file"
    )


def cmd_entropy(args):
    config = EvaluationConfig(rel_tolerance=args.tol)
    model = _resolve_model(args)
    gamma_map = _gamma_map_arguments(args.gamma_map)
    scan = nernst_verdict(
        model, args.z_um * 1e-6, **gamma_map,
        t_max=args.t_max_K, t_min=args.t_min_K, points=args.points, config=config,
    )
    diagnostics = {
        "verdict": scan.verdict,
        "prescription": scan.prescription,
        "z_m": scan.z,
        "extrapolated_zero": scan.extrapolated_zero,
        "uncertainty": scan.uncertainty,
        "fit_intercepts": list(scan.fit_intercepts),
        "all_converged": bool(scan.all_converged),
    }
    return {"units": {"T_K": "K", "entropy_J_per_K_m2": "J/(K m^2)"},
            "rows": list(zip(scan.temperatures, scan.entropy_values)),
            "diagnostics": diagnostics}


_PFT_UNITS = {
    "kind": "",
    "z_m": "m",
    "R_m": "m",
    "pft_value": "N/m (cylinder) or N (sphere)",
    "exact_value": "N/m",
    "rel_error_vs_pft": "relative",
    "validity_flag": "",
}


def cmd_pft(args):
    case = GeometryCase(f"{args.kind}-plate", args.z_um * 1e-6, args.R_um * 1e-6)
    pft_value = pft_force(case)
    flag = "ok" if case.asymptotics_reliable else f"z/R-exceeds-{ASYMPTOTIC_LIMIT:g}"
    notes = []
    if args.kind == "cylinder":
        exact = exact_cylinder_force(case.z, case.radius)
        rel_error = abs(exact - pft_value) / abs(pft_value)
        row = (args.kind, case.z, case.radius, pft_value, exact, rel_error, flag)
    else:
        notes.append(
            "exact electromagnetic sphere-plate value not available; "
            "proximity-force result only, conservative |error| <= z/R"
        )
        row = (args.kind, case.z, case.radius, pft_value, None, None, flag)
    if notes:
        print(f"note: {notes[0]}", file=sys.stderr)
    return {"units": _PFT_UNITS, "rows": [row], "notes": notes}


def cmd_yukawa(args):
    bound = load_residual_bound(args.bound_file)
    geometry = load_geometry_pair(args.geometry_file)
    lambdas = _log_grid(args.lambda_min_um, args.lambda_max_um, args.points, 1e-6, "lambda")
    config = _run_config(args)
    curve = exclusion_bound(
        bound, geometry, lambdas,
        provenance=f"bound={config['bound_file']} geometry={config['geometry_file']}",
    )
    return {"units": {"lambda_m": "m", "alpha_max": "1"},
            "rows": list(zip(curve.lambdas, curve.alpha_max)), "notes": (curve.provenance,)}


def cmd_optics_convert(args):
    table = build_model("table", preset=args.preset, table=_table_file(args)).table
    xi = _log_grid(args.xi_min_ev, args.xi_max_ev, args.points, CONSTANTS.ev_to_rad_per_s, "xi")
    eps = np.atleast_1d(eps_from_table(xi, table))
    return {"units": {"xi_rad_per_s": "rad/s", "xi_ev": "eV", "eps_i_xi": "1"},
            "rows": [(x, angular_frequency_to_ev(x), e) for x, e in zip(xi, eps)],
            "notes": (table.provenance,)}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="thermal-casimir",
        description="Thermal Casimir free energies, proximity-force checks, "
                    "Nernst diagnostics and Yukawa exclusion bounds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, help_text in (
        ("pressure", "free energy and pressure over a separation grid"),
        ("free-energy", "free energy over a separation grid"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--z-min-um", type=float, required=True)
        p.add_argument("--z-max-um", type=float, required=True)
        p.add_argument("--points", type=int, required=True)
        p.add_argument("--temperature", "-T", dest="temperature_K", metavar="TEMPERATURE",
                       type=float, default=300.0)
        _add_model_arguments(p)
        _add_output_arguments(p)
        p.set_defaults(handler=cmd_lifshitz_table)

    nernst = {k: v.default for k, v in inspect.signature(nernst_verdict).parameters.items()}
    p = sub.add_parser("entropy", help="entropy scan toward T = 0 with a Nernst verdict")
    p.add_argument("--z-um", type=float, required=True)
    p.add_argument("--t-max", dest="t_max_K", metavar="T_MAX", type=float, default=nernst["t_max"])
    p.add_argument("--t-min", dest="t_min_K", metavar="T_MIN", type=float, default=nernst["t_min"])
    p.add_argument("--points", type=int, default=nernst["points"])
    p.add_argument("--gamma-map", default=None,
                   help="perfect-lattice, residual[:FRACTION] or a (T_K, gamma_eV) file")
    _add_model_arguments(p)
    _add_output_arguments(p, tol=ENTROPY_CONFIG.rel_tolerance)
    p.set_defaults(handler=cmd_entropy)

    p = sub.add_parser("pft", help="proximity-force results for curved geometries")
    p.add_argument("--kind", choices=("cylinder", "sphere"), required=True)
    p.add_argument("--z-um", type=float, required=True)
    p.add_argument("--R-um", type=float, required=True)
    _add_output_arguments(p, tol=None)
    p.set_defaults(handler=cmd_pft)

    p = sub.add_parser("yukawa", help="exclusion curve from a residual pressure bound")
    p.add_argument("--bound-file", required=True, help="CSV: z_nm, Delta_tot_mPa")
    p.add_argument("--geometry-file", required=True, help="JSON body pair")
    p.add_argument("--lambda-min-um", type=float, required=True)
    p.add_argument("--lambda-max-um", type=float, required=True)
    p.add_argument("--points", type=int, required=True)
    _add_output_arguments(p, tol=None)
    p.set_defaults(handler=cmd_yukawa)

    p = sub.add_parser("optics-convert", help="tabulated absorption to eps(i*xi)")
    p.add_argument("--table-file", default=None)
    p.add_argument("--extrapolation", default=None)
    p.add_argument("--preset", default="")
    p.add_argument("--xi-min-ev", type=float, required=True)
    p.add_argument("--xi-max-ev", type=float, required=True)
    p.add_argument("--points", type=int, required=True)
    _add_output_arguments(p, tol=None)
    p.set_defaults(handler=cmd_optics_convert)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        table = args.handler(args)
        text = render_table(args.command, _run_config(args), fmt=args.fmt, **table)
        if args.out is not None:
            Path(args.out).write_text(text)
    except (FileFormatError, DomainError, ExtrapolationError, PrescriptionError,
            OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ConvergenceError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    if args.out is None:
        sys.stdout.write(text)
    return 0


def entry_point():
    raise SystemExit(main())


if __name__ == "__main__":
    entry_point()
