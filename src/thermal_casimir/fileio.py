"""File formats: optical tables, residual bounds, geometry and gamma maps.

Input conventions (all text; in the two-column files '#' starts a comment and a
comma counts as whitespace):
  optical table   two columns, omega in eV and Im eps (dimensionless)
  residual bound  two columns, z in nm and Delta_tot in mPa
  gamma map       two columns, T in K and gamma in eV
  geometry        JSON with "body_a" and "body_b" objects

Output tables are deterministic: fixed float formatting, no timestamps, and a
provenance header carrying only a hash of the resolved configuration.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from .constants import ev_to_angular_frequency
from .errors import DomainError
from .materials import ConstantEpsilon, DrudeTail, OpticalTable, TabulatedGamma
from .yukawa import FiniteSlab, Layer, ResidualBound, SemispacePlate, Sphere


class FileFormatError(ValueError):
    """An input file does not match its documented format."""


def parse_extrapolation(spec):
    """Parse an extrapolation rule: 'drude:WP_EV:GAMMA_EV', 'constant:EPS0' or 'none'."""
    if spec is None or spec == "none":
        return None
    parts = spec.split(":")
    try:
        if parts[0] == "drude" and len(parts) == 3:
            return DrudeTail(
                ev_to_angular_frequency(float(parts[1])),
                ev_to_angular_frequency(float(parts[2])),
            )
        if parts[0] == "constant" and len(parts) == 2:
            return ConstantEpsilon(float(parts[1]))
    except ValueError:
        pass
    raise FileFormatError(
        f"bad extrapolation spec {spec!r}; use drude:WP_EV:GAMMA_EV, constant:EPS0 or none"
    )


def _load(path, build):
    """Build an object from the two data columns of a text file; a value that
    ``build`` rejects with a DomainError is reported as a FileFormatError."""
    rows = []
    for number, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.replace(",", " ").split()
        if len(parts) != 2:
            raise FileFormatError(f"{path}:{number}: expected 2 columns, got {len(parts)}")
        try:
            row = [float(p) for p in parts]
        except ValueError:
            raise FileFormatError(f"{path}:{number}: non-numeric value in {line!r}") from None
        if not all(math.isfinite(v) for v in row):
            raise FileFormatError(f"{path}:{number}: non-finite value in {line!r}")
        rows.append(row)
    if not rows:
        raise FileFormatError(f"{path}: no data rows")
    data = np.asarray(rows)
    try:
        return build(data[:, 0], data[:, 1])
    except DomainError as exc:
        raise FileFormatError(f"{path}: {exc}") from None


def load_optical_table(path, extrapolation=None):
    """Load a two-column optical table (omega in eV, Im eps)."""
    return _load(path, lambda omega_ev, im_eps: OpticalTable(
        omega=ev_to_angular_frequency(omega_ev),
        im_eps=im_eps,
        extrapolation=extrapolation,
        provenance=f"loaded from {Path(path).name}",
    ))


def load_residual_bound(path):
    """Load a residual confidence bound (z in nm, Delta_tot in mPa)."""
    return _load(path, lambda z_nm, delta_mpa: ResidualBound(
        z=z_nm * 1e-9, delta_tot=delta_mpa * 1e-3,
    ))


def load_gamma_map(path):
    """Load a tabulated relaxation map (T in K, gamma in eV)."""
    return _load(path, lambda t_k, gamma_ev: TabulatedGamma(
        temperatures=tuple(t_k),
        gammas=tuple(ev_to_angular_frequency(gamma_ev)),
    ))


def _body_from_mapping(mapping, label):
    try:
        shape = mapping["shape"]
        coatings = tuple(
            Layer(float(c["thickness_m"]), float(c["density_kg_m3"]))
            for c in mapping.get("coatings", [])
        )
        density = float(mapping["density_kg_m3"])
        if shape == "semispace":
            return SemispacePlate(density, coatings)
        if shape == "slab":
            return FiniteSlab(float(mapping["thickness_m"]), density, coatings)
        if shape == "sphere":
            return Sphere(float(mapping["radius_m"]), density, coatings)
    except (KeyError, TypeError, ValueError, DomainError) as exc:
        raise FileFormatError(f"{label}: bad body spec ({exc})") from None
    raise FileFormatError(f"{label}: unknown shape {shape!r}")


def load_geometry_pair(path):
    """Load the two interacting bodies from a JSON geometry file."""
    try:
        document = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise FileFormatError(f"{path}: invalid JSON ({exc})") from None
    if not isinstance(document, dict) or "body_a" not in document or "body_b" not in document:
        raise FileFormatError(f"{path}: geometry JSON needs 'body_a' and 'body_b'")
    return (
        _body_from_mapping(document["body_a"], f"{path}:body_a"),
        _body_from_mapping(document["body_b"], f"{path}:body_b"),
    )


# ---------------------------------------------------------------------------
# deterministic output
# ---------------------------------------------------------------------------


def format_value(value):
    """One CSV cell: the :func:`_json_value` of ``value``, booleans as yes/no."""
    value = _json_value(value)
    if value is None:
        return ""
    if isinstance(value, bool):
        return "yes" if value else "no"
    return f"{value:.12e}" if isinstance(value, float) else str(value)


def config_hash(config):
    """Stable hash of the resolved run configuration."""
    # imported on first use: hashlib loads OpenSSL, about 3.6 MiB of resident
    # memory that a caller reading a data file (presets.si_static_table) need not pay
    import hashlib

    canonical = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def render_table(command, config, units, rows, fmt, notes=(), diagnostics=None):
    """Render a result table as deterministic CSV or JSON text.

    ``units`` maps each column name, in column order, to its unit string;
    ``rows`` is a sequence of value sequences in that order.  A
    ``diagnostics`` mapping, if given, becomes a compact ``# json:`` header
    line in CSV and a ``"diagnostics"`` entry in JSON.
    """
    digest = config_hash(config)
    if fmt == "csv":
        lines = [f"# thermal-casimir {command}", f"# config-hash: sha256:{digest}"]
        for key in sorted(config):
            value = config[key]
            lines.append(f"# {key}: {'' if value is None else value}")
        for note in notes:
            lines.append(f"# note: {note}")
        if diagnostics is not None:
            lines.append("# json: " + json.dumps(diagnostics, sort_keys=True,
                                                 separators=(",", ":")))
        lines.append("# units: " + ",".join(units.values()))
        lines.append(",".join(units))
        for row in rows:
            lines.append(",".join(format_value(v) for v in row))
        return "\n".join(lines) + "\n"
    if fmt == "json":
        document = {
            "command": command,
            "config": config,
            "config_hash": f"sha256:{digest}",
            "columns": list(units),
            "units": dict(units),
            "notes": list(notes),
            "rows": [[_json_value(v) for v in row] for row in rows],
        }
        if diagnostics is not None:
            document["diagnostics"] = diagnostics
        return json.dumps(document, sort_keys=True, indent=2) + "\n"
    raise DomainError(f"unknown output format {fmt!r}")


def _json_value(value):
    """``value`` as a JSON value; a non-finite float becomes "inf", "-inf" or "nan"."""
    if value is None:
        return None
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        value = float(value)
        return value if math.isfinite(value) else str(value)
    return str(value)
