import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import thermal_casimir as tc
from thermal_casimir.cli import main

GEOMETRY_JSON = """{
  "body_a": {"shape": "sphere", "radius_m": 150e-6, "density_kg_m3": 2500.0,
             "coatings": [{"thickness_m": 200e-9, "density_kg_m3": 19300.0}]},
  "body_b": {"shape": "semispace", "density_kg_m3": 2330.0,
             "coatings": [{"thickness_m": 200e-9, "density_kg_m3": 19300.0}]}
}
"""

BOUND_CSV = "# z_nm, delta_mPa\n200, 1.2\n300, 0.8\n500, 0.5\n750, 0.6\n"


def parse_csv(text):
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    columns = lines[0].split(",")
    rows = []
    for line in lines[1:]:
        rows.append(dict(zip(columns, line.split(","))))
    return columns, rows


def run(tmp_path, *argv, name="out.csv"):
    out = tmp_path / name
    code = main([*argv, "--out", str(out)])
    return code, out


class TestPressureCommand:
    def test_ideal_limit_on_large_separation_grid(self, tmp_path):
        code, out = run(tmp_path, "pressure", "--z-min-um", "6", "--z-max-um", "15",
                        "--points", "4", "--model", "ideal")
        assert code == 0
        _, rows = parse_csv(out.read_text())
        assert len(rows) == 4
        for row in rows[-2:]:
            z = float(row["z_m"])
            value = float(row["free_energy_J_per_m2"])
            assert value == pytest.approx(tc.classical_limit(z, 300.0, "ideal"), rel=0.01)

    def test_byte_identical_reruns(self, tmp_path):
        argv = ("pressure", "--z-min-um", "0.5", "--z-max-um", "2", "--points", "3")
        _, first = run(tmp_path, *argv, name="a.csv")
        _, second = run(tmp_path, *argv, name="b.csv")
        assert first.read_bytes() == second.read_bytes()

    def test_drude_and_plasma_presets_differ_by_the_thermal_split(self, tmp_path):
        values = {}
        for model in ("drude", "plasma"):
            code, out = run(tmp_path, "pressure", "--z-min-um", "1", "--z-max-um", "1",
                            "--points", "1", "--model", model, name=f"{model}.csv")
            assert code == 0
            _, rows = parse_csv(out.read_text())
            values[model] = float(rows[0]["pressure_Pa"])
        split = abs(values["drude"] - values["plasma"]) / abs(values["plasma"])
        assert 0.15 <= split <= 0.23

    def test_empty_grid_is_a_usage_error(self, tmp_path, capsys):
        code, out = run(tmp_path, "pressure", "--z-min-um", "1", "--z-max-um", "2",
                        "--points", "0")
        assert code == 2
        assert not out.exists()
        assert "error" in capsys.readouterr().err

    def test_inverted_grid_is_a_usage_error(self, tmp_path):
        code, out = run(tmp_path, "pressure", "--z-min-um", "5", "--z-max-um", "2",
                        "--points", "3")
        assert code == 2
        assert not out.exists()

    def test_missing_required_argument_exits_two(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["pressure", "--z-min-um", "1"])
        assert excinfo.value.code == 2

    def test_bad_tolerance_is_a_usage_error(self, tmp_path):
        code, _ = run(tmp_path, "pressure", "--z-min-um", "1", "--z-max-um", "2",
                      "--points", "2", "--tol", "0.5")
        assert code == 2

    def test_tabulated_silicon_preset(self, tmp_path):
        code, out = run(tmp_path, "pressure", "--z-min-um", "1", "--z-max-um", "1",
                        "--points", "1", "--model", "table", "--preset", "Si-static")
        assert code == 0
        _, rows = parse_csv(out.read_text())
        assert float(rows[0]["pressure_Pa"]) < 0.0

    def test_table_model_without_source_is_a_usage_error(self, tmp_path):
        code, out = run(tmp_path, "pressure", "--z-min-um", "1", "--z-max-um", "1",
                        "--points", "1", "--model", "table")
        assert code == 2
        assert not out.exists()

    def test_unreachable_tolerance_is_a_numerical_failure(self, tmp_path, capsys):
        # at 1 pm the skin scale 2 z omega_p / c (about 1e-4) lies under the first
        # graded term panel, so the estimate bottoms out near 1e-11 at the last
        # refinement level and 1e-13 stays out of reach at every level; the run
        # must exit 3 without touching the output file
        code, out = run(tmp_path, "pressure", "--z-min-um", "1e-6", "--z-max-um", "1e-6",
                        "--points", "1", "--tol", "1e-13")
        assert code == 3
        assert not out.exists()
        assert "numerical failure" in capsys.readouterr().err

    def test_json_format(self, tmp_path):
        code, out = run(tmp_path, "pressure", "--z-min-um", "1", "--z-max-um", "2",
                        "--points", "2", "--format", "json", name="out.json")
        assert code == 0
        document = json.loads(out.read_text())
        assert document["config_hash"].startswith("sha256:")
        assert document["units"]["pressure_Pa"] == "Pa"
        assert len(document["rows"]) == 2


@pytest.mark.parametrize("argv", [
    ("pressure", "--z-min-um", "1", "--z-max-um", "1", "--points", "1", "--temperature", "nan"),
    ("pressure", "--z-min-um", "1", "--z-max-um", "1", "--points", "1", "--temperature", "inf"),
    ("entropy", "--z-um", "nan", "--model", "plasma"),
    ("pft", "--kind", "cylinder", "--z-um", "nan", "--R-um", "100"),
    ("optics-convert", "--preset", "Si-static", "--xi-min-ev", "1e-3", "--xi-max-ev", "inf",
     "--points", "3"),
    ("entropy", "--z-um", "1", "--model", "plasma", "--t-max", "inf"),
    ("entropy", "--z-um", "1", "--model", "plasma", "--t-min", "nan"),
    ("pressure", "--z-min-um", "1", "--z-max-um", "inf", "--points", "3"),
])
def test_non_finite_separation_or_temperature_exits_two(tmp_path, capsys, argv):
    code, out = run(tmp_path, *argv)
    assert code == 2
    assert not out.exists()
    assert "finite" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    # every grid follows one rule: a single point needs min == max
    ("pressure", "--z-min-um", "1", "--z-max-um", "2", "--points", "1"),
    ("yukawa", "--bound-file", "{tmp}/bound.csv", "--geometry-file", "{tmp}/geometry.json",
     "--lambda-min-um", "0.1", "--lambda-max-um", "2", "--points", "1"),
    ("optics-convert", "--preset", "Si-static", "--xi-min-ev", "0.1", "--xi-max-ev", "1",
     "--points", "1"),
    # an input path that cannot be read as a file
    ("pressure", "--z-min-um", "1", "--z-max-um", "1", "--points", "1", "--table-file", "{tmp}"),
    ("entropy", "--z-um", "1", "--model", "drude", "--gamma-map", ""),
    # an output path in a directory that does not exist
    ("pft", "--kind", "cylinder", "--z-um", "0.1", "--R-um", "100",
     "--out", "{tmp}/missing/dir/x.csv"),
])
def test_bad_grid_or_unreadable_path_exits_two(tmp_path, capsys, argv):
    (tmp_path / "bound.csv").write_text(BOUND_CSV)
    (tmp_path / "geometry.json").write_text(GEOMETRY_JSON)
    argv = [arg.format(tmp=tmp_path) for arg in argv]
    if "--out" not in argv:
        argv += ["--out", str(tmp_path / "out.csv")]
    assert main(argv) == 2
    assert not Path(argv[-1]).exists()
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("flag, value", [("--omega-p-ev", "nan"), ("--omega-p-ev", "inf"),
                                         ("--gamma-ev", "nan"), ("--gamma-ev", "inf")])
def test_non_finite_material_parameter_exits_two(tmp_path, capsys, flag, value):
    out = tmp_path / "out.csv"
    out.write_text("previous result\n")
    code = main(["pressure", "--z-min-um", "1", "--z-max-um", "1", "--points", "1",
                 "--model", "drude", flag, value, "--out", str(out)])
    assert code == 2
    assert out.read_text() == "previous result\n"
    assert "finite" in capsys.readouterr().err


@pytest.mark.parametrize("model, flag", [("ideal", "--omega-p-ev"), ("ideal", "--gamma-ev"),
                                         ("table", "--omega-p-ev"), ("table", "--gamma-ev"),
                                         ("plasma", "--gamma-ev"), ("impedance-ir", "--gamma-ev")])
def test_override_the_model_does_not_use_exits_two(tmp_path, capsys, model, flag):
    out = tmp_path / "out.csv"
    out.write_text("previous result\n")
    preset = "Si-static" if model == "table" else "Au-paper"
    code = main(["pressure", "--z-min-um", "1", "--z-max-um", "1", "--points", "1",
                 "--model", model, "--preset", preset, flag, "1", "--out", str(out)])
    assert code == 2
    assert out.read_text() == "previous result\n"
    assert "does not use" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ("pressure", "--z-min-um", "1", "--z-max-um", "1", "--points", "1", "--model", "ideal"),
    ("pressure", "--z-min-um", "1", "--z-max-um", "1", "--points", "1",
     "--table-file", "TABLE", "--extrapolation", "constant:2"),
    ("pressure", "--z-min-um", "1", "--z-max-um", "1", "--points", "1", "--model", "drude"),
    ("optics-convert", "--table-file", "TABLE", "--extrapolation", "constant:2",
     "--xi-min-ev", "0.1", "--xi-max-ev", "1", "--points", "2"),
])
def test_unknown_preset_exits_two_for_every_model(tmp_path, capsys, argv):
    # a preset name is checked even where the model reads no preset
    table = tmp_path / "table.txt"
    table.write_text("0.1 1.0\n1.0 0.5\n10.0 0.1\n")
    out = tmp_path / "out.csv"
    out.write_text("previous result\n")
    argv = [str(table) if arg == "TABLE" else arg for arg in argv]
    code = main([*argv, "--preset", "Nonexistent", "--out", str(out)])
    assert code == 2
    assert out.read_text() == "previous result\n"
    assert "unknown preset 'Nonexistent'" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["pressure", "free-energy", "entropy"])
def test_help_lists_every_preset(capsys, monkeypatch, command):
    from thermal_casimir.presets import METALLIC_PRESETS, TABLE_PRESET

    monkeypatch.setenv("COLUMNS", "200")  # no wrapping inside a preset name
    with pytest.raises(SystemExit) as exit_info:
        main([command, "--help"])
    assert exit_info.value.code == 0
    text = " ".join(capsys.readouterr().out.split())
    for name in [p.name for p in METALLIC_PRESETS.values()] + [TABLE_PRESET]:
        assert name in text


_MODEL_KEYS = {"model", "preset", "table_file", "extrapolation", "omega_p_ev", "gamma_ev"}
_GRID_KEYS = {"command", "z_min_um", "z_max_um", "points", "temperature_K", "tol"} | _MODEL_KEYS

# Every option of a subcommand except --format and --out, under its dest name.
RUN_CONFIG_KEYS = {
    "pressure": _GRID_KEYS,
    "free-energy": _GRID_KEYS,
    "entropy": {"command", "z_um", "t_max_K", "t_min_K", "points", "gamma_map", "tol"}
               | _MODEL_KEYS,
    "pft": {"command", "kind", "z_um", "R_um"},
    "yukawa": {"command", "bound_file", "geometry_file", "lambda_min_um", "lambda_max_um",
               "points"},
    "optics-convert": {"command", "table_file", "preset", "extrapolation", "xi_min_ev",
                       "xi_max_ev", "points"},
}


def _header_keys(text):
    """The keys of the ``# key: value`` config lines of a CSV header, in order."""
    keys = []
    for line in text.splitlines():
        if not line.startswith("# "):
            break
        key, sep, _ = line[2:].partition(": ")
        if sep and key not in ("config-hash", "note", "units", "json"):
            keys.append(key)
    return keys


def _subcommand_argv(command, tmp_path):
    bound_file = tmp_path / "bound.csv"
    bound_file.write_text(BOUND_CSV)
    geometry_file = tmp_path / "geometry.json"
    geometry_file.write_text(GEOMETRY_JSON)
    grid = ("--z-min-um", "1", "--z-max-um", "2", "--points", "2", "--model", "plasma")
    return {
        "pressure": ("pressure", *grid),
        "free-energy": ("free-energy", *grid),
        "entropy": ("entropy", "--z-um", "1", "--model", "plasma", "--t-max", "300",
                    "--t-min", "100", "--points", "5"),
        "pft": ("pft", "--kind", "cylinder", "--z-um", "0.1", "--R-um", "100"),
        "yukawa": ("yukawa", "--bound-file", str(bound_file), "--geometry-file",
                   str(geometry_file), "--lambda-min-um", "0.1", "--lambda-max-um", "2",
                   "--points", "3"),
        "optics-convert": ("optics-convert", "--preset", "Si-static", "--xi-min-ev", "0.01",
                           "--xi-max-ev", "1", "--points", "3"),
    }[command]


@pytest.mark.parametrize("command", sorted(RUN_CONFIG_KEYS))
def test_run_config_records_every_option(tmp_path, command):
    argv = _subcommand_argv(command, tmp_path)
    code, csv_out = run(tmp_path, *argv, "--format", "csv", name="out.csv")
    assert code == 0
    code, json_out = run(tmp_path, *argv, "--format", "json", name="out.json")
    assert code == 0
    document = json.loads(json_out.read_text())
    assert set(document["config"]) == RUN_CONFIG_KEYS[command]
    assert document["config"]["command"] == command
    csv_text = csv_out.read_text()
    assert f"# config-hash: {document['config_hash']}" in csv_text.splitlines()
    assert sorted(_header_keys(csv_text)) == sorted(RUN_CONFIG_KEYS[command])
    assert sum(line.startswith("# units: ") for line in csv_text.splitlines()) == 1


def test_run_config_records_table_file_as_table_model(tmp_path):
    table_file = tmp_path / "gold.txt"
    table_file.write_text("".join(f"{w:.10e} {81.0 * 0.035 / (w * (w * w + 0.035**2)):.10e}\n"
                                  for w in np.geomspace(1e-3, 1e3, 120)))
    code, out = run(tmp_path, "pressure", "--z-min-um", "1", "--z-max-um", "1", "--points", "1",
                    "--model", "plasma", "--table-file", str(table_file),
                    "--extrapolation", "drude:9.0:0.035", "--format", "json")
    assert code == 0
    config = json.loads(out.read_text())["config"]
    assert config["model"] == "table"
    assert config["table_file"] == str(table_file)
    assert config["extrapolation"] == "drude:9.0:0.035"
    assert config["omega_p_ev"] is None


def test_run_config_records_yukawa_file_base_names(tmp_path):
    code, out = run(tmp_path, *_subcommand_argv("yukawa", tmp_path), "--format", "json")
    assert code == 0
    config = json.loads(out.read_text())["config"]
    assert (config["bound_file"], config["geometry_file"]) == ("bound.csv", "geometry.json")


class TestFreeEnergyCommand:
    def test_columns_do_not_include_pressure(self, tmp_path):
        code, out = run(tmp_path, "free-energy", "--z-min-um", "1", "--z-max-um", "2",
                        "--points", "2")
        assert code == 0
        columns, rows = parse_csv(out.read_text())
        assert "pressure_Pa" not in columns
        assert float(rows[0]["free_energy_J_per_m2"]) < 0.0


class TestEntropyCommand:
    def test_perfect_lattice_verdict_in_json_header(self, tmp_path):
        code, out = run(tmp_path, "entropy", "--z-um", "1", "--model", "drude",
                        "--gamma-map", "perfect-lattice", "--points", "11",
                        "--t-min", "1")
        assert code == 0
        header = next(ln for ln in out.read_text().splitlines() if ln.startswith("# json:"))
        diagnostics = json.loads(header.removeprefix("# json:"))
        assert diagnostics["verdict"] == "nernst-violated"
        assert diagnostics["all_converged"] is True

    def test_plasma_verdict_ok(self, tmp_path):
        # default 25-point grid: the verdict thresholds are calibrated there
        code, out = run(tmp_path, "entropy", "--z-um", "1", "--model", "plasma")
        assert code == 0
        header = next(ln for ln in out.read_text().splitlines() if ln.startswith("# json:"))
        assert json.loads(header.removeprefix("# json:"))["verdict"] == "nernst-ok"

    def test_drude_without_map_is_rejected(self, tmp_path):
        code, out = run(tmp_path, "entropy", "--z-um", "1", "--model", "drude")
        assert code == 2
        assert not out.exists()

    def test_malformed_gamma_map_file(self, tmp_path):
        bad = tmp_path / "gamma.txt"
        bad.write_text("300 0.035\nnot-a-number 0.01\n")
        code, out = run(tmp_path, "entropy", "--z-um", "1", "--model", "drude",
                        "--gamma-map", str(bad))
        assert code == 2
        assert not out.exists()

    def test_tabulated_gamma_map_file(self, tmp_path):
        good = tmp_path / "gamma.txt"
        good.write_text("# T_K gamma_eV\n1 0.0035\n100 0.01\n300 0.035\n")
        code, out = run(tmp_path, "entropy", "--z-um", "1", "--model", "drude",
                        "--gamma-map", str(good), "--points", "6", "--t-min", "50")
        assert code == 0
        assert out.exists()

    def test_residual_fraction_gamma_map(self, tmp_path, drude_au):
        # the floor 0.3 gamma is reached below 300 K * 0.3**(1/5) = 236 K, where
        # the rows part from those of the default fraction 0.1
        grid = ("--points", "5", "--t-min", "50")
        texts = {}
        for spec in ("residual:0.3", "residual"):
            code, out = run(tmp_path, "entropy", "--z-um", "1", "--model", "drude",
                            "--gamma-map", spec, *grid, name=f"{spec}.csv")
            assert code == 0
            texts[spec] = out.read_text()
        scan = tc.nernst_verdict(drude_au, 1e-6, "residual", residual_fraction=0.3,
                                 t_min=50.0, points=5,
                                 config=tc.EvaluationConfig(rel_tolerance=1e-9))
        _, rows = parse_csv(texts["residual:0.3"])
        assert [(row["T_K"], row["entropy_J_per_K_m2"]) for row in rows] == [
            (f"{t:.12e}", f"{s:.12e}") for t, s in zip(scan.temperatures, scan.entropy_values)]
        assert parse_csv(texts["residual"])[1] != rows
        assert "# gamma_map: residual:0.3" in texts["residual:0.3"].splitlines()

    @pytest.mark.parametrize("model", [("--model", "plasma", "--gamma-map", "residual:0.3"),
                                       ("--model", "table", "--preset", "Si-static",
                                        "--gamma-map", "perfect-lattice")])
    def test_gamma_map_on_a_non_drude_model_exits_two(self, tmp_path, capsys, model):
        # the run would record in its header a map it never applied
        out = tmp_path / "out.csv"
        out.write_text("previous result\n")
        assert main(["entropy", "--z-um", "1", *model, "--out", str(out)]) == 2
        assert out.read_text() == "previous result\n"
        assert "does not use a gamma map" in capsys.readouterr().err

    @pytest.mark.parametrize("spec", ["residual:abc", "residual:1.5"])
    def test_bad_residual_fraction_exits_two(self, tmp_path, spec):
        out = tmp_path / "out.csv"
        out.write_text("previous result\n")
        code = main(["entropy", "--z-um", "1", "--model", "drude", "--gamma-map", spec,
                     "--out", str(out)])
        assert code == 2
        assert out.read_text() == "previous result\n"


class TestPftCommand:
    def test_cylinder_error_column(self, tmp_path):
        code, out = run(tmp_path, "pft", "--kind", "cylinder", "--z-um", "0.1",
                        "--R-um", "100")
        assert code == 0
        _, rows = parse_csv(out.read_text())
        assert float(rows[0]["rel_error_vs_pft"]) == pytest.approx(2.886e-4, abs=1e-6)
        assert rows[0]["validity_flag"] == "ok"

    def test_validity_flag_beyond_threshold(self, tmp_path):
        code, out = run(tmp_path, "pft", "--kind", "cylinder", "--z-um", "20",
                        "--R-um", "100")
        assert code == 0
        _, rows = parse_csv(out.read_text())
        assert rows[0]["validity_flag"] == "z/R-exceeds-0.1"

    def test_sphere_has_no_exact_column_and_emits_note(self, tmp_path, capsys):
        code, out = run(tmp_path, "pft", "--kind", "sphere", "--z-um", "0.1",
                        "--R-um", "100")
        assert code == 0
        text = out.read_text()
        _, rows = parse_csv(text)
        assert rows[0]["exact_value"] == ""
        assert rows[0]["rel_error_vs_pft"] == ""
        assert float(rows[0]["pft_value"]) == pytest.approx(-2.7229770519781657e-10, rel=1e-9)
        assert "not available" in text
        assert "not available" in capsys.readouterr().err


class TestYukawaCommand:
    def _write_inputs(self, tmp_path, bound=BOUND_CSV):
        bound_file = tmp_path / "bound.csv"
        bound_file.write_text(bound)
        geometry_file = tmp_path / "geometry.json"
        geometry_file.write_text(GEOMETRY_JSON)
        return bound_file, geometry_file

    def test_monotone_curve_on_synthetic_bound(self, tmp_path):
        bound_file, geometry_file = self._write_inputs(
            tmp_path, "200 1.0\n300 1.0\n500 1.0\n"
        )
        code, out = run(tmp_path, "yukawa", "--bound-file", str(bound_file),
                        "--geometry-file", str(geometry_file),
                        "--lambda-min-um", "0.2", "--lambda-max-um", "5", "--points", "8")
        assert code == 0
        _, rows = parse_csv(out.read_text())
        alphas = [float(r["alpha_max"]) for r in rows]
        assert all(b <= a for a, b in zip(alphas, alphas[1:]))
        assert all(a > 0 for a in alphas)

    def test_alpha_linearity_through_scaled_bounds(self, tmp_path):
        bound_file, geometry_file = self._write_inputs(tmp_path)
        scaled = tmp_path / "bound2.csv"
        scaled.write_text("200, 2.4\n300, 1.6\n500, 1.0\n750, 1.2\n")
        argv = ("yukawa", "--geometry-file", str(geometry_file),
                "--lambda-min-um", "0.1", "--lambda-max-um", "2", "--points", "5")
        _, out_a = run(tmp_path, *argv, "--bound-file", str(bound_file), name="a.csv")
        _, out_b = run(tmp_path, *argv, "--bound-file", str(scaled), name="b.csv")
        alphas_a = [float(r["alpha_max"]) for r in parse_csv(out_a.read_text())[1]]
        alphas_b = [float(r["alpha_max"]) for r in parse_csv(out_b.read_text())[1]]
        assert alphas_b == pytest.approx([2.0 * a for a in alphas_a], rel=1e-12)

    def test_rows_match_the_library_api(self, tmp_path):
        bound_file, geometry_file = self._write_inputs(tmp_path)
        code, out = run(tmp_path, "yukawa", "--bound-file", str(bound_file),
                        "--geometry-file", str(geometry_file),
                        "--lambda-min-um", "0.2", "--lambda-max-um", "3", "--points", "3")
        assert code == 0
        _, rows = parse_csv(out.read_text())
        from thermal_casimir.fileio import load_geometry_pair, load_residual_bound

        curve = tc.exclusion_bound(
            load_residual_bound(bound_file), load_geometry_pair(geometry_file),
            np.geomspace(0.2e-6, 3e-6, 3),
        )
        for row, expected in zip(rows, curve.alpha_max):
            assert float(row["alpha_max"]) == pytest.approx(expected, rel=1e-3)

    def test_non_monotone_bound_grid_exits_two(self, tmp_path):
        bound_file, geometry_file = self._write_inputs(
            tmp_path, "500 1.0\n300 1.0\n200 1.0\n"
        )
        code, out = run(tmp_path, "yukawa", "--bound-file", str(bound_file),
                        "--geometry-file", str(geometry_file),
                        "--lambda-min-um", "0.2", "--lambda-max-um", "5", "--points", "4")
        assert code == 2
        assert not out.exists()

    def test_invalid_geometry_json_exits_two(self, tmp_path):
        bound_file, geometry_file = self._write_inputs(tmp_path)
        geometry_file.write_text("{butchered")
        code, out = run(tmp_path, "yukawa", "--bound-file", str(bound_file),
                        "--geometry-file", str(geometry_file),
                        "--lambda-min-um", "0.2", "--lambda-max-um", "5", "--points", "4")
        assert code == 2
        assert not out.exists()

    def test_unbounded_lambda_is_marked_inf(self, tmp_path):
        bound_file, geometry_file = self._write_inputs(
            tmp_path, "1000000 1.0\n2000000 1.0\n"
        )
        code, out = run(tmp_path, "yukawa", "--bound-file", str(bound_file),
                        "--geometry-file", str(geometry_file),
                        "--lambda-min-um", "0.001", "--lambda-max-um", "0.001",
                        "--points", "1")
        assert code == 0
        _, rows = parse_csv(out.read_text())
        assert rows[0]["alpha_max"] == "inf"

    @pytest.mark.parametrize("geometry, lambda_max", [
        (GEOMETRY_JSON, "inf"),
        (GEOMETRY_JSON, "nan"),
        (GEOMETRY_JSON.replace("2330.0", "NaN"), "5"),
        (GEOMETRY_JSON.replace("150e-6", "Infinity"), "5"),
    ])
    def test_non_finite_input_exits_two(self, tmp_path, capsys, geometry, lambda_max):
        bound_file, geometry_file = self._write_inputs(tmp_path)
        geometry_file.write_text(geometry)
        out = tmp_path / "out.csv"
        out.write_text("previous result\n")
        code = main(["yukawa", "--bound-file", str(bound_file),
                     "--geometry-file", str(geometry_file), "--lambda-min-um", "0.2",
                     "--lambda-max-um", lambda_max, "--points", "4", "--out", str(out)])
        assert code == 2
        assert out.read_text() == "previous result\n"
        assert "finite" in capsys.readouterr().err

    def test_missing_bound_file_exits_two(self, tmp_path):
        _, geometry_file = self._write_inputs(tmp_path)
        code, out = run(tmp_path, "yukawa", "--bound-file", str(tmp_path / "absent.csv"),
                        "--geometry-file", str(geometry_file),
                        "--lambda-min-um", "0.2", "--lambda-max-um", "5", "--points", "4")
        assert code == 2
        assert not out.exists()


class TestOpticsConvertCommand:
    def test_bundled_silicon_preset(self, tmp_path):
        code, out = run(tmp_path, "optics-convert", "--preset", "Si-static",
                        "--xi-min-ev", "1e-5", "--xi-max-ev", "10", "--points", "5")
        assert code == 0
        _, rows = parse_csv(out.read_text())
        assert float(rows[0]["eps_i_xi"]) == pytest.approx(11.66, rel=1e-3)
        assert float(rows[-1]["eps_i_xi"]) < 3.0

    def test_user_table_round_trip(self, tmp_path, au_omega_p, au_gamma, au_parameters):
        from thermal_casimir.constants import angular_frequency_to_ev
        from thermal_casimir.materials import drude_absorption

        omega = np.geomspace(0.01 * au_gamma, 100.0 * au_omega_p, 240)
        lines = ["# omega_eV im_eps"]
        for w in omega:
            lines.append(f"{angular_frequency_to_ev(w):.10e} "
                         f"{drude_absorption(w, au_omega_p, au_gamma):.10e}")
        table_file = tmp_path / "gold.txt"
        table_file.write_text("\n".join(lines) + "\n")

        code, out = run(tmp_path, "optics-convert", "--table-file", str(table_file),
                        "--extrapolation", "drude:9.0:0.035",
                        "--xi-min-ev", "0.01", "--xi-max-ev", "10", "--points", "7")
        assert code == 0
        _, rows = parse_csv(out.read_text())
        for row in rows:
            xi = float(row["xi_rad_per_s"])
            assert float(row["eps_i_xi"]) == pytest.approx(
                tc.eps_drude(xi, au_parameters), rel=5e-3
            )

    @pytest.mark.parametrize("command", [
        ("optics-convert", "--xi-min-ev", "0.1", "--xi-max-ev", "1", "--points", "3"),
        ("pressure", "--z-min-um", "1", "--z-max-um", "1", "--points", "1", "--model", "table"),
    ])
    def test_unconverged_dispersion_integral_is_a_numerical_failure(self, tmp_path, capsys,
                                                                    monkeypatch, command):
        from thermal_casimir import materials

        monkeypatch.setattr(materials, "_DISPERSION_REL_TOL", 1e-20)
        code, out = run(tmp_path, *command, "--preset", "Si-static")
        assert code == 3
        assert not out.exists()
        assert "dispersion integral" in capsys.readouterr().err

    def test_requires_a_table_source(self, tmp_path):
        code, out = run(tmp_path, "optics-convert", "--xi-min-ev", "0.1",
                        "--xi-max-ev", "1", "--points", "3")
        assert code == 2
        assert not out.exists()

    @pytest.mark.parametrize("value", ["nan", "inf"])
    @pytest.mark.parametrize("command", [
        ("optics-convert", "--xi-min-ev", "0.1", "--xi-max-ev", "1", "--points", "3"),
        ("free-energy", "--z-min-um", "1", "--z-max-um", "1", "--points", "1"),
    ])
    def test_non_finite_table_value_is_a_parse_error(self, tmp_path, command, value, capsys):
        table_file = tmp_path / "t.txt"
        table_file.write_text(f"1.0 0.5\n2.0 {value}\n3.0 0.2\n")
        out = tmp_path / "out.csv"
        out.write_text("previous result\n")
        code = main([*command, "--table-file", str(table_file),
                     "--extrapolation", "constant:5", "--out", str(out)])
        assert code == 2
        assert f"{table_file}:2: non-finite" in capsys.readouterr().err
        assert out.read_text() == "previous result\n"

    def test_bad_extrapolation_spec(self, tmp_path):
        table_file = tmp_path / "t.txt"
        table_file.write_text("1.0 0.5\n2.0 0.2\n")
        code, _ = run(tmp_path, "optics-convert", "--table-file", str(table_file),
                      "--extrapolation", "cubic:1", "--xi-min-ev", "0.1",
                      "--xi-max-ev", "1", "--points", "3")
        assert code == 2


def test_import_does_not_load_scipy():
    package_root = Path(tc.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(package_root)}
    probe = "import sys, thermal_casimir.cli; print('scipy' in sys.modules)"
    completed = subprocess.run([sys.executable, "-c", probe], env=env,
                               capture_output=True, text=True, check=True)
    assert completed.stdout.strip() == "False"
