import json

import numpy as np
import pytest

import thermal_casimir as tc
from thermal_casimir.constants import ev_to_angular_frequency
from thermal_casimir.fileio import (
    FileFormatError,
    config_hash,
    format_value,
    load_gamma_map,
    load_geometry_pair,
    load_optical_table,
    load_residual_bound,
    parse_extrapolation,
    render_table,
)


class TestOpticalTableLoader:
    def test_units_and_comments(self, tmp_path):
        path = tmp_path / "table.txt"
        path.write_text("# omega_eV im_eps\n0.5 2.0\n1.0 1.0  # shoulder\n2.0 0.25\n")
        table = load_optical_table(path, tc.ConstantEpsilon(5.0))
        assert table.omega == pytest.approx(ev_to_angular_frequency(np.array([0.5, 1.0, 2.0])))
        assert table.im_eps == pytest.approx([2.0, 1.0, 0.25])
        assert isinstance(table.extrapolation, tc.ConstantEpsilon)

    def test_decreasing_frequencies_rejected(self, tmp_path):
        path = tmp_path / "table.txt"
        path.write_text("2.0 0.25\n1.0 1.0\n")
        with pytest.raises(FileFormatError, match="increasing"):
            load_optical_table(path)

    def test_wrong_column_count(self, tmp_path):
        path = tmp_path / "table.txt"
        path.write_text("1.0 0.5 99\n")
        with pytest.raises(FileFormatError, match="columns"):
            load_optical_table(path)

    def test_non_numeric_value(self, tmp_path):
        path = tmp_path / "table.txt"
        path.write_text("1.0 half\n")
        with pytest.raises(FileFormatError, match="non-numeric"):
            load_optical_table(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "table.txt"
        path.write_text("# nothing but comments\n")
        with pytest.raises(FileFormatError, match="no data"):
            load_optical_table(path)


class TestExtrapolationSpec:
    def test_drude_spec_converts_ev(self):
        rule = parse_extrapolation("drude:9.0:0.035")
        assert isinstance(rule, tc.DrudeTail)
        assert rule.omega_p == pytest.approx(ev_to_angular_frequency(9.0))
        assert rule.gamma == pytest.approx(ev_to_angular_frequency(0.035))

    def test_constant_spec(self):
        rule = parse_extrapolation("constant:11.66")
        assert isinstance(rule, tc.ConstantEpsilon)
        assert rule.eps_static == 11.66

    def test_none_spec(self):
        assert parse_extrapolation("none") is None
        assert parse_extrapolation(None) is None

    @pytest.mark.parametrize("bad", ["drude:9.0", "constant", "linear:1:2", "drude:a:b"])
    def test_bad_specs(self, bad):
        with pytest.raises(FileFormatError):
            parse_extrapolation(bad)


class TestResidualBoundLoader:
    def test_nm_and_mpa_units(self, tmp_path):
        path = tmp_path / "bound.csv"
        path.write_text("# z_nm delta_mPa\n200, 1.2\n500 0.5\n")
        bound = load_residual_bound(path)
        assert bound.z == pytest.approx([200e-9, 500e-9])
        assert bound.delta_tot == pytest.approx([1.2e-3, 0.5e-3])

    def test_non_monotone_grid_rejected(self, tmp_path):
        path = tmp_path / "bound.csv"
        path.write_text("500 0.5\n200 1.2\n")
        with pytest.raises(FileFormatError, match="increasing"):
            load_residual_bound(path)


class TestGammaMapLoader:
    def test_ev_conversion_and_interpolation(self, tmp_path):
        path = tmp_path / "gamma.txt"
        path.write_text("1 0.0035\n300 0.035\n")
        mapping = load_gamma_map(path)
        assert mapping(300.0) == pytest.approx(ev_to_angular_frequency(0.035))
        assert mapping(1.0) == pytest.approx(ev_to_angular_frequency(0.0035))

    def test_decreasing_gamma_rejected(self, tmp_path):
        path = tmp_path / "gamma.txt"
        path.write_text("1 0.035\n300 0.0035\n")
        with pytest.raises(FileFormatError):
            load_gamma_map(path)


class TestGeometryLoader:
    def test_full_pair(self, tmp_path):
        path = tmp_path / "geometry.json"
        path.write_text(json.dumps({
            "body_a": {"shape": "sphere", "radius_m": 1e-4, "density_kg_m3": 19300.0,
                       "coatings": [{"thickness_m": 1e-7, "density_kg_m3": 2500.0}]},
            "body_b": {"shape": "slab", "thickness_m": 1e-6, "density_kg_m3": 2330.0},
        }))
        sphere, slab = load_geometry_pair(path)
        assert isinstance(sphere, tc.Sphere) and sphere.radius == 1e-4
        assert sphere.coatings[0].thickness == 1e-7
        assert isinstance(slab, tc.FiniteSlab) and slab.thickness == 1e-6

    def test_missing_body_rejected(self, tmp_path):
        path = tmp_path / "geometry.json"
        path.write_text(json.dumps({"body_a": {"shape": "semispace", "density_kg_m3": 1.0}}))
        with pytest.raises(FileFormatError, match="body_b"):
            load_geometry_pair(path)

    def test_unknown_shape_rejected(self, tmp_path):
        path = tmp_path / "geometry.json"
        path.write_text(json.dumps({
            "body_a": {"shape": "torus", "density_kg_m3": 1.0},
            "body_b": {"shape": "semispace", "density_kg_m3": 1.0},
        }))
        with pytest.raises(FileFormatError):
            load_geometry_pair(path)


class TestRendering:
    def test_format_value_covers_the_value_kinds(self):
        assert format_value(None) == ""
        assert format_value(True) == "yes"
        assert format_value(7) == "7"
        assert format_value(np.inf) == "inf"
        assert format_value(-np.inf) == "-inf"
        assert format_value(np.nan) == "nan"
        assert format_value(1.5) == "1.500000000000e+00"

    def test_config_hash_is_order_insensitive(self):
        assert config_hash({"a": 1, "b": 2}) == config_hash({"b": 2, "a": 1})
        assert config_hash({"a": 1}) != config_hash({"a": 2})

    def test_render_csv_and_json_agree_on_rows(self):
        units = {"x": "m", "y": "Pa"}
        rows = [(1.0, -2.0), (2.0, np.inf), (-np.inf, np.nan)]
        csv_text = render_table("demo", {"p": 1}, units, rows, "csv")
        json_text = render_table("demo", {"p": 1}, units, rows, "json")
        assert "1.000000000000e+00,-2.000000000000e+00" in csv_text
        assert csv_text.splitlines()[-2:] == ["2.000000000000e+00,inf", "-inf,nan"]

        def reject(token):
            raise ValueError(f"{token} is not JSON")

        document = json.loads(json_text, parse_constant=reject)
        assert document["rows"][1:] == [[2.0, "inf"], ["-inf", "nan"]]
        assert document["units"]["y"] == "Pa"
