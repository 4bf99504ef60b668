"""Tests of the benchmark's own code.

    python3 -m pytest perfbench/tests
"""

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import checks  # noqa: E402
import inputs  # noqa: E402
import tracer as tracing  # noqa: E402
import worker  # noqa: E402
from thermal_casimir import IdealMetal, lifshitz  # noqa: E402
from thermal_casimir.constants import CONSTANTS  # noqa: E402


@pytest.mark.parametrize("z, temperature", [(0.1e-6, 300.0), (1e-6, 10.0), (15e-6, 300.0)])
def test_ideal_metal_closed_form_matches_the_engine(z, temperature):
    config = lifshitz.EvaluationConfig(rel_tolerance=1e-7)
    result = lifshitz.free_energy(z, temperature, IdealMetal(), config)
    f_ref, p_ref = checks.ideal_metal_reference(z, temperature, CONSTANTS)
    assert result.free_energy_per_area == pytest.approx(f_ref, rel=1e-7)
    assert result.pressure == pytest.approx(p_ref, rel=1e-7)
    assert checks.check_grid_point("ideal", result, (f_ref, p_ref), 1e-7) == []


def _span(name, start, end, parent=-1):
    return tracing.Span(name, start, end, parent, "op")


def test_self_time_subtracts_children_on_nested_spans():
    spans = [
        _span("lifshitz.free_energy", 0.0, 10.0),
        _span("quadrature.panel_rule", 1.0, 2.0, parent=0),
        _span("materials.reflection", 3.0, 7.0, parent=0),
        _span("reflection.fresnel", 4.0, 6.5, parent=2),
        _span("materials.reflection", 8.0, 9.5, parent=0),
    ]
    assert tracing.self_times(spans) == pytest.approx([3.5, 1.0, 1.5, 2.5, 1.5])
    metrics = tracing.layer_metrics(spans, {})
    assert metrics["lifshitz.busy_s"] == pytest.approx(10.0)
    assert metrics["lifshitz.self_s"] == pytest.approx(3.5)
    assert metrics["materials.reflection_s"] == pytest.approx(5.5)
    assert metrics["reflection.fresnel_s"] == pytest.approx(2.5)


def test_self_time_counts_overlapping_children_once():
    spans = [_span("entropy.entropy", 0.0, 4.0),
             _span("lifshitz.free_energy_value", 1.0, 3.0, parent=0),
             _span("lifshitz.free_energy_value", 2.0, 5.0, parent=0)]
    assert tracing.self_times(spans)[0] == pytest.approx(1.0)


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_same_seed_gives_byte_identical_inputs(tmp_path, workload):
    def files(directory):
        return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}

    inputs.generate(workload, 7, tmp_path / "a")
    inputs.generate(workload, 7, tmp_path / "b")
    inputs.generate(workload, 8, tmp_path / "c")
    assert files(tmp_path / "a") == files(tmp_path / "b")
    assert files(tmp_path / "a") != files(tmp_path / "c")


def test_a_wrong_value_is_counted_as_failed(tmp_path):
    inputs.generate("room-grid", 3, tmp_path)
    grid = worker.RoomGrid(tmp_path)
    grid.build()
    samples = grid.run_group(grid.spec["z"][0])
    assert worker._tally(grid, samples)[:2] == (len(grid.models), 0)
    for index, field, factor in ((0, "pressure", 1.0 + 1e-5), (1, "free_energy_per_area", -1.0)):
        z, tag, result, error = samples[index][1]
        wrong = result.__class__(**{**vars(result), field: getattr(result, field) * factor})
        samples[index] = (samples[index][0], (z, tag, wrong, error))
    attempted, failed, problems = worker._tally(grid, samples)
    assert (attempted, failed) == (len(grid.models), 2)
    assert len(problems) == 2


def test_a_differing_cli_output_is_counted_as_failed():
    header = b"# thermal-casimir pft\n"
    samples = [(0.1, ("pft", 0, header + b"1\n", "")),
               (0.1, ("pft", 0, header + b"2\n", "")),
               (0.1, ("pft", 2, b"", "error: bad input"))]
    attempted, failed, _ = worker._tally(worker.CliOneshot, samples)
    assert (attempted, failed) == (3, 2)


def test_restore_puts_every_original_back():
    from thermal_casimir import cli, materials

    before = (cli.free_energy, materials.fresnel_reflection, materials.Drude.reflection)
    tracer = tracing.Tracer()
    tracing.install(tracer)
    assert all(new is not old for new, old in zip(
        (cli.free_energy, materials.fresnel_reflection, materials.Drude.reflection), before))
    tracer.restore()
    assert (cli.free_energy, materials.fresnel_reflection, materials.Drude.reflection) == before


def test_every_layer_metric_is_declared_in_the_benchmark_file():
    declared = {m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}
    produced = set(tracing.layer_metrics([], {}))
    assert produced | {"constants.import_s", "cli.import_s", "trace.overhead_frac"} == declared
