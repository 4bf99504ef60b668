"""One workload, run in a fresh single-process interpreter by run.py.

    python3 perfbench/worker.py --workload NAME --inputs DIR --seconds S
                                --trace 0|1 [--setup-only]

The worker reads only the generated inputs in DIR.  It prints ``ready`` once
set-up (imports, model construction, warm-up) is done; run.py times set-up
up to that line.  Unless --setup-only is given it then runs the timed loop
and prints one JSON line with its measurements.

Every workload is a closed loop with one client: the next operation starts
when the previous one has returned.  With --trace 1 the worker first runs
the loop untraced for half the time, then replays exactly the same
operations with the tracer installed; the ratio of the two wall times is
the tracing overhead.
"""

from __future__ import annotations

import argparse
import importlib
import itertools
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import tracer as tracing

HERE = Path(__file__).resolve().parent
CLI_TIMEOUT_S = 60.0
MIN_GRID_POINTS = 1000


def _library(name):
    return importlib.import_module(f"thermal_casimir.{name}")


def _failure(exc):
    return f"{type(exc).__name__}: {exc}"


def timed_loop(groups, run_group, seconds, min_samples=1):
    """Run whole groups for about ``seconds``, taking at least ``min_samples``.

    Another group starts only if, at the mean group time so far, it would
    end within ``seconds``, so a run of long groups neither overshoots by
    most of a group nor varies in length with the machine's speed.
    ``run_group(group)`` returns a list of (latency_s, outcome) samples.
    Returns the samples, the groups run and the wall time of the loop.
    """
    samples, done = [], []
    start = time.perf_counter()
    for group in groups:
        samples.extend(run_group(group))
        done.append(group)
        elapsed = time.perf_counter() - start
        if len(samples) >= min_samples and elapsed * (len(done) + 1) / len(done) > seconds:
            break
    return samples, done, time.perf_counter() - start


class Workload:
    """Defaults shared by the workloads.

    A workload reads its inputs, builds its models, warms up, yields groups
    of operations and runs one group at a time, returning (latency_s,
    outcome) samples; ``problems`` checks an outcome after the timed loop.
    """

    min_samples = 1
    tracer = None

    def build(self):
        pass

    def warm_up(self):
        pass

    @staticmethod
    def operations(outcome):
        """Operations an outcome stands for."""
        return 1


class RoomGrid(Workload):
    """F and P at 300 K, tol 1e-7, for all six model tags at each separation."""

    min_samples = MIN_GRID_POINTS

    def __init__(self, directory):
        self.spec = json.loads((Path(directory) / "grid.json").read_text())

    def build(self):
        presets = _library("presets")
        self.config = _library("lifshitz").EvaluationConfig(rel_tolerance=self.spec["tol"])
        self.models = {
            tag: presets.build_model(tag, preset="Si-static" if tag == "table" else "Au-paper")
            for tag in self.spec["models"]
        }

    def warm_up(self):
        for z in self.spec["warmup_z"]:
            self.run_group(z)

    def groups(self):
        return itertools.cycle(self.spec["z"])

    def run_group(self, z):
        lifshitz, temperature = _library("lifshitz"), self.spec["temperature"]
        samples = []
        for tag, model in self.models.items():
            start = time.perf_counter()
            try:
                outcome = (z, tag, lifshitz.free_energy(z, temperature, model, self.config), None)
            except Exception as exc:  # any library failure is a failed operation
                outcome = (z, tag, None, _failure(exc))
            samples.append((time.perf_counter() - start, outcome))
        return samples

    def problems(self, outcome, references):
        z, tag, result, error = outcome
        if error is not None:
            return [f"{tag} at z={z:.6e}: {error}"]
        if z not in references:
            references[z] = checks.ideal_metal_reference(
                z, self.spec["temperature"], _library("constants").CONSTANTS)
        return checks.check_grid_point(tag, result, references[z], self.spec["tol"])


class NernstScan(Workload):
    """The three clause-5 Nernst scans (300 K to 1 K, 25 points, F-only, tol 1e-9)."""

    def __init__(self, directory):
        self.spec = json.loads((Path(directory) / "nernst.json").read_text())

    def build(self):
        presets = _library("presets")
        self.config = _library("lifshitz").EvaluationConfig(rel_tolerance=self.spec["tol"])
        self.models = {kind: presets.build_model(kind, preset="Au-paper")
                       for kind in ("drude", "plasma")}

    def warm_up(self):
        lifshitz = _library("lifshitz")
        for model in self.models.values():
            lifshitz.free_energy(self.spec["z"], self.spec["t_max"], model, self.config)

    def groups(self):
        return itertools.cycle(self.spec["suites"])

    def run_group(self, suite):
        entropy, spec = _library("entropy"), self.spec
        outcomes = []
        start = time.perf_counter()
        for label in suite:
            scan = spec["scans"][label]
            if self.tracer is not None:
                self.tracer.op = f"scan:{label}"
            try:
                result = entropy.nernst_verdict(
                    self.models[scan["model"]], spec["z"], scan["gamma_map"],
                    t_max=spec["t_max"], t_min=spec["t_min"], points=spec["points"],
                    config=self.config,
                )
                outcomes.append((label, result, None))
            except Exception as exc:  # any library failure is a failed operation
                outcomes.append((label, None, _failure(exc)))
        # One sample per suite: the scan_suite_s of the benchmark's doc.
        return [(time.perf_counter() - start, outcomes)]

    def problems(self, outcomes, references):
        found = []
        for label, result, error in outcomes:
            if error is not None:
                found.append(f"{label}: {error}")
            else:
                found.extend(checks.check_verdict(label, result, self.spec["scans"][label]["expect"]))
        return found

    @staticmethod
    def operations(outcomes):
        return len(outcomes)


class CliOneshot(Workload):
    """Each clause-9 command twice per round, one subprocess at a time."""

    def __init__(self, directory):
        self.directory = Path(directory)
        self.spec = json.loads((self.directory / "cli.json").read_text())
        self.trace_dir = None
        self.count = 0

    def groups(self):
        return itertools.cycle(self.spec["rounds"])

    def run_group(self, names):
        samples = []
        for name in names:
            self.count += 1
            out = self.directory / f"out-{self.count}.txt"
            argv = [*self.spec["commands"][name], "--out", out.name]
            if self.trace_dir is None:
                command = [sys.executable, "-m", "thermal_casimir.cli", *argv]
            else:
                spans = self.trace_dir / f"{self.count}.json"
                command = [sys.executable, str(HERE / "traced_cli.py"), str(spans),
                           f"cli:{self.count}:{name}", "--", *argv]
            start = time.perf_counter()
            try:
                completed = subprocess.run(command, cwd=self.directory, timeout=CLI_TIMEOUT_S,
                                           stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
                code, message = completed.returncode, completed.stderr.decode(errors="replace")
            except subprocess.TimeoutExpired:
                code, message = "timeout", ""
            latency = time.perf_counter() - start
            output = out.read_bytes() if out.exists() else b""
            out.unlink(missing_ok=True)
            samples.append((latency, (name, code, output, message.strip()[-300:])))
        return samples

    @staticmethod
    def problems(outcome, references):
        name, code, output, message = outcome
        found = checks.check_cli_output(name, code, output, references.get(name))
        if code == 0:
            references.setdefault(name, output)
        elif message:
            found.append(f"{name}: {message}")
        return found


WORKLOADS = {"room-grid": RoomGrid, "nernst-scan": NernstScan, "cli-oneshot": CliOneshot}


def _quantile(values, fraction):
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    return statistics.quantiles(ordered, n=100, method="inclusive")[round(fraction * 100) - 1]


def _tally(workload, samples):
    references, problems = {}, []
    attempted = failed = 0
    for _, outcome in samples:
        count = workload.operations(outcome)
        found = workload.problems(outcome, references)
        attempted += count
        failed += min(len(found), count)
        problems.extend(found)
    return attempted, failed, problems


def _peak_rss_mb(who):
    return resource.getrusage(who).ru_maxrss / 1024.0


def run_untraced(workload, seconds):
    samples, _, wall = timed_loop(workload.groups(), workload.run_group, seconds,
                                  workload.min_samples)
    attempted, failed, problems = _tally(workload, samples)
    latencies = [latency for latency, _ in samples]
    is_cli = isinstance(workload, CliOneshot)
    return {
        "attempted": attempted,
        "failed": failed,
        "problems": problems[:10],
        "samples": len(latencies),
        "op_p50_s": statistics.median(latencies),
        "op_p99_s": _quantile(latencies, 0.99),
        "ops_per_s": len(latencies) / wall,
        "peak_rss_mb": _peak_rss_mb(resource.RUSAGE_CHILDREN if is_cli else resource.RUSAGE_SELF),
    }


def run_traced(workload, seconds, build_spans, trace_path):
    """Untraced loop for half the time, then the same groups traced."""
    samples, done, untraced_wall = timed_loop(workload.groups(), workload.run_group,
                                              seconds / 2.0, workload.min_samples)
    tracer = tracing.Tracer()
    tracer.spans.extend(build_spans.spans)
    if isinstance(workload, CliOneshot):
        workload.trace_dir = Path(trace_path).with_suffix("")
        workload.trace_dir.mkdir()
    else:
        workload.tracer = tracer
        tracing.install(tracer)
    start = time.perf_counter()
    try:
        traced = [s for group in done for s in workload.run_group(group)]
    finally:
        traced_wall = time.perf_counter() - start
        tracer.restore()
    if isinstance(workload, CliOneshot):
        for path in sorted(workload.trace_dir.glob("*.json"), key=lambda p: int(p.stem)):
            tracer.absorb(*tracing.load_spans(path))
    tracer.dump(trace_path)
    attempted, failed, problems = _tally(workload, samples + traced)
    metrics = tracing.layer_metrics(tracer.spans, tracer.counts)
    metrics["trace.overhead_frac"] = traced_wall / untraced_wall - 1.0
    return {"attempted": attempted, "failed": failed, "problems": problems[:10],
            "samples": len(traced), "metrics": metrics}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--inputs", required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trace-file", default=None)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload](args.inputs)
    build_spans = tracing.Tracer()
    if args.trace:
        importlib.import_module("thermal_casimir.cli")
        tracing.install(build_spans)
    try:
        workload.build()
    finally:
        build_spans.restore()
    workload.warm_up()
    print("ready", flush=True)
    if args.setup_only:
        return 0
    if args.trace:
        result = run_traced(workload, args.seconds, build_spans, args.trace_file)
    else:
        result = run_untraced(workload, args.seconds)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
