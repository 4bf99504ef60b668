"""Benchmark of the thermal-casimir library: one workload, one seed, one run.

    python3 perfbench/run.py --workload room-grid --seed 1 --seconds 20 --trace 0

The checkout holding this directory must contain the library's sources
under src/.  Inputs are generated from the seed into a scratch directory
inside the checkout (.perfbench_work/, removed afterwards).  Each workload
runs in fresh interpreters with the library imported from src/, a pinned
environment and BLAS/OpenMP thread count.

Standard output is a short human-readable report; its last line is one JSON
object with the keys correct, attempted, failed and metrics.  With
--trace 0 the metrics are the end-to-end ones, with --trace 1 the per-layer
ones from the traced run.  See README.md next to this file.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from importlib import metadata
from pathlib import Path

import inputs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK_ROOT = ROOT / ".perfbench_work"

SETUP_LAUNCHES = 7
IMPORT_PROBES = 3
BLAS_THREADS = 1
THREAD_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
DEADLINE_S = 170.0

# Workload-specific names of the end-to-end metrics: name -> (metric, scale, unit).
WORKLOAD_NAMES = {
    "cli-oneshot": {"cli_p50_s": ("op_p50_ms", 1e-3, "s")},
    "room-grid": {"grid_points_per_s": ("ops_per_s", 1.0, "1/s"),
                  "grid_point_p50_ms": ("op_p50_ms", 1.0, "ms"),
                  "grid_point_p99_ms": ("op_p99_ms", 1.0, "ms")},
    "nernst-scan": {"scan_suite_s": ("op_p50_ms", 1e-3, "s")},
}
END_TO_END_UNITS = {"setup_s": "s", "peak_rss_mb": "MiB", "op_p50_ms": "ms",
                    "op_p99_ms": "ms", "ops_per_s": "1/s"}


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def pinned_env():
    """Environment of every launched interpreter, independent of the caller's."""
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("PYTHON") and k not in THREAD_VARIABLES}
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    threads = str(min(BLAS_THREADS, os.cpu_count() or 1))
    env.update(dict.fromkeys(THREAD_VARIABLES, threads))
    return env


def _version(package):
    try:
        return metadata.version(package)
    except metadata.PackageNotFoundError:
        return "absent"


def _source_digest():
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def _git_sha():
    if not (ROOT / ".git").exists():
        return "none (not a git checkout)"
    completed = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                               text=True, timeout=10)
    return completed.stdout.strip() or "unknown"


def environment_record(env):
    load = os.getloadavg()
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "git_sha": _git_sha(),
        "src_sha256": _source_digest(),
        "loadavg_start": "/".join(f"{x:.2f}" for x in load),
        "blas_threads": env["OMP_NUM_THREADS"],
    }


def launch_until_ready(command, env, cwd, timeout, stderr_path):
    """Start ``command`` and wait for its ``ready`` line.

    Returns the process (still running, stdout open) and the seconds from
    launch to that line.  A watchdog kills the process after ``timeout``.
    """
    with open(stderr_path, "w") as stderr:
        start = time.perf_counter()
        proc = subprocess.Popen(command, stdout=subprocess.PIPE, stderr=stderr, env=env,
                                cwd=cwd, text=True)
    watchdog = threading.Timer(timeout, proc.kill)
    watchdog.start()
    line = proc.stdout.readline()
    ready = time.perf_counter() - start
    if line != "ready\n":
        finish(proc, watchdog)
        raise BenchError(f"{command[1]} failed during set-up:\n"
                         + Path(stderr_path).read_text()[-2000:])
    return proc, watchdog, ready


def finish(proc, watchdog):
    """Read the rest of stdout, reap the process and stop its watchdog."""
    try:
        rest = proc.stdout.read()
        proc.wait()
    finally:
        watchdog.cancel()
        proc.stdout.close()
    return rest


def worker_command(args, work, setup_only=False):
    command = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
               "--inputs", str(work / "inputs"), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--trace-file", str(work / "trace.json")]
    return command + (["--setup-only"] if setup_only else [])


def import_probe(env, work, code):
    """Launch a fresh interpreter that runs ``code``; return its stdout and stderr."""
    completed = subprocess.run([sys.executable, *code], env=env, cwd=work, capture_output=True,
                               text=True, timeout=60)
    if completed.returncode != 0:
        raise BenchError(f"import probe failed:\n{completed.stderr[-2000:]}")
    return completed.stdout, completed.stderr


def setup_samples(args, env, work, deadline):
    """Set-up times of fresh interpreters, the last one left running as the worker."""
    samples = []
    if args.workload == "cli-oneshot":
        # Set-up of a CLI call is the fresh-interpreter import of the CLI module.
        probe = [sys.executable, "-c", "import thermal_casimir.cli; print('ready', flush=True)"]
        launches = [probe] * SETUP_LAUNCHES
    else:
        launches = [worker_command(args, work, setup_only=True)] * (SETUP_LAUNCHES - 1)
    for command in launches:
        proc, watchdog, ready = launch_until_ready(command, env, work, 60, work / "setup.err")
        finish(proc, watchdog)
        samples.append(ready)
    main = launch_until_ready(worker_command(args, work), env, work,
                              deadline - time.perf_counter(), work / "worker.err")
    if args.workload != "cli-oneshot":
        samples.append(main[2])
    return samples, main


def import_times(env, work):
    """constants.import_s and cli.import_s, each the median of fresh interpreters."""
    constants, cli = [], []
    for _ in range(IMPORT_PROBES):
        _, stderr = import_probe(env, work, ["-X", "importtime", "-c", "import thermal_casimir.cli"])
        for line in stderr.splitlines():
            fields = line.split("|")
            if len(fields) == 3 and fields[2].strip() == "thermal_casimir.constants":
                constants.append(float(fields[1]) * 1e-6)
        stdout, _ = import_probe(env, work, [
            "-c", "import time; t = time.perf_counter(); import thermal_casimir.cli; "
                  "print(time.perf_counter() - t)"])
        cli.append(float(stdout))
    if len(constants) != IMPORT_PROBES:
        raise BenchError("-X importtime did not report thermal_casimir.constants")
    return {"constants.import_s": statistics.median(constants),
            "cli.import_s": statistics.median(cli)}


def run(args, work, env):
    deadline = time.perf_counter() + DEADLINE_S
    inputs.generate(args.workload, args.seed, work / "inputs")
    if args.trace:
        probes = import_times(env, work)
        proc, watchdog, _ = launch_until_ready(worker_command(args, work), env, work,
                                               deadline - time.perf_counter(), work / "worker.err")
        setup = None
    else:
        setup, (proc, watchdog, _) = setup_samples(args, env, work, deadline)
    lines = finish(proc, watchdog).strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker exited with {proc.returncode}:\n"
                         + (work / "worker.err").read_text()[-2000:])
    result = json.loads(lines[-1])
    if args.trace:
        (WORK_ROOT / f"trace-{args.workload}.json").write_bytes((work / "trace.json").read_bytes())
        metrics = {**probes, **result["metrics"]}
    else:
        metrics = {
            "setup_s": statistics.median(setup),
            "peak_rss_mb": result["peak_rss_mb"],
            "op_p50_ms": result["op_p50_s"] * 1e3,
            "op_p99_ms": result["op_p99_s"] * 1e3,
            "ops_per_s": result["ops_per_s"],
        }
    return result, metrics, setup


def report(args, record, result, metrics, setup, units):
    print(f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace}")
    print("environment " + " ".join(f"{k}={v}" for k, v in record.items()))
    attempted, failed = result["attempted"], result["failed"]
    for name, value in metrics.items():
        print(f"  {name:<40} {value:.6g} {units.get(name, '')}")
    print(f"  {'failed_frac':<40} {failed / attempted:.6g} 1 ({failed} of {attempted} operations)")
    if setup is not None:
        print(f"  setup samples (s): {', '.join(f'{s:.4f}' for s in setup)}; "
              f"timed samples: {result['samples']}")
        for name, (metric, scale, unit) in WORKLOAD_NAMES[args.workload].items():
            print(f"  {name:<40} {metrics[metric] * scale:.6g} {unit}")
    else:
        print("  no layer queues work or runs concurrently: no wait-time metric is reported")
    for problem in result["problems"]:
        print(f"  FAILED: {problem}")


def per_layer_units():
    document = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in document["per_layer"]}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=inputs.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "thermal_casimir" / "__init__.py").is_file():
        print(f"perfbench: no library sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    env = pinned_env()
    record = environment_record(env)
    WORK_ROOT.mkdir(exist_ok=True)
    work = WORK_ROOT / f"run-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir()
    try:
        result, metrics, setup = run(args, work, env)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    units = per_layer_units() if args.trace else END_TO_END_UNITS
    report(args, record, result, metrics, setup, units)
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
