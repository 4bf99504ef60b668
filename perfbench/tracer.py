"""In-memory span recorder for the traced benchmark run.

Spans are recorded from the benchmark's own code only: each public entry
point of a library layer is replaced, at the place where its caller looks it
up, by a wrapper that records a span around the original call.  ``restore``
puts every original back.  Spans stay in memory and are written out once,
when the run ends.

The layer of a span is the part of its name before the first dot.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from dataclasses import asdict, dataclass

import numpy as np

from inputs import NERNST_SCANS


@dataclass
class Span:
    """One wrapped call: name, start and end (perf_counter seconds), the
    index of the enclosing span (-1 for none), the operation id of the
    workload step that caused it, a work count and the exception raised."""

    name: str
    start: float
    end: float
    parent: int
    op: str
    work: int = 0
    error: str = ""

    @property
    def layer(self):
        return self.name.split(".", 1)[0]

    @property
    def duration(self):
        return self.end - self.start


class Tracer:
    """Records spans of wrapped calls and counts of count-only wrappers."""

    def __init__(self):
        self.spans = []
        self.counts = {}
        self.op = ""
        self._stack = []
        self._patches = []

    def wrap(self, name, fn, work=None):
        """Return ``fn`` wrapped so that each call records a span ``name``.

        ``work(args, kwargs, result)`` gives the span's work count.
        """
        stack, spans = self._stack, self.spans

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = Span(name, 0.0, 0.0, stack[-1] if stack else -1, self.op)
            stack.append(len(spans))
            spans.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.error = type(exc).__name__
                raise
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if work is not None:
                span.work = int(work(args, kwargs, result))
            return result

        return wrapper

    def counting(self, name, fn):
        """Return ``fn`` wrapped so that each call adds one to ``counts[name]``."""
        counts = self.counts
        counts.setdefault(name, 0)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def patch(self, owner, attribute, wrapper_factory):
        """Replace ``owner.attribute`` by ``wrapper_factory(original)``.

        Missing attributes are skipped, so a site that a later version of
        the library drops is simply not traced.
        """
        if attribute not in vars(owner):
            return
        original = vars(owner)[attribute]
        self._patches.append((owner, attribute, original))
        setattr(owner, attribute, wrapper_factory(original))

    def restore(self):
        """Put every patched original back, newest first."""
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)

    def absorb(self, spans, counts):
        """Append spans and counts recorded by another tracer (another process)."""
        offset = len(self.spans)
        for span in spans:
            if span.parent >= 0:
                span.parent += offset
        self.spans.extend(spans)
        for name, value in counts.items():
            self.counts[name] = self.counts.get(name, 0) + value

    def dump(self, path):
        """Write the recorded spans and counts as JSON."""
        document = {"spans": [asdict(s) for s in self.spans], "counts": self.counts}
        with open(path, "w") as handle:
            json.dump(document, handle)


def load_spans(path):
    """Read spans and counts written by :meth:`Tracer.dump`."""
    with open(path) as handle:
        document = json.load(handle)
    return [Span(**s) for s in document["spans"]], document["counts"]


# ---------------------------------------------------------------------------
# the library's entry points, at the sites where their callers look them up
# ---------------------------------------------------------------------------


def _method_nodes(args, kwargs, result):
    return np.broadcast(np.asarray(args[1]), np.asarray(args[2])).size


def _function_nodes(args, kwargs, result):
    return np.broadcast(np.asarray(args[0]), np.asarray(args[1])).size


def _k_perp_nodes(args, kwargs, result):
    return np.size(args[1])


def _xi_points(args, kwargs, result):
    return np.size(args[0])


def _terms(args, kwargs, result):
    return result.terms_used


def _refinements(args, kwargs, result):
    return getattr(result, "refinements", 0)


# (span name, work count, ((module, attribute), ...))
_FUNCTION_SITES = (
    ("cli.main", None, (("cli", "main"),)),
    ("fileio.load_optical_table", None, (("cli", "load_optical_table"),)),
    ("fileio.load_residual_bound", None, (("cli", "load_residual_bound"),)),
    ("fileio.load_geometry_pair", None, (("cli", "load_geometry_pair"),)),
    ("fileio.load_gamma_map", None, (("cli", "load_gamma_map"),)),
    ("fileio.render_table", None, (("cli", "render_table"),)),
    ("fileio.render_entropy_scan", None, (("cli", "render_entropy_scan"),)),
    ("presets.build_model", None, (("cli", "build_model"), ("presets", "build_model"))),
    ("presets.si_static_table", None, (("cli", "si_static_table"), ("presets", "si_static_table"))),
    ("lifshitz.free_energy", _terms,
     (("lifshitz", "free_energy"), ("cli", "free_energy"), ("entropy", "free_energy"))),
    ("lifshitz.free_energy_value", None, (("entropy", "_free_energy_value"),)),
    ("entropy.nernst_verdict", None, (("entropy", "nernst_verdict"), ("cli", "nernst_verdict"))),
    ("entropy.entropy", _refinements, (("entropy", "entropy"),)),
    ("materials.eps_from_table", _xi_points, (("materials", "eps_from_table"), ("cli", "eps_from_table"))),
    ("reflection.fresnel", _function_nodes, (("materials", "fresnel_reflection"),)),
    ("reflection.impedance", _function_nodes, (("materials", "impedance_reflection"),)),
    ("quadrature.panel_rule", None, (("lifshitz", "panel_rule"),)),
    ("yukawa.exclusion_bound", None, (("cli", "exclusion_bound"), ("yukawa", "exclusion_bound"))),
)

# Unit-strength pressure evaluations made by exclusion_bound (lambda x z).
_COUNTED_SITES = (
    ("yukawa.unit_pressure_evals", "yukawa", "yukawa_pressure_plates"),
    ("yukawa.unit_pressure_evals", "yukawa", "sphere_plate_effective_pressure"),
)


def _module(short_name):
    return importlib.import_module(f"thermal_casimir.{short_name}")


def _material_classes():
    base = _module("materials").MaterialResponse
    found, pending = [], [base]
    while pending:
        cls = pending.pop()
        found.append(cls)
        pending.extend(cls.__subclasses__())
    return found


def install(tracer):
    """Wrap every traced entry point of the library; undo with ``tracer.restore()``.

    Callers must look the entry points up at call time (``module.name``),
    as the library's own modules do, for the wrappers to see the calls.
    """
    for name, work, sites in _FUNCTION_SITES:
        for module, attribute in sites:
            tracer.patch(_module(module), attribute,
                         lambda fn, name=name, work=work: tracer.wrap(name, fn, work))
    for name, module, attribute in _COUNTED_SITES:
        tracer.patch(_module(module), attribute,
                     lambda fn, name=name: tracer.counting(name, fn))
    for cls in _material_classes():
        tracer.patch(cls, "reflection",
                     lambda fn: tracer.wrap("materials.reflection", fn, _method_nodes))
        tracer.patch(cls, "zero_frequency_reflection",
                     lambda fn: tracer.wrap("materials.zero_frequency_reflection", fn,
                                            _k_perp_nodes))


# ---------------------------------------------------------------------------
# per-layer metrics from spans
# ---------------------------------------------------------------------------


def self_times(spans):
    """Duration of each span minus the part of it that its children cover."""
    children = [[] for _ in spans]
    for index, span in enumerate(spans):
        if span.parent >= 0:
            children[span.parent].append(index)
    result = []
    for span, kids in zip(spans, children):
        covered, reach = 0.0, span.start
        for kid in sorted(kids, key=lambda k: spans[k].start):
            lo = max(spans[kid].start, reach)
            hi = min(spans[kid].end, span.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        result.append(span.duration - covered)
    return result


def _ancestors(spans, index):
    parent = spans[index].parent
    while parent >= 0:
        yield parent
        parent = spans[parent].parent


def _outermost(spans, layer):
    """Indices of the layer's spans not nested in another span of that layer."""
    return [
        i for i, s in enumerate(spans)
        if s.layer == layer and all(spans[a].layer != layer for a in _ancestors(spans, i))
    ]


NODE_SPANS = ("materials.reflection", "materials.zero_frequency_reflection")


def layer_metrics(spans, counts):
    """Per-layer metrics of one traced run, keyed by metric name."""
    own = self_times(spans)

    def named(prefix):
        return [s for s in spans if s.name.startswith(prefix)]

    def total(prefix):
        return sum(s.duration for s in named(prefix))

    def busy(layer):
        return sum(spans[i].duration for i in _outermost(spans, layer))

    def self_s(layer):
        return sum(t for s, t in zip(spans, own) if s.layer == layer)

    engine = _outermost(spans, "lifshitz")
    engine_set = set(engine)
    nodes_by_call = dict.fromkeys(engine, 0)
    for i, s in enumerate(spans):
        if s.name in NODE_SPANS:
            for a in _ancestors(spans, i):
                if a in engine_set:
                    nodes_by_call[a] += s.work
                    break
    nodes = sum(nodes_by_call.values())
    with_terms = [i for i in engine if spans[i].work > 0]
    terms = sum(spans[i].work for i in with_terms)
    fresnel, impedance = named("reflection.fresnel"), named("reflection.impedance")
    eps_table, entropy_calls = named("materials.eps_from_table"), named("entropy.entropy")
    metrics = {
        "cli.main_s": busy("cli"),
        "fileio.load_s": total("fileio.load"),
        "fileio.render_s": total("fileio.render"),
        "presets.build_s": busy("presets"),
        "lifshitz.calls": len(engine),
        "lifshitz.busy_s": busy("lifshitz"),
        "lifshitz.self_s": self_s("lifshitz"),
        "lifshitz.nodes": nodes,
        "lifshitz.nodes_per_eval": nodes / len(engine) if engine else 0.0,
        "lifshitz.nodes_per_term": (
            sum(nodes_by_call[i] for i in with_terms) / terms if terms else 0.0
        ),
        "lifshitz.convergence_errors": sum(
            spans[i].error == "ConvergenceError" for i in engine
        ),
        "materials.reflection_calls": len(named("materials.reflection")),
        "materials.reflection_s": total("materials.reflection"),
        "materials.zero_freq_s": total("materials.zero_frequency_reflection"),
        "materials.eps_table_points": sum(s.work for s in eps_table),
        "materials.eps_table_s": sum(s.duration for s in eps_table),
        "reflection.fresnel_nodes": sum(s.work for s in fresnel),
        "reflection.fresnel_s": sum(s.duration for s in fresnel),
        "reflection.impedance_nodes": sum(s.work for s in impedance),
        "reflection.impedance_s": sum(s.duration for s in impedance),
        "quadrature.panel_rule_calls": len(named("quadrature.panel_rule")),
        "quadrature.panel_rule_s": total("quadrature.panel_rule"),
        "entropy.calls": len(entropy_calls),
        "entropy.self_s": self_s("entropy"),
        "entropy.engine_evals": sum(
            spans[i].parent >= 0 and spans[spans[i].parent].layer == "entropy"
            for i in engine
        ),
        "entropy.refinements": sum(s.work for s in entropy_calls),
    }
    for label in NERNST_SCANS:
        metrics[f"entropy.scan_s.{label}"] = sum(
            s.duration for s in named("entropy.nernst_verdict") if s.op == f"scan:{label}"
        )
    metrics["yukawa.exclusion_s"] = busy("yukawa")
    metrics["yukawa.unit_pressure_evals"] = counts.get("yukawa.unit_pressure_evals", 0)
    return metrics
