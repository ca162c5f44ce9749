"""Outside-in tracing of the ``crystals`` modules for the per-layer metrics.

Wrappers are installed from the benchmark onto every binding a caller
actually uses: module attributes (including names imported into other
modules, such as ``shifted.hook_reading_cells`` or the ``pairing`` names in
``shifted``), function values in module-level dicts (``cli._CHECKERS``) and
class attributes (``CrystalGraph.__init__``, ``SparsePolynomial.from_weights``).
No file of the library changes; ``restore`` puts every binding back.

Each wrapped call is a span.  Its self time is its duration minus the part
covered by its child spans.  Operator calls made on ``build_graph``'s worker
threads become children of the span open on the main thread, and their
intervals are merged before subtraction, so pool overhead stays in the
model builder's self time.  Calls of hot functions (operators, reading
words, pairing, graph construction) are only aggregated; every other span is
kept in memory with its job, parent, start and end, and written at the end.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import sys
import threading
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable


@dataclass(frozen=True)
class Probe:
    """One function to wrap: ``module`` plus a dotted attribute path.

    ``count`` updates counters from a call's arguments and result.
    """

    module: str
    attr: str
    span: str
    hot: bool = False
    count: Callable[[Counter, tuple, Any], None] | None = None


def _add_len(name: str) -> Callable[[Counter, tuple, Any], None]:
    def count(counters: Counter, args: tuple, result: Any) -> None:
        counters[name] += len(result)
    return count


def _count_model(counters: Counter, args: tuple, graph: Any) -> None:
    counters["models.edges"] += len(graph.edges)


def _count_shifted_model(counters: Counter, args: tuple, graph: Any) -> None:
    counters["models.edges"] += len(graph.edges)
    counters["models.shifted_vertices"] += len(graph)


def _count_shifted_op(counters: Counter, args: tuple, result: Any) -> None:
    counters["shifted.op_defined"] += result is not None


def _yamanouchi_candidates(shape: tuple[int, ...], n: int) -> int:
    """Row-profile candidates ``enumerate_yamanouchi`` builds before filtering:
    row ``r`` is a run of ``r`` followed by distinct marked values above ``r``."""
    total = 1
    for r, length in enumerate(shape, start=1):
        total *= sum(math.comb(max(n - r, 0), length - run) for run in range(1, length + 1))
    return total


def _count_yamanouchi(counters: Counter, args: tuple, result: Any) -> None:
    counters["shifted.yamanouchi_kept"] += len(result)
    counters["shifted.yamanouchi_candidates"] += _yamanouchi_candidates(tuple(args[0]), args[1])


def _count_export(counters: Counter, args: tuple, text: str) -> None:
    counters["graph.json_bytes"] += len(text.encode())


def _count_import(counters: Counter, args: tuple, graph: Any) -> None:
    counters["graph.json_bytes"] += len(args[0].encode())


def _count_verdict(counters: Counter, args: tuple, verdict: Any) -> None:
    counters["axioms.violations_found"] += len(verdict.violations)


def _count_terms(counters: Counter, args: tuple, polynomial: Any) -> None:
    counters["poly.terms"] += len(polynomial.terms)


def _count_threads(counters: Counter, args: tuple, threads: int) -> None:
    counters["config.threads_sum"] += threads


_PAIRING = ("m_i", "m_i_prefix", "eps_i", "first_max_position", "last_max_position", "classify_pairs")
_OPERATORS = ("shifted.lower", "shifted.raise_", "young.lower", "young.raise_", "queer.f0", "queer.e0")
_CHECKERS = ("check_stembridge", "check_queer_regular", "check_01_components", "check_02_components")

PROBES = [
    Probe("crystals.cli", "main", "cli.main"),
    Probe("crystals.config", "resolve_threads", "config.resolve_threads", count=_count_threads),
    Probe("crystals.tableaux", "enumerate_ssyt", "tableaux.enumerate_ssyt", count=_add_len("tableaux.enumerated")),
    Probe("crystals.tableaux", "enumerate_ssht", "tableaux.enumerate_ssht", count=_add_len("tableaux.enumerated")),
    Probe("crystals.tableaux", "hook_reading_cells", "tableaux.hook_reading_cells", hot=True),
    Probe("crystals.tableaux", "row_reading_cells", "tableaux.row_reading_cells", hot=True),
    *(Probe("crystals.pairing", name, f"pairing.{name}", hot=True) for name in _PAIRING),
    Probe("crystals.shifted", "lower", "shifted.lower", hot=True, count=_count_shifted_op),
    Probe("crystals.shifted", "raise_", "shifted.raise_", hot=True, count=_count_shifted_op),
    Probe("crystals.shifted", "phi", "shifted.phi", hot=True),
    Probe("crystals.shifted", "eps", "shifted.eps", hot=True),
    Probe("crystals.shifted", "enumerate_yamanouchi", "shifted.enumerate_yamanouchi", count=_count_yamanouchi),
    Probe("crystals.young", "lower", "young.lower", hot=True),
    Probe("crystals.young", "raise_", "young.raise_", hot=True),
    Probe("crystals.queer", "f0", "queer.f0", hot=True),
    Probe("crystals.queer", "e0", "queer.e0", hot=True),
    Probe("crystals.queer", "queer_highest_weights", "queer.queer_highest_weights", count=_add_len("queer.hw_found")),
    Probe("crystals.models", "young_graph", "models.young_graph", count=_count_model),
    Probe("crystals.models", "shifted_graph", "models.shifted_graph", count=_count_shifted_model),
    Probe("crystals.models", "queer_graph", "models.queer_graph", count=_count_shifted_model),
    Probe("crystals.models", "queer_standard_graph", "models.queer_standard_graph", count=_count_model),
    Probe("crystals.graph", "CrystalGraph.__init__", "graph.CrystalGraph.__init__", hot=True),
    Probe("crystals.graph", "tensor_graphs", "graph.tensor_graphs", count=_add_len("graph.tensor_vertices")),
    Probe("crystals.graph", "string_length_maps", "graph.string_length_maps"),
    Probe("crystals.graph", "export_json", "graph.export_json", count=_count_export),
    Probe("crystals.graph", "export_dot", "graph.export_dot"),
    Probe("crystals.graph", "import_json", "graph.import_json", count=_count_import),
    Probe("crystals.graph", "components", "graph.components"),
    Probe("crystals.graph", "highest_weights", "graph.highest_weights"),
    Probe("crystals.graph", "character", "graph.character"),
    *(Probe("crystals.axioms", name, f"axioms.{name}", count=_count_verdict) for name in _CHECKERS),
    Probe("crystals.poly", "SparsePolynomial.from_weights", "poly.from_weights", count=_count_terms),
    Probe("crystals.symfunc", "schur_p_to_schur", "symfunc.schur_p_to_schur"),
    Probe("crystals.symfunc", "product_expand", "symfunc.product_expand"),
    Probe("crystals.symfunc", "schur", "symfunc.schur"),
    Probe("crystals.symfunc", "schur_p", "symfunc.schur_p"),
]


class Tracer:
    """Per-thread span stacks, aggregated per-name times and counters."""

    def __init__(self) -> None:
        self.job = -1
        self.spans: list[tuple] = []
        self._main = threading.get_ident()
        self._main_stack: list[list] = []
        self._local = threading.local()
        self._states: list[tuple[dict, Counter]] = []
        self._lock = threading.Lock()
        self._ids = itertools.count(1)

    def _state(self) -> tuple[list, dict, Counter]:
        try:
            return self._local.state
        except AttributeError:
            main = threading.get_ident() == self._main
            state = (self._main_stack if main else [], {}, Counter())
            self._local.state = state
            with self._lock:
                self._states.append(state[1:])
            return state

    def wrap(self, fn: Callable, probe: Probe) -> Callable:
        name, hot, count = probe.span, probe.hot, probe.count
        tracer = self
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack, stats, counters = tracer._state()
            if stack:
                parent, cross = stack[-1], False
            else:
                main = tracer._main_stack
                parent = main[-1] if main and stack is not main else None
                cross = parent is not None
            if not hot:
                span_id = next(tracer._ids)
            else:  # not recorded; its children hang off the nearest recorded span
                span_id = None if parent is None else parent[2]
            frame = [0, [], span_id]  # same-thread child ns, cross-thread child intervals, id
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                own = duration - frame[0] - _union(frame[1])
                entry = stats.get(name)
                if entry is None:
                    entry = stats[name] = [0, 0, 0]
                entry[0] += 1
                entry[1] += duration
                entry[2] += own
                if parent is not None:
                    if cross:
                        parent[1].append((start, end))
                    else:
                        parent[0] += duration
                if not hot:
                    parent_id = None if parent is None else parent[2]
                    tracer.spans.append((tracer.job, span_id, parent_id, name, start, end))
            if count is not None:
                count(counters, args, result)
            return result

        return wrapper

    def totals(self) -> tuple[dict[str, list[int]], Counter]:
        """Per-name ``[calls, inclusive_ns, self_ns]`` and counters, all threads."""
        stats: dict[str, list[int]] = {}
        counters: Counter = Counter()
        with self._lock:
            for table, counts in self._states:
                for name, (calls, incl, own) in table.items():
                    entry = stats.setdefault(name, [0, 0, 0])
                    entry[0] += calls
                    entry[1] += incl
                    entry[2] += own
                counters.update(counts)
        return stats, counters

    def write(self, path: Path) -> None:
        stats, counters = self.totals()
        with path.open("w", encoding="utf-8") as out:
            for job, span_id, parent, name, start, end in self.spans:
                out.write(json.dumps({"job": job, "id": span_id, "parent": parent, "name": name,
                                      "start_ns": start, "end_ns": end}) + "\n")
            out.write(json.dumps({"totals": {n: dict(zip(("calls", "ns", "self_ns"), v))
                                             for n, v in sorted(stats.items())},
                                  "counters": dict(sorted(counters.items()))}) + "\n")


def _union(intervals: list[tuple[int, int]]) -> int:
    """Total length covered by possibly overlapping intervals."""
    if not intervals:
        return 0
    covered = 0
    cur_start, cur_end = None, None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                covered += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    return covered + cur_end - cur_start


def _crystals_modules() -> list:
    return [m for name, m in sorted(sys.modules.items())
            if (name == "crystals" or name.startswith("crystals.")) and m is not None]


def install(tracer: Tracer) -> Callable[[], None]:
    """Wrap every probe at every binding; return the function that undoes it."""
    wrappers: dict[int, Callable] = {}
    originals: list[Callable] = []
    undo: list[Callable[[], None]] = []
    for probe in PROBES:
        owner = sys.modules[probe.module]
        *path, attr = probe.attr.split(".")
        for part in path:
            owner = getattr(owner, part)
        raw = vars(owner)[attr]
        fn = raw.__func__ if isinstance(raw, classmethod) else raw
        wrapper = tracer.wrap(fn, probe)
        wrappers[id(fn)] = wrapper
        originals.append(fn)
        if path:  # a class attribute
            setattr(owner, attr, classmethod(wrapper) if isinstance(raw, classmethod) else wrapper)
            undo.append(functools.partial(setattr, owner, attr, raw))
    for module in _crystals_modules():
        for key, value in list(vars(module).items()):
            if id(value) in wrappers:
                setattr(module, key, wrappers[id(value)])
                undo.append(functools.partial(setattr, module, key, value))
            elif isinstance(value, dict):
                for k, v in list(value.items()):
                    if id(v) in wrappers:
                        value[k] = wrappers[id(v)]
                        undo.append(functools.partial(value.__setitem__, k, v))
    left = _bindings_of(originals)
    if left:
        raise RuntimeError(f"unwrapped bindings remain: {left}")

    def restore() -> None:
        for step in reversed(undo):
            step()
        stray = _bindings_of(list(wrappers.values()))
        if stray:
            raise RuntimeError(f"wrappers left installed: {stray}")

    return restore


def _bindings_of(functions: list[Callable]) -> list[str]:
    """Module attributes, module-level dict values and class attributes bound
    to any of ``functions``."""
    ids = {id(f) for f in functions}
    found = []
    for module in _crystals_modules():
        for key, value in vars(module).items():
            if id(value) in ids:
                found.append(f"{module.__name__}.{key}")
            elif isinstance(value, dict):
                found += [f"{module.__name__}.{key}[{k!r}]" for k, v in value.items() if id(v) in ids]
            elif isinstance(value, type):
                found += [f"{module.__name__}.{key}.{k}" for k, v in vars(value).items()
                          if id(getattr(v, "__func__", v)) in ids]
    return found


@dataclass(frozen=True)
class LayerMetric:
    name: str
    unit: str
    better: str
    moves: str  # the end-to-end metric and workload it should move
    value: Callable[["Totals"], float]


class Totals:
    """Aggregates of one traced replay, normalised per job where asked."""

    def __init__(self, tracer: Tracer, jobs: int) -> None:
        self.stats, self.counters = tracer.totals()
        self.jobs = max(jobs, 1)

    def calls(self, *names: str) -> int:
        return sum(self.stats.get(n, (0, 0, 0))[0] for n in names)

    def ms(self, *names: str) -> float:
        return sum(self.stats.get(n, (0, 0, 0))[1] for n in names) / 1e6 / self.jobs

    def self_ms(self, *names: str) -> float:
        return sum(self.stats.get(n, (0, 0, 0))[2] for n in names) / 1e6 / self.jobs

    def per_job(self, value: float) -> float:
        return value / self.jobs

    def count(self, name: str) -> int:
        return self.counters[name]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


_PAIRING_SPANS = tuple(f"pairing.{n}" for n in _PAIRING)
_MODEL_SPANS = tuple(p.span for p in PROBES if p.span.startswith("models."))
_ENUMERATE = ("tableaux.enumerate_ssyt", "tableaux.enumerate_ssht")
_SHIFTED_OPS = ("shifted.lower", "shifted.raise_")
_BUILD_EXPAND = "build.jobs_per_s, expand.jobs_per_s (zero work in verify)"

LAYER_METRICS = [
    LayerMetric("tableaux.enumerate_ms", "ms/job", "lower", _BUILD_EXPAND, lambda t: t.ms(*_ENUMERATE)),
    LayerMetric("tableaux.enumerated", "1/job", "lower", _BUILD_EXPAND,
                lambda t: t.per_job(t.count("tableaux.enumerated"))),
    LayerMetric("tableaux.hook_reading_calls", "1/job", "lower", _BUILD_EXPAND,
                lambda t: t.per_job(t.calls("tableaux.hook_reading_cells"))),
    LayerMetric("tableaux.hook_reading_per_vertex", "1/vertex", "lower", _BUILD_EXPAND,
                lambda t: _ratio(t.calls("tableaux.hook_reading_cells"), t.count("models.shifted_vertices"))),
    LayerMetric("pairing.calls", "1/job", "lower", "build.jobs_per_s, expand.jobs_per_s",
                lambda t: t.per_job(t.calls(*_PAIRING_SPANS))),
    LayerMetric("pairing.ms", "ms/job", "lower", "build.jobs_per_s, expand.jobs_per_s",
                lambda t: t.ms(*_PAIRING_SPANS)),
    LayerMetric("shifted.lower_calls", "1/job", "lower", "build.jobs_per_s",
                lambda t: t.per_job(t.calls("shifted.lower"))),
    LayerMetric("shifted.raise_calls", "1/job", "lower", "build.jobs_per_s",
                lambda t: t.per_job(t.calls("shifted.raise_"))),
    LayerMetric("shifted.op_ms", "ms/job", "lower", "build.jobs_per_s", lambda t: t.ms(*_SHIFTED_OPS)),
    LayerMetric("young.op_ms", "ms/job", "lower", "build.jobs_per_s",
                lambda t: t.ms("young.lower", "young.raise_")),
    LayerMetric("shifted.op_defined_ratio", "ratio", "higher", "build.jobs_per_s",
                lambda t: _ratio(t.count("shifted.op_defined"), t.calls(*_SHIFTED_OPS))),
    LayerMetric("shifted.yamanouchi_ms", "ms/job", "lower", "expand.jobs_per_s, expand.job_ms.p90",
                lambda t: t.ms("shifted.enumerate_yamanouchi")),
    LayerMetric("shifted.yamanouchi_yield", "ratio", "higher", "expand.jobs_per_s, expand.job_ms.p90",
                lambda t: _ratio(t.count("shifted.yamanouchi_kept"), t.count("shifted.yamanouchi_candidates"))),
    LayerMetric("queer.move_calls", "1/job", "lower", "product.jobs_per_s, product.peak_rss_mb",
                lambda t: t.per_job(t.calls("queer.f0", "queer.e0"))),
    LayerMetric("queer.highest_weights_ms", "ms/job", "lower", "product.jobs_per_s, product.peak_rss_mb",
                lambda t: t.ms("queer.queer_highest_weights")),
    LayerMetric("queer.hw_found", "1/job", "higher", "product.jobs_per_s, product.peak_rss_mb",
                lambda t: t.per_job(t.count("queer.hw_found"))),
    LayerMetric("queer.hw_per_tensor_vertex", "ratio", "higher", "product.jobs_per_s, product.peak_rss_mb",
                lambda t: _ratio(t.count("queer.hw_found"), t.count("graph.tensor_vertices"))),
    LayerMetric("models.build_ms", "ms/job", "lower", "build.jobs_per_s (barely product.jobs_per_s)",
                lambda t: t.self_ms(*_MODEL_SPANS)),
    LayerMetric("models.operator_calls_per_edge", "1/edge", "lower", "build.jobs_per_s (barely product.jobs_per_s)",
                lambda t: _ratio(t.calls(*_OPERATORS), t.count("models.edges"))),
    LayerMetric("graph.crystalgraph_init_ms", "ms/job", "lower", "product.jobs_per_s, verify.jobs_per_s",
                lambda t: t.ms("graph.CrystalGraph.__init__")),
    LayerMetric("graph.crystalgraph_inits", "1/job", "lower", "product.jobs_per_s, verify.jobs_per_s",
                lambda t: t.per_job(t.calls("graph.CrystalGraph.__init__"))),
    LayerMetric("graph.tensor_ms", "ms/job", "lower", "product.jobs_per_s",
                lambda t: t.ms("graph.tensor_graphs")),
    LayerMetric("graph.tensor_vertices", "1/job", "lower", "product.jobs_per_s, product.peak_rss_mb",
                lambda t: t.per_job(t.count("graph.tensor_vertices"))),
    LayerMetric("graph.string_length_maps_ms", "ms/job", "lower", "product.jobs_per_s, verify.jobs_per_s",
                lambda t: t.ms("graph.string_length_maps")),
    LayerMetric("graph.export_json_ms", "ms/job", "lower", "build.job_ms.p90",
                lambda t: t.ms("graph.export_json")),
    LayerMetric("graph.export_dot_ms", "ms/job", "lower", "build.job_ms.p90",
                lambda t: t.ms("graph.export_dot")),
    LayerMetric("graph.import_json_ms", "ms/job", "lower", "verify.jobs_per_s",
                lambda t: t.ms("graph.import_json")),
    LayerMetric("graph.json_bytes", "B/job", "lower", "verify.jobs_per_s, build.job_ms.p90",
                lambda t: t.per_job(t.count("graph.json_bytes"))),
    LayerMetric("graph.components_ms", "ms/job", "lower", "verify.jobs_per_s, build.job_ms.p90",
                lambda t: t.ms("graph.components")),
    LayerMetric("graph.highest_weights_ms", "ms/job", "lower", "product.jobs_per_s, build.job_ms.p90",
                lambda t: t.ms("graph.highest_weights")),
    LayerMetric("axioms.stembridge_ms", "ms/job", "lower", "verify.jobs_per_s, verify.job_ms.p90",
                lambda t: t.ms("axioms.check_stembridge")),
    LayerMetric("axioms.queer_ms", "ms/job", "lower", "verify.jobs_per_s, verify.job_ms.p90",
                lambda t: t.ms("axioms.check_queer_regular")),
    LayerMetric("axioms.c01_ms", "ms/job", "lower", "verify.jobs_per_s, verify.job_ms.p90",
                lambda t: t.ms("axioms.check_01_components")),
    LayerMetric("axioms.c02_ms", "ms/job", "lower", "verify.jobs_per_s, verify.job_ms.p90",
                lambda t: t.ms("axioms.check_02_components")),
    LayerMetric("axioms.violations_found", "1/job", "higher", "verify.jobs_per_s, verify.job_ms.p90",
                lambda t: t.per_job(t.count("axioms.violations_found"))),
    LayerMetric("poly.from_weights_ms", "ms/job", "lower", "expand.jobs_per_s",
                lambda t: t.ms("poly.from_weights")),
    LayerMetric("poly.terms", "1/job", "lower", "expand.jobs_per_s",
                lambda t: t.per_job(t.count("poly.terms"))),
    LayerMetric("symfunc.schur_p_to_schur_ms", "ms/job", "lower", "expand.jobs_per_s",
                lambda t: t.self_ms("symfunc.schur_p_to_schur")),
    LayerMetric("symfunc.product_expand_ms", "ms/job", "lower", "product.jobs_per_s",
                lambda t: t.self_ms("symfunc.product_expand")),
    LayerMetric("cli.self_ms", "ms/job", "lower", "none predicted (flat on every workload)",
                lambda t: t.self_ms("cli.main")),
    LayerMetric("config.threads_effective", "threads", "lower", "none predicted; explains build.jobs_per_s",
                lambda t: _ratio(t.count("config.threads_sum"), t.calls("config.resolve_threads"))),
]
