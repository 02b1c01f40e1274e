"""Span tracer and binding-site wrappers for the benchmark's traced run.

The traced run measures the program's layers from the outside: it wraps
each layer's public functions with a recorder, runs the workload, and
derives per-layer numbers from the spans.  Nothing here is imported by
the program itself, and the untraced runs never install a wrapper.

Two details make outside-in tracing honest:

* **Binding sites.**  Most callers bind a function with ``from module
  import name``, so patching the defining module alone misses them.
  :class:`Patch` replaces the function at *every* module attribute that
  holds it, and on removal restores every site, including modules that
  were imported after installation and so bound the wrapper.
* **Self time.**  A layer's self time is its span time minus the time
  its child spans cover, so a graph build inside an experiment run is
  not also counted as experiment time.  Re-entrant calls into a layer
  that already has an open span (``spectral_gap`` calling
  ``lambda_second``) record no span of their own.

Spans are kept in memory (name, start, end, parent, and the pass that
was running when they started) and written out by the caller when the
run ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import Counter
from dataclasses import asdict, dataclass, field
from statistics import median
from typing import Any, Callable, Iterable, Sequence


@dataclass
class Span:
    """One timed call into a layer."""

    span_id: int
    parent: int | None
    name: str
    start: float
    end: float | None = None
    attrs: dict[str, float] = field(default_factory=dict)
    #: The pass (``setup``, ``cold``, ``warm``) running when the span opened.
    phase: str = "cold"

    @property
    def duration(self) -> float:
        return (self.end if self.end is not None else self.start) - self.start


class Tracer:
    """In-memory span recorder with named counters, both tagged by pass."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        #: The pass now running; the caller sets it as passes begin.
        self.phase = "cold"
        self.spans: list[Span] = []
        #: Counts keyed by ``(phase, counter name)``.
        self.counters: Counter[tuple[str, str]] = Counter()
        #: Calls in progress per layer, spans or not (re-entrancy guard).
        self.depth: Counter[str] = Counter()
        self._stack: list[Span] = []

    def open(self, name: str) -> Span:
        parent = self._stack[-1].span_id if self._stack else None
        span = Span(len(self.spans), parent, name, self.clock(), phase=self.phase)
        self.spans.append(span)
        self._stack.append(span)
        return span

    def count(self, name: str) -> None:
        self.counters[(self.phase, name)] += 1

    def close(self, span: Span) -> None:
        # A suspended generator's span may sit below spans its consumer
        # opened, so remove by identity rather than popping the top.
        span.end = self.clock()
        for index in range(len(self._stack) - 1, -1, -1):
            if self._stack[index] is span:
                del self._stack[index]
                break

    def to_records(self) -> list[dict[str, Any]]:
        return [asdict(span) for span in self.spans]


def _covered(intervals: Iterable[tuple[float, float]]) -> float:
    """Total length of the union of ``intervals``."""
    total = 0.0
    current_start = current_end = None
    for start, end in sorted(intervals):
        if current_end is None or start > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        else:
            current_end = max(current_end, end)
    if current_end is not None:
        total += current_end - current_start
    return total


def self_times(spans: Sequence[Span]) -> dict[int, float]:
    """Each span's duration minus the union of its children's intervals.

    Children are clipped to their parent's interval, so a child that
    outlives its parent (a generator closed late) cannot drive the
    parent's self time negative.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None and span.end is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    result = {}
    for span in spans:
        end = span.end if span.end is not None else span.start
        clipped = [
            (max(start, span.start), min(stop, end))
            for start, stop in children.get(span.span_id, ())
            if min(stop, end) > max(start, span.start)
        ]
        result[span.span_id] = span.duration - _covered(clipped)
    return result


def layer_self_times(spans: Sequence[Span]) -> dict[str, float]:
    """Self time summed by span name."""
    totals: dict[str, float] = {}
    own = self_times(spans)
    for span in spans:
        totals[span.name] = totals.get(span.name, 0.0) + own[span.span_id]
    return totals


# ---------------------------------------------------------------------------
# Binding-site patching
# ---------------------------------------------------------------------------


def _resolve_owner(path: str) -> Any:
    """``"pkg.mod"`` → the module; ``"pkg.mod:Class"`` → the class."""
    module_name, _, class_name = path.partition(":")
    owner = importlib.import_module(module_name)
    return getattr(owner, class_name) if class_name else owner


def public_functions(owner: Any) -> list[str]:
    """Names of the plain public functions an owner defines itself."""
    if inspect.isclass(owner):
        return sorted(
            name
            for name, value in vars(owner).items()
            if inspect.isfunction(value) and not name.startswith("_")
        )
    return sorted(
        name
        for name, value in vars(owner).items()
        if inspect.isfunction(value)
        and value.__module__ == owner.__name__
        and not name.startswith("_")
    )


def binding_sites(objects: Iterable[Any]) -> dict[int, list[tuple[Any, str]]]:
    """For each object, every ``(module, attribute)`` in ``sys.modules`` holding it.

    Keyed by ``id``; one pass over all loaded modules serves every
    object, so installing a hundred wrappers costs one scan.
    """
    wanted = {id(obj) for obj in objects}
    sites: dict[int, list[tuple[Any, str]]] = {key: [] for key in wanted}
    for module in list(sys.modules.values()):
        namespace = getattr(module, "__dict__", None)
        if not isinstance(namespace, dict):
            continue
        for name, value in list(namespace.items()):
            if id(value) in wanted:
                sites[id(value)].append((module, name))
    return sites


class Patch:
    """Wrappers installed at every binding site, removable in one call."""

    def __init__(self) -> None:
        self._swaps: list[tuple[Any, Any]] = []
        self._class_sites: list[tuple[type, str, Any]] = []

    def install(self, targets: Iterable[tuple[str, str, Callable[[Any], Any]]]) -> None:
        """For each ``(owner path, name, make)``, put ``make(original)`` at every site.

        An owner path is a module (``"pkg.mod"``) or a class
        (``"pkg.mod:Class"``).  Methods are looked up through their
        class, which is then their only site.
        """
        module_swaps = []
        for path, name, make in targets:
            owner = _resolve_owner(path)
            if inspect.isclass(owner):
                original = owner.__dict__[name]
                self._class_sites.append((owner, name, original))
                setattr(owner, name, make(original))
            else:
                original = getattr(owner, name)
                module_swaps.append((original, make(original)))
        sites = binding_sites(original for original, _ in module_swaps)
        for original, wrapper in module_swaps:
            for module, attribute in sites[id(original)]:
                setattr(module, attribute, wrapper)
        self._swaps.extend(module_swaps)

    def remove(self) -> None:
        """Restore every site, including late importers of a wrapper."""
        for owner, name, original in reversed(self._class_sites):
            setattr(owner, name, original)
        sites = binding_sites(wrapper for _, wrapper in self._swaps)
        for original, wrapper in self._swaps:
            for module, attribute in sites[id(wrapper)]:
                setattr(module, attribute, original)
        self._swaps.clear()
        self._class_sites.clear()


# ---------------------------------------------------------------------------
# The layers and what each span records
# ---------------------------------------------------------------------------

#: ``(span name, owner path, function names or None for every public one)``.
#: Span names are ``<module>.<layer>``; the per-layer metrics are named
#: after them.  Low-level primitives that run millions of times (the
#: ``exact.subsets`` folds, ``Graph`` accessors) are deliberately left
#: out: a wrapper there would cost more than the work it measures.
LAYERS: tuple[tuple[str, str, tuple[str, ...] | None], ...] = (
    ("graphs.build", "repro.graphs.generators", None),
    ("graphs.build", "repro.graphs.build", ("from_adjacency_matrix", "from_edges",
                                            "from_networkx")),
    ("graphs.spectral", "repro.graphs.spectral", None),
    ("core.ensemble", "repro.core.batch", None),
    ("core.ensemble", "repro.core.sparse", ("sparse_bips_infection_times",
                                            "sparse_cobra_cover_times")),
    ("core.ensemble", "repro.core.event", ("event_bips_infection_times",
                                           "event_cobra_cover_times", "event_sis_times")),
    ("core.ensemble", "repro.core.runner", ("sample_completion_times",)),
    ("parallel.pooled", "repro.parallel", ("imap_shards", "iter_resilient", "map_shards")),
    ("exact.solve", "repro.exact.duality", ("duality_gap", "duality_monte_carlo",
                                            "duality_series")),
    ("exact.solve", "repro.exact.bips_exact:ExactBips", None),
    ("exact.solve", "repro.exact.cobra_exact:ExactCobra", None),
    ("exact.solve", "repro.exact.cover_exact:ExactCobraCover", None),
    ("cache.lookup", "repro.cache:ResultCache", ("get",)),
    ("experiments.entry", "repro.experiments", ("run_experiment", "run_experiment_cached")),
    ("experiments.campaign", "repro.experiments.campaign", ("iter_campaign", "run_campaign")),
    ("analysis.call", "repro.analysis.stats", None),
    ("analysis.call", "repro.analysis.fitting", None),
    ("analysis.call", "repro.analysis.comparison", None),
    ("analysis.call", "repro.analysis.tails", None),
    ("analysis.call", "repro.analysis.phases", None),
    ("analysis.call", "repro.analysis.ascii_plot", None),
)


def _observe(name: str, args: tuple, kwargs: dict, result: Any, span: Span) -> None:
    """Attach the work counts a span's call reveals through its arguments/result."""
    if name == "graphs.build":
        span.attrs["vertices"] = float(getattr(result, "n_vertices", 0))
    elif name == "core.ensemble":
        import numpy as np

        times = result if isinstance(result, np.ndarray) else None
        if times is None:
            span.attrs["replicas"] = float(getattr(result, "n_replicas", 0))
            return
        span.attrs["replicas"] = float(times.size)
        graph = args[0] if args else kwargs.get("graph")
        vertices = getattr(graph, "n_vertices", None)
        if vertices is not None:
            finite = times[np.isfinite(times)]
            span.attrs["vertex_rounds"] = float(vertices) * float(finite.sum())
    elif name == "cache.lookup":
        span.attrs["hit"] = float(result is not None)


def _pooled(args: tuple, kwargs: dict) -> bool:
    """Mirror of the execution layer's own pool-vs-inline decision."""
    from repro.parallel import will_pool

    tasks = args[2] if len(args) > 2 else kwargs.get("tasks", ())
    n_tasks = len(tasks) if hasattr(tasks, "__len__") else 2
    return will_pool(kwargs.get("jobs"), n_tasks)


def _span_wrapper(tracer: Tracer, name: str, original: Callable) -> Callable:
    """A recorder around ``original``; generator functions stay generators.

    Only the outermost call into a layer records: nested calls
    (``map_shards`` driving ``imap_shards``) pass straight through.  The
    parallel layer opens a span only for pooled calls: inline execution
    is the caller's own work, stays in the caller's self time, and is
    counted as ``parallel.inline_calls`` instead.
    """

    def enter(args: tuple, kwargs: dict) -> Span | None:
        tracer.depth[name] += 1
        if tracer.depth[name] > 1:
            return None
        if name == "parallel.pooled" and not _pooled(args, kwargs):
            tracer.count("parallel.inline_calls")
            return None
        return tracer.open(name)

    def leave(span: Span | None) -> None:
        tracer.depth[name] -= 1
        if span is not None:
            tracer.close(span)

    if inspect.isgeneratorfunction(original):

        @functools.wraps(original)
        def generator_wrapper(*args, **kwargs):
            span = enter(args, kwargs)
            try:
                yield from original(*args, **kwargs)
            finally:
                leave(span)

        return generator_wrapper

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        span = enter(args, kwargs)
        try:
            result = original(*args, **kwargs)
            if span is not None:
                _observe(name, args, kwargs, result, span)
            return result
        finally:
            leave(span)

    return wrapper


def _counting_wrapper(tracer: Tracer, counter: str, original: Callable) -> Callable:
    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        tracer.count(counter)
        return original(*args, **kwargs)

    return wrapper


def install(tracer: Tracer) -> Patch:
    """Wrap every layer's public functions, plus pool/process start counters."""
    targets = []
    for name, path, names in LAYERS:
        for function in names if names is not None else public_functions(_resolve_owner(path)):
            targets.append(
                (path, function, lambda original, name=name: _span_wrapper(tracer, name, original))
            )
    for path, function, counter in (
        ("multiprocessing.pool:Pool", "__init__", "parallel.pool_starts"),
        ("multiprocessing.process:BaseProcess", "start", "parallel.worker_starts"),
    ):
        targets.append(
            (
                path,
                function,
                lambda original, counter=counter: _counting_wrapper(tracer, counter, original),
            )
        )
    patch = Patch()
    patch.install(targets)
    return patch


# ---------------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------------


#: The passes the layer time and count metrics cover: the ones ``setup_s``
#: and ``wall_s`` measure.
TIMED_PHASES = ("setup", "cold")

#: The pass the ``cache.*`` metrics come from: the one ``warm_s`` measures.
CACHE_PHASE = "warm"


def layer_metrics(
    tracer: Tracer,
    entries: dict[str, Sequence[dict[str, Any]]] | None = None,
    cache_bytes: int = 0,
) -> dict[str, float]:
    """The per-layer metrics of one traced run.

    Layer times and counts cover the set-up and cold passes, as
    ``setup_s`` and ``wall_s`` do; the ``cache.*`` numbers cover the warm
    pass, as ``warm_s`` does; ``trace.spans`` and ``trace.traced_s`` cover
    everything.  ``entries`` maps a pass to its campaign manifest records
    (``seconds``, ``cached``, ``attempts``): campaign entries run inside
    spawn workers, where the parent's wrappers cannot see them, so their
    entry, retry and cache numbers come from the manifests instead.
    ``cache_bytes`` is the size of the on-disk result cache the warm pass
    reads.
    """
    entries = entries or {}
    timed = [span for span in tracer.spans if span.phase in TIMED_PHASES]
    own = layer_self_times(timed)
    by_name: dict[str, list[Span]] = {}
    for span in timed:
        by_name.setdefault(span.name, []).append(span)

    def attr_sum(name: str, key: str) -> float:
        return sum((span.attrs.get(key, 0.0) for span in by_name.get(name, ())), 0.0)

    def counter(name: str) -> float:
        return float(sum(tracer.counters[(phase, name)] for phase in TIMED_PHASES))

    core_spans = by_name.get("core.ensemble", [])
    core_inclusive = sum((span.duration for span in core_spans), 0.0)
    vertex_rounds = attr_sum("core.ensemble", "vertex_rounds")

    entry_seconds = [span.duration for span in by_name.get("experiments.entry", ())]
    retries = 0
    for phase in TIMED_PHASES:
        for record in entries.get(phase, ()):
            retries += max(0, int(record.get("attempts", 1)) - 1)
            if "error" not in record and not record.get("skipped"):
                entry_seconds.append(float(record.get("seconds", 0.0)))

    warm_records = entries.get(CACHE_PHASE, ())
    warm_lookups = [
        span for span in tracer.spans if span.name == "cache.lookup" and span.phase == CACHE_PHASE
    ]
    hits = sum(1 for record in warm_records if record.get("cached"))
    hits += sum(1 for span in warm_lookups if span.attrs.get("hit"))
    misses = sum(
        1
        for record in warm_records
        if not record.get("cached") and "error" not in record and not record.get("skipped")
    )
    misses += sum(1 for span in warm_lookups if not span.attrs.get("hit"))
    roots = [span for span in tracer.spans if span.parent is None]

    return {
        "graphs.build_s": own.get("graphs.build", 0.0),
        "graphs.build_calls": float(len(by_name.get("graphs.build", ()))),
        "graphs.build_vertices": attr_sum("graphs.build", "vertices"),
        "graphs.spectral_s": own.get("graphs.spectral", 0.0),
        "graphs.spectral_calls": float(len(by_name.get("graphs.spectral", ()))),
        "core.ensemble_s": own.get("core.ensemble", 0.0),
        "core.ensemble_calls": float(len(core_spans)),
        "core.replicas": attr_sum("core.ensemble", "replicas"),
        "core.vertex_rounds": vertex_rounds,
        "core.vertex_rounds_per_s": vertex_rounds / core_inclusive if core_inclusive else 0.0,
        "parallel.pooled_s": own.get("parallel.pooled", 0.0),
        "parallel.pooled_calls": float(len(by_name.get("parallel.pooled", ()))),
        "parallel.inline_calls": counter("parallel.inline_calls"),
        "parallel.pool_starts": counter("parallel.pool_starts"),
        "parallel.worker_starts": counter("parallel.worker_starts"),
        "exact.solve_s": own.get("exact.solve", 0.0),
        "exact.calls": float(len(by_name.get("exact.solve", ()))),
        "cache.hits": float(hits),
        "cache.misses": float(misses),
        "cache.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "cache.bytes": float(cache_bytes),
        "experiments.entries": float(len(entry_seconds)),
        "experiments.entry_s_p50": median(entry_seconds) if entry_seconds else 0.0,
        "experiments.entry_s_max": max(entry_seconds, default=0.0),
        "experiments.retries": float(retries),
        "analysis.s": own.get("analysis.call", 0.0),
        "trace.spans": float(len(tracer.spans)),
        "trace.traced_s": sum((span.duration for span in roots), 0.0),
    }
