"""The tracer's self-time arithmetic and its binding-site patching."""

from __future__ import annotations

import importlib
import sys
import types

import pytest

import tracer
from tracer import Patch, Span, Tracer, layer_metrics, layer_self_times, self_times


def _span(span_id, parent, name, start, end):
    return Span(span_id, parent, name, start, end)


def test_self_time_subtracts_children_at_every_level():
    spans = [
        _span(0, None, "experiments.entry", 0.0, 10.0),
        _span(1, 0, "graphs.build", 1.0, 4.0),
        _span(2, 0, "core.ensemble", 5.0, 9.0),
        _span(3, 2, "parallel.pooled", 6.0, 8.5),
        _span(4, 3, "analysis.call", 7.0, 7.5),
    ]
    own = self_times(spans)
    assert own == pytest.approx({0: 3.0, 1: 3.0, 2: 1.5, 3: 2.0, 4: 0.5})
    # Self times partition the root span.
    assert sum(own.values()) == pytest.approx(10.0)


def test_overlapping_and_overhanging_children_are_counted_once():
    spans = [
        _span(0, None, "a", 0.0, 10.0),
        _span(1, 0, "b", 2.0, 6.0),
        _span(2, 0, "b", 4.0, 8.0),  # overlaps its sibling
        _span(3, 0, "c", 9.0, 12.0),  # outlives its parent
    ]
    own = self_times(spans)
    assert own[0] == pytest.approx(10.0 - 6.0 - 1.0)
    totals = layer_self_times(spans)
    assert totals["b"] == pytest.approx(8.0)
    assert totals["a"] == pytest.approx(3.0)


def test_tracer_nests_spans_and_closes_out_of_order():
    ticks = iter(range(100))
    recorder = Tracer(clock=lambda: float(next(ticks)))
    outer = recorder.open("outer")  # t=0
    suspended = recorder.open("generator")  # t=1
    inner = recorder.open("inner")  # t=2, child of the generator span
    recorder.close(inner)  # t=3
    recorder.close(suspended)  # t=4
    late = recorder.open("late")  # t=5, child of outer again
    recorder.close(late)  # t=6
    recorder.close(outer)  # t=7
    parents = {span.name: span.parent for span in recorder.spans}
    assert parents == {"outer": None, "generator": 0, "inner": 1, "late": 0}
    assert layer_self_times(recorder.spans)["outer"] == pytest.approx(7 - 3 - 1)


@pytest.fixture
def fake_modules():
    """A defining module, two importers, and a class with a method."""
    source = types.ModuleType("perfbench_fake_source")
    exec(
        "def work(x):\n    return x + 1\n"
        "class Thing:\n    def method(self):\n        return 'original'\n",
        source.__dict__,
    )
    early = types.ModuleType("perfbench_fake_early")
    early.work = source.work
    early.renamed = source.work
    names = [source.__name__, early.__name__]
    for module in (source, early):
        sys.modules[module.__name__] = module
    yield source, early
    for name in names + ["perfbench_fake_late"]:
        sys.modules.pop(name, None)


def test_patch_reaches_every_binding_site_and_restores_them(fake_modules):
    source, early = fake_modules
    original = source.work
    original_method = source.Thing.__dict__["method"]
    calls = []

    def make(function):
        def wrapper(*args, **kwargs):
            calls.append(function.__name__)
            return function(*args, **kwargs)

        return wrapper

    patch = Patch()
    patch.install(
        [
            ("perfbench_fake_source", "work", make),
            ("perfbench_fake_source:Thing", "method", make),
        ]
    )
    assert source.work is not original
    assert early.work is source.work and early.renamed is source.work
    assert early.renamed(1) == 2 and source.Thing().method() == "original"
    assert calls == ["work", "method"]
    # A module imported after installation binds the wrapper.
    late = types.ModuleType("perfbench_fake_late")
    late.work = source.work
    sys.modules[late.__name__] = late

    patch.remove()
    for site in (source.work, early.work, early.renamed, late.work):
        assert site is original
    assert source.Thing.__dict__["method"] is original_method


def _bindings():
    """Every attribute of every loaded ``repro`` module, and every class method."""
    snapshot = {}
    for name, module in list(sys.modules.items()):
        if name == "repro" or name.startswith("repro."):
            for attribute, value in vars(module).items():
                snapshot[(name, attribute)] = value
                if isinstance(value, type):
                    for member, member_value in vars(value).items():
                        snapshot[(name, attribute, member)] = member_value
    return snapshot


def test_install_wraps_real_layers_and_removal_restores_every_site():
    from repro.experiments import e1_cover_expanders, sweep
    from repro.graphs import generators

    for _, path, _ in tracer.LAYERS:
        importlib.import_module(path.partition(":")[0])
    before = _bindings()
    recorder = Tracer()
    patch = tracer.install(recorder)
    try:
        # A `from ... import` site and the defining module both hold the wrapper.
        assert sweep.random_regular is generators.random_regular
        original = before[("repro.graphs.generators", "random_regular")]
        assert sweep.random_regular.__wrapped__ is original
        assert e1_cover_expanders.fit_log_linear.__wrapped__ is not None
        graph = sweep.random_regular(16, 3, seed=1)
    finally:
        patch.remove()
    after = _bindings()
    assert all(after[key] is value for key, value in before.items())
    assert [span.name for span in recorder.spans] == ["graphs.build"]
    metrics = layer_metrics(recorder)
    assert metrics["graphs.build_calls"] == 1
    assert metrics["graphs.build_vertices"] == graph.n_vertices


def test_layer_metrics_time_setup_and_cold_and_take_the_cache_from_warm():
    ticks = iter(range(100))
    recorder = Tracer(clock=lambda: float(next(ticks)))
    for phase in ("setup", "cold", "warm"):
        recorder.phase = phase
        build = recorder.open("graphs.build")
        recorder.close(build)  # one second per pass
        recorder.count("parallel.pool_starts")
    lookup = recorder.open("cache.lookup")  # still the warm pass
    lookup.attrs["hit"] = 1.0
    recorder.close(lookup)
    entries = {
        "cold": [{"seconds": 2.0, "cached": False, "attempts": 2}, {"seconds": 4.0}],
        "warm": [{"seconds": 0.0, "cached": True}, {"seconds": 0.0, "cached": True}],
    }
    metrics = layer_metrics(recorder, entries, cache_bytes=10)
    assert metrics["graphs.build_s"] == pytest.approx(2.0)
    assert metrics["graphs.build_calls"] == 2
    assert metrics["parallel.pool_starts"] == 2
    assert metrics["experiments.entries"] == 2
    assert metrics["experiments.entry_s_p50"] == pytest.approx(3.0)
    assert metrics["experiments.retries"] == 1
    assert (metrics["cache.hits"], metrics["cache.misses"], metrics["cache.hit_ratio"]) == (3, 0, 1)
    # The trace totals cover every pass.
    assert metrics["trace.spans"] == 4
    assert metrics["trace.traced_s"] == pytest.approx(4.0)
