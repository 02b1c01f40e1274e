"""Bit-identity of the batch engines against pre-refactor goldens.

``tests/data/batch_goldens.npz`` holds the outputs of all four
``batch_*`` entry points captured on ``main`` *before* the backend
dispatch layer existed (random 4-regular graph on 64 vertices,
``branching=1.5`` so the fractional ``rho`` path is exercised, 48
replicas in three shards of 16, seed 123).  The graph's CSR is stored
beside them (``graph_indptr``/``graph_indices``), so the goldens pin
the kernels alone and survive changes to the random-regular sampler.  The reference kernels must
reproduce them bit for bit at every ``jobs`` count; the compiled tier
is held to the same goldens in ``test_compiled.py``.

The CI ``spawn`` job runs this file under
``multiprocessing.set_start_method("spawn")``, so the goldens are also
asserted where graphs travel by shared memory.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

from repro.core.batch import (
    batch_bips_infection_times,
    batch_bips_traces,
    batch_cobra_cover_times,
    batch_cobra_traces,
)
from repro.graphs.base import Graph

GOLDENS = Path(__file__).resolve().parent.parent / "data" / "batch_goldens.npz"

#: The exact configuration the goldens were captured with.
BRANCHING = 1.5
KWARGS = dict(n_replicas=48, seed=123, shard_size=16)


@pytest.fixture(scope="module")
def goldens():
    return np.load(GOLDENS)


@pytest.fixture(scope="module")
def graph(goldens):
    return Graph(goldens["graph_indptr"], goldens["graph_indices"], name="golden rr(64, 4)")


def _assert_traces_match(traces, goldens, prefix):
    assert np.array_equal(traces.completion_times, goldens[f"{prefix}_completion"])
    assert np.array_equal(traces.active_counts, goldens[f"{prefix}_active"])
    assert np.array_equal(traces.newly_counts, goldens[f"{prefix}_newly"])
    assert np.array_equal(traces.transmissions, goldens[f"{prefix}_transmissions"])


@pytest.mark.parametrize("jobs", [1, 4])
@pytest.mark.parametrize("backend", ["numpy"])
class TestGoldenParity:
    def test_cobra_cover_times(self, goldens, graph, jobs, backend):
        times = batch_cobra_cover_times(
            graph, 0, branching=BRANCHING, jobs=jobs, backend=backend, **KWARGS
        )
        assert np.array_equal(times, goldens["cobra_times"])

    def test_cobra_traces(self, goldens, graph, jobs, backend):
        traces = batch_cobra_traces(
            graph, 0, branching=BRANCHING, jobs=jobs, backend=backend, **KWARGS
        )
        _assert_traces_match(traces, goldens, "cobra")

    def test_bips_infection_times(self, goldens, graph, jobs, backend):
        times = batch_bips_infection_times(
            graph, 0, branching=BRANCHING, jobs=jobs, backend=backend, **KWARGS
        )
        assert np.array_equal(times, goldens["bips_times"])

    def test_bips_traces(self, goldens, graph, jobs, backend):
        traces = batch_bips_traces(
            graph, 0, branching=BRANCHING, jobs=jobs, backend=backend, **KWARGS
        )
        _assert_traces_match(traces, goldens, "bips")


def test_default_backend_matches_goldens(goldens, graph):
    # ``backend=None`` (whatever the process default) must still be
    # bit-identical: every shipped default is deterministic and
    # host-seeded.
    times = batch_cobra_cover_times(graph, 0, branching=BRANCHING, **KWARGS)
    assert np.array_equal(times, goldens["cobra_times"])


def test_times_and_traces_engines_share_streams_across_backends(graph, monkeypatch):
    # The trace engines must stay bit-identical to the times engines on
    # every backend, the compiled tier (real or fallback) included.
    from repro.core import compiled

    if not compiled.NUMBA_AVAILABLE:
        monkeypatch.setenv(compiled.FALLBACK_ENV, "1")
    for backend in ("numpy", "numba"):
        times = batch_bips_infection_times(
            graph, 0, branching=BRANCHING, backend=backend, **KWARGS
        )
        traces = batch_bips_traces(graph, 0, branching=BRANCHING, backend=backend, **KWARGS)
        assert np.array_equal(traces.completion_times, times)
