"""Tests for the compiled (numba) kernel tier.

Numba is an optional extra, so the container running the tier-1 suite
may not have it; the kernels are therefore exercised through the
pure-Python fallback (``REPRO_COMPILED_FALLBACK=1``), which runs the
*same* kernel source the JIT compiles.  That makes these tests a real
parity net either way: the fallback proves the kernel logic consumes
the host RNG stream bit-identically to the reference engines, and the
CI ``compiled-tier`` job runs this exact file with numba installed so
the compiled code paths are asserted against the same bars.

The availability gate itself is tested both ways: ``backend="numba"``
without numba and without the fallback opt-in must raise a clear
:class:`~repro.errors.BackendError` naming the install extra.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

from repro.backends import available_backends, resolve_backend
from repro.core import compiled
from repro.core.batch import (
    batch_bips_infection_times,
    batch_bips_traces,
    batch_cobra_cover_times,
    batch_cobra_traces,
)
from repro.core.sparse import sparse_bips_infection_times, sparse_cobra_cover_times
from repro.errors import BackendError
from repro.experiments.sweep import measure_bips_infection, measure_cobra_cover
from repro.graphs import generators
from repro.graphs.base import Graph
from repro.graphs.implicit import ImplicitHypercube

GOLDENS = Path(__file__).resolve().parent.parent / "data" / "batch_goldens.npz"

#: The exact configuration the batch goldens were captured with.
BRANCHING = 1.5
KWARGS = dict(n_replicas=48, seed=123, shard_size=16)


@pytest.fixture
def compiled_tier(monkeypatch):
    """Make ``backend="numba"`` resolvable: real numba or the fallback."""
    if not compiled.NUMBA_AVAILABLE:
        monkeypatch.setenv(compiled.FALLBACK_ENV, "1")


@pytest.fixture
def no_numba(monkeypatch):
    """Disable the fallback opt-in so the availability gate is live."""
    monkeypatch.delenv(compiled.FALLBACK_ENV, raising=False)


@pytest.fixture(scope="module")
def goldens():
    return np.load(GOLDENS)


@pytest.fixture(scope="module")
def golden_graph(goldens):
    return Graph(goldens["graph_indptr"], goldens["graph_indices"], name="golden rr(64, 4)")


def ks_statistic(a: np.ndarray, b: np.ndarray) -> float:
    """Two-sample Kolmogorov–Smirnov statistic ``max |ECDF_a - ECDF_b|``."""
    grid = np.concatenate([a, b])
    ecdf_a = np.searchsorted(np.sort(a), grid, side="right") / a.size
    ecdf_b = np.searchsorted(np.sort(b), grid, side="right") / b.size
    return float(np.max(np.abs(ecdf_a - ecdf_b)))


# --- golden bit-identity (dense batch kernels) ------------------------


@pytest.mark.usefixtures("compiled_tier")
@pytest.mark.parametrize("jobs", [1, 4])
class TestGoldenParity:
    """The compiled tier reproduces the pre-backend goldens bit for bit."""

    def test_cobra_cover_times(self, goldens, golden_graph, jobs):
        times = batch_cobra_cover_times(
            golden_graph, 0, branching=BRANCHING, jobs=jobs, backend="numba", **KWARGS
        )
        assert np.array_equal(times, goldens["cobra_times"])

    def test_cobra_traces(self, goldens, golden_graph, jobs):
        traces = batch_cobra_traces(
            golden_graph, 0, branching=BRANCHING, jobs=jobs, backend="numba", **KWARGS
        )
        assert np.array_equal(traces.completion_times, goldens["cobra_completion"])
        assert np.array_equal(traces.active_counts, goldens["cobra_active"])
        assert np.array_equal(traces.newly_counts, goldens["cobra_newly"])
        assert np.array_equal(traces.transmissions, goldens["cobra_transmissions"])

    def test_bips_infection_times(self, goldens, golden_graph, jobs):
        times = batch_bips_infection_times(
            golden_graph, 0, branching=BRANCHING, jobs=jobs, backend="numba", **KWARGS
        )
        assert np.array_equal(times, goldens["bips_times"])

    def test_bips_traces(self, goldens, golden_graph, jobs):
        traces = batch_bips_traces(
            golden_graph, 0, branching=BRANCHING, jobs=jobs, backend="numba", **KWARGS
        )
        assert np.array_equal(traces.completion_times, goldens["bips_completion"])
        assert np.array_equal(traces.active_counts, goldens["bips_active"])
        assert np.array_equal(traces.newly_counts, goldens["bips_newly"])
        assert np.array_equal(traces.transmissions, goldens["bips_transmissions"])


# --- bit-identity off the words-mode fast path ------------------------


@pytest.mark.usefixtures("compiled_tier")
class TestSamplingModeParity:
    """Every sampling regime agrees with the reference bit for bit."""

    def test_picks_mode_on_non_pow2_regular(self):
        graph = generators.random_regular(48, 6, seed=3)
        reference = batch_cobra_cover_times(
            graph, 0, n_replicas=32, seed=5, shard_size=8
        )
        times = batch_cobra_cover_times(
            graph, 0, n_replicas=32, seed=5, shard_size=8, backend="numba"
        )
        assert np.array_equal(times, reference)

    def test_picks_mode_on_irregular_graph(self):
        graph = generators.erdos_renyi(60, 0.15, seed=9, connected=True)
        reference = batch_bips_infection_times(
            graph, 0, n_replicas=24, seed=6, shard_size=8
        )
        times = batch_bips_infection_times(
            graph, 0, n_replicas=24, seed=6, shard_size=8, backend="numba"
        )
        assert np.array_equal(times, reference)

    def test_words_mode_with_int32_indices(self):
        graph = generators.hypercube(4, index_dtype="int32")
        reference = batch_cobra_cover_times(
            graph, 0, n_replicas=32, seed=7, shard_size=8
        )
        times = batch_cobra_cover_times(
            graph, 0, n_replicas=32, seed=7, shard_size=8, backend="numba"
        )
        assert np.array_equal(times, reference)

    def test_implicit_graph(self):
        graph = ImplicitHypercube(5)
        reference = batch_cobra_cover_times(
            graph, 0, n_replicas=16, seed=8, shard_size=8
        )
        times = batch_cobra_cover_times(
            graph, 0, n_replicas=16, seed=8, shard_size=8, backend="numba"
        )
        assert np.array_equal(times, reference)


# --- sparse-frontier compiled kernels ---------------------------------


@pytest.mark.usefixtures("compiled_tier")
@pytest.mark.parametrize("jobs", [1, 4])
class TestSparseParity:
    """Compiled sparse kernels match the host reference bit for bit."""

    def test_sparse_cobra(self, small_expander, jobs):
        reference = sparse_cobra_cover_times(
            small_expander, 0, n_replicas=32, seed=11, shard_size=8, jobs=jobs
        )
        times = sparse_cobra_cover_times(
            small_expander, 0, n_replicas=32, seed=11, shard_size=8, jobs=jobs,
            backend="numba",
        )
        assert np.array_equal(times, reference)

    def test_sparse_bips(self, small_expander, jobs):
        reference = sparse_bips_infection_times(
            small_expander, 0, n_replicas=32, seed=12, shard_size=8, jobs=jobs
        )
        times = sparse_bips_infection_times(
            small_expander, 0, n_replicas=32, seed=12, shard_size=8, jobs=jobs,
            backend="numba",
        )
        assert np.array_equal(times, reference)


# --- the compiled tier through the measurement seam ------------------


@pytest.mark.usefixtures("compiled_tier")
class TestCompiledEngine:
    """``engine="batch", backend="numba"``: same results, same law."""

    def test_compiled_engine_equals_batch(self, small_expander):
        batch = measure_cobra_cover(
            small_expander, n_samples=24, seed=13, engine="batch"
        )
        compiled_run = measure_cobra_cover(
            small_expander, n_samples=24, seed=13, engine="batch", backend="numba"
        )
        assert np.array_equal(compiled_run.times, batch.times)

    def test_compiled_engine_bips(self, small_expander):
        batch = measure_bips_infection(
            small_expander, n_samples=24, seed=14, engine="batch"
        )
        compiled_run = measure_bips_infection(
            small_expander, n_samples=24, seed=14, engine="batch", backend="numba"
        )
        assert np.array_equal(compiled_run.times, batch.times)

    def test_compiled_engine_agrees_with_process_engine(self, small_expander):
        # KS net over the law itself: the compiled path and the
        # sequential per-replica engine sample the same distribution.
        # 300 per side -> alpha = 0.001 critical value ~0.159.
        compiled_times = measure_cobra_cover(
            small_expander, n_samples=300, seed=15, engine="batch", backend="numba"
        ).times
        process_times = measure_cobra_cover(
            small_expander, n_samples=300, seed=16, engine="process"
        ).times
        assert ks_statistic(compiled_times, process_times) < 0.159


# --- availability gate ----------------------------------------------


class TestAvailability:
    def test_missing_numba_raises_backend_error(self, no_numba):
        if compiled.NUMBA_AVAILABLE:
            pytest.skip("numba is installed; the gate is open by design")
        with pytest.raises(BackendError, match=r"cobra-repro\[numba\]"):
            resolve_backend("numba")

    def test_available_backends_lists_numba(self, compiled_tier):
        assert "numba" in available_backends()
