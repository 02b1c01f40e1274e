"""Tests for the host-kernel selector (``repro.backends``)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.backends import (
    available_backends,
    default_backend,
    resolve_backend,
    set_default_backend,
)
from repro.core import compiled
from repro.core.batch import batch_cobra_cover_times
from repro.errors import BackendError
from repro.graphs import generators


@pytest.fixture
def compiled_tier(monkeypatch):
    """Make ``"numba"`` resolvable: real numba or the pure-Python fallback."""
    if not compiled.NUMBA_AVAILABLE:
        monkeypatch.setenv(compiled.FALLBACK_ENV, "1")


class TestResolveBackend:
    def test_none_resolves_to_default(self):
        assert resolve_backend(None) == default_backend()

    def test_numpy_spec(self):
        assert resolve_backend("numpy") == "numpy"

    def test_unknown_spec_rejected(self):
        with pytest.raises(BackendError, match="unknown backend"):
            resolve_backend("warp-drive")

    def test_bad_argument_type_rejected(self):
        with pytest.raises(BackendError, match="unknown backend"):
            resolve_backend(42)

    def test_missing_gpu_library_has_clear_error(self):
        # The GPU specs are gone; asking for one names the host specs.
        for spec in ("cupy", "array-api:numpy"):
            with pytest.raises(BackendError, match="expected 'numpy' or 'numba'"):
                resolve_backend(spec)

    def test_default_backend_round_trip(self, compiled_tier):
        previous = set_default_backend("numba")
        try:
            assert default_backend() == "numba"
            assert resolve_backend(None) == "numba"
        finally:
            set_default_backend(previous)
        assert default_backend() == previous

    def test_set_default_backend_validates(self):
        before = default_backend()
        with pytest.raises(BackendError, match="unknown backend"):
            set_default_backend("not-a-real-backend")
        assert default_backend() == before

    def test_available_backends_always_include_host_specs(self):
        assert available_backends()[0] == "numpy"


class TestEngineBackendValidation:
    def test_irregular_graph_fine_on_numpy_backend(self):
        star = generators.star(5)
        times = batch_cobra_cover_times(star, 0, n_replicas=4, seed=0, backend="numpy")
        assert np.all(times > 0)

    def test_sweep_rejects_backend_with_process_engine(self, small_expander):
        from repro.errors import ExperimentError
        from repro.experiments.sweep import measure_cobra_cover

        with pytest.raises(ExperimentError, match="engine='batch'"):
            measure_cobra_cover(
                small_expander, n_samples=2, seed=0, engine="process", backend="numpy"
            )

    def test_sweep_forwards_backend(self, small_expander, compiled_tier, monkeypatch):
        from repro.experiments.sweep import measure_cobra_cover

        calls = []
        original = compiled.compiled_cobra_shard

        def spy(*args):
            calls.append(args[1:3])
            return original(*args)

        monkeypatch.setattr(compiled, "compiled_cobra_shard", spy)
        a = measure_cobra_cover(small_expander, n_samples=12, seed=3, backend="numpy")
        assert calls == []
        b = measure_cobra_cover(
            small_expander, n_samples=12, seed=3, jobs=1, backend="numba"
        )
        assert calls
        assert np.array_equal(a.times, b.times)
