"""The cache can never serve a result computed under an older sampling stream.

``tests/data/stream_fingerprints.json`` records, next to the
``CACHE_SCHEMA_VERSION`` it was captured under, the digest of
``random_regular(64, 3, seed=0)``'s CSR, that graph's ``λ``, and the
digest of a tiny fixed-seed COBRA and BIPS run of every engine in
``sweep.ENGINES``.  Cached results are keyed by the schema version, so
a change to any of these streams must come with a schema bump; this
test fails when a fingerprint moves while the version stays.

After a deliberate stream change, bump ``CACHE_SCHEMA_VERSION`` and
re-record the file with ``python tests/scenarios/test_stream_fingerprints.py``.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

from repro.cache import CACHE_SCHEMA_VERSION
from repro.experiments.sweep import ENGINES, measure_bips_infection, measure_cobra_cover
from repro.graphs.generators import random_regular
from repro.graphs.spectral import lambda_second

FINGERPRINTS = Path(__file__).resolve().parents[1] / "data" / "stream_fingerprints.json"


def _digest(*arrays) -> str:
    payload = json.dumps([np.asarray(array).tolist() for array in arrays])
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def current_fingerprints() -> dict[str, str]:
    graph = random_regular(64, 3, seed=0)
    fingerprints = {
        "random_regular(64, 3, seed=0)": _digest(graph.indptr, graph.indices),
        "lambda": repr(lambda_second(graph)),
    }
    for engine in ENGINES:
        cobra = measure_cobra_cover(graph, n_samples=6, seed=0, engine=engine)
        bips = measure_bips_infection(graph, n_samples=6, seed=0, engine=engine)
        fingerprints[f"engine:{engine}"] = _digest(cobra.times, bips.times)
    return fingerprints


def test_fingerprints_move_only_with_the_schema():
    recorded = json.loads(FINGERPRINTS.read_text())
    current = current_fingerprints()
    moved = sorted(
        key for key in current.keys() | recorded["fingerprints"].keys()
        if current.get(key) != recorded["fingerprints"].get(key)
    )
    assert recorded["cache_schema_version"] == CACHE_SCHEMA_VERSION, (
        f"{FINGERPRINTS.name} was recorded under schema "
        f"{recorded['cache_schema_version']}, the code is at "
        f"{CACHE_SCHEMA_VERSION}: re-record it"
    )
    assert moved == [], (
        f"sampling streams {moved} changed under CACHE_SCHEMA_VERSION "
        f"{CACHE_SCHEMA_VERSION}: bump it, then re-record {FINGERPRINTS.name}"
    )


if __name__ == "__main__":
    FINGERPRINTS.write_text(
        json.dumps(
            {"cache_schema_version": CACHE_SCHEMA_VERSION, "fingerprints": current_fingerprints()},
            indent=1,
            sort_keys=True,
        )
        + "\n"
    )
