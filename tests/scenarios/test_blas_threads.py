"""Golden digests and ``λ`` do not depend on the BLAS thread count.

Every check runs in a fresh interpreter per thread count, because
OpenBLAS reads ``OPENBLAS_NUM_THREADS`` once, when NumPy loads.  Dense
``eigvalsh`` on a few hundred vertices or more changes λ's last digits
with the thread count, and λ feeds the E6/E11 micro and E8 quick
digests; the λ sizes below straddle ``DENSE_LIMIT`` and the Lanczos
range.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

from repro.graphs.spectral import DENSE_LIMIT

TESTS = Path(__file__).resolve().parents[1]
SRC = TESTS.parent / "src"
GOLDENS = json.loads((TESTS / "data" / "scenario_goldens.json").read_text())

SCRIPT = """
import hashlib, json, sys
from repro.experiments import experiment_ids, get_experiment
from repro.experiments.microscale import apply_micro_overrides
from repro.graphs.generators import random_regular
from repro.graphs.spectral import lambda_second

def digest(result):
    payload = json.dumps(result.to_json_dict(), sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()

micro = {}
for experiment_id in sys.argv[1].split(","):
    apply_micro_overrides(experiment_id, setattr)
    module = get_experiment(experiment_id)
    micro[experiment_id] = digest(module.run(module.preset("quick"), seed=1))
module = get_experiment("E8")
sizes = [int(n) for n in sys.argv[2].split(",")]
print(json.dumps({
    "micro": micro,
    "E8 quick": digest(module.run(mode="quick", seed=1)),
    "lambda": [repr(lambda_second(random_regular(n, 3, seed=n))) for n in sizes],
}))
"""

MICRO_IDS = tuple(sorted(GOLDENS["micro_result_digests"], key=lambda e: int(e[1:])))
#: The largest dense size, the smallest Lanczos size, and larger ones.
LAMBDA_SIZES = (DENSE_LIMIT, DENSE_LIMIT + 2, 512, 1500, 3000)


def _run_at(threads: int) -> subprocess.Popen:
    env = {**os.environ, "OPENBLAS_NUM_THREADS": str(threads)}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.Popen(
        [
            sys.executable,
            "-c",
            SCRIPT,
            ",".join(MICRO_IDS),
            ",".join(str(n) for n in LAMBDA_SIZES),
        ],
        env=env,
        stdout=subprocess.PIPE,
        text=True,
    )


def test_golden_digests_and_lambda_ignore_blas_threads():
    runs = {threads: _run_at(threads) for threads in (1, 4)}
    outputs = {}
    for threads, process in runs.items():
        stdout, _ = process.communicate(timeout=600)
        assert process.returncode == 0, f"OPENBLAS_NUM_THREADS={threads} run failed"
        outputs[threads] = json.loads(stdout)
    assert outputs[1] == outputs[4]
    assert outputs[1]["micro"] == GOLDENS["micro_result_digests"]
    assert outputs[1]["E8 quick"] == GOLDENS["quick_result_digests"]["E8"]
