"""One repetition of a workload in a fresh process: set up, cold pass, warm pass.

``run.py`` starts this script once per repetition, with BLAS threads
already pinned in the environment, and reads the JSON it writes to
``--out``.  ``--t0`` is the wall-clock instant the parent started the
process, so ``setup_s`` covers interpreter start, ``import repro`` and
input generation up to the first timed call.  With ``--setup-only`` the
process stops there.  With ``--trace`` every layer's public functions
are wrapped (see ``tracer.py``) before the inputs are generated, and the
spans are written next to the result.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.metadata
import importlib.util
import json
import os
import platform
import resource
import shutil
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"


def _version(package: str) -> str | None:
    try:
        return importlib.metadata.version(package)
    except importlib.metadata.PackageNotFoundError:
        return None


def environment() -> dict[str, object]:
    """What the numbers depend on besides the code."""
    from repro.parallel import pool_start_method
    from workloads import JOBS, PINNED_THREADS

    return {
        "cores": os.cpu_count(),
        "usable_cores": len(os.sched_getaffinity(0)),
        "start_method": pool_start_method(),
        "jobs": JOBS,
        "blas_threads": {name: os.environ.get(name) for name in PINNED_THREADS},
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "networkx": _version("networkx"),
        "numba_importable": importlib.util.find_spec("numba") is not None,
    }


def reference_work() -> float:
    """Seconds this process takes for a fixed piece of benchmark-owned work.

    The work mixes what set-up and most passes spend their time on: an
    interpreter loop, many small numpy calls and a few sorts of a 1 MiB
    array.  It never calls the program, so a change to the program cannot
    move it, while a host that runs slower for a while (other tenants on
    the same cores) slows it and the timed passes alike.  ``run.py`` scales
    each time by the reference work timed right before and after it; a
    sample of about 0.2 s follows those slow spells better than a shorter one.
    """
    import numpy as np

    started = time.perf_counter()
    total = 0
    table: dict[int, int] = {}
    for i in range(200_000):
        total += i * i % 7
        table[i & 1023] = total
    small = np.arange(512, dtype=np.float64)
    for _ in range(16_000):
        out = np.zeros_like(small)
        out.reshape(2, -1)[1] += small.reshape(2, -1)[0] * 0.5
    large = np.linspace(0.0, 1.0, 1 << 17)
    for _ in range(48):
        large = np.sort(large * 1.000001 + 1e-9)[::-1].copy()
    return time.perf_counter() - started


def peak_rss_mb() -> float:
    """The larger of this process's and its largest child's peak RSS, in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


@contextlib.contextmanager
def _traced_pass(tracer, name: str):
    """Tag what runs inside with pass ``name`` and cover it with a span."""
    if tracer is None:
        yield
        return
    tracer.phase = name
    span = tracer.open(f"pass.{name}")
    try:
        yield
    finally:
        tracer.close(span)


def run(args: argparse.Namespace) -> dict[str, object]:
    import repro  # noqa: F401  (part of the measured set-up)
    from tracer import Tracer, install, layer_metrics
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    workdir = OUT / f"{args.workload}-{os.getpid()}"
    tracer = Tracer() if args.trace else None
    patch = install(tracer) if tracer is not None else None
    try:
        with _traced_pass(tracer, "setup"):
            inputs = workload.setup(args.seed, args.scale, workdir)
        setup_s = time.time() - args.t0
        # Reference samples after set-up and after each scaled pass.
        reference_s = [reference_work()]
        if args.setup_only:
            return {"setup_s": setup_s, "reference_s": reference_s}
        seconds: dict[str, float] = {}
        operations = []
        entries = {}
        cache_bytes = 0
        for pass_name in ("cold", "warm"):
            with _traced_pass(tracer, pass_name):
                started = time.perf_counter()
                report = workload.run(inputs, pass_name)
                seconds[pass_name] = time.perf_counter() - started
            if workload.scale_passes:
                reference_s.append(reference_work())
            operations.extend(report.operations)
            entries[pass_name] = report.entries
            cache_bytes = max(cache_bytes, report.cache_bytes)
        result: dict[str, object] = {
            "setup_s": setup_s,
            "wall_s": seconds["cold"],
            "warm_s": seconds["warm"],
            "reference_s": reference_s,
            "peak_rss_mb": peak_rss_mb(),
            "attempted": len(operations),
            "failed": sum(not operation.ok for operation in operations),
            "failures": [
                f"{operation.name}: {operation.detail}"
                for operation in operations
                if not operation.ok
            ],
            "environment": environment(),
        }
        if tracer is not None:
            patch.remove()
            patch = None
            result["layers"] = layer_metrics(tracer, entries, cache_bytes)
            spans_path = OUT / f"spans-{args.workload}.json"
            spans_path.write_text(json.dumps(tracer.to_records()))
        return result
    finally:
        if patch is not None:
            patch.remove()
        shutil.rmtree(workdir, ignore_errors=True)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", choices=("full", "micro"), default="full")
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()
    OUT.mkdir(exist_ok=True)
    result = run(args)
    args.out.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
