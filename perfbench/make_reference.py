"""Record the reference cell means the correctness checks compare against.

    python3 perfbench/make_reference.py

Run from the repository root.  For every cell of ``expander_cover`` and
``ensemble_kernels``, at both scales, it runs the workload at each of
``REFERENCE_SEEDS`` (fresh graphs each time), captures the replica times
of every ensemble call, and stores per cell: the mean of the cell means,
their spread across seeds (``sd_between``), the pooled per-replica
standard deviation, the replica count and the seed count.  Rerun it only
when a change is meant to move the distributions, and say so.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import workloads  # noqa: E402

os.environ.update(workloads.PINNED_THREADS)

#: The seeds the reference is recorded at.  The seed count enters the
#: check's tolerance (``cell_problems``), so it is fixed here.  They are
#: kept apart from any seed a benchmark run is likely to use, so the check
#: is never tuned on the data it judges.
REFERENCE_SEEDS = tuple(range(100_000, 100_012))


def _capture(captured: list):
    """A wrapper factory recording each ensemble's replica times."""

    def make(original):
        def wrapper(*args, **kwargs):
            measurement = original(*args, **kwargs)
            captured.append(measurement.times)
            return measurement

        return wrapper

    return make


def _summarise(samples: dict[str, list]) -> dict[str, dict[str, float]]:
    cells = {}
    for key, runs in samples.items():
        means = [float(times.mean()) for times in runs]
        variances = [float(times.var(ddof=1)) for times in runs]
        cells[key] = {
            "mean": statistics.fmean(means),
            "sd_between": statistics.stdev(means),
            "sd_replica": statistics.fmean(variances) ** 0.5,
            "samples": int(runs[0].size),
            "seeds": len(runs),
        }
    return cells


def record(scale: str, workdir: Path) -> dict[str, dict]:
    from tracer import Patch

    captured: list = []
    patch = Patch()
    patch.install(
        ("repro.experiments.sweep", name, _capture(captured))
        for name in ("measure_cobra_cover", "measure_bips_infection")
    )
    expander: dict[str, list] = {}
    ensemble: dict[str, list] = {}
    try:
        for seed in REFERENCE_SEEDS:
            inputs = workloads.expander_setup(seed, scale, workdir)
            for experiment_id, workload, run_seed in inputs["runs"]:
                captured.clear()
                result = workloads.run_experiment_workload(experiment_id, workload, run_seed)
                cells = workloads.expander_cells(experiment_id, result)
                if len(cells) != len(captured):
                    raise RuntimeError(
                        f"{experiment_id}: {len(cells)} cells, {len(captured)} ensembles"
                    )
                for (key, mean), times in zip(cells.items(), captured):
                    if abs(float(times.mean()) - mean) > 1e-9 * max(1.0, abs(mean)):
                        raise RuntimeError(f"{key}: captured ensemble does not match the table")
                    expander.setdefault(key, []).append(times)
            captured.clear()
            report = workloads.ensemble_run(workloads.ensemble_setup(seed, scale, workdir), "cold")
            for operation, times in zip(report.operations, captured):
                ensemble.setdefault(operation.name, []).append(times)
            print(f"{scale} seed {seed} done", file=sys.stderr)
    finally:
        patch.remove()
    return {"expander_cover": _summarise(expander), "ensemble_kernels": _summarise(ensemble)}


def main() -> int:
    reference = {
        scale: record(scale, HERE / "out" / "reference") for scale in ("micro", "full")
    }
    workloads.REFERENCE_PATH.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
