"""The benchmark's four workloads: inputs from a seed, one timed pass, checks.

Each workload has a ``setup(seed, scale, workdir)`` that turns the
workload seed into the program's inputs (and builds any fixed input
graphs), and a ``run(inputs, pass_name)`` that makes the timed calls
through the program's public entry points and returns one
:class:`Operation` per experiment run, ensemble call or campaign entry,
each already checked for correctness.  The benchmark times ``run`` twice
per process: the cold pass and the warm pass.

``scale="full"`` is the measured configuration; ``scale="micro"`` shrinks
every workload to a seconds-long smoke of the same code path.
"""

from __future__ import annotations

import hashlib
import json
import math
import multiprocessing
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

#: Parallel workers for the pooled workloads.  BLAS is pinned to one
#: thread per process, so ``JOBS * 1 <= nproc`` holds on any host.
JOBS = max(1, min(2, multiprocessing.cpu_count()))

#: One BLAS/OpenMP thread per process, set before numpy loads: with
#: ``JOBS`` workers the benchmark never asks for more threads than cores.
PINNED_THREADS = {
    name: "1"
    for name in (
        "OPENBLAS_NUM_THREADS",
        "OMP_NUM_THREADS",
        "MKL_NUM_THREADS",
        "NUMEXPR_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS",
    )
}

#: Reference cell means recorded at the commit that added the benchmark
#: (regenerate with ``make_reference.py``).
REFERENCE_PATH = Path(__file__).with_name("reference.json")

#: A cell mean may sit this many standard errors from its reference.
#: Wide enough for a fresh graph sample (a new seed or a changed
#: random-regular stream), narrow enough that a kernel which samples
#: the wrong neighbours or branches the wrong number of times fails.
TOLERANCE_SE = 6.0

#: Floor on a cell tolerance, in rounds: cover and infection times are
#: integers, so a near-deterministic cell can have a standard error of
#: almost zero.
TOLERANCE_FLOOR = 0.5

#: The largest exact duality gap (Theorem 4 holds to float precision).
MAX_DUALITY_GAP = 1e-9


def derive_seed(seed: int, label: str) -> int:
    """A 31-bit seed for one program input, fixed by the workload seed."""
    digest = hashlib.sha256(f"{seed}:{label}".encode()).digest()
    return int.from_bytes(digest[:4], "little") >> 1


@dataclass
class Operation:
    """One checked unit of work."""

    name: str
    ok: bool
    detail: str = ""


@dataclass
class PassReport:
    """What one timed pass did."""

    operations: list[Operation]
    #: Campaign manifest records (``seconds``, ``cached``, ``attempts``).
    entries: list[dict[str, Any]] = field(default_factory=list)
    cache_bytes: int = 0


def load_reference(scale: str, workload: str) -> dict[str, dict[str, float]]:
    """A workload's reference cells; empty (so every cell fails) if none is recorded."""
    if not REFERENCE_PATH.is_file():
        return {}
    with REFERENCE_PATH.open() as handle:
        return json.load(handle).get(scale, {}).get(workload, {})


def cell_problems(
    cells: dict[str, tuple[float, float | None]],
    reference: dict[str, dict[str, float]],
) -> list[str]:
    """Cells whose mean is off its reference, as readable lines.

    ``cells`` maps a cell key to ``(mean, standard error)``; a ``None``
    error means the run could not see its replicas and the reference's
    per-replica spread stands in.  The allowed distance is
    ``TOLERANCE_SE`` standard errors of the difference between the run
    and the reference, where each side's error is the larger of the
    ensemble's own standard error and the spread of the cell mean
    across the reference's seeds (which carries graph-to-graph
    variation on random graphs).
    """
    problems = []
    for key, (mean, own_se) in cells.items():
        ref = reference.get(key)
        if ref is None:
            problems.append(f"{key}: no reference")
            continue
        if own_se is None:
            own_se = ref["sd_replica"] / math.sqrt(ref["samples"])
        spread = max(own_se, ref["sd_between"])
        tolerance = max(
            TOLERANCE_FLOOR,
            TOLERANCE_SE * math.sqrt(spread**2 + spread**2 / ref["seeds"]),
        )
        if not abs(mean - ref["mean"]) <= tolerance:
            problems.append(
                f"{key}: mean {mean:.4g} vs reference {ref['mean']:.4g} (tolerance {tolerance:.3g})"
            )
    missing = sorted(set(reference) - set(cells))
    problems.extend(f"{key}: cell missing" for key in missing)
    return problems


def _check(name: str, compute: Callable[[], list[str]]) -> Operation:
    """Run one operation; a raise or a failed check marks it failed."""
    try:
        problems = compute()
    except Exception as error:  # the benchmark must report, not crash
        return Operation(name, False, f"{type(error).__name__}: {error}")
    return Operation(name, not problems, "; ".join(problems))


# ---------------------------------------------------------------------------
# expander_cover: the headline sweep (E1 + E8)
# ---------------------------------------------------------------------------

#: Overrides on each experiment's quick preset (field names of its workload).
#: Full scale stops E1's ladder at n = 1024 so that several repetitions
#: fit in one run; graph build and spectrum still dominate.
_EXPANDER = {
    "full": {"E1": {"sizes": (256, 512, 1024)}, "E8": {}},
    "micro": {
        "E1": {"sizes": (64, 128), "degrees": (3, 8), "samples": 6},
        "E8": {
            "circulant_n": 65, "chords": (1, 4), "regular_n": 64, "degrees": (3, 8), "samples": 6
        },
    },
}


def expander_cells(experiment_id: str, result: Any) -> dict[str, float]:
    """Mean cover time per table cell of an E1 or E8 result."""
    cells = {}
    if experiment_id == "E1":
        for row in result.tables["cover times"].to_records():
            cells[f"E1/n={row['n']}/r={row['r']}"] = float(row["mean cov"])
        for row in result.tables["complete graph (r = n-1 endpoint)"].to_records():
            cells[f"E1/complete/n={row['n']}"] = float(row["mean cov"])
    else:
        for row in result.tables["cover vs gap"].to_records():
            cells[f"E8/{row['family']}/{row['param']}"] = float(row["mean cov"])
    return cells


def _experiment_workload(experiment_id: str, overrides: dict[str, Any]) -> Any:
    """The experiment's quick preset with ``overrides`` applied."""
    from repro.experiments import get_experiment

    return get_experiment(experiment_id).preset("quick").with_overrides(overrides)


def run_experiment_workload(experiment_id: str, workload: Any, seed: int) -> Any:
    from repro.experiments import run_experiment

    return run_experiment(experiment_id, workload=workload, seed=seed)


def expander_setup(seed: int, scale: str, workdir: Path) -> dict[str, Any]:
    return {
        "reference": load_reference(scale, "expander_cover"),
        "runs": [
            (eid, _experiment_workload(eid, overrides), derive_seed(seed, eid))
            for eid, overrides in _EXPANDER[scale].items()
        ],
    }


def expander_run(inputs: dict[str, Any], pass_name: str) -> PassReport:
    operations = []
    for experiment_id, workload, seed in inputs["runs"]:

        def compute(experiment_id=experiment_id, workload=workload, seed=seed) -> list[str]:
            result = run_experiment_workload(experiment_id, workload, seed)
            reference = {
                key: value
                for key, value in inputs["reference"].items()
                if key.startswith(experiment_id + "/")
            }
            means = expander_cells(experiment_id, result)
            cells = {key: (mean, None) for key, mean in means.items()}
            return cell_problems(cells, reference)

        operations.append(_check(f"{experiment_id} seed {seed}", compute))
    return PassReport(operations)


# ---------------------------------------------------------------------------
# ensemble_kernels: the core kernels, sharded and single-shard
# ---------------------------------------------------------------------------

#: (random-regular n, r, replicas) and (hypercube dimension, replicas).
_ENSEMBLE_SHAPES = {
    "full": {"regular": (4096, 8, 256), "hypercube": (15, 8)},
    "micro": {"regular": (256, 8, 64), "hypercube": (8, 4)},
}


def ensemble_setup(seed: int, scale: str, workdir: Path) -> dict[str, Any]:
    from repro.graphs.generators import random_regular
    from repro.graphs.implicit import ImplicitHypercube

    n, r, regular_replicas = _ENSEMBLE_SHAPES[scale]["regular"]
    dimension, cube_replicas = _ENSEMBLE_SHAPES[scale]["hypercube"]
    return {
        "reference": load_reference(scale, "ensemble_kernels"),
        "cells": [
            ("regular", random_regular(n, r, seed=derive_seed(seed, "regular")), regular_replicas),
            ("hypercube", ImplicitHypercube(dimension), cube_replicas),
        ],
        "seed": seed,
    }


def ensemble_run(inputs: dict[str, Any], pass_name: str) -> PassReport:
    from repro.experiments.sweep import measure_bips_infection, measure_cobra_cover

    measures = {"cobra": measure_cobra_cover, "bips": measure_bips_infection}
    operations = []
    for label, graph, replicas in inputs["cells"]:
        for process, measure in measures.items():
            key = f"{label}/{process}"

            def compute(key=key, graph=graph, replicas=replicas, measure=measure) -> list[str]:
                times = measure(
                    graph,
                    branching=2.0,
                    n_samples=replicas,
                    seed=derive_seed(inputs["seed"], key),
                    jobs=JOBS,
                ).times
                se = float(times.std(ddof=1)) / math.sqrt(times.size)
                reference = {key: inputs["reference"][key]} if key in inputs["reference"] else {}
                return cell_problems({key: (float(times.mean()), se)}, reference)

            operations.append(_check(key, compute))
    return PassReport(operations)


# ---------------------------------------------------------------------------
# exact_duality: Theorem 4 through the exact subset-law solvers
# ---------------------------------------------------------------------------

#: E4's exact tier without its two slowest cases: ``duality_gap`` at every
#: branching E4 checks, on the Petersen graph, K_n, C_n and an irregular
#: path, from start and source vertices drawn from the seed.  Calling the
#: exact layer directly keeps a pass near 1.5 s, so several repetitions fit
#: one run (E4 spends 4 s in the same solvers and cannot be made smaller
#: through its workload fields).  Fixed graphs keep the cost independent of
#: the seed: a seeded random 3-regular graph varied it threefold.
_EXACT_CASES = {
    "full": (("petersen", 10), ("complete", 7), ("cycle", 9), ("path", 6)),
    "micro": (("complete", 5), ("cycle", 7), ("path", 5)),
}
_EXACT_T_MAX = {"full": 12, "micro": 4}
_EXACT_BRANCHINGS = (1.0, 1.5, 2.0, 3.0)


def exact_setup(seed: int, scale: str, workdir: Path) -> dict[str, Any]:
    from repro.graphs import generators

    cases = []
    for family, n in _EXACT_CASES[scale]:
        graph = generators.petersen() if family == "petersen" else getattr(generators, family)(n)
        start = derive_seed(seed, f"{family}-start") % n
        source = (start + 1 + derive_seed(seed, f"{family}-source") % (n - 1)) % n
        cases.append((f"{family} n={n}", graph, start, source))
    return {"cases": cases, "t_max": _EXACT_T_MAX[scale]}


def exact_run(inputs: dict[str, Any], pass_name: str) -> PassReport:
    from repro.exact.duality import duality_gap

    operations = []
    for label, graph, start, source in inputs["cases"]:

        def compute(graph=graph, start=start, source=source) -> list[str]:
            worst = max(
                duality_gap(graph, [start], source, inputs["t_max"], branching=branching)
                for branching in _EXACT_BRANCHINGS
            )
            if not worst <= MAX_DUALITY_GAP:
                return [f"worst exact duality gap {worst:.3g} exceeds {MAX_DUALITY_GAP:g}"]
            return []

        operations.append(_check(label, compute))
    return PassReport(operations)


# ---------------------------------------------------------------------------
# campaign_cache: orchestration, spawn pool start-up and the result cache
# ---------------------------------------------------------------------------

#: ``(experiment id, overrides)`` per entry, each run at one seed.
_CAMPAIGN_ENTRIES = {
    "full": [(eid, None) for eid in ("E2", "E5", "E8", "E10")],
    "micro": [("E5", None), ("E9", {"n": 128, "branchings": [1.0, 2.0], "samples": 3})],
}


def campaign_setup(seed: int, scale: str, workdir: Path) -> dict[str, Any]:
    from repro.experiments.campaign import Campaign, CampaignEntry

    # Spawn workers start from a fresh interpreter, the start-up cost the
    # persistent-executor work targets (and the default from Python 3.14).
    multiprocessing.set_start_method("spawn", force=True)
    entries = [
        CampaignEntry(
            experiment_id=eid, mode="quick", seed=derive_seed(seed, eid), overrides=overrides
        )
        for eid, overrides in _CAMPAIGN_ENTRIES[scale]
    ]
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    return {"campaign": Campaign(name="bench", entries=entries), "workdir": workdir}


def _directory_bytes(directory: Path) -> int:
    return sum(path.stat().st_size for path in directory.rglob("*") if path.is_file())


def campaign_run(inputs: dict[str, Any], pass_name: str) -> PassReport:
    from repro.experiments.campaign import run_campaign

    workdir: Path = inputs["workdir"]
    output = workdir / pass_name
    manifest = run_campaign(inputs["campaign"], output, jobs=JOBS, cache_dir=workdir / "cache")
    results = output / inputs["campaign"].name
    cold = workdir / "cold" / inputs["campaign"].name
    operations = []
    for record in manifest["entries"]:
        name = f"{record['experiment_id']} seed {record['seed']}"
        problems = []
        if "error" in record or record.get("skipped"):
            problems.append(record.get("error", "skipped"))
        elif pass_name == "warm":
            if not record.get("cached"):
                problems.append("warm entry not served from the cache")
            for key in ("result_json", "result_text"):
                if (results / record[key]).read_bytes() != (cold / record[key]).read_bytes():
                    problems.append(f"warm {record[key]} differs from the cold one")
        operations.append(Operation(name, not problems, "; ".join(problems)))
    return PassReport(operations, manifest["entries"], _directory_bytes(workdir / "cache"))


@dataclass(frozen=True)
class Workload:
    name: str
    setup: Callable[[int, str, Path], dict[str, Any]]
    run: Callable[[dict[str, Any], str], PassReport]
    #: Report the pass times at reference host speed (``rep.reference_work``;
    #: set-up is always scaled).  True where the passes spend their time in
    #: the interpreter and small numpy calls, whose speed the reference work
    #: tracks on a shared host.  ``ensemble_kernels`` spends it in large-array
    #: kernels across two workers, which a slow spell slows about half as
    #: much as the reference work, so scaling would add noise there; its
    #: pass times are plain wall seconds.
    scale_passes: bool = True


WORKLOADS = {
    workload.name: workload
    for workload in (
        Workload("expander_cover", expander_setup, expander_run),
        Workload("ensemble_kernels", ensemble_setup, ensemble_run, scale_passes=False),
        Workload("exact_duality", exact_setup, exact_run),
        Workload("campaign_cache", campaign_setup, campaign_run),
    )
}
