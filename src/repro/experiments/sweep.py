"""Shared measurement helpers for the experiment modules.

Each helper runs an ensemble of independently seeded replicas of one
process configuration and returns both the raw completion times and a
:class:`~repro.analysis.stats.SummaryStats`.  Graph-building helpers
bundle the expander construction with its spectral-gap measurement so
experiments report ``λ`` alongside every row.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro._rng import SeedLike, derive_seed_sequence
from repro.analysis.stats import SummaryStats, summarize
from repro.core.batch import batch_bips_infection_times, batch_cobra_cover_times
from repro.core.bips import BipsProcess
from repro.core.event import event_bips_infection_times, event_cobra_cover_times
from repro.core.cobra import CobraProcess
from repro.core.push import PushProcess
from repro.core.pushpull import PushPullProcess
from repro.core.randomwalk import RandomWalkProcess
from repro.core.runner import sample_completion_times
from repro.core.sparse import sparse_bips_infection_times, sparse_cobra_cover_times
from repro.errors import ExperimentError
from repro.graphs.base import Graph
from repro.graphs.generators import random_regular
from repro.graphs.spectral import lambda_second


@dataclass(frozen=True)
class EnsembleMeasurement:
    """Raw completion times and their summary for one configuration."""

    times: np.ndarray
    stats: SummaryStats

    @property
    def mean(self) -> float:
        """Mean completion time."""
        return self.stats.mean


def _measure(
    factory,
    n_samples: int,
    seed: SeedLike,
    max_rounds: int | None,
    jobs: int | None = None,
) -> EnsembleMeasurement:
    times = sample_completion_times(
        factory,
        n_samples,
        seed=seed,
        max_rounds=max_rounds,
        raise_on_timeout=True,
        jobs=jobs,
    )
    return EnsembleMeasurement(times=times, stats=summarize(times))


def _process_cobra_times(graph, start, *, branching, n_replicas, seed, max_rounds, jobs):
    """COBRA cover times from independent stepped :class:`CobraProcess` replicas."""
    return sample_completion_times(
        lambda rng: CobraProcess(graph, start, branching=branching, seed=rng),
        n_replicas,
        seed=seed,
        max_rounds=max_rounds,
        raise_on_timeout=True,
        jobs=jobs,
    )


def _process_bips_times(graph, source, *, branching, n_replicas, seed, max_rounds, jobs):
    """BIPS infection times from independent stepped :class:`BipsProcess` replicas."""
    return sample_completion_times(
        lambda rng: BipsProcess(graph, source, branching=branching, seed=rng),
        n_replicas,
        seed=seed,
        max_rounds=max_rounds,
        raise_on_timeout=True,
        jobs=jobs,
    )


@dataclass(frozen=True)
class Engine:
    """One row of :data:`ENGINES`.

    ``cobra`` and ``bips`` name module-level functions of this module.
    They are looked up when called, not bound here, so a wrapper
    installed on the module attribute (a profiler, a test double) sees
    every call made through the table.
    """

    cobra: str
    bips: str
    #: Whether the engine accepts ``backend`` (``"numpy"``/``"numba"``).
    takes_backend: bool = False
    #: Whether the engine accepts the continuous-time rate options.
    takes_rates: bool = False


#: The engine table: every engine name the measurement helpers, the
#: workloads' ``engine`` field, and the CLI's ``--engine`` accept.
ENGINES: dict[str, Engine] = {
    "process": Engine("_process_cobra_times", "_process_bips_times"),
    "batch": Engine(
        "batch_cobra_cover_times", "batch_bips_infection_times", takes_backend=True
    ),
    "event": Engine(
        "event_cobra_cover_times", "event_bips_infection_times", takes_rates=True
    ),
    "sparse": Engine(
        "sparse_cobra_cover_times", "sparse_bips_infection_times", takes_backend=True
    ),
}


def _event_max_time(
    max_rounds: int | None, time_step: float | None, transmission_rate: float
) -> float | None:
    """``max_rounds`` converted to the event engine's time horizon.

    One round corresponds to one tick (``time_step`` mode) or to the
    mean firing interval ``1 / transmission_rate`` (asynchronous mode),
    so round-based callers keep their timeout semantics.
    """
    if max_rounds is None:
        return None
    if time_step is not None:
        return max_rounds * time_step
    return max_rounds / transmission_rate


#: Neutral values of the rate options; empty overrides count as unset.
_RATE_DEFAULTS = {
    "transmission_rate": 1.0,
    "recovery_rate": 0.0,
    "time_step": None,
    "edge_rate_overrides": None,
}


def _measure_with_engine(
    engine: str,
    process: str,
    graph: Graph,
    vertex: int,
    *,
    max_rounds: int | None,
    backend: str | None,
    rates: dict,
    **common,
) -> EnsembleMeasurement:
    """Validate ``engine``'s options against :data:`ENGINES` and run it."""
    row = ENGINES.get(engine)
    if row is None:
        raise ExperimentError(
            f"engine must be one of {', '.join(repr(e) for e in ENGINES)}, "
            f"got {engine!r}"
        )
    if backend is not None and not row.takes_backend:
        allowed = " or ".join(
            f"engine={name!r}" for name, other in ENGINES.items() if other.takes_backend
        )
        raise ExperimentError(
            f"backend={backend!r} requires {allowed}; engine={engine!r} has no backend choice"
        )
    changed = sorted(
        name for name, value in rates.items() if (value or None) != (_RATE_DEFAULTS[name] or None)
    )
    if changed and not row.takes_rates:
        raise ExperimentError(
            f"{', '.join(changed)} only apply to the continuous-time engine; pass "
            f"engine='event' (got engine={engine!r})"
        )
    if row.takes_backend:
        common["backend"] = backend
    if row.takes_rates:
        common.update(rates)
        common["max_time"] = _event_max_time(
            max_rounds, rates["time_step"], rates["transmission_rate"]
        )
    else:
        common["max_rounds"] = max_rounds
    times = globals()[getattr(row, process)](graph, vertex, **common)
    return EnsembleMeasurement(times=times, stats=summarize(times))


def measure_cobra_cover(
    graph: Graph,
    *,
    start: int = 0,
    branching: float = 2.0,
    n_samples: int = 10,
    seed: SeedLike = None,
    max_rounds: int | None = None,
    jobs: int | None = None,
    engine: str = "batch",
    backend: str | None = None,
    transmission_rate: float = 1.0,
    time_step: float | None = None,
    edge_rate_overrides=None,
) -> EnsembleMeasurement:
    """Ensemble of COBRA cover times on ``graph``.

    ``engine`` picks a row of :data:`ENGINES`; all engines are
    identical in distribution at uniform rates (any real branching
    factor, including the fractional ``1 + ρ`` of Theorem 3).

    * ``"batch"`` (the default) — the vectorised
      :func:`~repro.core.batch.batch_cobra_cover_times` fast path;
    * ``"process"`` — independent stepped
      :class:`~repro.core.cobra.CobraProcess` replicas;
    * ``"event"`` — the continuous-time Gillespie kernel
      (:func:`~repro.core.event.event_cobra_cover_times`), the only
      engine accepting the rate options: ``transmission_rate``,
      ``time_step`` (``None`` = asynchronous exponential clocks, a
      float = the discrete-round limit), and ``edge_rate_overrides``
      (``(u, v, rate)`` triples).  ``max_rounds`` maps onto its time
      horizon one round per tick (or per mean firing interval);
    * ``"sparse"`` — the frontier-sparse kernel
      (:func:`~repro.core.sparse.sparse_cobra_cover_times`), whose
      per-round cost tracks the active frontier instead of ``R·n``:
      the engine of choice for million-vertex graphs.

    ``backend`` (batch and sparse only) picks the host kernels:
    ``"numpy"`` or ``"numba"`` (bit-identical for a fixed seed, the
    latter needs the ``cobra-repro[numba]`` extra); ``None`` = the
    process-wide default.  ``jobs`` shards the replicas over worker
    processes with seed-stable results in every engine.
    """
    return _measure_with_engine(
        engine,
        "cobra",
        graph,
        start,
        max_rounds=max_rounds,
        backend=backend,
        rates={
            "transmission_rate": transmission_rate,
            "time_step": time_step,
            "edge_rate_overrides": edge_rate_overrides,
        },
        branching=branching,
        n_replicas=n_samples,
        seed=seed,
        jobs=jobs,
    )


def measure_bips_infection(
    graph: Graph,
    *,
    source: int = 0,
    branching: float = 2.0,
    n_samples: int = 10,
    seed: SeedLike = None,
    max_rounds: int | None = None,
    jobs: int | None = None,
    engine: str = "batch",
    backend: str | None = None,
    transmission_rate: float = 1.0,
    recovery_rate: float = 0.0,
    time_step: float | None = None,
    edge_rate_overrides=None,
) -> EnsembleMeasurement:
    """Ensemble of BIPS infection times on ``graph``.

    Supports the same ``engine`` / ``jobs`` / ``backend`` / rate
    options (and the same ``"batch"`` default) as
    :func:`measure_cobra_cover`, plus ``recovery_rate``: with
    ``engine="event"`` and asynchronous clocks, infected non-source
    vertices additionally recover spontaneously at that rate
    (:func:`~repro.core.event.event_bips_infection_times`).
    """
    return _measure_with_engine(
        engine,
        "bips",
        graph,
        source,
        max_rounds=max_rounds,
        backend=backend,
        rates={
            "transmission_rate": transmission_rate,
            "recovery_rate": recovery_rate,
            "time_step": time_step,
            "edge_rate_overrides": edge_rate_overrides,
        },
        branching=branching,
        n_replicas=n_samples,
        seed=seed,
        jobs=jobs,
    )


def measure_push_broadcast(
    graph: Graph,
    *,
    start: int = 0,
    n_samples: int = 10,
    seed: SeedLike = None,
    max_rounds: int | None = None,
    jobs: int | None = None,
) -> EnsembleMeasurement:
    """Ensemble of push-protocol broadcast times on ``graph``."""
    return _measure(
        lambda rng: PushProcess(graph, start, seed=rng), n_samples, seed, max_rounds, jobs
    )


def measure_pushpull_broadcast(
    graph: Graph,
    *,
    start: int = 0,
    n_samples: int = 10,
    seed: SeedLike = None,
    max_rounds: int | None = None,
    jobs: int | None = None,
) -> EnsembleMeasurement:
    """Ensemble of push–pull broadcast times on ``graph``."""
    return _measure(
        lambda rng: PushPullProcess(graph, start, seed=rng), n_samples, seed, max_rounds, jobs
    )


def measure_random_walk_cover(
    graph: Graph,
    *,
    start: int = 0,
    n_walkers: int = 1,
    n_samples: int = 10,
    seed: SeedLike = None,
    max_rounds: int | None = None,
    jobs: int | None = None,
) -> EnsembleMeasurement:
    """Ensemble of random-walk cover times on ``graph``."""
    return _measure(
        lambda rng: RandomWalkProcess(graph, start, n_walkers=n_walkers, seed=rng),
        n_samples,
        seed,
        max_rounds,
        jobs,
    )


def expander_with_gap(
    n: int, r: int, seed: SeedLike = None, *, lambda_method: str = "auto"
) -> tuple[Graph, float]:
    """A connected random `r`-regular graph together with its measured ``λ``."""
    sequence = derive_seed_sequence(seed)
    graph = random_regular(n, r, seed=np.random.default_rng(sequence))
    return graph, lambda_second(graph, method=lambda_method)


def family_with_gap(
    family, n: int, seed: SeedLike = None, *, lambda_method: str = "auto"
) -> tuple[Graph, float]:
    """A size-``n`` member of a declarative graph family plus its ``λ``.

    ``family`` is a :class:`~repro.scenarios.families.GraphFamily` (or
    anything its ``from_value`` accepts).  For the ``random_regular``
    kind this is bit-identical to :func:`expander_with_gap` at the same
    ``(n, degree, seed)`` — the scenario layer's preset path and the
    legacy helper build the same graphs.  Bipartite family members
    (hypercubes, even-sided tori) report ``λ = 1``; callers guarding a
    ``1/(1-λ)`` bound should check for that.
    """
    from repro.scenarios.families import GraphFamily  # deferred: import cycle

    graph = GraphFamily.from_value(family).build(n, seed=seed)
    return graph, lambda_second(graph, method=lambda_method)
