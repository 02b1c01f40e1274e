"""Parallel execution layer: one executor over seed-stable shards.

The Monte-Carlo workloads in this repository — the batch ensemble
engines, sequential replica sampling, experiment campaigns — are
embarrassingly parallel, but naive parallelisation breaks the
reproducibility contract the rest of the library keeps: results must
not depend on how many workers happened to run.  This module fixes the
rules every parallel entry point follows.

* **Seed-stable sharding.**  Work is decomposed into *shards* whose
  boundaries and seeds depend only on the workload (replica count,
  shard size, master seed) — never on the worker count.  Shard seeds
  are ``SeedSequence.spawn`` children indexed by shard position (and,
  for sequential replica sampling, by replica id), so ``jobs=1`` and
  ``jobs=8`` produce bit-identical results.
* **One ``jobs`` convention.**  ``None`` means the process-wide
  default (1 unless the CLI's ``--jobs`` raised it), ``0`` means one
  worker per CPU, ``n >= 1`` means exactly ``n`` workers.
* **One executor.**  :func:`iter_resilient` owns the only pool loop:
  the pool-vs-inline decision, the spawn picklability probe, retry
  with backoff, the hung-worker deadline, per-task process isolation
  and pool recycling.  Ensemble shards (:func:`map_shards`,
  :func:`imap_shards`) are its no-retry, no-deadline callers;
  campaign entries use every policy.  The loop blocks until a worker
  reports back or the nearest deadline or retry comes due; it never
  sleeps on a fixed interval.
* **Cheap context shipping.**  Shared read-only context (the graph,
  process parameters) travels once per worker through the pool
  initializer, not once per task.

Pools prefer the ``fork`` start method where available (unless the
application pinned another method with
``multiprocessing.set_start_method``, which is respected), so graphs
and closures are inherited by workers instead of pickled per task; on
platforms without ``fork`` the kernel and its context must be
picklable, or execution degrades to inline.  Inside a pool worker (a
daemonic process) the executor runs inline too — nested pools are
never created.

For spawn-started pools, :class:`SharedGraph` publishes a graph's CSR
arrays once through ``multiprocessing.shared_memory`` and reattaches
them zero-copy in every worker, so shipping a large graph costs one
copy total instead of one per worker per task.
"""

from __future__ import annotations

import functools
import itertools
import multiprocessing
import os
import pickle
import queue
import time
import traceback as traceback_module
from contextlib import contextmanager
from dataclasses import dataclass
from multiprocessing import shared_memory
from typing import Any, Callable, Iterator, Sequence

import numpy as np

from repro.errors import EntryDeadlineError, ParallelError
from repro.graphs.base import Graph

#: Default number of shards a workload is split into.  The
#: decomposition of an ensemble into shards depends on this value and
#: the replica count only — never on ``jobs`` — which is what keeps
#: results identical across worker counts.  Sixteen shards keep the
#: per-shard matrices large (vectorisation stays effective at
#: ``jobs=1``) while leaving enough shards for typical worker counts
#: to balance load.  Changing it changes the per-shard RNG streams
#: (and therefore sampled values, not their distribution).
DEFAULT_SHARD_COUNT = 16

#: Floor on the default shard size: below this many rows per shard the
#: batch engines pay per-call overhead instead of vectorising, so
#: small ensembles get fewer, fatter shards (a 10-replica ensemble is
#: one shard — parallelism has nothing to win there anyway).
MIN_SHARD_SIZE = 32

#: Consecutive pool recycles, with no task completing in between, after
#: which :func:`iter_resilient` stops rebuilding its pool and degrades
#: to inline execution.
MAX_POOL_RESTARTS = 2

_default_jobs = 1

#: Worker-process state installed by :func:`_initialize_worker`.
_worker_kernel: Callable[..., Any] | None = None
_worker_context: Any = None
_worker_started_at: Any = None


def default_jobs() -> int:
    """The process-wide default worker count used when ``jobs=None``."""
    return _default_jobs


def set_default_jobs(jobs: int) -> int:
    """Set the process-wide default worker count; returns the old value.

    The CLI's global ``--jobs`` flag calls this once at startup so that
    every ensemble measured by an experiment inherits the setting
    without threading a parameter through thirteen ``run`` signatures.
    """
    global _default_jobs
    if jobs is None:
        raise ParallelError("set_default_jobs needs a concrete jobs count, got None")
    previous = _default_jobs
    _default_jobs = resolve_jobs(jobs)
    return previous


def resolve_jobs(jobs: int | None = None) -> int:
    """Normalise a ``jobs`` argument to a concrete worker count.

    ``None`` resolves to :func:`default_jobs`, ``0`` to ``os.cpu_count()``,
    and any positive integer to itself.  Negative counts are rejected,
    and so are booleans: ``jobs=True`` would otherwise coerce to one
    worker and silently serialise a run the caller meant to
    parallelise (mirroring the strict seed validation in
    :meth:`~repro.experiments.campaign.CampaignEntry.from_dict`).
    """
    if jobs is None:
        return _default_jobs
    if isinstance(jobs, bool):
        raise ParallelError(
            f"jobs must be an integer worker count, got the boolean {jobs!r} "
            "(did you mean jobs=0 for one worker per CPU?)"
        )
    jobs = int(jobs)
    if jobs < 0:
        raise ParallelError(f"jobs must be >= 0 (0 = one per CPU), got {jobs}")
    if jobs == 0:
        return os.cpu_count() or 1
    return jobs


def default_shard_size(n_items: int) -> int:
    """The shard size yielding about :data:`DEFAULT_SHARD_COUNT` shards.

    Floored at :data:`MIN_SHARD_SIZE` rows so tiny ensembles stay
    vectorised.  Depends only on the workload size, never on the
    worker count.
    """
    if n_items < 0:
        raise ParallelError(f"n_items must be >= 0, got {n_items}")
    return max(MIN_SHARD_SIZE, -(-n_items // DEFAULT_SHARD_COUNT))


def shard_bounds(n_items: int, shard_size: int | None = None) -> list[tuple[int, int]]:
    """Contiguous ``[start, stop)`` shard bounds covering ``n_items``.

    The decomposition depends only on ``n_items`` and ``shard_size``
    (default :func:`default_shard_size`); callers must never let the
    worker count influence either, or jobs-invariance is lost.
    """
    if n_items < 0:
        raise ParallelError(f"n_items must be >= 0, got {n_items}")
    if shard_size is None:
        shard_size = default_shard_size(n_items)
    shard_size = int(shard_size)
    if shard_size < 1:
        raise ParallelError(f"shard_size must be >= 1, got {shard_size}")
    return [
        (start, min(start + shard_size, n_items))
        for start in range(0, n_items, shard_size)
    ]


def _initialize_worker(
    kernel: Callable[..., Any], context: Any, started_at: Any
) -> None:
    """Install the kernel, its shared context and the start clock in a worker."""
    # repro: ignore[spawn-safety] -- this IS the initializer seam: each worker installs its own copy; the parent never reads these
    global _worker_kernel, _worker_context, _worker_started_at
    _worker_kernel = kernel
    _worker_context = context
    _worker_started_at = started_at


def _run_task(index: int, task: Sequence[Any], attempt: int) -> Any:
    """Worker-side body of every pooled submission.

    Stamps the attempt's start time into the shared slot of task
    ``index`` (the parent times deadlines from it), then runs the
    kernel.  The attempt number rides along as the kernel's final
    positional argument so retry-aware kernels (and their
    fault-injection points) can tell a first attempt from a retry.
    """
    assert _worker_kernel is not None, "worker pool was not initialised"
    _worker_started_at[index] = time.monotonic()
    return _worker_kernel(_worker_context, *task, attempt)


def will_pool(jobs: int | None, n_tasks: int) -> bool:
    """Whether the executor would start a real worker pool.

    The one shared predicate behind the pool-vs-inline decision, so
    callers that prepare pool-only machinery (e.g. publishing a
    :class:`SharedGraph`) agree with the execution layer.  (Inline
    degradation for unpicklable kernels on spawn platforms is decided
    later, inside :func:`iter_resilient`.)
    """
    return (
        n_tasks > 1
        and min(resolve_jobs(jobs), n_tasks) > 1
        and not multiprocessing.current_process().daemon
    )


def _pool_context() -> multiprocessing.context.BaseContext:
    """The context pools are built from.

    An explicitly pinned start method
    (``multiprocessing.set_start_method``) wins — that is how the test
    suite forces the ``spawn`` path on fork-capable platforms.  A
    default that was merely *resolved* by earlier default-context use
    counts as pinned too (CPython exposes no way to tell the two
    apart); that is deliberate — once the application runs under a
    fixed method, pools follow it rather than fight it.  Otherwise
    prefer ``fork`` (inherits graphs/closures); fall back to the
    platform default.
    """
    pinned = multiprocessing.get_start_method(allow_none=True)
    if pinned is not None:
        return multiprocessing.get_context(pinned)
    if "fork" in multiprocessing.get_all_start_methods():
        return multiprocessing.get_context("fork")
    return multiprocessing.get_context()


def pool_start_method() -> str:
    """The start method worker pools will actually use."""
    return _pool_context().get_start_method()


def _attach_segment(name: str) -> shared_memory.SharedMemory:
    """Attach to an existing segment without resource-tracker adoption.

    Before Python 3.13 an *attaching* ``SharedMemory`` still registers
    with the process-local resource tracker, which then unlinks the
    segment when the attaching process exits — destroying it for the
    publisher and every other worker.  3.13+ exposes ``track=False``;
    earlier versions need the registration undone by hand.
    """
    try:
        return shared_memory.SharedMemory(name=name, track=False)
    except TypeError:  # Python < 3.13: no ``track`` parameter
        from multiprocessing import resource_tracker

        # Silence registration for the duration of the attach.  An
        # explicit ``unregister`` afterwards would be wrong: workers
        # share the publisher's tracker process, so it would cancel the
        # *publisher's* registration and orphan the segment on crash.
        original_register = resource_tracker.register
        resource_tracker.register = lambda *args, **kwargs: None
        try:
            return shared_memory.SharedMemory(name=name)
        finally:
            resource_tracker.register = original_register


class SharedGraph:
    """A picklable zero-copy handle to a :class:`~repro.graphs.base.Graph`.

    ``SharedGraph(graph)`` *publishes* the graph's CSR ``indptr`` /
    ``indices`` arrays into two ``multiprocessing.shared_memory``
    segments — one copy, total.  The handle pickles to a few hundred
    bytes of metadata (segment names, lengths, graph name), so shipping
    it to spawn-started workers through a pool initializer costs
    nothing; each worker's :meth:`graph` call reattaches the segments
    and rebuilds the graph around read-only views of the shared buffers
    (no validation, no copy).

    Lifecycle: the publishing process owns the segments and must call
    :meth:`unlink` (or use the handle as a context manager) when the
    pooled work is done; workers only ever attach and never unlink.
    ``unlink`` removes the segment names — memory is returned once the
    last attached process drops its mapping.  On fork platforms the
    handle also works (workers inherit the parent's attachment), it is
    just unnecessary: :func:`map_shards` ships plain graphs for free
    there.
    """

    def __init__(self, graph: Graph) -> None:
        self._name = graph.name
        self._n_indptr = graph.indptr.size
        self._n_indices = graph.indices.size
        # Indices may be stored narrow (int32); the segment and the
        # worker-side views follow the graph's storage dtype so an
        # opted-in graph ships at half width too.
        self._indices_dtype = graph.indices.dtype.str
        self._owner = True
        # Assign both segment slots before creating anything so a
        # creation failure (e.g. a full /dev/shm) leaves an object
        # ``unlink`` can still clean up instead of a half-built one.
        self._indptr_shm: shared_memory.SharedMemory | None = None
        self._indices_shm: shared_memory.SharedMemory | None = None
        self._graph: Graph | None = None
        try:
            # SharedMemory rejects zero-length segments; an edgeless
            # graph still publishes a 1-byte indices segment (never read).
            self._indptr_shm = shared_memory.SharedMemory(
                create=True, size=max(1, graph.indptr.nbytes)
            )
            self._indices_shm = shared_memory.SharedMemory(
                create=True, size=max(1, graph.indices.nbytes)
            )
            np.ndarray(self._n_indptr, dtype=np.int64, buffer=self._indptr_shm.buf)[
                :
            ] = graph.indptr
            np.ndarray(
                self._n_indices, dtype=self._indices_dtype, buffer=self._indices_shm.buf
            )[:] = graph.indices
        except BaseException:
            self.unlink()
            raise
        self._indptr_segment = self._indptr_shm.name
        self._indices_segment = self._indices_shm.name
        # The publisher already has the graph; workers build theirs lazily.
        self._graph = graph

    # -- pickling ------------------------------------------------------

    def __getstate__(self) -> dict[str, Any]:
        return {
            "name": self._name,
            "n_indptr": self._n_indptr,
            "n_indices": self._n_indices,
            "indices_dtype": self._indices_dtype,
            "indptr_segment": self._indptr_segment,
            "indices_segment": self._indices_segment,
        }

    def __setstate__(self, state: dict[str, Any]) -> None:
        self._name = state["name"]
        self._n_indptr = state["n_indptr"]
        self._n_indices = state["n_indices"]
        self._indices_dtype = state["indices_dtype"]
        self._indptr_segment = state["indptr_segment"]
        self._indices_segment = state["indices_segment"]
        self._owner = False
        self._indptr_shm = None
        self._indices_shm = None
        self._graph = None

    # -- access --------------------------------------------------------

    def graph(self) -> Graph:
        """The shared graph, attaching to the segments on first use.

        Worker-side calls build the graph around zero-copy views of the
        shared buffers and cache it; the publisher returns the original
        graph it was constructed from.
        """
        if self._graph is None:
            if self._indptr_shm is None:
                from repro.testing.faults import fault_point

                # Injection point for the resilience suite: a worker
                # losing the attach race surfaces as a transient
                # OSError here, exactly like the real failure mode.
                fault_point("shm_attach", token=self._name)
                self._indptr_shm = _attach_segment(self._indptr_segment)
                self._indices_shm = _attach_segment(self._indices_segment)
            indptr = np.ndarray(
                self._n_indptr, dtype=np.int64, buffer=self._indptr_shm.buf
            )
            indices = np.ndarray(
                self._n_indices, dtype=self._indices_dtype, buffer=self._indices_shm.buf
            )
            self._graph = Graph.adopt_validated_csr(indptr, indices, name=self._name)
        return self._graph

    def unlink(self) -> None:
        """Publisher-side: free the segments (idempotent).

        Attached workers keep their mappings until they drop them; new
        attaches fail afterwards.
        """
        if not self._owner:
            return
        for segment in (self._indptr_shm, self._indices_shm):
            if segment is None:
                continue
            try:
                segment.close()
            except BufferError:  # pragma: no cover - live views in this process
                pass
            try:
                segment.unlink()
            except FileNotFoundError:
                pass
        self._indptr_shm = None
        self._indices_shm = None

    def __enter__(self) -> "SharedGraph":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.unlink()

    def __del__(self) -> None:  # pragma: no cover - shutdown ordering varies
        # Best-effort cleanup: owners free their segments even when
        # ``unlink`` was forgotten; attached workers drop their views
        # before closing so interpreter shutdown stays silent.
        try:
            self._graph = None
            if self._owner:
                self.unlink()
            else:
                for segment in (self._indptr_shm, self._indices_shm):
                    if segment is not None:
                        try:
                            segment.close()
                        except Exception:  # repro: ignore[error-taxonomy] -- best-effort shm detach; teardown must not raise
                            pass
        except Exception:  # repro: ignore[error-taxonomy] -- close() runs from __del__/atexit where raising is forbidden
            pass

    def __repr__(self) -> str:
        role = "publisher" if self._owner else "attached"
        return (
            f"SharedGraph({self._name!r}, segments="
            f"[{self._indptr_segment}, {self._indices_segment}], {role})"
        )


#: Active publication cache of :func:`shared_graph_scope`, or ``None``.
#: Maps ``id(graph)`` to ``(graph, handle)`` — the strong graph
#: reference pins the id so it cannot be recycled by a new object.
_graph_publications: "dict[int, tuple[Graph, SharedGraph]] | None" = None


@contextmanager
def shared_graph_scope() -> "Iterator[None]":
    """Publish each distinct graph at most once for the scope's duration.

    Inside the scope, :func:`acquire_shared_graph` hands out one
    long-lived :class:`SharedGraph` per graph object instead of a fresh
    publication per ensemble call, so an experiment that measures the
    same graph several times (E2's BIPS+COBRA pairs, E9's protocol
    sweep) — or a campaign entry doing so on a spawn platform — pays
    one copy per graph total.  Every cached publication is unlinked
    when the outermost scope exits; nested scopes reuse the outer
    cache.  Without an active scope :func:`acquire_shared_graph`
    degrades to the old publish-per-call behaviour.
    """
    global _graph_publications
    if _graph_publications is not None:  # nested: reuse the outer cache
        yield
        return
    _graph_publications = {}
    try:
        yield
    finally:
        cache, _graph_publications = _graph_publications, None
        for _, handle in cache.values():
            handle.unlink()


def acquire_shared_graph(graph: Graph) -> "tuple[SharedGraph, bool]":
    """A shared-memory handle for ``graph``, cached inside an active scope.

    Returns ``(handle, caller_owns)``: when ``caller_owns`` is True the
    caller must ``unlink()`` the handle after its pooled work (no scope
    was active); when False the handle belongs to the enclosing
    :func:`shared_graph_scope` and must be left alone.
    """
    if _graph_publications is None:
        return SharedGraph(graph), True
    entry = _graph_publications.get(id(graph))
    if entry is not None:
        # The cached strong reference pins id(graph), so a cache hit is
        # always the same object.
        assert entry[0] is graph
        return entry[1], False
    handle = SharedGraph(graph)
    _graph_publications[id(graph)] = (graph, handle)
    return handle, False


def resolve_shared_graph(graph_or_handle: "Graph | SharedGraph") -> Graph:
    """Accept either a plain graph or a shared handle; return the graph.

    Kernels call this on the graph slot of their shipped context so the
    same kernel works with fork-inherited graphs and shared-memory
    handles alike.
    """
    if isinstance(graph_or_handle, SharedGraph):
        return graph_or_handle.graph()
    return graph_or_handle


def map_shards(
    kernel: Callable[..., Any],
    context: Any,
    tasks: Sequence[Sequence[Any]],
    *,
    jobs: int | None = None,
) -> list[Any]:
    """Apply ``kernel(context, *task)`` to every task; results in task order.

    ``kernel`` is a module-level function (workers must import it);
    ``context`` is read-only state shipped once per worker (e.g. the
    graph and process parameters); ``tasks`` holds one argument tuple
    per shard; ``jobs`` follows the module convention.  With one
    worker, a single task, or inside a pool worker, tasks run inline
    in this process — same results.  The first failing task raises its
    own exception here.
    """
    tasks = list(tasks)
    results: list[Any] = [None] * len(tasks)
    for index, result in imap_shards(kernel, context, tasks, jobs=jobs):
        results[index] = result
    return results


def _without_attempt(
    kernel: Callable[..., Any], context: Any, *task_and_attempt: Any
) -> Any:
    """Call a shard kernel, which takes no attempt number, from the executor."""
    return kernel(context, *task_and_attempt[:-1])


def imap_shards(
    kernel: Callable[..., Any],
    context: Any,
    tasks: Sequence[Sequence[Any]],
    *,
    jobs: int | None = None,
) -> Iterator[tuple[int, Any]]:
    """Yield ``(index, result)`` pairs as ``kernel(context, *task)`` completes.

    The streaming form of :func:`map_shards`: :func:`iter_resilient`
    with no retry and no deadline, on a pool whose workers serve many
    tasks.  Pairs arrive in completion order (task order inline); the
    first failed task raises its own exception.  Abandoning the
    iterator early terminates the pool.
    """
    outcomes = iter_resilient(
        functools.partial(_without_attempt, kernel),
        context,
        tasks,
        jobs=jobs,
        isolate=False,
    )
    try:
        for outcome in outcomes:
            if outcome.error is not None:
                raise outcome.error
            yield outcome.index, outcome.value
    finally:
        outcomes.close()


@dataclass
class TaskOutcome:
    """Final fate of one task: a value or an error, plus cost.

    ``attempts`` counts every attempt made (the successful one
    included); ``traceback`` carries the formatted traceback of the
    final failure — the worker-side one when the task died in a pool
    worker (recovered from the pickled exception's remote-traceback
    cause), the local one when it ran inline.
    """

    index: int
    value: Any = None
    error: BaseException | None = None
    attempts: int = 1
    traceback: str | None = None

    @property
    def ok(self) -> bool:
        return self.error is None


def _failure_traceback(error: BaseException) -> str:
    """The most informative traceback text available for ``error``.

    Exceptions re-raised from pool workers arrive with the worker's
    formatted traceback chained on as a ``RemoteTraceback`` cause;
    locally raised ones still own their real traceback.
    """
    cause = getattr(error, "__cause__", None)
    if cause is not None and type(cause).__name__ == "RemoteTraceback":
        return str(cause)
    return "".join(
        traceback_module.format_exception(type(error), error, error.__traceback__)
    )


class _RetrySchedule:
    """Pending attempts with per-attempt not-before times (backoff)."""

    def __init__(self, indices: Sequence[int]) -> None:
        # (ready_at, index, attempt) kept in FIFO order of insertion;
        # the queue is tiny (campaign entries, ensemble shards), so
        # linear scans beat the bookkeeping a heap would need for
        # requeue-at-front.
        self._queue: list[tuple[float, int, int]] = [
            (0.0, index, 1) for index in indices
        ]

    def __len__(self) -> int:
        return len(self._queue)

    def push(self, index: int, attempt: int, ready_at: float) -> None:
        self._queue.append((ready_at, index, attempt))

    def push_front(self, index: int, attempt: int) -> None:
        self._queue.insert(0, (0.0, index, attempt))

    def pop_ready(self, now: float) -> tuple[int, int] | None:
        for position, (ready_at, index, attempt) in enumerate(self._queue):
            if ready_at <= now:
                del self._queue[position]
                return index, attempt
        return None

    def next_ready_at(self) -> float | None:
        if not self._queue:
            return None
        return min(ready_at for ready_at, _, _ in self._queue)


def iter_resilient(
    kernel: Callable[..., Any],
    context: Any,
    tasks: Sequence[Sequence[Any]],
    *,
    jobs: int | None = None,
    isolate: bool = True,
    deadline: float | None = None,
    retry_delay: Callable[[int, int, BaseException], float | None] | None = None,
    on_event: Callable[[str], None] | None = None,
) -> Iterator[TaskOutcome]:
    """Run tasks with retries, deadlines, and pool recycling.

    The executor every pooled call runs on: each task is
    ``kernel(context, *task, attempt)`` (the attempt number is appended
    so kernels can report it), a *raising* task is classified by
    ``retry_delay(index, attempt, error)`` — a float means "retry after
    that backoff", ``None`` means "give up" — and every task produces
    exactly one :class:`TaskOutcome`, yielded in completion order.
    ``isolate`` gives every task a fresh worker process.

    The pool loop keeps every worker busy and then blocks until a task
    reports back (``apply_async`` callbacks feed a queue), the nearest
    deadline passes, or a backed-off retry becomes ready; it never
    polls.  A worker that dies hard loses its task without a report,
    so only a ``deadline`` notices it.

    ``deadline`` (seconds, pooled execution only) is the hung-worker
    watchdog.  An attempt's clock starts at the first worker pickup at
    or after its dispatch, so worker start-up (most of a second per
    fresh spawn worker) never counts and attempts dispatched together
    are timed together.  An attempt whose result has not arrived in
    time is failed with :class:`~repro.errors.EntryDeadlineError` and
    the pool is *recycled* — terminated and rebuilt — because a hung or
    OS-killed worker cannot be reaped individually; innocent in-flight
    attempts are re-dispatched without consuming an attempt.  After
    :data:`MAX_POOL_RESTARTS` consecutive recycles with no completed
    task in between, execution degrades to inline (``jobs=1``-style,
    no deadline) rather than thrashing a pool that keeps dying —
    degraded, not dead.

    Inline execution (one worker, one task, nested in a pool worker,
    an unpicklable kernel on a spawn platform, or post-degradation)
    runs the same retry loop in-process; deadlines cannot be enforced
    there (a hung attempt cannot be preempted) and are ignored.
    """
    tasks = list(tasks)
    if not tasks:
        return
    if deadline is not None and deadline <= 0:
        raise ParallelError(f"deadline must be > 0 seconds, got {deadline}")
    if MAX_POOL_RESTARTS < 0:
        raise ParallelError(
            f"MAX_POOL_RESTARTS must be >= 0, got {MAX_POOL_RESTARTS}"
        )
    n_workers = min(resolve_jobs(jobs), len(tasks))
    schedule = _RetrySchedule(range(len(tasks)))

    def settle_failure(index: int, attempt: int, error: BaseException,
                       tb: str | None) -> TaskOutcome | None:
        """Requeue a failed attempt or close the task out; None = requeued."""
        delay = None
        if retry_delay is not None:
            delay = retry_delay(index, attempt, error)
        if delay is None:
            return TaskOutcome(
                index=index, error=error, attempts=attempt, traceback=tb
            )
        schedule.push(index, attempt + 1, time.monotonic() + float(delay))
        return None

    def run_inline() -> Iterator[TaskOutcome]:
        while schedule:
            now = time.monotonic()
            ready = schedule.pop_ready(now)
            if ready is None:
                # Only backed-off retries are left: wait for the first.
                next_at = schedule.next_ready_at()
                assert next_at is not None
                time.sleep(max(0.0, next_at - now))
                continue
            index, attempt = ready
            try:
                value = kernel(context, *tasks[index], attempt)
            except Exception as error:  # noqa: BLE001 - classified by policy
                outcome = settle_failure(
                    index, attempt, error, _failure_traceback(error)
                )
                if outcome is not None:
                    yield outcome
            else:
                yield TaskOutcome(index=index, value=value, attempts=attempt)

    inline = not will_pool(jobs, len(tasks))
    pool_context = _pool_context()
    if not inline and pool_context.get_start_method() != "fork":
        # Without fork the initializer arguments travel by pickle;
        # closure kernels/contexts (e.g. process factories) cannot, so
        # degrade to inline execution rather than crash — same results,
        # no parallelism.
        try:
            pickle.dumps((kernel, context))
        except Exception:  # repro: ignore[error-taxonomy] -- picklability probe: any failure means degrade to inline
            inline = True
    if inline:
        yield from run_inline()
        return

    # Workers stamp the monotonic clock (system-wide, so comparable
    # across processes) into slot ``index`` when they pick up an
    # attempt of task ``index``; 0.0 means "not picked up yet".
    started_at = pool_context.RawArray("d", len(tasks))

    def make_pool() -> Any:
        return pool_context.Pool(
            processes=n_workers,
            initializer=_initialize_worker,
            initargs=(kernel, context, started_at),
            maxtasksperchild=1 if isolate else None,
        )

    # Every dispatch gets a fresh ticket; its report lands in
    # ``reports`` from the pool's result thread.  A report whose ticket
    # is no longer in flight belongs to a recycled pool and is dropped.
    reports: queue.SimpleQueue[tuple[int, bool, Any]] = queue.SimpleQueue()
    in_flight: dict[int, tuple[int, int, float]] = {}  # ticket -> (index, attempt, dispatched)
    tickets = itertools.count()

    def dispatch(index: int, attempt: int, now: float) -> None:
        ticket = next(tickets)
        in_flight[ticket] = (index, attempt, now)
        started_at[index] = 0.0
        pool.apply_async(
            _run_task,
            (index, tasks[index], attempt),
            callback=lambda value: reports.put((ticket, True, value)),
            error_callback=lambda error: reports.put((ticket, False, error)),
        )

    def clock_start(dispatched: float) -> float | None:
        """First pickup at or after ``dispatched``; None while there is none."""
        pickups = [started_at[index] for index, _, _ in in_flight.values()]
        return min((at for at in pickups if at >= dispatched), default=None)

    def wait_timeout(now: float) -> float | None:
        """Seconds until the nearest deadline or dispatchable retry."""
        wake = []
        if deadline is not None and in_flight:
            # An attempt no worker has picked up cannot expire before
            # ``now + deadline``: look again then.
            starts = [clock_start(dispatched) for _, _, dispatched in in_flight.values()]
            wake.append(min(now if at is None else at for at in starts) + deadline)
        if len(in_flight) < n_workers:
            ready_at = schedule.next_ready_at()
            if ready_at is not None:
                wake.append(ready_at)
        return max(0.0, min(wake) - now) if wake else None

    pool = make_pool()
    restarts_since_success = 0
    try:
        while schedule or in_flight:
            now = time.monotonic()
            # Keep every worker busy with whatever attempts are ready.
            while len(in_flight) < n_workers:
                ready = schedule.pop_ready(now)
                if ready is None:
                    break
                dispatch(*ready, now)

            try:
                ticket, ok, payload = reports.get(timeout=wait_timeout(now))
            except queue.Empty:
                pass
            else:
                claimed = in_flight.pop(ticket, None)
                if claimed is None:
                    continue
                index, attempt, _ = claimed
                if ok:
                    restarts_since_success = 0
                    yield TaskOutcome(index=index, value=payload, attempts=attempt)
                else:
                    outcome = settle_failure(
                        index, attempt, payload, _failure_traceback(payload)
                    )
                    if outcome is not None:
                        yield outcome
                continue

            # Nothing reported before the wake-up: a retry may be ready
            # (the next pass dispatches it) or a deadline has passed.
            if deadline is None:
                continue
            now = time.monotonic()
            expired = []
            for ticket, (_, _, dispatched) in in_flight.items():
                start = clock_start(dispatched)
                if start is not None and now - start >= deadline:
                    expired.append(ticket)
            if not expired:
                continue
            # A hung (or silently killed) worker cannot be reaped on its
            # own: recycle the whole pool and re-dispatch the innocent
            # in-flight attempts at unchanged attempt counts.
            pool.terminate()
            pool.join()
            for ticket in expired:
                index, attempt, _ = in_flight.pop(ticket)
                error = EntryDeadlineError(
                    f"task {index} exceeded its {deadline:g}s deadline "
                    f"on attempt {attempt} (worker hung or died); "
                    "pool recycled"
                )
                outcome = settle_failure(index, attempt, error, None)
                if outcome is not None:
                    yield outcome
            for index, attempt, _ in in_flight.values():
                schedule.push_front(index, attempt)
            in_flight.clear()
            restarts_since_success += 1
            pool = None
            reason = f"worker pool died {restarts_since_success} times in a row"
            if restarts_since_success <= MAX_POOL_RESTARTS:
                try:
                    pool = make_pool()
                except Exception:  # pragma: no cover - pool creation failure  # repro: ignore[error-taxonomy] -- degrade path: failure is reported via on_event and execution continues inline
                    reason = "could not rebuild the worker pool"
            if pool is not None:
                if on_event is not None:
                    on_event("recycled the worker pool after a missed deadline")
                continue
            if on_event is not None:
                on_event(f"{reason}; degrading to in-process execution")
            yield from run_inline()
            return
    finally:
        if pool is not None:
            pool.terminate()
            pool.join()
