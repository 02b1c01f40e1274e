"""Numba-compiled shard kernels: the CPU fast tier behind ``backend="numba"``.

The dense batch kernels (:mod:`repro.core.batch`) and the sparse
frontier kernels (:mod:`repro.core.sparse`) spend their rounds in a
handful of NumPy calls whose temporaries and per-call overhead dominate
at scale.  This module re-states those round loops as Numba
``@njit(parallel=True, cache=True)`` kernels — one fused pass per round
over the live replica block — and exposes shard functions with the
exact ``map_shards`` signature of the reference kernels, so the batch
and sparse entry points can swap them in per call when ``backend``
resolves to ``"numba"`` (:mod:`repro.backends`).

**The seed contract survives compilation.**  Every random draw still
comes from the host NumPy generator, consumed in the exact order of the
reference kernels:

* On the regular power-of-two-degree fast path (the expander workloads
  and the golden-parity graphs) only the raw 64-bit words of
  :func:`~repro.graphs.base.uniform_draws` are drawn on the host —
  the same ``rng.integers(0, 2**64, ...)`` call, word for word — and
  the deterministic bit-slice expansion moves inside the jitted kernel.
* Everywhere else (non-power-of-two or irregular degrees, implicit
  topologies) the picks are host-sampled through
  :meth:`~repro.graphs.base.Graph.sample_neighbors` exactly as the
  reference kernels do, and the kernels fuse the scatter/gather work.

All per-round reductions are boolean/integer (no float accumulation
order to disturb), so for a fixed seed the compiled shards are
**bit-identical** to the NumPy reference on every path — dense *and*
sparse — at every ``jobs`` count; the parity suite asserts this against
the checked-in goldens.

Numba itself is optional (the ``cobra-repro[numba]`` extra).  When it
is absent the decorators degrade to identity functions and ``prange``
to ``range``, so the kernels run as pure Python: far too slow for real
work, but exactly right for correctness tests on machines without
numba.  That fallback must be opted into via ``REPRO_COMPILED_FALLBACK=1``
— otherwise requesting ``backend="numba"`` raises a clear
:class:`~repro.errors.BackendError` instead of silently running 100×
slower than the NumPy reference.

JIT cost is paid once per machine, not once per worker:
``cache=True`` persists compiled artefacts on disk and
:func:`ensure_warm` (called by the entry points before any pool is
started) compiles every kernel in the parent process, so spawned
``jobs=N`` workers load the on-disk cache instead of recompiling.
"""

from __future__ import annotations

import os
from typing import Any, Callable

import numpy as np

from repro._rng import SeedLike, ensure_generator
from repro.core.batch import _ShardTraceRecorder
from repro.errors import GraphPropertyError

#: Environment variable that opts into running the kernels as pure
#: Python when numba is not installed (testing only; orders of
#: magnitude slower than the NumPy reference engines).
FALLBACK_ENV = "REPRO_COMPILED_FALLBACK"

try:  # pragma: no cover - exercised only where numba is installed
    from numba import njit, prange

    NUMBA_AVAILABLE = True
except ImportError:  # pragma: no cover - the common CI/container case
    NUMBA_AVAILABLE = False

    def njit(*args: Any, **kwargs: Any) -> Callable:
        """Identity decorator standing in for ``numba.njit``."""
        if args and callable(args[0]) and not kwargs:
            return args[0]

        def decorate(function: Callable) -> Callable:
            return function

        return decorate

    prange = range


def fallback_enabled() -> bool:
    """Whether the pure-Python kernel fallback has been opted into."""
    return os.environ.get(FALLBACK_ENV, "") == "1"


def compiled_available() -> bool:
    """Whether the compiled tier can run here (numba or explicit fallback)."""
    return NUMBA_AVAILABLE or fallback_enabled()


def missing_numba_message() -> str:
    """The error text for requesting the compiled tier without numba."""
    return (
        "backend 'numba' requested but numba is not installed; "
        "pip install 'cobra-repro[numba]' to enable the compiled kernel "
        f"tier (or set {FALLBACK_ENV}=1 to run the compiled kernels as "
        "pure Python — testing only, far slower than backend='numpy')"
    )


_EMPTY_INT = np.zeros(0, dtype=np.int64)
_EMPTY_BOOL = np.zeros(0, dtype=np.bool_)


def _sampling_plan(graph) -> tuple[bool, int, int, int, np.ndarray]:
    """Choose the per-shard sampling mode for a dense compiled kernel.

    Returns ``(words_mode, degree, bits, per_word, indices)``.  Words
    mode — host draws only the raw 64-bit words and the kernel
    bit-slices them against the resident CSR ``indices`` — needs a
    materialised regular graph whose degree is a power of two ``>= 2``
    (the expander workloads).  Everything else (irregular, non-power-
    of-two, implicit topologies) host-samples picks through
    ``graph.sample_neighbors`` exactly like the reference kernels.
    """
    degree = graph.regular_degree if graph.is_regular else 0
    if degree >= 2 and degree & (degree - 1) == 0:
        try:
            # Narrow (int32) storage is upcast once per shard.
            indices = np.asarray(graph.indices, dtype=np.int64)
        except GraphPropertyError:
            indices = None  # implicit topology: no CSR to gather from
        if indices is not None:
            bits = degree.bit_length() - 1
            return True, degree, bits, 64 // bits, indices
    return False, 0, 1, 64, _EMPTY_INT


def _draw_words(rng: np.random.Generator, total: int, per_word: int) -> np.ndarray:
    """The raw 64-bit words :func:`uniform_draws` would consume for ``total`` draws."""
    return rng.integers(0, 2**64, size=-(-total // per_word), dtype=np.uint64)


# ----------------------------------------------------------------------
# Dense COBRA round kernels
# ----------------------------------------------------------------------


@njit(cache=True, parallel=True)
def _cobra_round_words(
    next_state,
    covered,
    covered_counts,
    active_counts,
    newly_counts,
    columns,
    row_starts,
    words,
    indices,
    degree,
    bits,
    per_word,
    samples,
    use_branch,
    branch,
    extras,
    live,
):  # pragma: no cover - measured via outputs, not line coverage
    n = next_state.shape[1]
    mask = np.uint64(degree - 1)
    for i in prange(live):
        row = next_state[i]
        for v in range(n):
            row[v] = False
        for p in range(row_starts[i], row_starts[i + 1]):
            base = columns[p] * degree
            first = p * samples
            for j in range(samples):
                t = first + j
                shift = np.uint64((t % per_word) * bits)
                draw = np.int64((words[t // per_word] >> shift) & mask)
                row[indices[base + draw]] = True
            if use_branch and branch[p]:
                row[extras[p]] = True
        cov = covered[i]
        active = 0
        fresh = 0
        for v in range(n):
            if row[v]:
                active += 1
                if not cov[v]:
                    cov[v] = True
                    fresh += 1
        active_counts[i] = active
        newly_counts[i] = fresh
        covered_counts[i] += fresh


@njit(cache=True, parallel=True)
def _cobra_round_picks(
    next_state,
    covered,
    covered_counts,
    active_counts,
    newly_counts,
    row_starts,
    picks,
    use_branch,
    branch,
    extras,
    live,
):  # pragma: no cover
    n = next_state.shape[1]
    samples = picks.shape[1]
    for i in prange(live):
        row = next_state[i]
        for v in range(n):
            row[v] = False
        for p in range(row_starts[i], row_starts[i + 1]):
            for j in range(samples):
                row[picks[p, j]] = True
            if use_branch and branch[p]:
                row[extras[p]] = True
        cov = covered[i]
        active = 0
        fresh = 0
        for v in range(n):
            if row[v]:
                active += 1
                if not cov[v]:
                    cov[v] = True
                    fresh += 1
        active_counts[i] = active
        newly_counts[i] = fresh
        covered_counts[i] += fresh


@njit(cache=True, parallel=True)
def _collect_frontier(state, keep, offsets, out_columns):  # pragma: no cover
    n = state.shape[1]
    for i in prange(keep.size):
        row = state[keep[i]]
        position = offsets[i]
        for v in range(n):
            if row[v]:
                out_columns[position] = v
                position += 1


# ----------------------------------------------------------------------
# Dense BIPS round kernels
# ----------------------------------------------------------------------


@njit(cache=True, parallel=True)
def _bips_round_words(
    infected,
    next_state,
    counts,
    words,
    indices,
    degree,
    bits,
    per_word,
    samples,
    use_coin,
    coin,
    extras,
    source,
    live,
):  # pragma: no cover
    n = infected.shape[1]
    mask = np.uint64(degree - 1)
    for i in prange(live):
        current = infected[i]
        row = next_state[i]
        base_draw = i * n * samples
        infected_count = 0
        for v in range(n):
            hit = False
            first = base_draw + v * samples
            base = v * degree
            for j in range(samples):
                t = first + j
                shift = np.uint64((t % per_word) * bits)
                draw = np.int64((words[t // per_word] >> shift) & mask)
                if current[indices[base + draw]]:
                    hit = True
                    break
            if not hit and use_coin:
                slot = i * n + v
                if coin[slot] and current[extras[slot]]:
                    hit = True
            if v == source:
                hit = True
            row[v] = hit
            if hit:
                infected_count += 1
        counts[i] = infected_count


@njit(cache=True, parallel=True)
def _bips_round_picks(
    infected,
    next_state,
    counts,
    picks,
    use_coin,
    coin,
    extras,
    source,
    live,
):  # pragma: no cover
    n = infected.shape[1]
    samples = picks.shape[1]
    for i in prange(live):
        current = infected[i]
        row = next_state[i]
        infected_count = 0
        for v in range(n):
            slot = i * n + v
            hit = False
            for j in range(samples):
                if current[picks[slot, j]]:
                    hit = True
                    break
            if not hit and use_coin and coin[slot] and current[extras[slot]]:
                hit = True
            if v == source:
                hit = True
            row[v] = hit
            if hit:
                infected_count += 1
        counts[i] = infected_count


# ----------------------------------------------------------------------
# Sparse frontier kernels (serial: bitset words are shared across pairs)
# ----------------------------------------------------------------------


@njit(cache=True)
def _sparse_cobra_update(keys, n, covered, covered_counts):  # pragma: no cover
    keys.sort()
    out_rep = np.empty(keys.size, np.int64)
    out_vtx = np.empty(keys.size, np.int64)
    unique = 0
    fresh = 0
    previous = np.int64(-1)
    for index in range(keys.size):
        key = keys[index]
        if unique > 0 and key == previous:
            continue
        previous = key
        replica = key // n
        vertex = key - replica * n
        out_rep[unique] = replica
        out_vtx[unique] = vertex
        unique += 1
        word = vertex >> 6
        bit = np.uint64(1) << np.uint64(vertex & 63)
        if (covered[replica, word] & bit) == np.uint64(0):
            covered[replica, word] |= bit
            covered_counts[replica] += 1
            fresh += 1
    return out_rep[:unique], out_vtx[:unique], fresh


@njit(cache=True)
def _dedup_keys(keys, n):  # pragma: no cover
    keys.sort()
    out_rep = np.empty(keys.size, np.int64)
    out_vtx = np.empty(keys.size, np.int64)
    unique = 0
    previous = np.int64(-1)
    for index in range(keys.size):
        key = keys[index]
        if unique > 0 and key == previous:
            continue
        previous = key
        replica = key // n
        out_rep[unique] = replica
        out_vtx[unique] = key - replica * n
        unique += 1
    return out_rep[:unique], out_vtx[:unique]


@njit(cache=True)
def _sparse_bips_round(
    armed_rep,
    armed_vtx,
    picks,
    use_coin,
    coin,
    extras,
    old_rep,
    old_vtx,
    live_reps,
    source,
    infected_bits,
):  # pragma: no cover
    armed = armed_rep.size
    samples = picks.shape[1]
    one = np.uint64(1)
    hit = np.zeros(armed, np.bool_)
    for a in range(armed):
        replica = armed_rep[a]
        landed = False
        for j in range(samples):
            pick = picks[a, j]
            if (infected_bits[replica, pick >> 6] & (one << np.uint64(pick & 63))) != 0:
                landed = True
                break
        if not landed and use_coin and coin[a]:
            extra = extras[a]
            if (infected_bits[replica, extra >> 6] & (one << np.uint64(extra & 63))) != 0:
                landed = True
        hit[a] = landed
    # Rebuild the bitset incrementally, exactly like the NumPy sparse
    # kernel: clear the old frontier's bits, then set the new one's.
    for t in range(old_rep.size):
        vertex = old_vtx[t]
        infected_bits[old_rep[t], vertex >> 6] &= ~(one << np.uint64(vertex & 63))
    new_rep = np.empty(armed + live_reps.size, np.int64)
    new_vtx = np.empty(armed + live_reps.size, np.int64)
    size = 0
    for a in range(armed):
        if hit[a] and armed_vtx[a] != source:
            new_rep[size] = armed_rep[a]
            new_vtx[size] = armed_vtx[a]
            size += 1
    for t in range(live_reps.size):
        new_rep[size] = live_reps[t]
        new_vtx[size] = source
        size += 1
    for t in range(size):
        vertex = new_vtx[t]
        infected_bits[new_rep[t], vertex >> 6] |= one << np.uint64(vertex & 63)
    return new_rep[:size], new_vtx[:size]


# ----------------------------------------------------------------------
# Warm-up / compile-cache handling
# ----------------------------------------------------------------------

_warmed = False


def ensure_warm() -> None:
    """Compile (or cache-load) every kernel once, in this process.

    The entry points call this in the parent before starting any worker
    pool: with ``cache=True`` the compiled artefacts land on disk here,
    so spawned workers load them instead of each paying the JIT cost —
    and concurrent workers never race to compile the same signature.
    A no-op without numba (the pure-Python fallback needs no warm-up)
    and after the first call.
    """
    global _warmed
    if _warmed or not NUMBA_AVAILABLE:
        return
    one_bool = np.zeros((1, 2), dtype=np.bool_)
    counts = np.zeros(1, dtype=np.int64)
    scalars = np.zeros(1, dtype=np.int64)
    row_starts = np.asarray([0, 1], dtype=np.int64)
    words = np.zeros(1, dtype=np.uint64)
    indices = np.zeros(4, dtype=np.int64)
    flags = np.zeros(2, dtype=np.bool_)
    slots = np.zeros(2, dtype=np.int64)
    _cobra_round_words(
        one_bool.copy(), one_bool.copy(), counts.copy(), scalars.copy(), scalars.copy(),
        scalars.copy(), row_starts, words, indices, 2, 1, 64, 1,
        True, flags[:1], slots[:1], 1,
    )
    _cobra_round_picks(
        one_bool.copy(), one_bool.copy(), counts.copy(), scalars.copy(), scalars.copy(),
        row_starts, np.zeros((1, 1), dtype=np.int64), True, flags[:1], slots[:1], 1,
    )
    state = one_bool.copy()
    state[0, 0] = True
    _collect_frontier(state, scalars.copy(), row_starts, np.zeros(1, dtype=np.int64))
    _bips_round_words(
        one_bool.copy(), one_bool.copy(), counts.copy(), words, indices, 2, 1, 64, 1,
        True, flags, slots, 0, 1,
    )
    _bips_round_picks(
        one_bool.copy(), one_bool.copy(), counts.copy(), np.zeros((2, 1), dtype=np.int64),
        True, flags, slots, 0, 1,
    )
    bitset = np.zeros((1, 1), dtype=np.uint64)
    _sparse_cobra_update(np.zeros(1, dtype=np.int64), 2, bitset.copy(), counts.copy())
    _dedup_keys(np.zeros(1, dtype=np.int64), 2)
    _sparse_bips_round(
        scalars.copy(), scalars.copy(), np.zeros((1, 1), dtype=np.int64),
        True, flags[:1], slots[:1], scalars.copy(), scalars.copy(), scalars.copy(),
        0, bitset.copy(),
    )
    _warmed = True


# ----------------------------------------------------------------------
# Dense shard functions (``map_shards`` signature, same context tuples
# as the reference kernels in repro.core.batch)
# ----------------------------------------------------------------------


def compiled_cobra_shard(
    context: tuple, start_index: int, stop_index: int, seed: SeedLike
) -> np.ndarray | tuple[np.ndarray, ...]:
    """One shard of COBRA replicas through the compiled round kernels.

    Drop-in replacement for :func:`repro.core.batch._cobra_shard`:
    same context tuple, same host-RNG consumption order, bit-identical
    cover times and traces for a fixed seed.  The live frontier is kept
    as a ``(columns, row_starts)`` pair list instead of a padded bool
    matrix, so host-side sampling cost tracks the active set.
    """
    graph, start, mandatory, rho, max_rounds, include_start_in_cover, record = context
    from repro.parallel import resolve_shared_graph

    graph = resolve_shared_graph(graph)
    n_replicas = stop_index - start_index
    rng = ensure_generator(seed)
    n = graph.n_vertices
    words_mode, degree, bits, per_word, indices = _sampling_plan(graph)

    next_state = np.zeros((n_replicas, n), dtype=np.bool_)
    covered = np.zeros((n_replicas, n), dtype=np.bool_)
    covered_counts = np.zeros(n_replicas, dtype=np.int64)
    if include_start_in_cover:
        covered[:, start] = True
        covered_counts[:] = 1
    active_counts = np.empty(n_replicas, dtype=np.int64)
    newly_counts = np.empty(n_replicas, dtype=np.int64)
    cover_times = np.full(n_replicas, -1, dtype=np.int64)
    replica_ids = np.arange(n_replicas, dtype=np.int64)
    recorder = _ShardTraceRecorder(n_replicas) if record else None

    columns = np.full(n_replicas, start, dtype=np.int64)
    row_starts = np.arange(n_replicas + 1, dtype=np.int64)

    live = n_replicas
    for round_index in range(1, max_rounds + 1):
        if live == 0:
            break
        position_count = columns.size
        picks = _EMPTY_INT
        words = np.zeros(0, dtype=np.uint64)
        if words_mode:
            words = _draw_words(rng, position_count * mandatory, per_word)
        else:
            picks = graph.sample_neighbors(columns, mandatory, rng)
        branch = None
        use_branch = False
        branch_flags = _EMPTY_BOOL
        extras = _EMPTY_INT
        if rho > 0.0:
            branch = rng.random(position_count) < rho
            if branch.any():
                extra = graph.sample_neighbors(columns[branch], 1, rng).reshape(-1)
                extras = np.zeros(position_count, dtype=np.int64)
                extras[branch] = extra
                branch_flags = branch
                use_branch = True
        if words_mode:
            _cobra_round_words(
                next_state, covered, covered_counts, active_counts, newly_counts,
                columns, row_starts, words, indices, degree, bits, per_word,
                mandatory, use_branch, branch_flags, extras, live,
            )
        else:
            _cobra_round_picks(
                next_state, covered, covered_counts, active_counts, newly_counts,
                row_starts, picks, use_branch, branch_flags, extras, live,
            )
        if recorder is not None:
            per_row = np.diff(row_starts)
            transmissions = per_row * mandatory
            if branch is not None:
                rows = np.repeat(np.arange(live, dtype=np.int64), per_row)
                transmissions = transmissions + np.bincount(
                    rows[branch], minlength=live
                )
            recorder.record(
                replica_ids[:live],
                active_counts[:live],
                newly_counts[:live],
                transmissions,
            )
        if int(covered_counts[:live].max()) == n:
            done = covered_counts[:live] == n
            cover_times[replica_ids[:live][done]] = round_index
            keep_rows = np.flatnonzero(~done)
            new_live = keep_rows.size
            covered[:new_live] = covered[keep_rows]
            covered_counts[:new_live] = covered_counts[keep_rows]
            replica_ids[:new_live] = replica_ids[:live][~done]
        else:
            keep_rows = np.arange(live, dtype=np.int64)
            new_live = live
        offsets = np.zeros(new_live + 1, dtype=np.int64)
        np.cumsum(active_counts[keep_rows], out=offsets[1:])
        columns = np.empty(int(offsets[-1]), dtype=np.int64)
        if new_live:
            _collect_frontier(next_state, keep_rows, offsets, columns)
        row_starts = offsets
        live = new_live

    if recorder is None:
        return cover_times
    return recorder.finalize(cover_times)


def compiled_bips_shard(
    context: tuple, start_index: int, stop_index: int, seed: SeedLike
) -> np.ndarray | tuple[np.ndarray, ...]:
    """One shard of BIPS replicas through the compiled round kernels.

    Drop-in replacement for :func:`repro.core.batch._bips_shard` with
    the same context tuple and RNG stream: bit-identical infection
    times and traces for a fixed seed.  The per-round ``(U·n, k)``
    gather/any/scatter pipeline fuses into one pass over each replica
    row.
    """
    graph, source, mandatory, rho, max_rounds, record = context
    from repro.parallel import resolve_shared_graph

    graph = resolve_shared_graph(graph)
    n_replicas = stop_index - start_index
    rng = ensure_generator(seed)
    n = graph.n_vertices
    words_mode, degree, bits, per_word, indices = _sampling_plan(graph)

    infected = np.zeros((n_replicas, n), dtype=np.bool_)
    infected[:, source] = True
    next_state = np.empty((n_replicas, n), dtype=np.bool_)
    counts = np.empty(n_replicas, dtype=np.int64)
    infection_times = np.full(n_replicas, -1, dtype=np.int64)
    replica_ids = np.arange(n_replicas, dtype=np.int64)
    flat_vertices = None if words_mode else np.tile(np.arange(n, dtype=np.int64), n_replicas)
    recorder = _ShardTraceRecorder(n_replicas) if record else None
    if recorder is not None:
        ever_infected = infected.copy()

    live = n_replicas
    for round_index in range(1, max_rounds + 1):
        if live == 0:
            break
        slots = live * n
        picks = _EMPTY_INT
        words = np.zeros(0, dtype=np.uint64)
        if words_mode:
            words = _draw_words(rng, slots * mandatory, per_word)
        else:
            picks = graph.sample_neighbors(flat_vertices[:slots], mandatory, rng)
        use_coin = False
        coin_flags = _EMPTY_BOOL
        extras = _EMPTY_INT
        extra_slots = None
        n_extra = 0
        if rho > 0.0:
            coin = rng.random(slots) < rho
            extra_slots = np.flatnonzero(coin)
            n_extra = extra_slots.size
            if n_extra:
                extra = graph.sample_neighbors(extra_slots % n, 1, rng).reshape(-1)
                extras = np.zeros(slots, dtype=np.int64)
                extras[extra_slots] = extra
                coin_flags = coin
                use_coin = True
        if words_mode:
            _bips_round_words(
                infected, next_state, counts, words, indices, degree, bits,
                per_word, mandatory, use_coin, coin_flags, extras, source, live,
            )
        else:
            _bips_round_picks(
                infected, next_state, counts, picks, use_coin, coin_flags,
                extras, source, live,
            )
        if recorder is not None:
            fresh = next_state[:live] & ~ever_infected[:live]
            fresh_counts = fresh.sum(axis=1)
            ever_infected[:live] |= next_state[:live]
            transmissions = np.full(live, (n - 1) * mandatory, dtype=np.int64)
            if n_extra:
                non_source = (extra_slots % n) != source
                transmissions = transmissions + np.bincount(
                    extra_slots[non_source] // n, minlength=live
                )
            recorder.record(
                replica_ids[:live], counts[:live], fresh_counts, transmissions
            )
        done = counts[:live] == n
        if done.any():
            infection_times[replica_ids[:live][done]] = round_index
            keep_rows = np.flatnonzero(~done)
            new_live = keep_rows.size
            infected[:new_live] = next_state[keep_rows]
            replica_ids[:new_live] = replica_ids[:live][~done]
            if recorder is not None:
                ever_infected[:new_live] = ever_infected[keep_rows]
            live = new_live
        else:
            infected, next_state = next_state, infected

    if recorder is None:
        return infection_times
    return recorder.finalize(infection_times)


# ----------------------------------------------------------------------
# Sparse shard functions (same context tuples as repro.core.sparse)
# ----------------------------------------------------------------------


def compiled_sparse_cobra_shard(
    context: tuple, start_index: int, stop_index: int, seed: SeedLike
) -> np.ndarray:
    """Sparse-frontier COBRA shard with compiled coalescing and bitsets.

    Mirrors :func:`repro.core.sparse._sparse_cobra_shard` draw for draw
    (host sampling on the frontier, ascending dedup order), replacing
    the ``np.unique`` / fancy-gather / ``bitwise_or.at`` pipeline with
    one compiled sort-dedup-test-scatter pass — bit-identical cover
    times for a fixed seed.
    """
    graph, start, mandatory, rho, max_rounds, include_start_in_cover = context
    from repro.parallel import resolve_shared_graph

    graph = resolve_shared_graph(graph)
    n_replicas = stop_index - start_index
    rng = ensure_generator(seed)
    n = graph.n_vertices
    n_words = (n + 63) // 64

    covered = np.zeros((n_replicas, n_words), dtype=np.uint64)
    covered_counts = np.zeros(n_replicas, dtype=np.int64)
    cover_times = np.full(n_replicas, -1, dtype=np.int64)
    if include_start_in_cover:
        covered[:, start >> 6] |= np.uint64(1) << np.uint64(start & 63)
        covered_counts[:] = 1

    rep = np.arange(n_replicas, dtype=np.int64)
    vtx = np.full(n_replicas, start, dtype=np.int64)

    for round_index in range(1, max_rounds + 1):
        if rep.size == 0:
            break
        picks = graph.sample_neighbors(vtx, mandatory, rng)
        new_rep = np.repeat(rep, mandatory)
        new_vtx = picks.reshape(-1)
        if rho > 0.0:
            branch = rng.random(vtx.size) < rho
            if branch.any():
                extra = graph.sample_neighbors(vtx[branch], 1, rng).reshape(-1)
                new_rep = np.concatenate([new_rep, rep[branch]])
                new_vtx = np.concatenate([new_vtx, extra])
        keys = new_rep * n + new_vtx
        rep, vtx, n_fresh = _sparse_cobra_update(keys, n, covered, covered_counts)
        if n_fresh:
            finished = covered_counts == n
            if finished.any():
                newly_done = finished & (cover_times < 0)
                cover_times[newly_done] = round_index
                keep = cover_times[rep] < 0
                rep = rep[keep]
                vtx = vtx[keep]
    return cover_times


def compiled_sparse_bips_shard(
    context: tuple, start_index: int, stop_index: int, seed: SeedLike
) -> np.ndarray:
    """Sparse-frontier BIPS shard with compiled bitset tests and rebuild.

    Mirrors :func:`repro.core.sparse._sparse_bips_shard` draw for draw:
    the armed-set expansion and all sampling stay on the host, while
    key dedup, the per-pick bitset hit tests, and the incremental
    bitset rebuild run compiled — bit-identical infection times for a
    fixed seed.
    """
    graph, source, mandatory, rho, max_rounds = context
    from repro.parallel import resolve_shared_graph

    graph = resolve_shared_graph(graph)
    n_replicas = stop_index - start_index
    rng = ensure_generator(seed)
    n = graph.n_vertices
    n_words = (n + 63) // 64

    infected_bits = np.zeros((n_replicas, n_words), dtype=np.uint64)
    infection_times = np.full(n_replicas, -1, dtype=np.int64)
    infected_bits[:, source >> 6] |= np.uint64(1) << np.uint64(source & 63)

    rep = np.arange(n_replicas, dtype=np.int64)
    vtx = np.full(n_replicas, source, dtype=np.int64)

    for round_index in range(1, max_rounds + 1):
        if rep.size == 0:
            break
        neighbor_counts, flat = graph.neighborhoods(vtx)
        candidate_rep = np.concatenate([rep, np.repeat(rep, neighbor_counts)])
        candidate_vtx = np.concatenate([vtx, flat])
        armed_rep, armed_vtx = _dedup_keys(candidate_rep * n + candidate_vtx, n)

        picks = graph.sample_neighbors(armed_vtx, mandatory, rng)
        use_coin = False
        coin_flags = _EMPTY_BOOL
        extras = _EMPTY_INT
        if rho > 0.0:
            coin = rng.random(armed_vtx.size) < rho
            if coin.any():
                extra = graph.sample_neighbors(armed_vtx[coin], 1, rng).reshape(-1)
                extras = np.zeros(armed_vtx.size, dtype=np.int64)
                extras[coin] = extra
                coin_flags = coin
                use_coin = True
        live_reps = np.unique(rep)
        rep, vtx = _sparse_bips_round(
            armed_rep, armed_vtx, picks, use_coin, coin_flags, extras,
            rep, vtx, live_reps, source, infected_bits,
        )
        infected_counts = np.bincount(rep, minlength=n_replicas)
        finished = infected_counts == n
        if finished.any():
            infection_times[finished & (infection_times < 0)] = round_index
            keep = infection_times[rep] < 0
            rep = rep[keep]
            vtx = vtx[keep]
    return infection_times
