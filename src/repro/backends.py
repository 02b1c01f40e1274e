"""Host-kernel selection for the batch and sparse ensemble engines.

Every ensemble kernel runs on host NumPy arrays; the only choice is
which implementation of the round loop evolves them:

* ``"numpy"`` — the reference kernels in :mod:`repro.core.batch` and
  :mod:`repro.core.sparse` (the default);
* ``"numba"`` — the Numba-JIT shard kernels in
  :mod:`repro.core.compiled` (the ``cobra-repro[numba]`` extra).  They
  consume the host random stream draw for draw like the reference, so
  a fixed seed gives bit-identical results on either spec.

Selection mirrors the ``jobs`` convention in :mod:`repro.parallel`:
the batch and sparse entry points take ``backend=`` (``None`` = the
process-wide default), and the CLI's ``--backend`` sets that default
with :func:`set_default_backend`.  A spec is a plain string, so it
travels to pool workers as is.

Requesting ``"numba"`` without numba installed raises
:class:`~repro.errors.BackendError` naming the install extra, unless
the pure-Python kernel fallback has been opted into with
``REPRO_COMPILED_FALLBACK=1`` (testing only).
"""

from __future__ import annotations

from repro.errors import BackendError

__all__ = [
    "BACKENDS",
    "available_backends",
    "default_backend",
    "resolve_backend",
    "set_default_backend",
]

#: The host-kernel specs, reference first.
BACKENDS = ("numpy", "numba")

#: Spec of the process-wide default.
_default_spec = "numpy"


def resolve_backend(backend: str | None = None) -> str:
    """Validate a ``backend`` argument and return its spec.

    ``None`` resolves to the process-wide default.  ``"numba"`` is
    checked for availability here, so a missing extra fails before any
    shard is seeded.
    """
    spec = _default_spec if backend is None else backend
    if spec not in BACKENDS:
        raise BackendError(f"unknown backend {spec!r}; expected 'numpy' or 'numba'")
    if spec == "numba":
        from repro.core.compiled import compiled_available, missing_numba_message

        if not compiled_available():
            raise BackendError(missing_numba_message())
    return spec


def default_backend() -> str:
    """The spec used when ``backend=None`` is passed (or defaulted)."""
    return _default_spec


def set_default_backend(backend: str) -> str:
    """Validate and install the process-wide default; returns the previous spec.

    The CLI's global ``--backend`` flag calls this once at startup so
    every ensemble an experiment measures inherits the setting, exactly
    like ``--jobs`` and :func:`repro.parallel.set_default_jobs`.
    """
    global _default_spec
    previous = _default_spec
    _default_spec = resolve_backend(backend)
    return previous


def available_backends() -> list[str]:
    """The specs that resolve in this environment.

    Always ``"numpy"``; ``"numba"`` when numba is installed or the
    ``REPRO_COMPILED_FALLBACK=1`` testing opt-in is set.
    """
    from repro.core.compiled import compiled_available

    return ["numpy", "numba"] if compiled_available() else ["numpy"]
