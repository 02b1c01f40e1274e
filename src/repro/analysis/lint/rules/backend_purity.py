"""``backend-purity``: compiled kernels stay within the shared numpy vocabulary.

A function decorated ``@njit`` (the Numba kernels in
:mod:`repro.core.compiled`) may touch numpy only through a small
allowlist of numba-supported constructors and dtypes, and may never
reach ``np.random`` — randomness is host-drawn by the seed contract,
and a generator inside a jitted kernel would be numba's own stream,
silently breaking bit-identity with the reference kernels.  Anything
outside the allowlist is flagged even when numba would accept it at
compile time: the pure-Python fallback runs the same source, so the
kernels must stay within the vocabulary both implementations support
bit-identically.
"""

from __future__ import annotations

import ast
from typing import ClassVar, Iterator

from repro.analysis.lint.engine import FileContext, Finding, Rule

#: Decorator names that mark a function as a compiled (Numba) kernel.
_NJIT_DECORATORS = frozenset({"njit", "jit"})

#: Numpy attributes allowed inside ``@njit`` kernels: constructors and
#: dtype names numba supports in nopython mode *and* that behave
#: identically under the pure-Python fallback.  Gathers, reductions,
#: sorting, and randomness stay out — jitted kernels do that work with
#: explicit loops (that is their whole point), and ``np.random`` would
#: bypass the host-drawn seed contract entirely.
_NJIT_NUMPY_ALLOWED = frozenset(
    {
        "arange",
        "bool_",
        "empty",
        "empty_like",
        "float64",
        "full",
        "int32",
        "int64",
        "intp",
        "uint64",
        "zeros",
        "zeros_like",
    }
)


def _is_njit_decorated(node: ast.FunctionDef | ast.AsyncFunctionDef) -> bool:
    """Whether a function carries ``@njit`` / ``@numba.njit`` (any call form)."""
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        if isinstance(target, ast.Name) and target.id in _NJIT_DECORATORS:
            return True
        if isinstance(target, ast.Attribute) and target.attr in _NJIT_DECORATORS:
            return True
    return False


class BackendPurityRule(Rule):
    id = "backend-purity"
    title = "@njit kernels restricted to numba-supported numpy, no np.random"
    NODE_TYPES: ClassVar[tuple[type, ...]] = ()

    def check_module(self, ctx: FileContext) -> Iterator[Finding]:
        numpy_names = frozenset(
            local
            for local, origin in ctx.imports.items()
            if origin == "numpy" or origin.startswith("numpy.")
        ) or frozenset({"np"})
        # Every @njit function in the module, round kernels and serial
        # helpers alike.
        for node in ast.walk(ctx.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if _is_njit_decorated(node):
                    yield from self._check_njit_body(node, ctx, numpy_names)

    def _check_njit_body(
        self,
        function: ast.FunctionDef | ast.AsyncFunctionDef,
        ctx: FileContext,
        numpy_names: frozenset[str],
    ) -> Iterator[Finding]:
        for node in ast.walk(function):
            if not isinstance(node, ast.Attribute):
                continue
            value = node.value
            if not isinstance(value, ast.Name) or value.id not in numpy_names:
                continue
            if node.attr == "random":
                yield self.finding(
                    ctx,
                    node,
                    f"@njit kernel {function.name} reaches numpy randomness; "
                    "all draws are host-side by the seed contract — a "
                    "generator inside a jitted kernel is numba's own stream "
                    "and silently breaks bit-identity with the reference",
                    hint="draw on the host and pass the words/picks arrays in",
                )
            elif node.attr not in _NJIT_NUMPY_ALLOWED:
                yield self.finding(
                    ctx,
                    node,
                    f"@njit kernel {function.name} calls np.{node.attr}, "
                    "outside the numba-supported kernel allowlist; use an "
                    "explicit loop (or extend _NJIT_NUMPY_ALLOWED if the op "
                    "is supported bit-identically by numba and the fallback)",
                )
