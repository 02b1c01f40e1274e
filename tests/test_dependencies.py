"""Every third-party module ``src/repro`` imports is a declared dependency."""

from __future__ import annotations

import ast
import re
import sys
from pathlib import Path

import pytest

try:
    import tomllib
except ModuleNotFoundError:  # Python 3.10
    tomllib = pytest.importorskip("tomli")

ROOT = Path(__file__).resolve().parent.parent


def _imported_top_level_modules() -> set[str]:
    modules = set()
    for path in (ROOT / "src" / "repro").rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                modules.update(alias.name.partition(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
                modules.add(node.module.partition(".")[0])
    return modules


def _declared_modules() -> set[str]:
    """Module names of ``dependencies`` plus every extra but ``dev``."""
    project = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))["project"]
    requirements = list(project["dependencies"])
    for extra, entries in project.get("optional-dependencies", {}).items():
        if extra != "dev":
            requirements.extend(entries)
    return {
        re.match(r"[A-Za-z0-9_.-]+", requirement).group(0).lower().replace("-", "_")
        for requirement in requirements
    }


def test_third_party_imports_are_declared():
    third_party = {
        module
        for module in _imported_top_level_modules()
        if module not in sys.stdlib_module_names and module != "repro"
    }
    assert third_party >= {"numpy", "scipy", "networkx"}
    assert sorted(third_party - _declared_modules()) == []
