"""Make the benchmark's modules and the program importable in its tests.

Run from the repository root:  python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
for entry in (str(ROOT / "src"), str(BENCH)):
    if entry not in sys.path:
        sys.path.insert(0, entry)
