"""Put the benchmark's modules and the program source on ``sys.path``.

This directory must not share a name with a top-level directory of the
repository (``tests``, ``benchmarks``): ``spiderbench/`` goes on the path, so
a same-named directory here would shadow that namespace package.
"""

from __future__ import annotations

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
for path in (HERE.parents[1] / "src", HERE.parent):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))
