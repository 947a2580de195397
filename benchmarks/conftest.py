"""Shared infrastructure for the benchmark harness.

Each benchmark module regenerates one table or figure of the paper.  The
runs are scaled down (graph sizes, numbers of sweep points) so the whole
harness finishes in minutes on a laptop, but every module exposes its
parameters at the top so the paper's full scale can be requested.

Benchmarks print the regenerated rows/series to stdout (run pytest with
``-s`` to see them) and write JSON records under ``benchmarks/.results/``.
That directory is git-ignored, so a test run never rewrites tracked files;
``benchmarks/results/`` holds the committed snapshot of those records.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

RESULTS_DIR = Path(__file__).resolve().parent / ".results"


@pytest.fixture(scope="session")
def results_dir() -> Path:
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    return RESULTS_DIR


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "figure(name): marks a benchmark as regenerating a specific paper figure/table"
    )
