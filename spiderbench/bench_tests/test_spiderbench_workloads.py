"""Every workload's path end to end, at tiny sizes, traced and untraced."""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import pipeline
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parents[2]
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())


def tiny(name):
    w = WORKLOADS[name]
    return replace(w, vertices=50, large_vertices=8, graph_seeds=w.graph_seeds[:2],
                   low_rps=20.0, high_rps=40.0, top_rps=60.0)


@pytest.fixture(autouse=True)
def small_run(monkeypatch):
    monkeypatch.setattr(pipeline, "SETUP_REPS", 2)
    monkeypatch.setattr(pipeline, "WARM_READS", 6)
    monkeypatch.setattr(pipeline, "POOL_SIZE", 40)


def run(name, tmp_path, trace, seed=1):
    return pipeline.run(tiny(name), seed, 0.6, trace, tmp_path, ROOT / "src", workers=2)


def assert_reports(record, kind):
    assert record["failed"] == 0, record["notes"]
    table = record["per_layer" if kind == "per_layer" else "end_to_end"]
    for metric in DECLARED[kind]:
        value, unit = table[metric["name"]]
        assert unit == metric["unit"] and math.isfinite(value), metric["name"]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_untraced_run_reports_every_end_to_end_metric(name, tmp_path):
    record = run(name, tmp_path, trace=False)
    assert_reports(record, "end_to_end")
    assert record["end_to_end"]["failed_ratio"][0] == 0
    assert not any(tmp_path.glob("run-*")), "run directory left behind"


def test_traced_runs_repeat_call_counts_and_keep_the_digest(tmp_path):
    first = run("fig13-powerlaw", tmp_path, trace=True)
    second = run("fig13-powerlaw", tmp_path, trace=True)
    for record in (first, second):
        assert_reports(record, "per_layer")
        assert record["traced_code_digest"] == record["code_digest"]
    counts = {k: v for k, v in first["per_layer"].items() if k.endswith(".calls")}
    assert counts == {k: second["per_layer"][k] for k in counts}
    assert counts["canonical.code.calls"][0] > 0


def test_run_fails_without_the_program(tmp_path):
    shutil.copytree(ROOT / "spiderbench", tmp_path / "spiderbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    done = subprocess.run(
        [sys.executable, "spiderbench/run.py", "--workload", "fig11-random", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
