"""reprolint — the AST invariant checker (repro.lint).

Every rule is exercised three ways: a fixture that must fire, a fixture that
must stay silent, and the real tree (``repro lint src/`` must be clean — the
merge gate).  Fixtures go through :meth:`Project.from_sources`, which is the
same code path the CLI uses after loading, so the tests and the gate cannot
drift apart.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.lint import (
    Diagnostic,
    LintConfig,
    Project,
    all_rules,
    get_rule,
    lint_project,
    run_lint,
)
from repro.lint.reporters import render_json, render_text

REPO_ROOT = Path(__file__).resolve().parents[1]
SRC = REPO_ROOT / "src"


def check(sources, select=(), ignore=()):
    """Lint a ``{qualpath: source}`` fixture tree and return diagnostics."""
    project = Project.from_sources(sources)
    return lint_project(project, LintConfig.from_options(select=select, ignore=ignore))


def codes(diagnostics):
    return [d.code for d in diagnostics]


# --------------------------------------------------------------------------- #
# the framework
# --------------------------------------------------------------------------- #
class TestFramework:
    def test_all_rules_registered_with_unique_codes(self):
        rules = all_rules()
        assert [r.code for r in rules] == sorted(r.code for r in rules)
        assert len({r.code for r in rules}) == len(rules) == 6
        assert {r.code for r in rules} == {
            "CACHE001", "DET001", "DET002", "KERN001", "LOCK001", "OBS001",
        }

    def test_get_rule(self):
        assert get_rule("DET001").code == "DET001"
        assert get_rule("det001").code == "DET001"
        assert get_rule("NOPE001") is None

    def test_diagnostics_sort_and_render(self):
        a = Diagnostic(path="a.py", line=2, column=0, code="DET001", message="x")
        b = Diagnostic(path="a.py", line=1, column=0, code="DET002", message="y")
        assert sorted([a, b]) == [b, a]
        assert str(a) == "a.py:2:0: DET001 x"

    def test_parse_failure_becomes_lint001(self, tmp_path):
        bad = tmp_path / "repro" / "broken.py"
        bad.parent.mkdir()
        bad.write_text("def f(:\n")
        project = Project.load([bad.parent])
        diagnostics = lint_project(project, LintConfig())
        assert codes(diagnostics) == ["LINT001"]

    def test_select_and_ignore_filtering(self):
        sources = {
            "repro/core/foo.py": "import time\n\n\ndef f():\n    return time.time()\n",
            "repro/graph/canonical.py": (
                "def g(xs):\n    for x in set(xs):\n        print(x)\n"
            ),
        }
        assert set(codes(check(sources))) == {"DET001", "DET002"}
        assert codes(check(sources, select=("DET002",))) == ["DET002"]
        # Prefix selection takes the whole family; ignore prunes after.
        assert set(codes(check(sources, select=("DET",)))) == {"DET001", "DET002"}
        assert codes(check(sources, select=("DET",), ignore=("DET001",))) == ["DET002"]

    def test_unknown_selector_is_an_error(self):
        with pytest.raises(ValueError, match="matches no registered rule"):
            check({}, select=("BOGUS",))

    def test_inline_suppression_same_line(self):
        sources = {
            "repro/core/foo.py": (
                "import time\n\n\ndef f():\n"
                "    return time.time()  # reprolint: disable=DET002\n"
            ),
        }
        assert check(sources) == []

    def test_standalone_suppression_covers_next_line(self):
        sources = {
            "repro/core/foo.py": (
                "import time\n\n\ndef f():\n"
                "    # reprolint: disable=DET002\n"
                "    return time.time()\n"
            ),
        }
        assert check(sources) == []

    def test_suppression_is_code_specific(self):
        sources = {
            "repro/core/foo.py": (
                "import time\n\n\ndef f():\n"
                "    return time.time()  # reprolint: disable=DET001\n"
            ),
        }
        assert codes(check(sources)) == ["DET002"]

    def test_disable_all_suppresses_everything(self):
        sources = {
            "repro/core/foo.py": (
                "import time\n\n\ndef f():\n"
                "    return time.time()  # reprolint: disable=all\n"
            ),
        }
        assert check(sources) == []


# --------------------------------------------------------------------------- #
# DET001 — unordered iteration on the determinism surface
# --------------------------------------------------------------------------- #
class TestDet001:
    def test_for_loop_over_set_fires(self):
        sources = {
            "repro/graph/canonical.py": (
                "def f(xs):\n"
                "    s = set(xs)\n"
                "    for x in s:\n"
                "        print(x)\n"
            ),
        }
        found = check(sources, select=("DET001",))
        assert codes(found) == ["DET001"]
        assert found[0].line == 3

    def test_sorted_wrapper_is_silent(self):
        sources = {
            "repro/graph/canonical.py": (
                "def f(xs):\n"
                "    for x in sorted(set(xs)):\n"
                "        print(x)\n"
            ),
        }
        assert check(sources, select=("DET001",)) == []

    def test_neighbors_method_counts_as_set(self):
        sources = {
            "repro/parallel/driver.py": (
                "def f(graph, v):\n"
                "    out = []\n"
                "    for w in graph.neighbors(v):\n"
                "        out.append(w)\n"
                "    return out\n"
            ),
        }
        assert codes(check(sources, select=("DET001",))) == ["DET001"]

    def test_order_insensitive_consumer_is_silent(self):
        sources = {
            "repro/graph/canonical.py": (
                "def f(graph, v):\n"
                "    total = sum(1 for w in graph.neighbors(v))\n"
                "    biggest = max(graph.neighbors(v))\n"
                "    return total, biggest\n"
            ),
        }
        assert check(sources, select=("DET001",)) == []

    def test_comprehension_into_list_fires(self):
        sources = {
            "repro/catalog/formats.py": (
                "def f(xs):\n"
                "    s = frozenset(xs)\n"
                "    return [x for x in s]\n"
            ),
        }
        assert codes(check(sources, select=("DET001",))) == ["DET001"]

    def test_off_surface_module_is_out_of_scope(self):
        sources = {
            "repro/catalog/server.py": (
                "def f(xs):\n"
                "    for x in set(xs):\n"
                "        print(x)\n"
            ),
        }
        assert check(sources, select=("DET001",)) == []

    def test_dict_iteration_is_not_flagged(self):
        # Insertion-ordered dicts ARE the determinism contract (formats.py).
        sources = {
            "repro/graph/canonical.py": (
                "def f(d):\n"
                "    for k in d:\n"
                "        print(k)\n"
            ),
        }
        assert check(sources, select=("DET001",)) == []


# --------------------------------------------------------------------------- #
# DET002 — nondeterminism sources in result-affecting modules
# --------------------------------------------------------------------------- #
class TestDet002:
    @pytest.mark.parametrize(
        "snippet",
        [
            "import time\n\n\ndef f():\n    return time.time()\n",
            "import os\n\n\ndef f():\n    return os.urandom(8)\n",
            "from datetime import datetime\n\n\ndef f():\n    return datetime.now()\n",
            "import uuid\n\n\ndef f():\n    return uuid.uuid4()\n",
            "import random\n\n\ndef f():\n    return random.random()\n",
            "def f(key):\n    return hash(key)\n",
            "def f(obj):\n    return id(obj)\n",
        ],
    )
    def test_banned_source_fires(self, snippet):
        assert codes(
            check({"repro/core/foo.py": snippet}, select=("DET002",))
        ) == ["DET002"]

    @pytest.mark.parametrize(
        "snippet",
        [
            # Monotonic timers feed digest-stripped runtime fields.
            "import time\n\n\ndef f():\n    return time.monotonic()\n",
            "import time\n\n\ndef f():\n    return time.perf_counter()\n",
            # A seeded RNG is the paper's own reproducible draw.
            "import random\n\n\ndef f(seed):\n    return random.Random(seed)\n",
        ],
    )
    def test_deterministic_alternatives_are_silent(self, snippet):
        assert check({"repro/core/foo.py": snippet}, select=("DET002",)) == []

    def test_result_neutral_layers_are_out_of_scope(self):
        snippet = "import time\n\n\ndef f():\n    return time.time()\n"
        for qualpath in ("repro/catalog/server.py", "repro/obs/metrics.py"):
            assert check({qualpath: snippet}, select=("DET002",)) == []


# --------------------------------------------------------------------------- #
# CACHE001 — the config-field cache-key partition
# --------------------------------------------------------------------------- #
CONFIG_SRC = """\
from dataclasses import dataclass


@dataclass
class SpiderMineConfig:
    min_support: int = 2
    k: int = 10
    execution: object = None
"""

GOOD_FORMATS_SRC = """\
_RESULT_NEUTRAL_CONFIG_FIELDS = frozenset({"execution"})
STAGE1_CONFIG_FIELDS = frozenset({"min_support"})
STAGE2_ONLY_CONFIG_FIELDS = frozenset({"k"})
"""


class TestCache001:
    def fixture(self, formats_src, config_src=CONFIG_SRC):
        return check(
            {
                "repro/core/config.py": config_src,
                "repro/catalog/formats.py": formats_src,
            },
            select=("CACHE001",),
        )

    def test_total_disjoint_partition_is_silent(self):
        assert self.fixture(GOOD_FORMATS_SRC) == []

    def test_unclassified_field_fires_at_the_field(self):
        config = CONFIG_SRC.replace(
            "    k: int = 10\n", "    k: int = 10\n    radius: int = 1\n"
        )
        found = self.fixture(GOOD_FORMATS_SRC, config_src=config)
        assert codes(found) == ["CACHE001"]
        assert found[0].path == "repro/core/config.py"
        assert "radius" in found[0].message

    def test_doubly_classified_field_fires(self):
        formats = GOOD_FORMATS_SRC.replace(
            'STAGE2_ONLY_CONFIG_FIELDS = frozenset({"k"})',
            'STAGE2_ONLY_CONFIG_FIELDS = frozenset({"k", "min_support"})',
        )
        found = self.fixture(formats)
        assert codes(found) == ["CACHE001"]
        assert "2 partitions" in found[0].message

    def test_stale_entry_fires_at_the_set(self):
        formats = GOOD_FORMATS_SRC.replace(
            'STAGE2_ONLY_CONFIG_FIELDS = frozenset({"k"})',
            'STAGE2_ONLY_CONFIG_FIELDS = frozenset({"k", "ghost"})',
        )
        found = self.fixture(formats)
        assert codes(found) == ["CACHE001"]
        assert found[0].path == "repro/catalog/formats.py"
        assert "ghost" in found[0].message

    def test_missing_partition_set_fires(self):
        formats = GOOD_FORMATS_SRC.replace(
            'STAGE1_CONFIG_FIELDS = frozenset({"min_support"})\n', ""
        )
        found = self.fixture(formats)
        assert any("STAGE1_CONFIG_FIELDS" in d.message for d in found)

    def test_subset_without_both_modules_is_silent(self):
        # Linting only one side of the contract proves nothing either way.
        assert check(
            {"repro/core/config.py": CONFIG_SRC}, select=("CACHE001",)
        ) == []

    def test_real_tree_partition_is_total(self):
        project = Project.load(
            [SRC / "repro" / "core" / "config.py",
             SRC / "repro" / "catalog" / "formats.py"]
        )
        found = lint_project(project, LintConfig(select=("CACHE001",)))
        assert found == [], "\n".join(str(d) for d in found)


# --------------------------------------------------------------------------- #
# OBS001 — telemetry neutrality
# --------------------------------------------------------------------------- #
class TestObs001:
    def test_obs_importing_config_fires(self):
        sources = {
            "repro/obs/bad.py": "from repro.core.config import SpiderMineConfig\n",
        }
        assert codes(check(sources, select=("OBS001",))) == ["OBS001"]

    def test_obs_referencing_config_class_fires(self):
        sources = {
            "repro/obs/bad.py": (
                "import repro.core as core\n\n\ndef f():\n"
                "    return core.SpiderMineConfig\n"
            ),
        }
        assert "OBS001" in codes(check(sources, select=("OBS001",)))

    def test_unguarded_registry_call_fires(self):
        sources = {
            "repro/patterns/hot.py": (
                "from repro.obs import get_registry\n\n\ndef f():\n"
                "    registry = get_registry()\n"
                "    registry.counter('x')\n"
            ),
        }
        found = check(sources, select=("OBS001",))
        assert codes(found) == ["OBS001"]
        assert "enabled" in found[0].message

    def test_enabled_guard_is_silent(self):
        sources = {
            "repro/patterns/hot.py": (
                "from repro.obs import get_registry\n\n\ndef f():\n"
                "    registry = get_registry()\n"
                "    if registry.enabled:\n"
                "        registry.counter('x')\n"
            ),
        }
        assert check(sources, select=("OBS001",)) == []

    def test_early_return_guard_is_silent(self):
        sources = {
            "repro/patterns/hot.py": (
                "from repro.obs import get_registry\n\n\ndef f():\n"
                "    registry = get_registry()\n"
                "    if not registry.enabled:\n"
                "        return\n"
                "    registry.counter('x')\n"
            ),
        }
        assert check(sources, select=("OBS001",)) == []


# --------------------------------------------------------------------------- #
# LOCK001 — lock discipline
# --------------------------------------------------------------------------- #
LOCKED_CLASS = """\
import threading


class Registry:
    def __init__(self):
        self._lock = threading.Lock()
        self.counters = {}

    def bump(self, key):
        with self._lock:
            self.counters[key] = self.counters.get(key, 0) + 1
"""


def locked_class(extra=""):
    return LOCKED_CLASS + extra


class TestLock001:
    def test_unlocked_mutation_of_lock_owned_attr_fires(self):
        extra = (
            "\n    def reset(self, key):\n"
            "        self.counters[key] = 0\n"
        )
        sources = {"repro/obs/reg.py": locked_class(extra)}
        found = check(sources, select=("LOCK001",))
        assert codes(found) == ["LOCK001"]
        assert "counters" in found[0].message

    def test_locked_mutation_is_silent(self):
        extra = (
            "\n    def reset(self, key):\n"
            "        with self._lock:\n"
            "            self.counters[key] = 0\n"
        )
        sources = {"repro/obs/reg.py": locked_class(extra)}
        assert check(sources, select=("LOCK001",)) == []

    def test_init_is_exempt(self):
        # Construction happens-before sharing; __init__ writes are legal.
        sources = {"repro/obs/reg.py": locked_class()}
        assert check(sources, select=("LOCK001",)) == []

    def test_blocking_call_under_lock_fires(self):
        extra = (
            "\n    def dump(self, path):\n"
            "        with self._lock:\n"
            "            open(path)\n"
        )
        sources = {"repro/obs/reg.py": locked_class(extra)}
        found = check(sources, select=("LOCK001",))
        assert codes(found) == ["LOCK001"]
        assert "blocking" in found[0].message

    def test_blocking_call_outside_lock_is_silent(self):
        extra = (
            "\n    def dump(self, path):\n"
            "        with self._lock:\n"
            "            snapshot = dict(self.counters)\n"
            "        open(path)\n"
            "        return snapshot\n"
        )
        sources = {"repro/obs/reg.py": locked_class(extra)}
        assert check(sources, select=("LOCK001",)) == []

    def test_lockless_class_is_out_of_scope(self):
        sources = {
            "repro/obs/reg.py": (
                "class Plain:\n"
                "    def __init__(self):\n"
                "        self.counters = {}\n\n"
                "    def bump(self, key):\n"
                "        self.counters[key] = 1\n"
            ),
        }
        assert check(sources, select=("LOCK001",)) == []


# --------------------------------------------------------------------------- #
# KERN001 — numpy confinement
# --------------------------------------------------------------------------- #
KERNELS_STUB = """\
def ac_filter(a):
    return a
"""


class TestKern001:
    def test_numpy_import_outside_kernels_fires(self):
        sources = {
            "repro/graph/kernels.py": "import numpy\n" + KERNELS_STUB,
            "repro/patterns/overlap.py": "import numpy as np\n",
        }
        found = check(sources, select=("KERN001",))
        assert codes(found) == ["KERN001"]
        assert found[0].path == "repro/patterns/overlap.py"

    def test_numpy_import_inside_kernels_is_silent(self):
        sources = {"repro/graph/kernels.py": "import numpy\n" + KERNELS_STUB}
        assert check(sources, select=("KERN001",)) == []


# --------------------------------------------------------------------------- #
# reporters and the CLI
# --------------------------------------------------------------------------- #
class TestReporting:
    FINDINGS = [
        Diagnostic(path="a.py", line=1, column=0, code="DET001", message="m1"),
        Diagnostic(path="a.py", line=2, column=4, code="DET002", message="m2"),
    ]

    def test_text_report_shape(self):
        text = render_text(self.FINDINGS, files_scanned=3)
        assert text.splitlines() == [
            "a.py:1:0: DET001 m1",
            "a.py:2:4: DET002 m2",
            "reprolint: 2 finding(s) in 3 file(s) (DET001 x1, DET002 x1)",
        ]
        assert render_text([], 3) == "reprolint: clean (3 file(s) checked)"

    def test_json_report_shape_is_stable(self):
        payload = json.loads(render_json(self.FINDINGS, files_scanned=3))
        assert payload == {
            "version": 1,
            "files_scanned": 3,
            "counts": {"DET001": 1, "DET002": 1},
            "diagnostics": [
                {"path": "a.py", "line": 1, "column": 0,
                 "code": "DET001", "message": "m1"},
                {"path": "a.py", "line": 2, "column": 4,
                 "code": "DET002", "message": "m2"},
            ],
        }
        # Byte-stable across renders: CI diffs the artifact between builds.
        assert render_json(self.FINDINGS, 3) == render_json(self.FINDINGS, 3)


class TestCli:
    def run_cli(self, *argv):
        return subprocess.run(
            [sys.executable, "-m", "repro.cli", "lint", *argv],
            capture_output=True, text=True, cwd=REPO_ROOT,
            env={"PYTHONPATH": str(SRC), "PATH": "/usr/bin:/bin"},
        )

    def test_clean_tree_exits_zero(self):
        result = self.run_cli("src/")
        assert result.returncode == 0, result.stdout + result.stderr
        assert "reprolint: clean" in result.stdout

    def test_violation_exits_one(self, tmp_path):
        bad = tmp_path / "repro" / "core" / "bad.py"
        bad.parent.mkdir(parents=True)
        bad.write_text("import time\n\n\ndef f():\n    return time.time()\n")
        result = self.run_cli(str(bad))
        assert result.returncode == 1
        assert "DET002" in result.stdout

    def test_unknown_selector_exits_two(self):
        result = self.run_cli("src/", "--select", "BOGUS")
        assert result.returncode == 2
        assert "matches no registered rule" in result.stderr

    def test_missing_path_exits_two(self):
        result = self.run_cli("definitely/not/here")
        assert result.returncode == 2

    def test_json_flag_emits_the_stable_shape(self, tmp_path):
        bad = tmp_path / "repro" / "core" / "bad.py"
        bad.parent.mkdir(parents=True)
        bad.write_text("def f(obj):\n    return id(obj)\n")
        result = self.run_cli(str(bad), "--json")
        payload = json.loads(result.stdout)
        assert payload["version"] == 1
        assert payload["counts"] == {"DET002": 1}
        assert payload["diagnostics"][0]["code"] == "DET002"


# --------------------------------------------------------------------------- #
# the merge gate itself
# --------------------------------------------------------------------------- #
class TestGate:
    def test_src_tree_is_clean(self):
        found = run_lint(paths=(SRC,))
        assert found == [], "\n".join(str(d) for d in found)
