"""``repro.lint`` — reprolint, the static invariant checker.

Every load-bearing guarantee of this reproduction — bit-identical digests
across backends and worker counts, result-neutral cache-key partitions,
telemetry that provably cannot move cache keys, lock-disciplined shared
state, numpy confined to one kernel module — used to be enforced only
*dynamically*, by parity tests that catch a violation after it ships.  This
package moves those contracts into a dependency-free AST gate that fails a
PR before a nondeterministic iteration or an unclassified config field ever
reaches a digest.

Layout
------
``project``     source loading: :class:`Module` (AST + parent map + helper
                queries) and :class:`Project` (a set of modules addressed by
                package-relative path)
``diagnostics`` the :class:`Diagnostic` record every rule emits
``suppress``    inline suppressions: ``# reprolint: disable=DET001[,...]``
                on the flagged line or the line directly above
``base``        the :class:`Rule` base class and the process-wide registry
``rules``      the shipped rules (importing it registers them):

                =========  ===================================================
                DET001     unordered set iteration on the determinism surface
                DET002     banned nondeterminism sources in result-affecting
                           modules
                CACHE001   every ``SpiderMineConfig`` field classified into
                           exactly one cache-key partition
                OBS001     ``repro.obs`` must not know ``SpiderMineConfig``;
                           hot-path telemetry uses the ``registry.enabled``
                           cheap check
                LOCK001    lock-owned attributes mutated only under
                           ``with self._lock``; no blocking calls while held
                KERN001    ``import numpy`` confined to ``graph/kernels.py``
                =========  ===================================================

``config``      :class:`LintConfig` (``--select`` / ``--ignore`` filtering)
``reporters``   deterministic text and JSON output
``cli``         the ``repro lint`` / ``reprolint`` entry point

Use :func:`run_lint` programmatically (the drift-guard test in
``tests/test_catalog_formats.py`` asserts through it) or ``repro lint
[PATHS]`` from the command line; CI runs it over ``src/`` and fails the
merge on any diagnostic.
"""

from .base import Rule, all_rules, get_rule, register
from .config import LintConfig
from .diagnostics import Diagnostic
from .engine import lint_paths, lint_project, run_lint
from .project import Module, Project

__all__ = [
    "Diagnostic",
    "LintConfig",
    "Module",
    "Project",
    "Rule",
    "all_rules",
    "get_rule",
    "lint_paths",
    "lint_project",
    "register",
    "run_lint",
]
