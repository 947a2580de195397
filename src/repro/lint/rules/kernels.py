"""KERN001 — numpy is confined to the kernel layer.

``import numpy`` appears in exactly one module, ``repro/graph/kernels.py``.
Everything else consumes numpy through the kernel functions, so the array
code the matcher and the overlap engine depend on lives in one module with
its own parity tests (``tests/test_kernels.py``).
"""

from __future__ import annotations

import ast
from typing import Iterator, List

from ..base import Rule, register
from ..diagnostics import Diagnostic
from ..project import Project

KERNELS_MODULE = "repro/graph/kernels.py"


@register
class NumpyConfinementRule(Rule):
    """KERN001: ``import numpy`` only in graph/kernels.py."""

    code = "KERN001"
    summary = "`import numpy` only in graph/kernels.py"

    def check(self, project: Project) -> Iterator[Diagnostic]:
        for module in project.modules:
            if module.matches([KERNELS_MODULE]):
                continue
            for node in module.walk():
                imported: List[str] = []
                if isinstance(node, ast.Import):
                    imported = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom) and node.module is not None:
                    imported = [node.module]
                if any(name == "numpy" or name.startswith("numpy.") for name in imported):
                    yield self.diagnostic(
                        module,
                        node,
                        "`import numpy` is confined to repro/graph/kernels.py; "
                        "consume the vectorized path through the kernel "
                        "functions",
                    )
