"""Inline suppressions: ``# reprolint: disable=DET001[,DET002|all]``.

A suppression silences the named codes on the line carrying the comment and,
when the comment stands alone, on the next non-comment line — the two
spellings authors actually write::

    order = list(frontier)  # reprolint: disable=DET001  -- merge re-sorts

    # reprolint: disable=DET002  -- display-only timestamp, never digested
    stamp = time.time()

``disable=all`` silences every rule on that line.  The policy (enforced by
review, stated in ARCHITECTURE.md) is that every suppression carries a
justification after the directive; the parser itself only needs the codes.
"""

from __future__ import annotations

import re
from typing import Dict, List, Sequence, Set

__all__ = ["SuppressionIndex"]

_DIRECTIVE = re.compile(r"#\s*reprolint:\s*disable=([A-Za-z0-9_,\s]+)")
_COMMENT_ONLY = re.compile(r"^\s*#")


class SuppressionIndex:
    """Per-line suppressed codes for one source file."""

    def __init__(self, lines: Sequence[str]) -> None:
        self._by_line: Dict[int, Set[str]] = {}
        for number, text in enumerate(lines, start=1):
            match = _DIRECTIVE.search(text)
            if match is None:
                continue
            codes = {
                code.strip().upper()
                for code in match.group(1).split(",")
                if code.strip()
            }
            if not codes:
                continue
            self._by_line.setdefault(number, set()).update(codes)
            if _COMMENT_ONLY.match(text):
                # A standalone directive covers the statement below it.
                self._by_line.setdefault(number + 1, set()).update(codes)

    def suppressed(self, line: int, code: str) -> bool:
        codes = self._by_line.get(line)
        if not codes:
            return False
        return "ALL" in codes or code.upper() in codes

    def all_directive_lines(self) -> List[int]:
        """Lines carrying a directive (diagnostic/debug aid)."""
        return sorted(self._by_line)
