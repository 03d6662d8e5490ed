"""``# reprolint: disable=...`` pragmas: the one way to accept a finding.

Two pragma forms, both scanned with :mod:`tokenize` so strings that merely
look like comments never count:

* line pragma — ``x = 1  # reprolint: disable=RPL001,RPL005`` suppresses the
  listed codes (or ``all``) on that physical line;
* file pragma — a comment-only line ``# reprolint: disable-file=RPL002``
  suppresses the listed codes for the whole module.

Every pragma code must earn its place: a lint run reports each code that
silenced no finding as an :data:`UNUSED_PRAGMA` finding at the pragma's
line, so a fixed finding cannot leave its pragma behind unnoticed.
"""

from __future__ import annotations

import io
import re
import tokenize
from dataclasses import dataclass
from typing import Callable, FrozenSet, Iterator, List, Sequence, Set, Tuple

from repro.checks.violation import Violation

_PRAGMA = re.compile(
    r"#\s*reprolint:\s*(?P<kind>disable(?:-file)?)\s*=\s*(?P<codes>[A-Za-z0-9,\s]+)"
)

ALL_CODES = "all"

#: Code of the finding reported for a pragma code that suppresses nothing.
#: It names no rule, so ``--select``/``--ignore`` cannot switch it off.
UNUSED_PRAGMA = "RPL000"


@dataclass(frozen=True)
class Pragma:
    """One pragma comment: where it sits, what it disables, and how far."""

    line: int
    column: int
    codes: FrozenSet[str]
    whole_file: bool


class SuppressionIndex:
    """One file's pragmas, plus which of their codes silenced a finding."""

    def __init__(self, pragmas: Sequence[Pragma] = ()) -> None:
        self.pragmas = tuple(pragmas)
        self._used: Set[Tuple[int, str]] = set()

    def is_suppressed(self, violation: Violation) -> bool:
        """True when a pragma silences ``violation``; records the use."""
        silenced = False
        for pragma in self.pragmas:
            if not pragma.whole_file and pragma.line != violation.line:
                continue
            for code in (violation.code, ALL_CODES):
                if code in pragma.codes:
                    self._used.add((pragma.line, code))
                    silenced = True
        return silenced

    def unused(self, path: str, judged: Callable[[str], bool]) -> Iterator[Violation]:
        """One :data:`UNUSED_PRAGMA` finding per judged code that silenced nothing.

        ``judged`` says whether a code's verdict is meaningful for this run
        (its rule ran); call this only after every finding went through
        :meth:`is_suppressed`.
        """
        for pragma in self.pragmas:
            where = "in this file" if pragma.whole_file else "on this line"
            for code in sorted(pragma.codes):
                if (pragma.line, code) in self._used or not judged(code):
                    continue
                yield Violation(
                    path=path,
                    line=pragma.line,
                    column=pragma.column,
                    code=UNUSED_PRAGMA,
                    message=f"unused pragma: {code} suppresses no finding "
                    f"{where}; delete it",
                )


def scan_pragmas(source: str) -> SuppressionIndex:
    """Collect disable pragmas from ``source``.

    Unparseable sources yield an empty index — the runner reports a syntax
    error long before suppression matters.
    """
    try:
        tokens = list(tokenize.generate_tokens(io.StringIO(source).readline))
    except (tokenize.TokenError, SyntaxError, IndentationError):
        return SuppressionIndex()
    pragmas: List[Pragma] = []
    for token in tokens:
        if token.type != tokenize.COMMENT:
            continue
        match = _PRAGMA.search(token.string)
        if match is None:
            continue
        codes = frozenset(
            code.strip().upper() if code.strip().lower() != ALL_CODES else ALL_CODES
            for code in match.group("codes").split(",")
            if code.strip()
        )
        line, column = token.start
        pragmas.append(
            Pragma(
                line=line,
                column=column + match.start() + 1,
                codes=codes,
                whole_file=match.group("kind") == "disable-file",
            )
        )
    return SuppressionIndex(pragmas)
