"""Embedded 8x8 periodic table of the real Clifford algebras.

Transcribed once as a static resource so that table rendering and the
golden-file tests are independent of the classify implementation.
Entry syntax: ring symbol R/C/H, optional leading ``2`` for a doubled
algebra, optional ``(m)`` matrix size (absent means m = 1).
``reference_diff`` holds the classifier to it, for ``cliffrep table`` and
the ``verify`` table check alike.
"""

from __future__ import annotations

import re

from .classify import RingType, classify

# rows q = 0..7, columns p = 0..7
_ROWS = [
    "R     2R    R(2)  C(2)  H(2)  2H(2) H(4)  C(8)",
    "C     R(2)  2R(2) R(4)  C(4)  H(4)  2H(4) H(8)",
    "H     C(2)  R(4)  2R(4) R(8)  C(8)  H(8)  2H(8)",
    "2H    H(2)  C(4)  R(8)  2R(8) R(16) C(16) H(16)",
    "H(2)  2H(2) H(4)  C(8)  R(16) 2R(16) R(32) C(32)",
    "C(4)  H(4)  2H(4) H(8)  C(16) R(32) 2R(32) R(64)",
    "R(8)  C(8)  H(8)  2H(8) H(16) C(32) R(64) 2R(64)",
    "2R(8) R(16) C(16) H(16) 2H(16) H(32) C(64) R(128)",
]

_ENTRY_RE = re.compile(r"^(2?)([RCH])(?:\((\d+)\))?$")


def parse_entry(entry: str) -> tuple[RingType, int]:
    """Parse e.g. ``2H(8)`` into (RingType.H_H, 8)."""
    m = _ENTRY_RE.match(entry)
    ring = m and next((r for r in RingType if (r.is_double, r.letter) == (m[1] == "2", m[2])), None)
    if ring is None:
        raise ValueError(f"bad periodic-table entry: {entry!r}")
    return ring, int(m[3] or 1)


def reference_table() -> dict[tuple[int, int], tuple[RingType, int]]:
    """{(p, q): (ring, matrix size)} for p, q in 0..7."""
    table = {}
    for q, row in enumerate(_ROWS):
        entries = row.split()
        assert len(entries) == 8
        for p, entry in enumerate(entries):
            table[(p, q)] = parse_entry(entry)
    return table


def format_entry(ring: RingType, size: int) -> str:
    one = f"{'2' if ring.is_double else ''}{ring.letter}"
    return f"{one}({size})" if size > 1 else one


def reference_diff(sigs) -> tuple[int, list[tuple[int, int]]]:
    """(entries compared, mismatching signatures) of ``sigs`` against the reference table."""
    ref = reference_table()
    compared = [s for s in sigs if s in ref]
    bad = []
    for p, q in compared:
        ring, size = ref[(p, q)]
        c = classify((p, q))
        if (c.ring, c.matrix_size, c.simple) != (ring, size, not ring.is_double):
            bad.append((p, q))
    return len(compared), bad
