"""Operators as entry lists, and the one writer pair that turns them into matrices for ``gamma``, ``lorentz`` and
the CLI: ``dense`` into complex numpy arrays, for the builders, and ``cell_texts`` into the row-major JSON cells
``matrep`` and ``rep`` print, one text per written entry and one shared zero text for every other cell.  Apart
from both modules, so neither loads the other, and with numpy imported inside ``dense`` only, so ``matrep`` and
``rep`` load none."""

from __future__ import annotations

from typing import TYPE_CHECKING, Collection

if TYPE_CHECKING:
    import numpy as np

#: one operator part: (row, column, value) of each entry that is written; every other entry is 0.0
Entries = list[tuple[int, int, float]]
#: one operator: the entries of its real part and of its imaginary part
Operator = tuple[Entries, Entries]

#: what ``json`` writes for the floats whose repr is nan, inf and -inf
_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def dense(dim: int, operators: Collection[Operator]) -> tuple[np.ndarray, ...]:
    """The operators as dim x dim complex arrays, views of one fresh zeroed block, each part one index
    write of its entries: the one writer from entry lists to numpy."""
    import numpy as np

    block = np.zeros((len(operators), dim, dim), dtype=complex)
    for m, operator in zip(block, operators):
        for part, entries in zip((m.real, m.imag), operator):
            if entries:
                rows, columns, values = zip(*entries)
                part[rows, columns] = values
    return tuple(block)


def _float_text(v: float) -> str:
    """``v`` as ``json`` writes it: its repr, or NaN/Infinity/-Infinity."""
    text = float.__repr__(v)
    return _NON_FINITE.get(text, text)


def cell_texts(dim: int, operator: Operator, separator: str) -> list[str]:
    """The operator's dim x dim cells in row-major order, each the text of its real part, ``separator`` and the
    text of its imaginary part, every float as ``json`` writes it: the one writer from entry lists to the rows
    the commands print.  Each part's entries are written in order, so the last one at a repeated position wins,
    and each written position's floats are written once; every other cell is one shared "0.0<separator>0.0"."""
    cells = [f"0.0{separator}0.0"] * (dim * dim)
    real, imaginary = ({r * dim + c: v for r, c, v in entries} for entries in operator)
    for i in real.keys() | imaginary.keys():
        cells[i] = f"{_float_text(real.get(i, 0.0))}{separator}{_float_text(imaginary.get(i, 0.0))}"
    return cells
