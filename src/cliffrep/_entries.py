"""Operators as entry lists, and the one writer pair that makes them dense for ``gamma`` and ``lorentz``:
``dense`` into complex numpy arrays, for the builders, and ``float_parts`` into row-major float lists, the
rows ``matrep`` and ``rep`` print.  Apart from both modules, so neither loads the other, and with numpy
imported inside ``dense`` only, so ``matrep`` and ``rep --vdw`` load none."""

from __future__ import annotations

from typing import TYPE_CHECKING, Collection

if TYPE_CHECKING:
    import numpy as np

#: one operator part: (row, column, value) of each entry that is written; every other entry is 0.0
Entries = list[tuple[int, int, float]]
#: one operator: the entries of its real part and of its imaginary part
Operator = tuple[Entries, Entries]


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


def float_parts(dim: int, operator: Operator) -> tuple[list[float], list[float]]:
    """The operator's row-major real and imaginary parts as zeroed float lists with its entries written:
    the one writer from entry lists to the rows the commands print."""
    parts = [0.0] * (dim * dim), [0.0] * (dim * dim)
    for part, entries in zip(parts, operator):
        for r, c, v in entries:
            part[r * dim + c] = v
    return parts
