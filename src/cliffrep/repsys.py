"""Label arithmetic on the representation systems of Spin+(1,3).

Complex labels C^{a,b} (a = l0+l1-1, b = l0-l1+1) carry spinspace
dimension 2^{a+|b|}; the two-step mod-2 cycle alternately doubles a
label and undoubles it into the next spin.  Real labels pair one of the
eight mod-8 classes with a spin index l0; the eight-hour cycle advances
l0 by 1/2 on every even hour and doubles on every odd hour.

Inputs are checked by the rules in :mod:`cliffrep._rules`: integers
(superscripts, hours, the spin doubling 2s) by ``as_count`` and the spin
index l0 by ``as_half_integer``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace
from fractions import Fraction

from ._rules import as_count, as_half_integer
from .classify import RING_BY_TYPE, classify
from .factorize import factorize

#: largest spin doubling 2s that :func:`interlocking_chain` builds: 2s + 1 labels,
#: about 15 KB of ``cliffrep chain`` text at the bound, and none built above it
MAX_CHAIN_SPIN2 = 1000

#: most hours :func:`run_real_cycle` walks, one label each and none built above it (``verify`` walks 16)
MAX_CYCLE_HOURS = 1000


@dataclass(frozen=True)
class ComplexRepLabel:
    """The label C^{a,b}, optionally doubled (C u C), in the wedge a >= 0 >= b."""

    a: int
    b: int = 0
    doubled: bool = False

    def __post_init__(self):
        a, b = as_count(self.a, "a"), as_count(self.b, "b")
        if not a >= 0 >= b:
            raise ValueError(f"C^{{{a},{b}}} lies outside the wedge a >= 0 >= b")
        if type(self.doubled) is not bool:
            raise ValueError(f"doubled must be a bool, got {self.doubled!r}")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    @property
    def dim(self) -> int:
        d = 1 << (self.a + abs(self.b))
        return 2 * d if self.doubled else d

    @property
    def spin(self) -> Fraction | None:
        return Fraction(self.a, 2) if self.b == 0 else None

    def __str__(self) -> str:
        one = f"C^{{{self.a},{self.b}}}"
        return f"{one} u {one}" if self.doubled else one


def bw_complex_step(rep: ComplexRepLabel) -> ComplexRepLabel:
    """One tick of the mod-2 cycle on the C^{a,0} ladder.

    A doubled label undoubles into the next spin (hour 1); a plain label
    doubles in place (hour 0).  The scalar label C^{0,0} starts the walk
    at the odd slot, so its tick is the hour-1 step to C^{1,0}.
    """
    return ComplexRepLabel(rep.a + 1) if complex_step_hour(rep) else replace(rep, doubled=True)


def complex_step_hour(rep: ComplexRepLabel) -> int:
    """Hour label of the tick leaving ``rep``: 1 when it undoubles, else 0."""
    if rep.b != 0:
        raise ValueError("the cycle is defined on the C^{a,0} ladder")
    return 1 if (rep.doubled or rep.a == 0) else 0


class RealRepClass(enum.Enum):
    R0 = "R0"
    R2 = "R2"
    H4 = "H4"
    H6 = "H6"
    C3 = "C3"
    C7 = "C7"
    R02_DOUBLE = "R02uR02"
    H46_DOUBLE = "H46uH46"

    @property
    def is_double(self) -> bool:
        return self in (RealRepClass.R02_DOUBLE, RealRepClass.H46_DOUBLE)


def _class_of_type(t: int) -> RealRepClass:
    """The class of mod-8 type t, named after its ring in classify.RING_BY_TYPE.

    Simple rings give ring letter + type (R0, C3, H4, ...); a doubled ring
    gives two copies labelled by the neighbouring types t-1, t+1 (R02uR02).
    """
    ring = RING_BY_TYPE[t]
    if ring.is_double:
        half = f"{ring.letter}{t - 1}{t + 1}"
        return RealRepClass(f"{half}u{half}")
    return RealRepClass(f"{ring.letter}{t}")


@dataclass(frozen=True)
class RealRepLabel:
    cls: RealRepClass
    l0: Fraction

    def __post_init__(self):
        if not isinstance(self.cls, RealRepClass):
            raise ValueError(f"class must be a RealRepClass, got {self.cls!r}")
        l0 = as_half_integer(self.l0)
        if l0 < 0:
            raise ValueError(f"l0 must be a non-negative half-integer, got {self.l0!r}")
        object.__setattr__(self, "l0", l0)

    def __str__(self) -> str:
        one = f"{self.cls.value.split('u')[0]}^{self.l0}"
        return f"{one} u {one}" if self.cls.is_double else one


def classify_real_rep(sig) -> RealRepLabel:
    """Class from (p-q) mod 8 with spin index l0 = r/2, r the factor count
    (``Factorization.spin_index``).

    r two-generator factors cover p+q generators for even p+q and
    p+q-1 for odd (the doubled/complex series).
    """
    return RealRepLabel(_class_of_type(classify(sig).type_label), factorize(sig).spin_index)


#: state of the eight-hour cycle reached after the transition at each hour
_CYCLE_STATE = {
    0: RealRepClass.R0,
    1: RealRepClass.R02_DOUBLE,
    2: RealRepClass.H6,
    3: RealRepClass.H46_DOUBLE,
    4: RealRepClass.H4,
    5: RealRepClass.H46_DOUBLE,
    6: RealRepClass.R2,
    7: RealRepClass.R02_DOUBLE,
}


def bw_real_step(rep: RealRepLabel, h: int) -> RealRepLabel:
    """One tick of the mod-8 cycle at hour ``h``.

    Even hours undouble into the next class and advance the spin by 1/2;
    odd hours double in place.  The input must sit at the state reached
    by hour h-1, otherwise the hour is inconsistent with the label.
    """
    h = as_count(h, "hour")
    if not 0 <= h <= 7:
        raise ValueError("hour must lie in 0..7")
    expected = _CYCLE_STATE[(h - 1) % 8]
    if rep.cls is not expected:
        raise ValueError(f"hour {h} expects a {expected.value} label, got {rep.cls.value}")
    if h % 2 == 0:
        return RealRepLabel(_CYCLE_STATE[h], rep.l0 + Fraction(1, 2))
    return RealRepLabel(_CYCLE_STATE[h], rep.l0)


def run_real_cycle(start: RealRepLabel, hours: int = 8) -> list[RealRepLabel]:
    """States visited by ``hours`` consecutive ticks starting at hour 0, for 0 <= hours <= ``MAX_CYCLE_HOURS``."""
    hours = as_count(hours, "hour count")
    if hours < 0:
        raise ValueError("hour count must be non-negative")
    if hours > MAX_CYCLE_HOURS:
        raise ValueError(f"hour count must be at most {MAX_CYCLE_HOURS}, got {hours}")
    states = [start]
    for h in range(hours):
        states.append(bw_real_step(states[-1], h % 8))
    return states


def interlocking_chain(two_s: int) -> list[ComplexRepLabel]:
    """The bottom chain C^{n,0} <-> C^{n-1,-1} <-> ... <-> C^{0,-n}, n = 2s, for 0 <= n <= ``MAX_CHAIN_SPIN2``."""
    two_s = as_count(two_s, "spin doubling 2s")
    if two_s < 0:
        raise ValueError("spin doubling 2s must be non-negative")
    if two_s > MAX_CHAIN_SPIN2:
        raise ValueError(f"spin doubling 2s must be at most {MAX_CHAIN_SPIN2}, got {two_s}")
    return [ComplexRepLabel(two_s - j, -j) for j in range(two_s + 1)]


def chain_neighbors(rep: ComplexRepLabel) -> list[ComplexRepLabel]:
    """Interlocking neighbours: both superscripts shift by +/-1, staying
    inside the admissible wedge a >= 0 >= b."""
    out = []
    for da in (-1, 1):
        for db in (-1, 1):
            a, b = rep.a + da, rep.b + db
            if a >= 0 >= b:
                out.append(ComplexRepLabel(a, b, rep.doubled))
    return out


def real_period_step(rep: RealRepLabel) -> RealRepLabel:
    """Mod-8 period: same class, spin index l0 + 2 (signature gains 8 generators)."""
    return RealRepLabel(rep.cls, rep.l0 + 2)
