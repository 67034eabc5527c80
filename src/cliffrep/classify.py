"""Division-ring classification of real and complex Clifford algebras.

The type of Cl(p,q) depends only on (p-q) mod 8:

    0, 2 -> Mat_m(R)          central simple
    3, 7 -> Mat_m(C)          central simple
    4, 6 -> Mat_m(H)          central simple
    1    -> Mat_m(R) (+) Mat_m(R)   semi-simple
    5    -> Mat_m(H) (+) Mat_m(H)   semi-simple

The matrix size m is solved from real-dimension bookkeeping
(dim_R Cl(p,q) = 2^{p+q}) rather than stored, then cross-checked against
the classical 8x8 periodic table in the test suite.
"""

from __future__ import annotations

import enum
from typing import NamedTuple

from ._rules import Signature, as_generator_count, as_signature


class RingType(enum.Enum):
    R = "R"
    C = "C"
    H = "H"
    R_R = "R+R"
    H_H = "H+H"

    @property
    def is_double(self) -> bool:
        return self in (RingType.R_R, RingType.H_H)

    @property
    def letter(self) -> str:
        """R, C or H: the division ring of each simple component."""
        return self.value[0]

    @property
    def component(self) -> "RingType":
        """The ring of one simple component (R for R+R, H for H+H)."""
        return RingType(self.letter)

    @property
    def base_real_dim(self) -> int:
        """Real dimension of one division-ring component."""
        return {"R": 1, "C": 2, "H": 4}[self.letter]

    @property
    def symbol(self) -> str:
        return f"{self.letter}⊕{self.letter}" if self.is_double else self.letter


RING_BY_TYPE = {
    0: RingType.R,
    1: RingType.R_R,
    2: RingType.R,
    3: RingType.C,
    4: RingType.H,
    5: RingType.H_H,
    6: RingType.H,
    7: RingType.C,
}


class MatrixShape(NamedTuple):
    """A full matrix algebra Mat_size(ring), optionally doubled."""

    ring: RingType
    size: int

    @property
    def real_dim(self) -> int:
        d = self.ring.base_real_dim * self.size * self.size
        return 2 * d if self.ring.is_double else d

    def __str__(self) -> str:
        if self.size == 1:
            return self.ring.symbol
        one = f"Mat_{self.size}({self.ring.letter})"
        return f"{one}⊕{one}" if self.ring.is_double else one


class AlgebraClass(NamedTuple):
    """Classification data of one real Clifford algebra.

    ``hour`` is h in q - p = h + 8r (the clock transition label);
    ``type_label`` is (p - q) mod 8 (the division-ring type lists).
    The two differ by sign mod 8 and are both kept to avoid mixing them up.
    """

    ring: RingType
    matrix_size: int
    simple: bool
    hour: int
    type_label: int

    @property
    def shape(self) -> MatrixShape:
        return MatrixShape(self.ring, self.matrix_size)

    @property
    def dim_exponent(self) -> int:
        """n with dim_R = 2^n."""
        return self.shape.real_dim.bit_length() - 1

    def __str__(self) -> str:
        return str(self.shape)


class ComplexClass(NamedTuple):
    """Classification of the complex Clifford algebra on n generators."""

    parity: int
    matrix_size: int
    simple: bool

    def __str__(self) -> str:
        one = "C" if self.matrix_size == 1 else f"Mat_{self.matrix_size}(C)"
        return one if self.simple else f"{one}⊕{one}"


def _isqrt_exact(x: int) -> int:
    import math

    r = math.isqrt(x)
    if r * r != x:
        raise ValueError(f"{x} is not a perfect square")
    return r


def class_from_type(type_label: int, n: int) -> AlgebraClass:
    """Build the class from the mod-8 type and the generator count."""
    type_label %= 8
    ring = RING_BY_TYPE[type_label]
    dim = 1 << n
    per_component = dim // 2 if ring.is_double else dim
    size = _isqrt_exact(per_component // ring.base_real_dim)
    return AlgebraClass(
        ring=ring,
        matrix_size=size,
        simple=not ring.is_double,
        hour=(-type_label) % 8,
        type_label=type_label,
    )


def classify(sig) -> AlgebraClass:
    """Division ring, matrix size, simplicity and clock hour of Cl(p,q)."""
    sig = as_signature(sig)
    return class_from_type((sig.p - sig.q) % 8, sig.n)


def classify_complex(n: int) -> ComplexClass:
    """C_n is Mat_{2^{n/2}}(C) for even n and a double of C_{n-1} for odd n."""
    n = as_generator_count(n)
    return ComplexClass(parity=n % 2, matrix_size=1 << (n // 2), simple=n % 2 == 0)


def clock_hour(sig) -> tuple[int, int]:
    """The unique (h, r) with q - p = h + 8r and h in 0..7."""
    sig = as_signature(sig)
    h = classify(sig).hour
    return h, (sig.q - sig.p - h) // 8


def even_subalgebra(sig) -> Signature:
    """Signature whose full algebra is isomorphic to the even part of Cl(p,q).

    Uses Cl+(p, q+1) = Cl(p, q) and Cl+(p+1, q) = Cl(q, p).
    """
    sig = as_signature(sig)
    if sig.n == 0:
        raise ValueError("Cl(0,0) has no generators to halve")
    if sig.q >= 1:
        return Signature(sig.p, sig.q - 1)
    return Signature(0, sig.p - 1)


def bw_compose(a: AlgebraClass, b: AlgebraClass) -> AlgebraClass:
    """Class of the graded tensor product: types and dimensions add.

    This is the Brauer-Wall group law; hours add mod 8.
    """
    return class_from_type(a.type_label + b.type_label, a.dim_exponent + b.dim_exponent)


def tensor_compose(a: MatrixShape, b: MatrixShape) -> MatrixShape:
    """Shape of the ordinary (ungraded) tensor product of matrix algebras.

    Needed for factor-list verification: Mat_m(R) (x) X scales sizes,
    H (x) H = Mat_4(R), C (x) H = Mat_2(C), C (x) Mat_m(R) = Mat_m(C).
    Double rings are not composable here.
    """
    if a.ring.is_double or b.ring.is_double:
        raise ValueError("tensor_compose is defined for simple factors only")
    if a.ring is RingType.R:
        return MatrixShape(b.ring, a.size * b.size)
    if b.ring is RingType.R:
        return MatrixShape(a.ring, a.size * b.size)
    pair = {a.ring, b.ring}
    if pair == {RingType.H}:
        return MatrixShape(RingType.R, 4 * a.size * b.size)
    if pair == {RingType.C, RingType.H}:
        return MatrixShape(RingType.C, 2 * a.size * b.size)
    if pair == {RingType.C}:
        raise ValueError("C (x) C is semi-simple; not needed for factor lists")
    raise AssertionError("unreachable ring pair")
