"""Tensor-product factorizations of Cl(p,q) into two-generator factors.

Even p+q: peel one 2-generator factor at a time.  Peeling Cl(1,1)
(volume square +1) leaves the remaining quadratic form unchanged;
peeling a definite factor Cl(2,0) or Cl(0,2) (volume square -1) negates
the remaining form, so the leftover signature swaps p <-> q.  The
resulting factor list composes under the ordinary tensor product to the
full matrix algebra of Cl(p,q).

Odd p+q: the even subalgebra is a full Clifford algebra on p+q-1
generators; it is factorized instead, and the semi-simple types
(p-q = 1, 5 mod 8) are marked as doubled.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from ._rules import Signature, as_generator_count, as_signature
from .classify import (
    MatrixShape,
    RingType,
    classify,
    classify_complex,
    even_subalgebra,
    tensor_compose,
)

FACTOR_HYPERBOLIC = Signature(1, 1)
FACTOR_POS = Signature(2, 0)
FACTOR_NEG = Signature(0, 2)


class Factorization(NamedTuple):
    """Ordered 2-generator factors of Cl(p,q).

    ``doubled`` marks the odd-dimensional semi-simple case (the factors then
    describe one of the two identical components, built from the even
    subalgebra).
    """

    sig: Signature
    factors: tuple[Signature, ...]
    doubled: bool

    @property
    def flip_steps(self) -> tuple[int, ...]:
        """Indices of the definite factors Cl(2,0) and Cl(0,2): peeling one negated the remaining form."""
        return tuple(i for i, f in enumerate(self.factors) if f != FACTOR_HYPERBOLIC)

    @property
    def spinspace_dim(self) -> int:
        return 1 << len(self.factors)

    @property
    def spin_index(self) -> Fraction:
        """l0 = r/2 for a product of r two-generator factors."""
        return Fraction(len(self.factors), 2)


def _peel(p: int, q: int) -> tuple[Signature, int, int]:
    """One greedy step: (factor, remaining p, remaining q)."""
    if p >= 1 and q >= 1:
        return FACTOR_HYPERBOLIC, p - 1, q - 1
    if p >= 2:
        return FACTOR_POS, 0, p - 2  # definite factor: remainder negated
    return FACTOR_NEG, q - 2, 0


def karoubi_factorize(sig) -> Factorization:
    """Factor an even-dimensional Cl(p,q) into Cl(1,1)/Cl(2,0)/Cl(0,2) pieces."""
    sig = as_signature(sig)
    if sig.n % 2:
        raise ValueError("even p+q required; route odd signatures through factorize_odd")
    p, q = sig
    factors: list[Signature] = []
    while p + q:
        factor, p, q = _peel(p, q)
        factors.append(factor)
    return Factorization(sig, tuple(factors), doubled=False)


def factorize_odd(sig) -> Factorization:
    """Factor list for odd p+q, via the even subalgebra.

    The product of the factors gives the even part; semi-simple types
    (p-q = 1, 5 mod 8) carry two identical such components.
    """
    sig = as_signature(sig)
    if sig.n % 2 == 0:
        raise ValueError("odd p+q required; use karoubi_factorize for even signatures")
    base = karoubi_factorize(even_subalgebra(sig))
    return Factorization(sig, base.factors, doubled=classify(sig).ring.is_double)


def factorize(sig) -> Factorization:
    sig = as_signature(sig)
    return karoubi_factorize(sig) if sig.n % 2 == 0 else factorize_odd(sig)


def compose_factor_shapes(fact: Factorization) -> MatrixShape:
    """Ordinary tensor product of the factor classes, as a matrix algebra."""
    shape = MatrixShape(RingType.R, 1)
    for f in fact.factors:
        shape = tensor_compose(shape, classify(f).shape)
    return shape


def replay_flips(fact: Factorization) -> Signature:
    """Undo the recorded sign flips, recovering the peeled signature.

    Walking the factors with the accumulated flip parity restores the
    generator budget of the original quadratic form (its even part for
    doubled factorizations).
    """
    parity = 0
    p = q = 0
    flips = set(fact.flip_steps)
    for i, f in enumerate(fact.factors):
        a, b = (f.p, f.q) if parity == 0 else (f.q, f.p)
        p += a
        q += b
        if i in flips:
            parity ^= 1
    return Signature(p, q)


def verify_factorization(fact: Factorization) -> bool:
    """Class-level check of a factor list against the classification.

    Even case: the composed matrix algebra must equal classify(p,q).
    Odd case: the composed algebra must equal the even-subalgebra class;
    the full algebra is then two copies of it (types 1, 5) or its
    complexification (types 3, 7).
    """
    composed = compose_factor_shapes(fact)
    sig = fact.sig
    if sig.n % 2 == 0:
        return composed == classify(sig).shape
    if composed != classify(even_subalgebra(sig)).shape:
        return False
    full = classify(sig)
    if fact.doubled:
        return full.ring.is_double and MatrixShape(full.ring.component, full.matrix_size) == composed
    # complex types: full algebra is C (x) even part
    return full.shape == tensor_compose(MatrixShape(RingType.C, 1), composed)


def complex_factorize(n: int) -> int:
    """Number m of Pauli-algebra factors with C_n = C_2 (x) ... (x) C_2."""
    n = as_generator_count(n)
    if n % 2:
        raise ValueError("n must be even and non-negative")
    m = n // 2
    assert classify_complex(n).matrix_size == 1 << m
    return m


def periodicity_reduce(sig) -> tuple[Signature, int]:
    """Strip mod-8 octaves: Cl(p+8,q) = Cl(p,q) (x) Cl(8,0), and likewise in q."""
    sig = as_signature(sig)
    p, q = sig
    octaves = 0
    while p >= 8:
        p -= 8
        octaves += 1
    while q >= 8:
        q -= 8
        octaves += 1
    return Signature(p, q), octaves
