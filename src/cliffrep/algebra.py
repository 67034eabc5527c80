"""Exact Clifford algebra arithmetic on sparse multivectors.

A basis blade of Cl(p,q) is encoded as a bit mask over the generators
e_1 .. e_{p+q}: bit i-1 set means e_i enters the monomial, always kept
in ascending index order.  Conventions:

* e_i^2 = +1 for 1 <= i <= p and e_i^2 = -1 for p < i <= p+q,
* e_i e_j = -e_j e_i for i != j,
* the empty mask is the unit e_0.

Coefficients may be any Python scalars (int, Fraction, float, complex).
All structural operations are bit-exact when ints or Fractions are used.
A product whose coefficients are all ``Fraction`` runs on ints: each
factor is scaled by the lcm of its own denominators, the int product
(gather or pair loop) runs on the numerators, and each nonzero output
blade is divided once by the two scales.  ``Fraction`` is canonical, so
values and types match the per-pair ``Fraction`` loop.

Blade signs have two forms: :func:`blade_product` for one pair (the
reference) and :func:`blade_signs` for numpy arrays of masks.  The array
form is the closed-form bitmap-blade reordering sign (Dorst, Fontijne &
Mann, *Geometric Algebra for Computer Science*, ch. 19): e_a e_b =
(-1)^|b & L(a)| e_{a^b} with one mask L(a) per blade.  A 64 KB parity
table, built on first use, serves array parities; no 4^n sign table is
built, so the dense product serves every n.  numpy is imported inside
functions only, so the classification paths that import this module do
not load it.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import cache
from fractions import Fraction
from itertools import chain
from numbers import Number
from typing import Iterable, Mapping, NamedTuple

MAX_GENERATORS = 16
# Gathered entries per row block of the gather product.  Timed on int
# products (2 vCPUs, 2 MB L2, Python 3.11, numpy 2.4) at n = 6..12 in three
# interleaved runs, against 2^14: 2^13 took 0.9-1.2x as long, 2^15 0.93-1.7x
# (its block temporaries, about 800 KB, do not always stay in L2) and 2^16
# up to 2x.
_GATHER_ENTRIES = 1 << 14
# Pair-loop time / gather time on the same host, by pairs at n = 2..7:
# 0.42-0.97x at 16, 0.61-1.21x at 32, 1.5-2.9x at 64, 2.4-3.5x at 128; by
# the density of the longer factor at n = 15, 16 (balanced sparse
# factors): 1.85-2.65x at 1/128, 1.5-2.35x at 1/180, 1.1-1.6x at 1/256.
# The gather still wins at 1/256, by a narrowing margin, but the sparsity
# gate stays at 1/128; products of a few dozen terms a factor (the
# mv-sparse benchmark's) fail the 2^n pair floor either way.
_GATHER_MIN_PAIRS = 32
_GATHER_MAX_SPARSITY = 128  # most blades of Cl(p,q) per term of the longer factor


class _Counts(NamedTuple):
    p: int
    q: int


class Signature(_Counts):
    """Counts of generators squaring to +1 (``p``) and -1 (``q``).

    Valid by construction: both counts are integers (numpy integers are
    stored as ``int``), neither is negative and they sum to at most
    ``MAX_GENERATORS``; anything else is a ``ValueError``.
    """

    __slots__ = ()

    def __new__(cls, p, q):
        try:
            p, q = operator.index(p), operator.index(q)
        except TypeError:
            raise ValueError(f"generator counts must be integers, got {p!r}, {q!r}") from None
        if p < 0 or q < 0:
            raise ValueError("generator counts must be non-negative")
        if p + q > MAX_GENERATORS:
            raise ValueError(f"at most {MAX_GENERATORS} generators are supported")
        return super().__new__(cls, p, q)

    @classmethod
    def _make(cls, iterable) -> "Signature":  # also behind _replace
        return cls(*iterable)

    @property
    def n(self) -> int:
        return self.p + self.q

    def __str__(self) -> str:
        return f"Cl({self.p},{self.q})"


def as_signature(sig) -> Signature:
    """Coerce a (p, q) pair to a :class:`Signature`, which validates it."""
    if isinstance(sig, Signature):
        return sig
    p, q = sig
    return Signature(p, q)


def grade(mask: int) -> int:
    """Number of generators in a blade."""
    return mask.bit_count()


def metric_sign(sig, i: int) -> int:
    """Square of the generator e_i (1-based index)."""
    sig = as_signature(sig)
    if not 1 <= i <= sig.n:
        raise ValueError(f"generator index {i} outside 1..{sig.n}")
    return 1 if i <= sig.p else -1


def all_blades(sig) -> range:
    """All blade masks of Cl(p,q), ascending."""
    return range(1 << as_signature(sig).n)


def blade_product(a: int, b: int, sig) -> tuple[int, int]:
    """Product of two basis blades.

    Returns ``(sign, mask)`` such that ``e_a * e_b = sign * e_mask``.
    The sign collects (i) one transposition per crossing needed to sort
    the concatenated index lists and (ii) one metric factor per repeated
    generator.
    """
    sig = as_signature(sig)
    if a >> sig.n or b >> sig.n or a < 0 or b < 0:
        raise ValueError("blade mask uses generators outside the signature")
    swaps = 0
    t = b
    while t:
        low = t & -t
        # generators of a strictly above this one must be crossed
        swaps += (a >> low.bit_length()).bit_count()
        t ^= low
    # one metric factor per repeated generator above p
    swaps += ((a & b) >> sig.p).bit_count()
    return -1 if swaps & 1 else 1, a ^ b


def _sign_masks(masks, p: int, shift=operator.rshift):
    """Sign masks of blades, as ints or numpy int64 arrays.

    ``rshift`` gives L with e_a e_b = (-1)^|b & L(a)| e_{a^b}: bit j of L(a)
    is the parity of a's generators above j (those generator j of b
    crosses), XOR bit j of a when j >= p (its metric factor).  ``lshift``
    gives the mirror R with e_a e_b = (-1)^|a & R(b)|: bit j of R(b) is the
    parity of b's generators below j, XOR bit j of b when j >= p.  The
    shift ladder 1, 2, 4, 8 assumes masks below 2^16 (MAX_GENERATORS = 16).
    """
    s = shift(masks, 1)
    for k in (1, 2, 4, 8):
        s = s ^ shift(s, k)
    return s ^ (masks >> p << p)


@cache
def _parity_table():
    """Read-only int8 parity of every mask below 2^16 (64 KB), by doubling:
    parity(m + 2^k) = 1 - parity(m) for m < 2^k."""
    import numpy as np

    table = np.zeros(1 << MAX_GENERATORS, np.int8)
    k = 1
    while k < table.size:
        table[k : 2 * k] = table[:k] ^ 1
        k <<= 1
    table.flags.writeable = False
    return table


def _parity(x):
    """Parity of the set bits of a mask below 2^16: an ``int`` for an int,
    and an int8 array read off :func:`_parity_table` for a numpy array."""
    if isinstance(x, int):
        return x.bit_count() & 1
    return _parity_table().take(x)


def blade_signs(a, b, sig):
    """Signs of ``e_a * e_b`` over broadcastable numpy integer arrays of masks.

    The two steps of :func:`blade_product` in closed form (see
    :func:`_sign_masks`).  Returns an int8 array of +1/-1 in the broadcast
    shape.
    """
    import numpy as np

    sig = as_signature(sig)
    a, b = np.asarray(a), np.asarray(b)
    for masks in (a, b):
        if masks.dtype.kind not in "iu":
            raise TypeError(f"blade masks must be integers, got dtype {masks.dtype}")
        if masks.size and (masks.min() < 0 or masks.max() >> sig.n):
            raise ValueError("blade mask uses generators outside the signature")
    a, b = a.astype(np.int64), b.astype(np.int64)
    return (1 - 2 * _parity(b & _sign_masks(a, sig.p))).astype(np.int8)


def _gather_product_fits(sig: Signature, a: dict[int, int], b: dict[int, int]) -> bool:
    """True when the gather product of int factors is worth it (the gates above) and exact in int64."""
    size = 1 << sig.n
    if len(a) * len(b) < max(size, _GATHER_MIN_PAIRS) or max(len(a), len(b)) * _GATHER_MAX_SPARSITY < size:
        return False
    return max(map(abs, a.values())) * max(map(abs, b.values())) * min(len(a), len(b)) < 1 << 63


def _gather_product(sig: Signature, a: dict[int, int], b: dict[int, int]) -> dict[int, int]:
    """Exact int product by XOR-indexed gathers (see ``_gather_product_fits``).

    Every output blade k takes one term from each blade i of the shorter
    factor, paired with blade i ^ k of the other, so the product is a
    gather of 2^n columns per row and one integer matmul.  Each row's sign
    mask (:func:`_sign_masks`, the mirror rule when the rows are the right
    factor) gives the signs of its whole row, and each sign is folded into
    the gather: the other factor is held as ``[other, -other]`` and entry
    ``partner`` is read at ``partner | parity << n``.  Masks and indices
    are int32: every index is below 2^17, and the ``lshift`` sign masks,
    which wrap above bit 31, are only read ANDed with a mask below 2^16.
    Rows go in blocks of about ``_GATHER_ENTRIES`` gathered entries, which
    keeps the temporaries small (and in cache) at every n.
    """
    import numpy as np

    n = sig.n
    left = len(a) <= len(b)
    rows, other = (a, b) if left else (b, a)
    row_masks = np.fromiter(rows, np.int32, len(rows))
    row_coeffs = np.fromiter(rows.values(), np.int64, len(rows))
    sign_masks = _sign_masks(row_masks, sig.p, operator.rshift if left else operator.lshift)
    blades = np.arange(1 << n, dtype=np.int32)
    signed = np.zeros(2 << n, np.int64)
    signed[np.fromiter(other, np.int32, len(other))] = np.fromiter(other.values(), np.int64, len(other))
    signed[1 << n :] = -signed[: 1 << n]
    out = np.zeros(1 << n, np.int64)
    step = max(1, _GATHER_ENTRIES >> n)
    for start in range(0, len(rows), step):
        block = slice(start, start + step)
        partner = row_masks[block, None] ^ blades
        index = partner | np.left_shift(_parity(partner & sign_masks[block, None]), n, dtype=np.int32)
        out += row_coeffs[block] @ signed.take(index)
    nonzero = np.flatnonzero(out)
    return dict(zip(nonzero.tolist(), out[nonzero].tolist()))


def _integer_form(terms: dict) -> tuple[dict[int, int], int]:
    """``terms`` times the lcm of its ``Fraction`` denominators, as ints, and that lcm."""
    den = math.lcm(*(c.denominator for c in terms.values()))
    return {m: c.numerator * (den // c.denominator) for m, c in terms.items()}, den


def blade_name(mask: int) -> str:
    """Human-readable name, e.g. ``e0``, ``e134``, ``e{3,12}``."""
    if mask == 0:
        return "e0"
    idx = [i + 1 for i in range(mask.bit_length()) if mask >> i & 1]
    if idx[-1] <= 9:
        return "e" + "".join(str(i) for i in idx)
    return "e{" + ",".join(str(i) for i in idx) + "}"


class Multivector:
    """Sparse element of Cl(p,q): a finite sum of ``coeff * blade``."""

    __slots__ = ("sig", "terms")

    def __init__(self, sig, terms: Mapping[int, Number] | None = None):
        self.sig = as_signature(sig)
        terms = terms or {}
        if terms:
            low, high = min(terms), max(terms)
            if low < 0 or high >> self.sig.n:
                raise ValueError(f"blade {low if low < 0 else high:#x} invalid for {self.sig}")
        self.terms: dict[int, Number] = {m: c for m, c in terms.items() if c != 0}

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, sig) -> "Multivector":
        return cls(sig, {})

    @classmethod
    def scalar(cls, sig, value) -> "Multivector":
        return cls(sig, {0: value})

    @classmethod
    def from_mask(cls, sig, mask: int, coeff=1) -> "Multivector":
        return cls(sig, {mask: coeff})

    @classmethod
    def blade(cls, sig, indices: Iterable[int], coeff=1) -> "Multivector":
        """Blade from strictly ascending 1-based generator indices.

        Ascending order is required because a permuted index list names a
        different (sign-flipped) product, which this constructor does not
        resolve.
        """
        mask = 0
        last = 0
        for i in indices:
            if i <= last:
                raise ValueError(f"indices must be strictly ascending: {indices!r}")
            last = i
            mask |= 1 << (i - 1)
        return cls(sig, {mask: coeff})

    @classmethod
    def generator(cls, sig, i: int) -> "Multivector":
        sig = as_signature(sig)
        metric_sign(sig, i)  # validates the range
        return cls(sig, {1 << (i - 1): 1})

    # -- ring operations ----------------------------------------------

    def _require_same_sig(self, other: "Multivector") -> None:
        if self.sig != other.sig:
            raise ValueError(f"signature mismatch: {self.sig} vs {other.sig}")

    def __add__(self, other):
        if not isinstance(other, Multivector):
            return NotImplemented
        self._require_same_sig(other)
        terms = dict(self.terms)
        for mask, coeff in other.terms.items():
            terms[mask] = terms.get(mask, 0) + coeff
        return Multivector(self.sig, terms)

    def __sub__(self, other):
        if not isinstance(other, Multivector):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return Multivector(self.sig, {m: -c for m, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, Multivector):
            self._require_same_sig(other)
            a, b = self.terms, other.terms
            types = set(map(type, chain(a.values(), b.values())))
            # all-Fraction factors run on ints: one denominator per factor, one Fraction per output blade
            scaled = types == {Fraction}
            if scaled:
                (a, den_a), (b, den_b) = _integer_form(a), _integer_form(b)
            if (scaled or types == {int}) and _gather_product_fits(self.sig, a, b):
                terms = _gather_product(self.sig, a, b)
            else:
                terms = {}
                for ma, ca in a.items():
                    for mb, cb in b.items():
                        sign, mask = blade_product(ma, mb, self.sig)
                        terms[mask] = terms.get(mask, 0) + sign * ca * cb
            if scaled:
                den = den_a * den_b
                terms = {m: Fraction(v, den) for m, v in terms.items() if v}
            return Multivector(self.sig, terms)
        if isinstance(other, Number):
            return Multivector(self.sig, {m: c * other for m, c in self.terms.items()})
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, Number):
            return Multivector(self.sig, {m: other * c for m, c in self.terms.items()})
        return NotImplemented

    def __eq__(self, other):
        if not isinstance(other, Multivector):
            return NotImplemented
        return self.sig == other.sig and self.terms == other.terms

    __hash__ = None  # mutable-by-convention container

    def is_zero(self) -> bool:
        return not self.terms

    # -- structure ----------------------------------------------------

    def grades(self) -> set[int]:
        return {grade(m) for m in self.terms}

    def grade_part(self, k: int) -> "Multivector":
        return Multivector(self.sig, {m: c for m, c in self.terms.items() if grade(m) == k})

    def z2_degree(self) -> int | None:
        """0 for even, 1 for odd, None if mixed.  The zero element is even."""
        degs = {grade(m) & 1 for m in self.terms}
        if len(degs) > 1:
            return None
        return degs.pop() if degs else 0

    def coefficient(self, mask: int):
        return self.terms.get(mask, 0)

    # -- fundamental (anti)automorphisms --------------------------------

    def _negate_grades(self, flips: tuple[int, int, int, int]) -> "Multivector":
        """Negate each grade-k part for which ``flips[k % 4]`` is set."""
        return Multivector(self.sig, {m: -c if flips[grade(m) & 3] else c for m, c in self.terms.items()})

    def grade_involution(self) -> "Multivector":
        """Sign (-1)^k on each grade-k part."""
        return self._negate_grades((0, 1, 0, 1))

    def reversion(self) -> "Multivector":
        """Sign (-1)^{k(k-1)/2}: index order of every blade reversed."""
        return self._negate_grades((0, 0, 1, 1))

    def conjugation(self) -> "Multivector":
        """Sign (-1)^{k(k+1)/2}: reversion composed with grade involution."""
        return self._negate_grades((0, 1, 1, 0))

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for mask in sorted(self.terms, key=lambda m: (grade(m), m)):
            coeff = self.terms[mask]
            name = blade_name(mask)
            if mask == 0:
                parts.append(f"{coeff}")
            elif coeff == 1:
                parts.append(name)
            elif coeff == -1:
                parts.append(f"-{name}")
            else:
                parts.append(f"{coeff}*{name}")
        out = parts[0]
        for part in parts[1:]:
            out += f" - {part[1:]}" if part.startswith("-") else f" + {part}"
        return out


def generators(sig) -> list[Multivector]:
    sig = as_signature(sig)
    return [Multivector.generator(sig, i) for i in range(1, sig.n + 1)]


def volume_element(sig) -> Multivector:
    """The element e_12...n (e_0 for the empty signature)."""
    sig = as_signature(sig)
    return Multivector.from_mask(sig, (1 << sig.n) - 1)


def omega_square(sig) -> int:
    """Square of the volume element, computed by blade multiplication."""
    sig = as_signature(sig)
    mask = (1 << sig.n) - 1
    sign, rest = blade_product(mask, mask, sig)
    assert rest == 0
    return sign


def omega_square_mod8(sig) -> int:
    """Square of the volume element from the (p-q) mod 8 law."""
    sig = as_signature(sig)
    return -1 if (sig.p - sig.q) % 8 in (2, 3, 6, 7) else 1


def center_blades(sig) -> frozenset[int]:
    """Blades spanning the center: {e0} or {e0, omega} per (p-q) mod 8."""
    sig = as_signature(sig)
    if (sig.p - sig.q) % 8 in (1, 3, 5, 7):
        return frozenset({0, (1 << sig.n) - 1})
    return frozenset({0})


def involution_via_omega(x: Multivector) -> Multivector:
    """Grade involution realized as omega * x * omega^{-1} (even p+q only).

    For odd p+q the volume element is central and conjugation by it is
    the identity, so the operation is rejected there.
    """
    sig = x.sig
    if sig.n % 2:
        raise ValueError("omega conjugation realizes the grade involution only for even p+q")
    omega = volume_element(sig)
    omega_inv = omega * omega_square(sig)
    assert (omega * omega_inv) == Multivector.scalar(sig, 1)
    return omega * x * omega_inv


@dataclass(frozen=True)
class GradedBracketResult:
    """Value and Z2-degree of a graded bracket of homogeneous inputs."""

    value: Multivector
    degree: int


def graded_bracket(x: Multivector, y: Multivector) -> GradedBracketResult:
    """Graded commutator [[x, y]] = xy - (-1)^{deg x deg y} yx.

    Both inputs must be Z2-homogeneous (pure even or pure odd); the result
    degree is (deg x + deg y) mod 2.
    """
    x._require_same_sig(y)
    dx, dy = x.z2_degree(), y.z2_degree()
    if dx is None or dy is None:
        raise ValueError("graded bracket requires Z2-homogeneous inputs")
    yx = y * x
    if dx and dy:
        value = x * y + yx
    else:
        value = x * y - yx
    return GradedBracketResult(value, (dx + dy) & 1)
