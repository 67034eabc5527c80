"""Exact Clifford algebra arithmetic on sparse multivectors.

A basis blade of Cl(p,q) is encoded as a bit mask over the generators
e_1 .. e_{p+q}: bit i-1 set means e_i enters the monomial, always kept
in ascending index order.  Conventions:

* e_i^2 = +1 for 1 <= i <= p and e_i^2 = -1 for p < i <= p+q,
* e_i e_j = -e_j e_i for i != j,
* the empty mask is the unit e_0.

Coefficients may be any Python scalars (int, Fraction, float, complex).
All structural operations are bit-exact when ints or Fractions are used.

Blade signs have two forms: :func:`blade_product` for one pair (the
reference) and :func:`blade_signs` for numpy arrays of masks, with
:func:`sign_table` caching the whole Cayley sign table of a signature
(the bitmap-blade tables of Dorst, Fontijne & Mann, *Geometric Algebra
for Computer Science*, ch. 19).  numpy is imported inside those two
functions only, so the classification paths that import this module do
not load it.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import cache
from itertools import chain
from numbers import Number
from typing import Iterable, Mapping, NamedTuple

MAX_GENERATORS = 16
#: largest generator count with a cached sign table (1 MB of int8 at n = 10)
TABLE_MAX_GENERATORS = 10
# gathered entries per row block of the table product (64 KB of int64)
_GATHER_ENTRIES = 1 << 13
# Fewest blade pairs worth the table product.  Timed on int products
# against the pair loop (2 vCPUs, n = 0..10): the table path costs a fixed
# 8-14 us of numpy calls plus 2^n gathered entries per row, the loop about
# 1 us per pair.  At 2^n pairs the table wins from n = 4 (1.1-1.3x at
# n = 4, 3.5-15x at n = 7..10) but loses below (0.1-0.55x at n <= 3); at
# 16 pairs it breaks even at n = 2 and wins 1.35x at n = 3.
_TABLE_MIN_PAIRS = 16


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


def blade_signs(a, b, sig):
    """Signs of ``e_a * e_b`` over broadcastable numpy integer arrays of masks.

    The two steps of :func:`blade_product`, one generator at a time from
    the top: for each generator k in b, one transposition per generator
    of a above k, and one metric factor if k is also in a and lies above
    p.  Returns an int8 array of +1/-1 in the broadcast shape.
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
    parity = np.zeros(np.broadcast_shapes(a.shape, b.shape), np.uint8)
    above = np.zeros(a.shape, np.uint8)  # parity of the generators of a above k
    for k in reversed(range(sig.n)):
        a_k = (a >> k & 1).astype(np.uint8)
        flips = above ^ a_k if k >= sig.p else above
        parity ^= flips & (b >> k & 1).astype(np.uint8)
        above ^= a_k
    return 1 - 2 * parity.view(np.int8)


@cache
def sign_table(sig):
    """Read-only int8 table ``T[a, b]`` = sign of ``e_a * e_b``, cached per signature.

    Built for at most ``TABLE_MAX_GENERATORS`` generators.
    """
    import numpy as np

    sig = as_signature(sig)
    if sig.n > TABLE_MAX_GENERATORS:
        raise ValueError(f"sign tables are built for at most {TABLE_MAX_GENERATORS} generators")
    masks = np.arange(1 << sig.n)
    table = blade_signs(masks[:, None], masks[None, :], sig)
    table.flags.writeable = False
    return table


def _table_product_fits(sig: Signature, a: dict, b: dict) -> bool:
    """True when the sign-table product is exact and worth it.

    Needs at least ``max(2^n, _TABLE_MIN_PAIRS)`` blade pairs, plain int
    coefficients only, and a bound on every output coefficient that fits
    in int64.
    """
    if sig.n > TABLE_MAX_GENERATORS or len(a) * len(b) < max(1 << sig.n, _TABLE_MIN_PAIRS):
        return False
    if not all(type(c) is int for c in chain(a.values(), b.values())):
        return False
    return max(map(abs, a.values())) * max(map(abs, b.values())) * min(len(a), len(b)) < 1 << 63


def _table_product(sig: Signature, a: dict, b: dict) -> dict[int, int]:
    """Exact int product through :func:`sign_table` (see ``_table_product_fits``).

    Every output blade k takes one term from each blade i of the shorter
    factor, paired with blade i ^ k of the other, so the product is an
    XOR-indexed gather of 2^n columns per row and one integer matmul.
    Rows go in blocks of about ``_GATHER_ENTRIES`` gathered entries, which
    keeps the temporaries small (and in cache) at every n.
    """
    import numpy as np

    left = len(a) <= len(b)
    rows, other = (a, b) if left else (b, a)
    row_masks = np.fromiter(rows, np.int64, len(rows))[:, None]
    row_coeffs = np.fromiter(rows.values(), np.int64, len(rows))
    blades = np.arange(1 << sig.n)
    dense = np.zeros(1 << sig.n, np.int64)
    dense[np.fromiter(other, np.int64, len(other))] = np.fromiter(other.values(), np.int64, len(other))
    table = sign_table(sig)
    out = np.zeros(1 << sig.n, np.int64)
    step = max(1, _GATHER_ENTRIES >> sig.n)
    for start in range(0, len(rows), step):
        masks = row_masks[start : start + step]
        partner = masks ^ blades
        signs = table[masks, partner] if left else table[partner, masks]
        out += row_coeffs[start : start + step] @ (signs * dense[partner])
    nonzero = np.flatnonzero(out)
    return dict(zip(nonzero.tolist(), out[nonzero].tolist()))


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
            if _table_product_fits(self.sig, self.terms, other.terms):
                return Multivector(self.sig, _table_product(self.sig, self.terms, other.terms))
            terms: dict[int, Number] = {}
            for ma, ca in self.terms.items():
                for mb, cb in other.terms.items():
                    sign, mask = blade_product(ma, mb, self.sig)
                    terms[mask] = terms.get(mask, 0) + sign * ca * cb
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

    def grade_involution(self) -> "Multivector":
        """Sign (-1)^k on each grade-k part."""
        return Multivector(self.sig, {m: -c if grade(m) & 1 else c for m, c in self.terms.items()})

    def reversion(self) -> "Multivector":
        """Sign (-1)^{k(k-1)/2}: index order of every blade reversed."""
        out = {}
        for m, c in self.terms.items():
            k = grade(m)
            out[m] = -c if (k * (k - 1) // 2) & 1 else c
        return Multivector(self.sig, out)

    def conjugation(self) -> "Multivector":
        """Sign (-1)^{k(k+1)/2}: reversion composed with grade involution."""
        out = {}
        for m, c in self.terms.items():
            k = grade(m)
            out[m] = -c if (k * (k + 1) // 2) & 1 else c
        return Multivector(self.sig, out)

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
