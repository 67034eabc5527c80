"""Exact Clifford algebra arithmetic on sparse multivectors.

A basis blade of Cl(p,q) is encoded as a bit mask over the generators
e_1 .. e_{p+q}: bit i-1 set means e_i enters the monomial, always kept
in ascending index order.  Conventions:

* e_i^2 = +1 for 1 <= i <= p and e_i^2 = -1 for p < i <= p+q,
* e_i e_j = -e_j e_i for i != j,
* the empty mask is the unit e_0.

Coefficients may be any Python scalars (int, Fraction, float, complex).
All structural operations are bit-exact when ints or Fractions are used.
A product takes one of two routes, chosen in ``_int_route``:

* Pauli, for int factors of at least two terms each with at least
  max(d^3/128, 2^6) blade pairs, d = 2^m, m = ceil(n/2) (the measured
  crossover, see ``_PAULI_MIN_PAIRS``), and 2^m·Σ|a|·Σ|b| < 2^63.  Each
  factor goes to its Jordan-Wigner image, a d x d Gaussian-integer matrix
  in which blade A is i^c X^x Z^z (Jordan & Wigner 1928); the images
  multiply in int64 and each coefficient comes back as tr(Γ_A^† P) / d.
  The images are faithful and trace-orthogonal, tr(Γ_A^† Γ_B) = d δ_AB
  (distinct blades have distinct Pauli strings; Lounesto, *Clifford
  Algebras and Spinors*, ch. 16-17), so the division is exact, and a
  remainder raises.
* the pair loop on :func:`blade_product` otherwise, for every coefficient
  type.  A single blade times a multivector (omega conjugation) is one
  row: it reads one sign mask and relabels the other factor's terms, with
  the values and types of the loop.

A product whose coefficients are all ``Fraction`` runs on ints: each
factor is scaled by the lcm of its own denominators, the int product
(by the same routes) runs on the numerators, and each nonzero output
blade is divided once by the two scales.  ``Fraction`` is canonical, so
values and types match the per-pair ``Fraction`` loop.

Blade signs have one rule, the closed-form bitmap-blade reordering sign
(Dorst, Fontijne & Mann, *Geometric Algebra for Computer Science*,
ch. 19): e_a e_b = (-1)^|b & L(a)| e_{a^b} with one mask L(a) per blade
(:func:`_sign_masks`).  :func:`blade_product` writes it out for one pair
of ints, the one-row loop reads one mask per row, and :func:`blade_signs`
reads it on numpy arrays of masks.  Its references, a crossing count and
a bubble sort of the index lists, live in the tests.  A 64 KB parity
table, built on first use, serves array parities; no 4^n sign table is
built, so every route serves every n.  numpy is imported inside
functions only, so products below the Pauli floor do not load it.

The input rules live in :mod:`cliffrep._rules` and are imported back
here; the blade-mask rule, ``_require_blades``, needs the blade code and
stays in this module.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import cache
from fractions import Fraction
from itertools import chain
from numbers import Number
from typing import Iterable, Mapping

# the input rules, all of them bound here too, so cliffrep.algebra.Signature is cliffrep._rules.Signature
from ._rules import MAX_GENERATORS, Signature, as_count, as_half_integer, as_signature, metric_sign

# The pair loop takes one blade_product per blade pair; the Pauli route's
# int64 matmuls cost about d^3/128 of those for d = 2^ceil(n/2), and its
# numpy calls (30-130 us) about 2^6.  Pair-loop time / Pauli time on int
# factors with the closed-form blade_product, both routes forced, both
# orders, p in {0, n/2, n} (2 vCPUs, Python 3.11, numpy 2.4, best of 2-7
# runs), by blade pairs, 4 terms times k: n = 3..6: 0.33-0.48x at 16,
# 0.56-0.76x at 32, 0.85-1.05x at 48, 1.08-1.43x at 64; n = 7, 8:
# 0.44-0.55x at 48, 0.63-0.68x at 64, 0.90-0.99x at 96; n = 9, 10:
# 0.26-0.40x at 96-128, 0.52-0.94x at 192, 0.68-0.76x at 256; n = 11, 12:
# 0.08-0.09x at 256.  Then 2 rows times every blade: n = 11: 1.17-1.52x
# (4096 pairs); n = 12: 1.9-2.3x; n = 13: 0.43-0.50x, 0.64-0.70x at 3 rows;
# n = 14: 0.82-1.00x; n = 15: 0.24-0.33x, 0.37-0.41x at 3 rows, 0.52-1.02x
# at 4; n = 16: 0.55-0.83x.  The Pauli route takes products of two factors
# of at least two terms with at least max(d^3/128, 2^6) blade pairs: times
# every blade, 2 rows at n = 5..14 and 16, 4 at n = 15 and 4, 8 at n = 3,
# never at n <= 2.  The floor was set on the crossing-count loop, which
# these shapes ran 1.4-3x slower; at n = 7..10 and 13..16 the loop now wins
# at the floor, which is kept until it is measured again.  One row (a
# signed relabelling, see _pair_product) never takes it, and sparse
# factors stay on the loop.
_PAULI_MIN_PAIRS = 1 << 6
_SIGNS = (1, -1)  # indexed by a pair's sign parity


def grade(mask: int) -> int:
    """Number of generators in a blade."""
    return mask.bit_count()


def all_blades(sig) -> range:
    """All blade masks of Cl(p,q), ascending."""
    return range(1 << as_signature(sig).n)


def _require_blades(sig: Signature, a, b) -> None:
    """Every blade-mask check: ``a`` and ``b`` (one mask twice, a pair, or the least and greatest
    of many) are integers with 0 <= m < 2^n, else a ``ValueError`` names the least if it is negative,
    else the greatest.  ``blade_product`` runs it only on masks off its fast path, so its errors come from here too."""
    try:
        if a >= 0 and b >= 0 and not (a | b) >> sig.n:
            return
        bad = min(a, b) if min(operator.index(a), operator.index(b)) < 0 else max(a, b)
    except TypeError:
        raise ValueError(f"blade mask must be an integer, got {b if hasattr(a, '__index__') else a!r}") from None
    raise ValueError(f"blade {bad:#x} invalid for {sig}")


def blade_product(a: int, b: int, sig) -> tuple[int, int]:
    """Product of two basis blades.

    Returns ``(sign, mask)`` such that ``e_a * e_b = sign * e_mask``, with
    sign = (-1)^(|b & L(a)| + |(a & b) >> p|): bit j of L(a) is the parity
    of a's generators above j, those generator j of b crosses (the shift
    ladder of :func:`_sign_masks`, written out for ints: calling it per
    pair gives back about half the time saved), and each repeated
    generator above p gives a metric factor -1.  A ``Signature``
    and two int masks in 0..2^n-1 take that path alone; any other input
    goes through ``as_signature`` and ``_require_blades`` first, and an
    integer mask of another type (a bool or a numpy integer) is read as
    an ``int``.
    """
    if type(sig) is not Signature:
        sig = as_signature(sig)
    p, q = sig
    if not (type(a) is int and type(b) is int and not (a | b) >> (p + q)):  # for ints, one shift tests both ranges
        _require_blades(sig, a, b)
        a, b = operator.index(a), operator.index(b)
    s = a >> 1
    s ^= s >> 1
    s ^= s >> 2
    s ^= s >> 4
    s ^= s >> 8
    return -1 if ((b & s).bit_count() + ((a & b) >> p).bit_count()) & 1 else 1, a ^ b


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
        if masks.size:  # the least and greatest mask as Python scalars, so a float is named as the constructor names it
            try:
                ends = masks.min(), masks.max()
            except TypeError:  # an object array of values that do not compare: name the first non-integer
                ends = (next(m for m in masks.flat if not hasattr(m, "__index__")),) * 2
            _require_blades(sig, *np.array(ends).tolist())
    a, b = a.astype(np.int64), b.astype(np.int64)
    return (1 - 2 * _parity(b & _sign_masks(a, sig.p))).astype(np.int8)


@cache
def _pauli_images(sig: Signature):
    """Jordan-Wigner images Γ_A = i^c X^x Z^z of every blade A of ``sig``, read-only.

    With m = ceil(n/2) qubits, generator 2k is Z^{<k} X_k and generator
    2k + 1 is Z^{<k} Y_k with Y = iXZ, each times i when its index is at
    least p (so it squares to -1).  Blades are built by doubling over the
    generators: e_a e_g for the top generator g of a, by the rule
    (X^x1 Z^z1)(X^x2 Z^z2) = (-1)^|z1 & x2| X^(x1^x2) Z^(z1^z2).  Returns
    the int32 index c·4^m + x·2^m + z of each blade among the planes
    (re, im, -re, -im) of a Gaussian-integer array over the X^x Z^z: a
    coefficient put there stands for i^c times it, and the entry read
    there from a value T is the real part of i^-c·T.
    """
    import numpy as np

    n, m = sig.n, (sig.n + 1) // 2
    x, z, c = (np.zeros(1 << n, np.int32) for _ in range(3))
    for g in range(n):
        k, low, high = g >> 1, slice(0, 1 << g), slice(1 << g, 2 << g)
        gx, gz = 1 << k, (1 << k) - 1 | (g & 1) << k
        c[high] = (c[low] + (g & 1) + (g >= sig.p) + 2 * _parity(z[low] & gx)) & 3
        x[high], z[high] = x[low] ^ gx, z[low] ^ gz
    index = c << 2 * m | x << m | z
    index.flags.writeable = False
    return index


@cache
def _pauli_frame(m: int):
    """Read-only int arrays for d = 2^m: the Sylvester Hadamard H[z, j] =
    (-1)^|z & j| (int64), the shuffle (x ^ j)·d + j from Z-diagonal
    coordinates to matrix entries and back (an involution), and that
    shuffle over the planes (re, im, -re, -im) laid out as the real
    2d x 2d block [[re, -im], [im, re]] of a Gaussian-integer matrix."""
    import numpy as np

    d = 1 << m
    j = np.arange(d)
    hadamard = (1 - 2 * _parity(j[:, None] & j)).astype(np.int64)
    shuffle = (j[:, None] ^ j) << m | j
    block = np.block([[shuffle, shuffle + 3 * d * d], [shuffle + d * d, shuffle]])
    for a in (hadamard, shuffle, block):
        a.flags.writeable = False
    return hadamard, shuffle, block


def _pauli_diagonals(sig: Signature, terms: dict[int, int]):
    """The image of an int multivector in Z-diagonal coordinates: (real, imaginary) planes of 4^m int64.

    With W[x, z] the coefficient of X^x Z^z, row x of W @ H is the diagonal
    of sum_z W[x, z] Z^z, and X^x moves its entry j to (j ^ x, j).
    """
    import numpy as np

    m = (sig.n + 1) // 2
    w = np.zeros(4 << 2 * m, np.int64)
    w[_pauli_images(sig)[np.fromiter(terms, np.int32, len(terms))]] = np.fromiter(terms.values(), np.int64, len(terms))
    w = w[: 2 << 2 * m] - w[2 << 2 * m :]
    return (w.reshape(2 << m, 1 << m) @ _pauli_frame(m)[0]).reshape(2, -1)


def _from_pauli(sig: Signature, image) -> dict[int, int]:
    """The int multivector whose image has the int64 planes ``image`` (real rows above imaginary, 2d x d).

    Each blade's coefficient is tr(Γ_A^† P) / 2^m, the real part of
    i^-c·tr((X^x Z^z)^† P) / 2^m: the images are trace-orthogonal,
    tr(Γ_A^† Γ_B) = 2^m δ_AB, so the division is exact on the image of any
    int multivector.  A remainder is an ``ArithmeticError``.
    """
    import numpy as np

    m = (sig.n + 1) // 2
    hadamard, shuffle, _ = _pauli_frame(m)
    traces = image.reshape(2, -1).take(shuffle, axis=1).reshape(2 << m, 1 << m) @ hadamard
    traces = np.concatenate([traces, -traces]).take(_pauli_images(sig))
    if (traces & ((1 << m) - 1)).any():
        raise ArithmeticError(f"a Pauli trace of a {sig} product is not divisible by 2^{m}")
    out = traces >> m
    nonzero = out.nonzero()[0]
    return dict(zip(nonzero.tolist(), out[nonzero].tolist()))


def _pauli_product(sig: Signature, a: dict[int, int], b: dict[int, int]) -> dict[int, int]:
    """Exact int product through the Jordan-Wigner images (see ``_int_route``).

    The Gaussian-integer image of ``a`` is laid out as the real block
    [[re, -im], [im, re]], so one int64 matmul with [re; im] of ``b``
    gives [re; im] of the product, which comes back by traces.
    """
    import numpy as np

    m = (sig.n + 1) // 2
    _, shuffle, block = _pauli_frame(m)
    left, right = _pauli_diagonals(sig, a), _pauli_diagonals(sig, b)
    left = np.concatenate([left, -left]).take(block)
    return _from_pauli(sig, left @ right.take(shuffle, axis=1).reshape(2 << m, 1 << m))


def _int_route(sig: Signature, a: dict[int, int], b: dict[int, int]):
    """The exact product of int factors to run: Pauli when it is worth it (the
    floor at ``_PAULI_MIN_PAIRS``) and exact in int64, else None for the pair loop.

    An image entry's real and imaginary parts are at most Σ|a| together,
    so every partial sum of the product's entries is at most Σ|a|·Σ|b|,
    and each trace is a signed sum of 2^m of them.
    """
    m = (sig.n + 1) // 2
    if min(len(a), len(b)) < 2 or len(a) * len(b) < max(1 << 3 * m >> 7, _PAULI_MIN_PAIRS):
        return None
    if sum(map(abs, a.values())) * sum(map(abs, b.values())) << m >= 1 << 63:
        return None
    return _pauli_product


def _pair_product(sig: Signature, a: dict, b: dict) -> dict:
    """The product of two term dicts of any coefficient type, one blade pair at a time, zero sums dropped.

    Each pair takes one :func:`blade_product` call, read from the module
    once per product (so a wrapper set there sees every pair), and adds
    ``sign * ca * cb`` to its output blade, the left factor the outer
    loop.  A single blade times a multivector (one row, as in omega
    conjugation) relabels the other factor's terms: the row's sign mask
    (:func:`_sign_masks`, the mirror rule when the row is the right
    factor) gives each pair's sign as one AND and one parity, and each
    output blade takes its one term as ``0 + sign * ca * cb``, in the
    other factor's order, as in the pair loop, whose sums start from the
    int 0 (0 + (-0.0+1j) is 1j).
    """
    if len(a) == 1:
        ((ma, ca),) = a.items()
        rule = _sign_masks(ma, sig.p)
        terms = {ma ^ mb: 0 + _SIGNS[(mb & rule).bit_count() & 1] * ca * cb for mb, cb in b.items()}
    elif len(b) == 1:
        ((mb, cb),) = b.items()
        rule = _sign_masks(mb, sig.p, operator.lshift)
        terms = {ma ^ mb: 0 + _SIGNS[(ma & rule).bit_count() & 1] * ca * cb for ma, ca in a.items()}
    else:
        terms = {}
        product, get, row = blade_product, terms.get, b.items()
        for ma, ca in a.items():
            for mb, cb in row:
                sign, mask = product(ma, mb, sig)
                terms[mask] = get(mask, 0) + sign * ca * cb
    return {m: c for m, c in terms.items() if c != 0}


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
        if not set(map(type, terms)) <= {int}:
            terms = {as_count(m, "blade mask"): c for m, c in terms.items()}
        _require_blades(self.sig, min(terms, default=0), max(terms, default=0))
        self.terms: dict[int, Number] = {m: c for m, c in terms.items() if c != 0}

    @classmethod
    def _valid(cls, sig: Signature, terms: dict[int, Number]) -> "Multivector":
        """An element whose int masks lie in ``sig`` and whose coefficients are nonzero, unchecked:
        the result of an operation on valid elements (the masks were checked when its inputs were built)."""
        x = object.__new__(cls)
        x.sig, x.terms = sig, terms
        return x

    # -- constructors -------------------------------------------------

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
        indices = tuple(indices)
        mask = 0
        last = 0
        for i in indices:
            metric_sign(sig, i)  # validates the range
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
        return Multivector._valid(self.sig, {m: -c for m, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, Multivector):
            self._require_same_sig(other)
            a, b = self.terms, other.terms
            types = set(map(type, chain(a.values(), b.values())))
            # all-Fraction factors run on ints: one denominator per factor, one Fraction per output blade
            scaled = types == {Fraction}
            if scaled:
                (a, den_a), (b, den_b) = _integer_form(a), _integer_form(b)
            route = _int_route(self.sig, a, b) if scaled or types == {int} else None
            terms = (route or _pair_product)(self.sig, a, b)
            if scaled:
                den = den_a * den_b
                terms = {m: Fraction(v, den) for m, v in terms.items()}
            return Multivector._valid(self.sig, terms)
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

    # -- structure ----------------------------------------------------

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
        return Multivector._valid(self.sig, {m: -c if flips[grade(m) & 3] else c for m, c in self.terms.items()})

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
