"""Exact Clifford algebra arithmetic on sparse multivectors.

A basis blade of Cl(p,q) is encoded as a bit mask over the generators
e_1 .. e_{p+q}: bit i-1 set means e_i enters the monomial, always kept
in ascending index order.  Conventions:

* e_i^2 = +1 for 1 <= i <= p and e_i^2 = -1 for p < i <= p+q,
* e_i e_j = -e_j e_i for i != j,
* the empty mask is the unit e_0.

Coefficients are rationals, read by ``_rules.as_rational`` (an int, bool,
numpy integer or ``Fraction``; a float or complex is a ``ValueError``).
An element holds one int numerator per nonzero blade over one positive
int denominator, with gcd(den, every numerator) = 1, so the form is
canonical.  Sums, scalar multiples, the involutions and products (which
multiply the denominators and reduce once) run on the ints; a ``Fraction``
is built only when read, one by ``coefficient``, all at once by the
cached, read-only ``.terms``.  An element of integers (den = 1) reads
ints; one with any ``Fraction`` input reads a ``Fraction`` on every
blade.  A product takes one of two routes, chosen in ``_int_route``:

* Pauli, for factors of at least two terms each with at least
  max(d^3/64, d^2/2, 2^6) blade pairs, d = 2^m, m = ceil(n/2) (the measured
  crossover, see ``_PAULI_MIN_PAIRS``), and 2^m·Σ|a|·Σ|b| < 2^63.  Each
  factor goes to its Jordan-Wigner image, a d x d Gaussian-integer matrix
  in which blade A is i^c X^x Z^z (Jordan & Wigner 1928); the images
  multiply in int64 and each coefficient comes back as tr(Γ_A^† P) / d.
  The images are faithful and trace-orthogonal, tr(Γ_A^† Γ_B) = d δ_AB
  (distinct blades have distinct Pauli strings; Lounesto, *Clifford
  Algebras and Spinors*, ch. 16-17), so the division is exact, and a
  remainder raises.
* the pair loop on :func:`blade_product` otherwise; a single blade times
  a multivector (omega conjugation) reads one sign mask per product.

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
from numbers import Integral, Rational
from types import MappingProxyType
from typing import Iterable, Mapping

# the input rules, all of them bound here too, so cliffrep.algebra.Signature is cliffrep._rules.Signature
from ._rules import MAX_GENERATORS, Signature, as_count, as_half_integer, as_rational, as_signature, metric_sign

# The pair loop takes one blade_product per blade pair; the Pauli route's
# int64 matmuls cost about d^3/64 of those for d = 2^ceil(n/2), its
# d x d scatters, shuffles and traces about d^2/2, and its numpy calls
# (30-130 us) about 2^6.  Pair-loop time / Pauli time on int factors with
# the closed-form blade_product, both routes forced, both orders, p in
# {0, n/2, n} (2 vCPUs, Python 3.11, numpy 2.4, best of 5 runs), by blade
# pairs, 4 terms times k: n = 4..6: 0.38-1.35x at 32-48, 0.97-1.52x at 64,
# 1.49-1.81x at 96; n = 7, 8: 0.50-1.06x at 64, 0.63-1.39x at 96,
# 1.08-1.70x at 128; n = 9, 10: 0.45-1.19x at 256, 0.61-1.20x at 384,
# 0.97-1.49x at 512, 1.25-2.97x at 768; n = 11, 12: 0.52-0.97x at 2048,
# 0.93-1.19x at 3072, 1.17-1.52x at 4096.  Then r rows times every blade:
# n = 11, 12: 1.06-2.84x at 2 rows; n = 13: 0.42-0.49x at 2, 0.62-1.05x at
# 3, 0.79-1.42x at 4, 1.24-2.39x at 6; n = 14: 0.90-1.42x at 2, 1.21-2.27x
# at 3; n = 15: 0.53-0.89x at 4, 0.72-0.83x at 6, 0.96-1.44x at 8; n = 16:
# 0.76-0.85x at 2, 0.75-1.33x at 3, 1.14-1.71x at 4.  The Pauli route
# takes products of two factors of at least two terms with at least
# max(d^3/64, d^2/2, 2^6) blade pairs: 2^6 at n <= 6, 2^7 at n = 7, 8,
# then 2^9, 2^12, 2^15 and 2^18 for each following pair of n; times every
# blade, 2 rows at n = 5..12 and 14, 4 at n = 4, 13 and 16, 8 at n = 3
# and 15, never at n <= 2.  One row (a signed relabelling, see
# _pair_product) never takes it, and sparse factors stay on the loop.
_PAULI_MIN_PAIRS = 1 << 6
_SIGNS = (1, -1)  # indexed by a pair's sign parity


def grade(mask: int) -> int:
    """Number of generators in a blade."""
    return mask.bit_count()


def all_blades(sig) -> range:
    """All blade masks of Cl(p,q), ascending."""
    return range(1 << as_signature(sig).n)


def _require_blades(sig: Signature, a, b) -> tuple[int, int]:
    """Every blade-mask check: ``a`` and ``b`` (one mask twice, a pair, or the least and greatest
    of many) are integers (``as_count``, so a numpy bool is not one) with 0 <= m < 2^n, else a
    ``ValueError`` names the first non-integer, else the least mask if it is negative, else the
    greatest.  Returns both as ints.  ``blade_product`` runs it only on masks off its fast path,
    so its errors come from here too."""
    if type(a) is not int or type(b) is not int:
        a, b = as_count(a, "blade mask"), as_count(b, "blade mask")
    if a < 0 or b < 0 or (a | b) >> sig.n:
        raise ValueError(f"blade {min(a, b) if min(a, b) < 0 else max(a, b):#x} invalid for {sig}")
    return a, b


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
        a, b = _require_blades(sig, a, b)
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
        if masks.dtype == object:  # every value by the rule, first to last: a numpy bool among ints would compare as one
            for m in masks.flat:
                as_count(m, "blade mask")
        if masks.size:  # the least and greatest mask as Python scalars, so a float is named as the constructor names it,
            # but numpy bools stay numpy bools, which the rule rejects (a Python bool is an integer)
            ends = np.array((masks.min(), masks.max()))
            _require_blades(sig, *(ends if ends.dtype == bool else ends.tolist()))
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
    """The exact product of numerator dicts to run: Pauli when it is worth it (the
    floor at ``_PAULI_MIN_PAIRS``) and exact in int64, else None for the pair loop.

    An image entry's real and imaginary parts are at most Σ|a| together,
    so every partial sum of the product's entries is at most Σ|a|·Σ|b|,
    and each trace is a signed sum of 2^m of them.
    """
    m = (sig.n + 1) // 2
    if min(len(a), len(b)) < 2 or len(a) * len(b) < max(1 << 3 * m >> 6, 1 << 2 * m >> 1, _PAULI_MIN_PAIRS):
        return None
    if sum(map(abs, a.values())) * sum(map(abs, b.values())) << m >= 1 << 63:
        return None
    return _pauli_product


def _pair_product(sig: Signature, a: dict[int, int], b: dict[int, int]) -> dict[int, int]:
    """The product of two numerator dicts, one blade pair at a time, zero sums dropped.

    Each pair takes one :func:`blade_product` call, read from the module once per product (so a wrapper set
    there sees every pair).  A single blade times a multivector (one row, as in omega conjugation) relabels
    the other factor's terms: the row's sign mask (:func:`_sign_masks`, the mirror rule when the row is the
    right factor) gives each pair's sign as one AND and one parity.
    """
    if len(a) == 1:
        ((ma, ca),) = a.items()
        rule = _sign_masks(ma, sig.p)
        terms = {ma ^ mb: _SIGNS[(mb & rule).bit_count() & 1] * ca * cb for mb, cb in b.items()}
    elif len(b) == 1:
        ((mb, cb),) = b.items()
        rule = _sign_masks(mb, sig.p, operator.lshift)
        terms = {ma ^ mb: _SIGNS[(ma & rule).bit_count() & 1] * ca * cb for ma, ca in a.items()}
    else:
        terms = {}
        product, get, row = blade_product, terms.get, b.items()
        for ma, ca in a.items():
            for mb, cb in row:
                sign, mask = product(ma, mb, sig)
                terms[mask] = get(mask, 0) + sign * ca * cb
    return {m: c for m, c in terms.items() if c != 0}


def blade_name(mask: int) -> str:
    """Human-readable name, e.g. ``e0``, ``e134``, ``e{3,12}``."""
    if mask == 0:
        return "e0"
    idx = [i + 1 for i in range(mask.bit_length()) if mask >> i & 1]
    if idx[-1] <= 9:
        return "e" + "".join(str(i) for i in idx)
    return "e{" + ",".join(str(i) for i in idx) + "}"


class Multivector:
    """Sparse element of Cl(p,q): a finite sum of ``coeff * blade``, held as int numerators over one denominator."""

    __slots__ = ("_sig", "_nums", "_den", "_fraction", "_terms")
    __array_ufunc__ = None  # a numpy scalar on the left defers to __rmul__, so the coefficient rule sees it as it is

    def __init__(self, sig, terms: Mapping[int, Rational] | None = None):
        self._sig, terms = as_signature(sig), {} if terms is None else terms
        if not isinstance(terms, Mapping):
            raise ValueError(f"terms must be a mapping from blade masks to coefficients, got {terms!r}")
        if not set(map(type, terms)) <= {int}:
            terms = {as_count(m, "blade mask"): c for m, c in terms.items()}
        _require_blades(self._sig, min(terms, default=0), max(terms, default=0))
        kinds = set(map(type, terms.values()))
        self._fraction, self._terms, self._den = not all(issubclass(k, Integral) for k in kinds), None, 1
        if kinds <= {int}:
            self._nums = {m: c for m, c in terms.items() if c}
            return
        # ratios in lowest terms: no prime of their lcm divides every scaled numerator, so the form is reduced as it stands
        ratios = list(map(as_rational, terms.values()))
        den = self._den = math.lcm(*[d for _, d in ratios])
        self._nums = {m: v * (den // d) for m, (v, d) in zip(terms, ratios) if v}

    @classmethod
    def _valid(cls, sig: Signature, nums: dict[int, int], den: int, fraction: bool) -> "Multivector":
        """An unchecked element (its masks were checked in its operands), reduced here by gcd(den, every numerator)."""
        g = math.gcd(den, *nums.values()) if den > 1 else 1
        x = object.__new__(cls)
        x._sig, x._den, x._fraction, x._terms = sig, den // g, fraction, None
        x._nums = {m: v // g for m, v in nums.items()} if g > 1 else nums
        return x

    @property
    def sig(self) -> Signature:
        """The element's signature, read-only: every operation takes it on trust, its masks were checked against it."""
        return self._sig

    @property
    def terms(self) -> Mapping[int, int | Fraction]:
        """Read-only view of each nonzero blade's coefficient: the int numerators, or ``Fraction`` objects built once."""
        if not self._fraction:
            return MappingProxyType(self._nums)
        if self._terms is None:
            den = self._den
            self._terms = {m: Fraction(v, den) for m, v in self._nums.items()}
        return MappingProxyType(self._terms)  # the cache is a plain dict, so an element pickles and deep-copies

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
        if self._sig != other._sig:
            raise ValueError(f"signature mismatch: {self._sig} vs {other._sig}")

    def __add__(self, other):
        if not isinstance(other, Multivector):
            return NotImplemented
        self._require_same_sig(other)
        den = math.lcm(self._den, other._den)
        nums = {m: v * (den // self._den) for m, v in self._nums.items()}
        for m, v in other._nums.items():
            nums[m] = nums.get(m, 0) + v * (den // other._den)
        return Multivector._valid(self._sig, {m: v for m, v in nums.items() if v}, den, self._fraction or other._fraction)

    def __sub__(self, other):
        if not isinstance(other, Multivector):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return Multivector._valid(self._sig, {m: -v for m, v in self._nums.items()}, self._den, self._fraction)

    def __mul__(self, other):
        if not isinstance(other, Multivector):
            return self.__rmul__(other)  # a coefficient commutes with every element
        self._require_same_sig(other)
        a, b = self._nums, other._nums
        nums = (_int_route(self._sig, a, b) or _pair_product)(self._sig, a, b)
        return Multivector._valid(self._sig, nums, self._den * other._den, self._fraction or other._fraction)

    def __rmul__(self, value):
        """The element times a coefficient, which the ``as_rational`` rule reads."""
        num, den = as_rational(value)
        nums = {m: v * num for m, v in self._nums.items()} if num else {}
        return Multivector._valid(self._sig, nums, self._den * den, self._fraction or not isinstance(value, Integral))

    def __eq__(self, other):
        if not isinstance(other, Multivector):
            return NotImplemented
        return self._sig == other._sig and self._den == other._den and self._nums == other._nums

    __hash__ = None  # mutable-by-convention container

    # -- structure ----------------------------------------------------

    def z2_degree(self) -> int | None:
        """0 for even, 1 for odd, None if mixed.  The zero element is even."""
        degs = {grade(m) & 1 for m in self._nums}
        return None if len(degs) > 1 else degs.pop() if degs else 0

    def coefficient(self, mask: int):
        """The coefficient of blade ``mask`` as ``.terms`` reads it, else the int 0; a bad mask raises the constructor's message."""
        if type(mask) is not int or mask >> self._sig.n:  # a negative int shifts to -1
            mask = _require_blades(self._sig, mask, mask)[0]
        v = self._nums.get(mask, 0)
        return Fraction(v, self._den) if self._fraction and v else v

    # -- fundamental (anti)automorphisms --------------------------------

    def _negate_grades(self, flips: tuple[int, int, int, int]) -> "Multivector":
        """Negate each grade-k part for which ``flips[k % 4]`` is set."""
        nums = {m: -v if flips[m.bit_count() & 3] else v for m, v in self._nums.items()}
        return Multivector._valid(self._sig, nums, self._den, self._fraction)

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
