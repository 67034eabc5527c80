"""The one rule for each scalar input kind; every other module calls it.

These rules import nothing from the rest of the package, so the label
commands, which need them and the classification, load no multivector
code.  Each input kind fails one way:

* a signature (p, q): :class:`Signature`, through :func:`as_signature`;
* a count or other integer: :func:`as_count`;
* a number of generators: :func:`as_generator_count`, at most
  ``MAX_GENERATORS``, the bound every signature meets;
* a 1-based generator index: :func:`metric_sign`, "generator index 4
  outside 1..3";
* a blade mask: ``algebra._require_blades``, "blade 0x4 invalid for
  Cl(1,1)" or "blade mask must be an integer, got 1.5";
* a spin of Spin+(1,3): :func:`as_half_integer`, an int or ``Fraction``
  whose double is an integer;
* a multivector coefficient: :func:`as_rational`, "a coefficient must be
  an int or Fraction, got 0.5".

Each raises ``ValueError`` naming the value.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from numbers import Integral, Rational
from typing import Iterator, NamedTuple

MAX_GENERATORS = 16


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
        as_generator_count(p + q)
        return super().__new__(cls, p, q)

    @classmethod
    def _make(cls, iterable) -> "Signature":  # also behind _replace
        """The rule of :func:`as_signature`; an iterator is read into a tuple first, so a message names its values."""
        return as_signature(tuple(iterable) if isinstance(iterable, Iterator) else iterable)

    @property
    def n(self) -> int:
        return self.p + self.q

    @property
    def metric(self) -> tuple[int, ...]:
        """Each generator's square, positives first."""
        return (1,) * self.p + (-1,) * self.q

    def __str__(self) -> str:
        return f"Cl({self.p},{self.q})"


def as_signature(sig) -> Signature:
    """Coerce a (p, q) pair to a :class:`Signature`, which validates it; anything
    that does not unpack to two values is a ``ValueError`` naming it."""
    if isinstance(sig, Signature):
        return sig
    try:
        p, q = sig
    except (TypeError, ValueError):
        raise ValueError(f"a signature must be a (p, q) pair, got {sig!r}") from None
    return Signature(p, q)


def as_count(x, name: str) -> int:
    """``x`` as an ``int``: a ``numbers.Integral`` (an int, a bool or a numpy integer) through
    ``operator.index``.  Anything else is a ValueError: a float, and a numpy bool, which is no
    ``Integral`` though older numpy lets ``operator.index`` read it, with a DeprecationWarning."""
    if not isinstance(x, Integral):
        raise ValueError(f"{name} must be an integer, got {x!r}")
    return operator.index(x)


def as_generator_count(n) -> int:
    """A number ``n`` of generators: an integer (:func:`as_count`) in 0..``MAX_GENERATORS``."""
    n = as_count(n, "n")
    if n < 0:
        raise ValueError("n must be non-negative")
    if n > MAX_GENERATORS:
        raise ValueError(f"at most {MAX_GENERATORS} generators are supported")
    return n


def as_half_integer(x) -> Fraction:
    """``x`` as an exact ``Fraction`` of two ints: an int or ``Fraction`` (any ``numbers.Rational``)
    whose double is an integer, that is whose lowest-terms denominator is 1 or 2.  A ``Fraction``
    is returned as it is."""
    if type(x) is not Fraction:
        if not isinstance(x, Rational):
            raise ValueError(f"expected a half-integer int or Fraction, got {x!r}")
        x = Fraction(int(x.numerator), int(x.denominator))  # a numpy integer's parts are numpy integers
    if x.denominator > 2:
        raise ValueError(f"{x} is not a half-integer")
    return x


def as_rational(x) -> tuple[int, int]:
    """A coefficient ``x`` as its numerator and positive denominator, two ints: any
    ``numbers.Rational`` (an int, a bool, a numpy integer, a ``Fraction`` or a subclass).  Anything
    else is a ValueError naming it: a float, a numpy float, a complex, a str, None."""
    if type(x) is int:
        return x, 1
    if type(x) is Fraction:  # the exact type skips the numbers.Rational check, which costs more than the read
        return x.as_integer_ratio()
    if not isinstance(x, Rational):
        raise ValueError(f"a coefficient must be an int or Fraction, got {x!r}")
    return int(x.numerator), int(x.denominator)  # a numpy integer's parts are numpy integers


def metric_sign(sig, i: int) -> int:
    """Square of the generator e_i (1-based index): the check of every generator index."""
    sig = as_signature(sig)
    i = as_count(i, "generator index")
    if not 1 <= i <= sig.n:
        raise ValueError(f"generator index {i} outside 1..{sig.n}")
    return 1 if i <= sig.p else -1
