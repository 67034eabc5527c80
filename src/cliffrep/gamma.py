"""Explicit gamma-matrix representations of Clifford algebra generators.

Even p+q: a Kronecker chain over the greedy two-generator factorization.
Each factor contributes a fixed 2x2 seed pair; generators of later
factors are left-padded with the volume elements of the earlier factors,
which both enforces anticommutation across factors and replays the
Karoubi sign flips (a definite factor's volume squares to -1, negating
the squares of everything behind it).

Odd p+q: the first p+q-1 generators are represented twice on the block
diagonal; the last generator is +/- (scaled volume element of the rest)
in the two blocks, which keeps the representation faithful at twice the
even-truncated dimension.

All seed entries lie in {0, +/-1, +/-i}, so every gamma is monomial: each
row holds one entry, a Z4 phase i^k (Lounesto, *Clifford Algebras and
Spinors*, ch. 16-17).  The synthesis works on that form alone, one column
and one phase per row (:func:`generator_forms`), in pure Python: a
Kronecker product is index arithmetic and a matrix product a gather with a
mod-4 phase sum.  A form is O(dim), so the synthesis has no bound beyond
:func:`as_signature`'s 16 generators (dim 256).  :func:`form_entries` turns
a form into the entry lists of its real and imaginary parts, and the one
writer pair of :mod:`cliffrep._entries` writes them out, every zero part +0.0:
:func:`build_generators` through ``dense`` into complex arrays, and
``matrep`` through ``cell_texts`` into the rows it prints.

One rule, :func:`form_verdict`, decides on such forms the defining
relations, omega = +-I and omega^2 = +-I, by integer gathers and mod-4
phase sums with no float product.  The gamma check and ``matrep`` hand it
the synthesised forms, the odd synthesis its volume image, and
:func:`verify_anticommutation`, :func:`faithfulness_rank` and
:func:`omega_image_square_sign` a set's dense gammas read back by
:func:`_monomial_forms`; a set that is not monomial fails closed.  The rule
lives here, in pure Python, and not in a numpy exact layer, because
``matrep`` must stay numpy-free.  numpy is imported inside the functions
that make or read dense arrays, so the synthesis, the rule and ``matrep``
load none.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from operator import add, sub
from typing import TYPE_CHECKING, Iterator, NamedTuple, Sequence

from ._entries import Operator, dense
from ._rules import Signature, as_signature
from .factorize import FACTOR_HYPERBOLIC, FACTOR_NEG, FACTOR_POS, Factorization, karoubi_factorize

if TYPE_CHECKING:
    import numpy as np

#: a monomial matrix as (columns, phases): row r holds i^phases[r] at column columns[r], zeros elsewhere
Form = tuple[tuple[int, ...], tuple[int, ...]]

_X: Form = ((1, 0), (0, 0))
_Z: Form = ((0, 1), (0, 2))
_J: Form = ((1, 0), (0, 2))
_IX: Form = ((1, 0), (1, 1))

#: seed pairs (squares match the factor metric)
SEEDS = {
    FACTOR_HYPERBOLIC: (_X, _J),
    FACTOR_POS: (_X, _Z),
    FACTOR_NEG: (_IX, _J),
}

#: the (real, imaginary) parts of the Z4 phases i^0 .. i^3, every zero +0.0
_PHASE_PARTS = ((1.0, 0.0), (0.0, 1.0), (-1.0, 0.0), (0.0, -1.0))


@dataclass(frozen=True)
class GeneratorSet:
    """Gamma matrices of Cl(p,q), ordered positives first."""

    sig: Signature
    gammas: tuple[np.ndarray, ...]
    reducible: bool
    basis_note: str

    def __post_init__(self):
        import numpy as np

        object.__setattr__(self, "sig", as_signature(self.sig))
        object.__setattr__(self, "gammas", tuple(map(np.asarray, self.gammas)))  # an array is kept as it is
        shapes = [g.shape for g in self.gammas]
        if len(shapes) != self.sig.n or len(set(shapes)) > 1 or any(len(s) != 2 or s[0] != s[1] for s in shapes):
            raise ValueError(f"{self.sig} needs {self.sig.n} square gamma matrices of one dimension, got shapes {shapes}")
        if shapes and shapes[0][0] == 0:
            raise ValueError(f"{self.sig} needs gamma matrices of dimension at least 1, got shapes {shapes}")

    @property
    def dim(self) -> int:
        return self.gammas[0].shape[0] if self.gammas else 1

    @property
    def metric(self) -> tuple[int, ...]:
        return self.sig.metric


def _identity(dim: int) -> Form:
    return tuple(range(dim)), (0,) * dim


def _tensor(a: Form, b: Form) -> Form:
    """The form of kron(a, b): row (r, s) holds the product of row r's entry of a and row s's of b."""
    (ca, pa), (cb, pb) = a, b
    d = len(cb)
    return tuple([c * d + e for c in ca for e in cb]), tuple([(u + v) % 4 for u in pa for v in pb])


def _product(a: Form, b: Form) -> Form:
    """The form of a @ b: row r of a picks row columns[r] of b."""
    (ca, pa), (cb, pb) = a, b
    return tuple([cb[c] for c in ca]), tuple([(u + pb[c]) % 4 for u, c in zip(pa, ca)])


def _even_forms(fact: Factorization) -> tuple[list[Form], list[Form]]:
    """(positive-square, negative-square) forms for even p+q."""
    pos: list[Form] = []
    neg: list[Form] = []
    left, left_sq = _identity(1), 1  # product of volume elements peeled so far, and its square
    remaining = sum(f.n for f in fact.factors)
    for i, f in enumerate(fact.factors):
        remaining -= f.n
        pad = _identity(1 << (remaining // 2))
        a, b = SEEDS[f]
        for seed, seed_sq in ((a, 1 if f.p >= 1 else -1), (b, -1 if f.q >= 1 else 1)):
            (pos if left_sq * seed_sq > 0 else neg).append(_tensor(_tensor(left, seed), pad))
        left = _tensor(left, _product(a, b))
        if i in fact.flip_steps:  # a definite factor: its volume squares to -1
            left_sq = -left_sq
    return pos, neg


def generator_forms(sig) -> tuple[tuple[Form, ...], bool, str]:
    """``(forms, reducible, basis_note)``: the (column, phase) form of each gamma of
    :func:`build_generators`, in its order, all in pure Python."""
    sig = as_signature(sig)
    if sig.n == 0:
        return (), False, "trivial 1-dim module"
    if sig.n % 2 == 0:
        fact = karoubi_factorize(sig)
        pos, neg = _even_forms(fact)
        return tuple(pos + neg), False, "Kronecker chain over factors " + " , ".join(str(f) for f in fact.factors)

    # odd: block-double the even-truncated algebra
    trunc, last_metric = (Signature(sig.p, sig.q - 1), -1) if sig.q >= 1 else (Signature(sig.p - 1, 0), 1)
    base = generator_forms(trunc)[0]
    columns, phases = reduce(_product, base, _identity(1 << (trunc.n // 2)))  # the volume image
    # judged as a set of one, it is its own omega: i^scale times it squares to last_metric
    scale = 0 if form_verdict(((columns, phases),), (last_metric,)).omega_sign == last_metric else 1
    last = _tensor(_Z, (columns, tuple((k + scale) % 4 for k in phases)))
    note = f"two blocks of the {trunc} module, last generator = +/- scaled volume element"
    return tuple(_tensor(_identity(2), g) for g in base) + (last,), True, note


def form_entries(form: Form) -> Operator:
    """The form's (real, imaginary) entry lists: row r's i^k at (r, columns[r]), in the part it lies in,
    its value from ``_PHASE_PARTS``, so every other entry of both parts is +0.0."""
    parts: Operator = [], []
    for r, (c, k) in enumerate(zip(*form)):
        parts[k % 2].append((r, c, _PHASE_PARTS[k][k % 2]))
    return parts


def build_generators(sig) -> GeneratorSet:
    """Anticommuting matrices g_i with g_i^2 = +1 (i <= p) or -1 (i > p): the forms of
    :func:`generator_forms` as :func:`form_entries`, written by ``_entries.dense``."""
    sig = as_signature(sig)
    forms, reducible, note = generator_forms(sig)
    gammas = dense(len(forms[0][0]) if forms else 1, [form_entries(f) for f in forms])
    return GeneratorSet(sig, gammas, reducible=reducible, basis_note=note)


class GammaVerdict(NamedTuple):
    """What :func:`form_verdict` proves of one set of (column, phase) forms."""

    relations: bool  #: g_i g_j + g_j g_i = 2 eta_ij I
    rank: int  #: the faithfulness rank, read when the relations hold
    omega_sign: int  #: +-1 with omega_image^2 = sign * I, else 0


def _times(a: list[int], b: list[int]) -> list[int]:
    """a @ b on packed rows ``column << 4 | phase``: row r of a picks row a[r] >> 4 of b, phases added mod 4."""
    return [(e & -16) | ((x + e) & 3) for x in a for e in [b[x >> 4]]]


def form_verdict(forms: Sequence[Form], metric: Sequence[int]) -> GammaVerdict:
    """The :class:`GammaVerdict` of gammas given as (column, phase) forms with phases in 0..3, in pure
    Python: the one rule that decides g_a g_b + g_b g_a = 2 eta_ab I, omega = +-I and omega^2 = +-I.

    Each row is packed into one int ``column << 4 | phase``.  Row r of g_a g_b is g_b's packed row
    columns_a[r] plus phases_a[r], whose phase sum (at most 6) stays below bit 4; two such rows differ
    by 16 (column difference) + (phase difference), so g_a g_b + g_b g_a = 0 iff every row's difference
    is one of +-2, +-6: the columns agree and the phases differ by 2 (mod 4).  g_a^2 = eta_a I iff
    each row of it is the identity's with phase 1 - eta_a (mod 4).  omega = g_1 ... g_n is folded left
    to right; for odd n the rank halves exactly when omega = +-I.

    Input it cannot judge is one ``ValueError`` naming the mismatch: each form needs one metric entry,
    +1 or -1, and is a pair (columns, phases) of int sequences of one common length dim >= 1, its
    columns in 0..dim-1 and its phases in 0..3.
    """
    n, dim = len(forms), len(forms[0][0]) if forms else 1
    if len(metric) != n or not set(metric) <= {1, -1}:
        raise ValueError(f"{n} forms need {n} metric entries, each +1 or -1, got {list(metric)}")
    if dim < 1:
        raise ValueError("forms need dim >= 1 rows")
    for a, (columns, phases) in enumerate(forms):
        if not (
            len(columns) == len(phases) == dim
            and {*map(type, columns), *map(type, phases)} <= {int}
            and set(columns) <= set(range(dim))
            and set(phases) <= {0, 1, 2, 3}
        ):
            raise ValueError(f"form {a} is not {dim} int columns in 0..{dim - 1} and {dim} int phases in 0..3")
    packed = [[c << 4 | k for c, k in zip(*form)] for form in forms]
    identity = [r << 4 for r in range(dim)]

    def product(a: int, b: int) -> Iterator[int]:
        """g_a g_b's packed rows, phases not reduced."""
        columns, phases = forms[a]
        return map(add, map(packed[b].__getitem__, columns), phases)

    relations = all(
        set(map(sub, product(a, a), identity)) <= {(1 - eta) % 4, (1 - eta) % 4 + 4}
        and all(set(map(sub, product(a, b), product(b, a))) <= {-6, -2, 2, 6} for b in range(a + 1, n))
        for a, eta in enumerate(metric)
    )
    minus = [x | 2 for x in identity]
    omega = reduce(_times, packed, identity)
    square = _times(omega, omega)
    rank = 1 << n >> 1 if n % 2 and omega in (identity, minus) else 1 << n
    return GammaVerdict(relations, rank, 1 if square == identity else -1 if square == minus else 0)


_NOT_MONOMIAL = ": a gamma matrix is not monomial over {1, i, -1, -i}"


def _monomial_forms(gen: GeneratorSet) -> tuple[Form, ...] | None:
    """The (column, phase) form of each of ``gen``'s dense gammas, or None if one is not monomial:
    a row with other than one nonzero entry, or an entry outside {1, i, -1, -i}."""
    import numpy as np

    stack = np.array(gen.gammas).reshape(gen.sig.n, gen.dim, gen.dim)
    nonzero = stack != 0
    columns = nonzero.argmax(axis=-1)
    match = np.take_along_axis(stack, columns[..., None], axis=-1) == np.array([complex(*z) for z in _PHASE_PARTS])
    if not ((nonzero.sum(axis=-1) == 1) & match.any(axis=-1)).all():
        return None
    return tuple(zip(map(tuple, columns.tolist()), map(tuple, match.argmax(axis=-1).tolist())))


def _set_verdict(gen: GeneratorSet) -> GammaVerdict | None:
    """:func:`form_verdict` of ``gen``'s gammas read by :func:`_monomial_forms`; None for a set that is
    not monomial, which fails closed."""
    forms = _monomial_forms(gen)
    return None if forms is None else form_verdict(forms, gen.metric)


def verify_anticommutation(gen: GeneratorSet) -> bool:
    """Exact check of g_i g_j + g_j g_i = 2 eta_ij I on the monomial form; False for a set
    that is not monomial."""
    verdict = _set_verdict(gen)
    return verdict is not None and verdict.relations


def faithfulness_rank(gen: GeneratorSet) -> int:
    """Dimension of the real linear span of all blade images, exactly.

    The defining relations are checked first (``ValueError`` if they fail,
    or if the set is not monomial).  Trace argument (Lounesto, *Clifford
    Algebras and Spinors*, ss. 16-17): each blade but 1 and the odd-n volume
    element anticommutes with some generator, so the images are orthogonal
    under tr(x^-1 y); for odd n the span halves exactly when the central
    volume image is +-I: :func:`form_verdict` on the monomial form.
    """
    verdict = _set_verdict(gen)
    if verdict is None or not verdict.relations:
        raise ValueError(f"gamma matrices of {gen.sig} violate the defining relations" + ("" if verdict else _NOT_MONOMIAL))
    return verdict.rank


def omega_image(gen: GeneratorSet) -> np.ndarray:
    """Image of the volume element."""
    import numpy as np

    return reduce(np.matmul, gen.gammas, np.eye(gen.dim, dtype=complex))


def omega_image_square_sign(gen: GeneratorSet) -> int:
    """+/-1 with omega_image^2 = sign * I; must match the mod-8 law.  :func:`form_verdict` on the
    monomial form: a set that is not monomial raises ``ValueError``, as one whose volume image does
    not square to +/- I does."""
    verdict = _set_verdict(gen)
    if verdict is None or not verdict.omega_sign:
        raise ValueError("volume element image does not square to +/- identity" + ("" if verdict else _NOT_MONOMIAL))
    return verdict.omega_sign
