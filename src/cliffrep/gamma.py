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
row holds one entry, a Z4 phase i^k.  The synthesis works on that form
alone, one column and one phase per row (:func:`generator_forms`), in pure
Python: a Kronecker product is index arithmetic and a matrix product a
gather with a mod-4 phase sum.  :func:`build_generators` writes the forms
into dense complex arrays, every zero part +0.0; ``matrep`` writes its rows
from the forms and proves the relations on them (:func:`forms_anticommute`).
The checks read a set's dense bits back into that form and prove the
relations, the volume image and its square by integer gathers and mod-4
phase sums (:func:`gamma_verdicts`), with no float product; sets of one
generator count stack into one pass.  A set that is not monomial fails
closed.  numpy is imported inside the functions that make or read dense
arrays, so the synthesis and ``matrep`` load none.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from typing import TYPE_CHECKING, NamedTuple, Sequence

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

MAX_SYNTHESIS_GENERATORS = 12  #: most generators :func:`generator_forms` synthesises (dim 64)


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

    @property
    def dim(self) -> int:
        return self.gammas[0].shape[0] if self.gammas else 1

    @property
    def metric(self) -> tuple[int, ...]:
        return (1,) * self.sig.p + (-1,) * self.sig.q


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
    if sig.n > MAX_SYNTHESIS_GENERATORS:
        raise ValueError(f"generator synthesis supported up to {MAX_SYNTHESIS_GENERATORS} generators")
    if sig.n == 0:
        return (), False, "trivial 1-dim module"
    if sig.n % 2 == 0:
        fact = karoubi_factorize(sig)
        pos, neg = _even_forms(fact)
        return tuple(pos + neg), False, "Kronecker chain over factors " + " , ".join(str(f) for f in fact.factors)

    # odd: block-double the even-truncated algebra
    trunc, last_metric = (Signature(sig.p, sig.q - 1), -1) if sig.q >= 1 else (Signature(sig.p - 1, 0), 1)
    base = generator_forms(trunc)[0]
    columns, phases = reduce(_product, base, _identity(1 << (trunc.n // 2)))  # the volume image; it squares to +-I
    square_sign = 1 if _product((columns, phases), (columns, phases))[1][0] == 0 else -1
    scale = 0 if square_sign == last_metric else 1  # i^scale times it squares to last_metric
    last = _tensor(_Z, (columns, tuple((k + scale) % 4 for k in phases)))
    note = f"two blocks of the {trunc} module, last generator = +/- scaled volume element"
    return tuple(_tensor(_identity(2), g) for g in base) + (last,), True, note


def forms_anticommute(forms: Sequence[Form], metric: Sequence[int]) -> bool:
    """g_a g_b + g_b g_a = 2 eta_ab I on (column, phase) forms with phases in 0..3, in pure Python: the
    rule of :func:`_relations` one pair at a time.  g_a^2 = eta_a I iff its square's columns are the
    identity and its phases all 1 - eta_a (mod 4); g_a g_b and g_b g_a are monomial, so their sum
    vanishes iff their columns agree and their phases differ by 2 (mod 4)."""
    for a, g in enumerate(forms):
        dim = len(g[0])
        if _product(g, g) != (tuple(range(dim)), ((1 - metric[a]) % 4,) * dim):
            return False
        for h in forms[a + 1 :]:
            (gh_columns, gh_phases), (hg_columns, hg_phases) = _product(g, h), _product(h, g)
            if gh_columns != hg_columns or any((u - v) % 4 != 2 for u, v in zip(gh_phases, hg_phases)):
                return False
    return True


def form_parts(form: Form) -> tuple[list[float], list[float]]:
    """The row-major real and imaginary parts of a form's dense matrix, as float lists, every zero +0.0:
    what :func:`build_generators` writes into its arrays, without numpy."""
    columns, phases = form
    dim = len(columns)
    re, im = [0.0] * (dim * dim), [0.0] * (dim * dim)
    for r, (c, k) in enumerate(zip(columns, phases)):
        re[r * dim + c], im[r * dim + c] = _PHASE_PARTS[k]
    return re, im


def build_generators(sig) -> GeneratorSet:
    """Anticommuting matrices g_i with g_i^2 = +1 (i <= p) or -1 (i > p): the forms of
    :func:`generator_forms`, written into one zeroed complex stack by one index write."""
    import numpy as np

    sig = as_signature(sig)
    forms, reducible, note = generator_forms(sig)
    dim = len(forms[0][0]) if forms else 1
    stack = np.zeros((len(forms), dim, dim), dtype=complex)
    columns, phases = (np.array([f[k] for f in forms], dtype=int).reshape(len(forms), dim) for k in (0, 1))
    values = np.array([complex(*z) for z in _PHASE_PARTS])[phases]
    np.put_along_axis(stack, columns[..., None], values[..., None], axis=-1)
    return GeneratorSet(sig, tuple(stack), reducible=reducible, basis_note=note)


class GammaVerdict(NamedTuple):
    """What :func:`gamma_verdicts` proves of one generator set."""

    monomial: bool  #: every row of every gamma holds one entry, of {1, i, -1, -i}
    relations: bool  #: monomial, and g_i g_j + g_j g_i = 2 eta_ij I
    rank: int  #: the faithfulness rank, read when the relations hold
    omega_sign: int  #: +-1 with omega_image^2 = sign * I on the monomial form, else 0


_NOT_MONOMIAL = ": a gamma matrix is not monomial over {1, i, -1, -i}"


def _monomial_forms(stack: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(columns, phases, monomial)`` of gammas stacked (S, n, d, d): when ``monomial[s]``, row r
    of gamma a of set s holds i^phases[s, a, r] at column columns[s, a, r] and zeros elsewhere."""
    import numpy as np

    nonzero = stack != 0
    columns = nonzero.argmax(axis=-1)
    match = np.take_along_axis(stack, columns[..., None], axis=-1) == np.array([complex(*z) for z in _PHASE_PARTS])
    monomial = (nonzero.sum(axis=-1) == 1) & match.any(axis=-1)
    return columns, match.argmax(axis=-1), monomial.all(axis=(1, 2))


def _relations(columns: np.ndarray, phases: np.ndarray, metric: np.ndarray) -> tuple[np.ndarray, ...]:
    """``(relations, omega_scalar, omega_sign)`` per set of the (S, n, d) monomial forms, with
    ``metric`` (S, n): integer gathers and mod-4 phase sums, exact.

    Row r of g_a g_b sits at column columns[b][columns[a][r]] with phase
    phases[a][r] + phases[b][columns[a][r]].  Both products are monomial, so
    their sum vanishes iff their columns agree and their phases differ by 2
    (mod 4), and g_a^2 = eta_a I iff its columns are the identity and its
    phases all 1 - eta_a.  omega = g_1 ... g_n is folded left to right;
    ``omega_scalar`` says omega = +-I, and ``omega_sign`` is +-1 where
    omega^2 = +-I, else 0.
    """
    import numpy as np

    sets, n, dim = columns.shape
    rows, s = np.arange(dim), np.arange(sets)[:, None]
    # indices [s, a, b, r]: row r of g_a reads row columns[s, a, r] of g_b
    g_b = (s[..., None, None], np.arange(n)[:, None], columns[:, :, None, :])
    product_columns, product_phases = columns[g_b], phases[:, :, None, :] + phases[g_b]
    anticommute = (product_columns == product_columns.swapaxes(1, 2)) & (
        (product_phases - product_phases.swapaxes(1, 2)) % 4 == 2
    )
    square = (product_columns == rows) & (product_phases % 4 == (1 - metric)[:, :, None, None])
    relations = np.where(np.eye(n, dtype=bool)[:, :, None], square, anticommute).all(axis=(1, 2, 3))

    omega_columns, omega_phases = np.broadcast_to(rows, (sets, dim)), np.zeros((sets, dim), dtype=int)
    for a in range(n):
        omega_phases = omega_phases + phases[s, a, omega_columns]
        omega_columns = columns[s, a, omega_columns]
    omega_phases %= 4
    omega_scalar = (omega_columns == rows).all(axis=1) & ((omega_phases == 0).all(axis=1) | (omega_phases == 2).all(axis=1))
    return relations, omega_scalar, _square_signs(omega_columns, omega_phases)


def _square_signs(columns: np.ndarray, phases: np.ndarray) -> np.ndarray:
    """Per row of (S, d) monomial forms, +-1 where the matrix squares to +-I, else 0."""
    import numpy as np

    s, rows = np.arange(len(columns))[:, None], np.arange(columns.shape[1])
    identity = (columns[s, columns] == rows).all(axis=1)
    square = (phases + phases[s, columns]) % 4
    return (identity & (square == 0).all(axis=1)).astype(int) - (identity & (square == 2).all(axis=1))


def gamma_verdicts(gens: Sequence[GeneratorSet]) -> list[GammaVerdict]:
    """For each generator set, in order, its :class:`GammaVerdict`.

    Sets of one generator count and dimension stack along a leading axis:
    their dense gammas are read once into (column, Z4 phase) form and proved
    in one pass of :func:`_relations`.  A set that is not monomial fails
    closed: its relations do not hold and it has no omega sign.
    """
    import numpy as np

    verdicts: list[GammaVerdict | None] = [None] * len(gens)
    groups: dict[tuple[int, int], list[int]] = {}
    for i, gen in enumerate(gens):
        groups.setdefault((gen.sig.n, gen.dim), []).append(i)
    for (n, dim), chunk in groups.items():
        stack = np.array([gens[i].gammas for i in chunk]) if n else np.zeros((len(chunk), 0, dim, dim))
        columns, phases, monomial = _monomial_forms(stack)
        metric = np.array([gens[i].metric for i in chunk], dtype=int).reshape(len(chunk), n)
        relations, omega_scalar, omega_sign = _relations(columns, phases, metric)
        ranks = np.where(omega_scalar & (n % 2 == 1), 1 << n >> 1, 1 << n)
        for i, mono, holds, rank, sign in zip(chunk, monomial.tolist(), relations.tolist(), ranks.tolist(), omega_sign.tolist()):
            verdicts[i] = GammaVerdict(mono, mono and holds, rank, sign if mono else 0)
    return verdicts


def verify_anticommutation(gen: GeneratorSet) -> bool:
    """Exact check of g_i g_j + g_j g_i = 2 eta_ij I on the monomial form; False for a set
    that is not monomial.  The one-set case of :func:`gamma_verdicts`."""
    return gamma_verdicts([gen])[0].relations


def blade_images(gen: GeneratorSet) -> dict[int, np.ndarray]:
    """Matrix image of every blade, as ascending ordered products."""
    import numpy as np

    images = {0: np.eye(gen.dim, dtype=complex)}
    for mask in range(1, 1 << gen.sig.n):
        low = mask & -mask
        images[mask] = gen.gammas[low.bit_length() - 1] @ images[mask ^ low]
    return images


def faithfulness_rank(gen: GeneratorSet) -> int:
    """Dimension of the real linear span of all blade images, exactly.

    The defining relations are checked first (``ValueError`` if they fail,
    or if the set is not monomial).  Trace argument (Lounesto, *Clifford
    Algebras and Spinors*, ss. 16-17): each blade but 1 and the odd-n volume
    element anticommutes with some generator, so the images are orthogonal
    under tr(x^-1 y); for odd n the span halves exactly when the central
    volume image is +-I.  The one-set case of :func:`gamma_verdicts`.
    """
    verdict = gamma_verdicts([gen])[0]
    if not verdict.relations:
        raise ValueError(
            f"gamma matrices of {gen.sig} violate the defining relations" + ("" if verdict.monomial else _NOT_MONOMIAL)
        )
    return verdict.rank


def omega_image(gen: GeneratorSet) -> np.ndarray:
    """Image of the volume element."""
    import numpy as np

    return reduce(np.matmul, gen.gammas, np.eye(gen.dim, dtype=complex))


def omega_image_square_sign(gen: GeneratorSet) -> int:
    """+/-1 with omega_image^2 = sign * I; must match the mod-8 law.  The one-set case of
    :func:`gamma_verdicts`: a set that is not monomial raises ``ValueError``, as one whose
    volume image does not square to +/- I does."""
    verdict = gamma_verdicts([gen])[0]
    if not verdict.omega_sign:
        raise ValueError("volume element image does not square to +/- identity" + ("" if verdict.monomial else _NOT_MONOMIAL))
    return verdict.omega_sign
