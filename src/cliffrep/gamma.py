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

All seed entries lie in {0, +/-1, +/-i}, so every check below is exact.
Every Kronecker product is ``_kronecker._kron``, as in :mod:`cliffrep.lorentz`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

import numpy as np

from ._kronecker import _kron
from ._rules import Signature, as_signature
from .factorize import FACTOR_HYPERBOLIC, FACTOR_NEG, FACTOR_POS, Factorization, karoubi_factorize

_X = np.array([[0, 1], [1, 0]], dtype=complex)
_Z = np.array([[1, 0], [0, -1]], dtype=complex)
_J = np.array([[0, 1], [-1, 0]], dtype=complex)
_IX = np.array([[0, 1j], [1j, 0]], dtype=complex)

#: seed pairs (squares match the factor metric)
SEEDS = {
    FACTOR_HYPERBOLIC: (_X, _J),
    FACTOR_POS: (_X, _Z),
    FACTOR_NEG: (_IX, _J),
}

MAX_SYNTHESIS_GENERATORS = 12  #: most generators :func:`build_generators` synthesises (dim 64)


@dataclass(frozen=True)
class GeneratorSet:
    """Gamma matrices of Cl(p,q), ordered positives first."""

    sig: Signature
    gammas: tuple[np.ndarray, ...]
    reducible: bool
    basis_note: str

    @property
    def dim(self) -> int:
        return self.gammas[0].shape[0] if self.gammas else 1

    @property
    def metric(self) -> tuple[int, ...]:
        return (1,) * self.sig.p + (-1,) * self.sig.q


def _even_generator_lists(fact: Factorization) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """(positive-square, negative-square) matrices for even p+q."""
    pos: list[np.ndarray] = []
    neg: list[np.ndarray] = []
    left = np.eye(1, dtype=complex)  # product of volume elements peeled so far
    left_sq = 1
    remaining = sum(f.n for f in fact.factors)
    for i, f in enumerate(fact.factors):
        remaining -= f.n
        pad = np.eye(1 << (remaining // 2), dtype=complex)
        a, b = SEEDS[f]
        for seed, seed_sq in ((a, 1 if f.p >= 1 else -1), (b, -1 if f.q >= 1 else 1)):
            g = _kron(_kron(left, seed), pad)
            (pos if left_sq * seed_sq > 0 else neg).append(g)
        omega = a @ b
        left = _kron(left, omega)
        if i in fact.flip_steps:  # a definite factor: its volume squares to -1
            left_sq = -left_sq
    return pos, neg


def build_generators(sig) -> GeneratorSet:
    """Anticommuting matrices g_i with g_i^2 = +1 (i <= p) or -1 (i > p)."""
    sig = as_signature(sig)
    if sig.n > MAX_SYNTHESIS_GENERATORS:
        raise ValueError(f"generator synthesis supported up to {MAX_SYNTHESIS_GENERATORS} generators")
    if sig.n == 0:
        return GeneratorSet(sig, (), reducible=False, basis_note="trivial 1-dim module")
    if sig.n % 2 == 0:
        fact = karoubi_factorize(sig)
        pos, neg = _even_generator_lists(fact)
        note = "Kronecker chain over factors " + " , ".join(str(f) for f in fact.factors)
        return GeneratorSet(sig, tuple(pos + neg), reducible=False, basis_note=note)

    # odd: block-double the even-truncated algebra
    if sig.q >= 1:
        trunc = Signature(sig.p, sig.q - 1)
        last_metric = -1
    else:
        trunc = Signature(sig.p - 1, 0)
        last_metric = 1
    base = build_generators(trunc)
    eye2 = np.eye(2, dtype=complex)
    gammas = [_kron(eye2, g) for g in base.gammas]
    omega = omega_image(base)
    scale = 1 if _square_sign(omega) == last_metric else 1j
    last = _kron(_Z, scale * omega)
    gammas.append(last)
    note = f"two blocks of the {trunc} module, last generator = +/- scaled volume element"
    return GeneratorSet(sig, tuple(gammas), reducible=True, basis_note=note)


def verify_anticommutation(gen: GeneratorSet) -> bool:
    """Exact check of g_i g_j + g_j g_i = 2 eta_ij I."""
    eye = np.eye(gen.dim, dtype=complex)
    metric = gen.metric
    for i, gi in enumerate(gen.gammas):
        for j in range(i, len(gen.gammas)):
            gj = gen.gammas[j]
            anti = gi @ gj + gj @ gi
            expected = 2 * metric[i] * eye if i == j else np.zeros_like(eye)
            if not np.array_equal(anti, expected):
                return False
    return True


def blade_images(gen: GeneratorSet) -> dict[int, np.ndarray]:
    """Matrix image of every blade, as ascending ordered products."""
    images = {0: np.eye(gen.dim, dtype=complex)}
    for mask in range(1, 1 << gen.sig.n):
        low = mask & -mask
        images[mask] = gen.gammas[low.bit_length() - 1] @ images[mask ^ low]
    return images


def faithfulness_rank(gen: GeneratorSet) -> int:
    """Dimension of the real linear span of all blade images, exactly.

    The defining relations are checked first (``ValueError`` if they fail).
    Trace argument (Lounesto, *Clifford Algebras and Spinors*, ss. 16-17):
    each blade but 1 and the odd-n volume element anticommutes with some
    generator, so the images are orthogonal under tr(x^-1 y); for odd n the
    span halves exactly when the central volume image is +-I.
    """
    if not verify_anticommutation(gen):
        raise ValueError(f"gamma matrices of {gen.sig} violate the defining relations")
    omega, eye = omega_image(gen), np.eye(gen.dim)
    if gen.sig.n % 2 and (np.array_equal(omega, eye) or np.array_equal(omega, -eye)):
        return 1 << (gen.sig.n - 1)
    return 1 << gen.sig.n


def omega_image(gen: GeneratorSet) -> np.ndarray:
    """Image of the volume element."""
    return reduce(np.matmul, gen.gammas, np.eye(gen.dim, dtype=complex))


def omega_image_square_sign(gen: GeneratorSet) -> int:
    """+/-1 with omega_image^2 = sign * I; must match the mod-8 law."""
    return _square_sign(omega_image(gen))


def _square_sign(m: np.ndarray) -> int:
    sq = m @ m
    eye = np.eye(m.shape[0])
    if np.array_equal(sq, eye):
        return 1
    if np.array_equal(sq, -eye):
        return -1
    raise ValueError("volume element image does not square to +/- identity")
