"""Graded tensor products of Clifford algebras.

Cl(V, Q) graded-tensor Cl(V', Q') multiplies homogeneous pure tensors
with the Koszul sign:

    (a (x) b)(a' (x) b') = (-1)^{deg b * deg a'} (a a') (x) (b b')

and is naturally isomorphic to Cl(V + V', Q + Q').  The two mutually
inverse homomorphisms are

* ``theta``: a (x) b -> image(a) * image(b) inside the combined algebra,
* ``psi``: combined generators -> e_i (x) 1 or 1 (x) e_j.

On basis blades both maps are monomial -> signed monomial, so checking
that they invert each other is exact integer arithmetic on numpy arrays
over all blades at once (numpy is imported inside the functions that use
it).  :func:`theta_psi_checks` checks many signature pairs in one pass:
pairs with the same A and B generator counts stack along a leading axis,
their generator counts become (S, 1, 1) arrays, and psi is evaluated in
closed form at theta's stacked masks, one direction being enough (see
:func:`_round_trips`).  A chunk holds at most ``_CHUNK_ENTRIES`` blades, so
every group of combined n <= 8 is one chunk and a pair of n = 16 is a chunk
of its own.  :func:`theta_psi_check`, one pair, is the one-row case of the
same kernel.

A blade mask passed to ``embed_a``, ``embed_b`` or ``psi_blade`` is checked
by ``algebra._require_blades``, the rule of the ``Multivector`` constructor.
"""

from __future__ import annotations

from .algebra import Signature, _parity, _require_blades, _sign_masks, as_signature, blade_product, grade

#: most blades, pairs x 2^n, that one chunk of :func:`_batches` stacks.  Swept
#: from 2^12 to 2^18 (2 vCPUs, Python 3.11, numpy 2.4, medians of 3): the 495
#: pairs of nmax 8 took 7 ms at 2^12 and 2^14 and 11 ms above; the 3060 of
#: nmax 14 took 0.49 s at 2^14 and 0.61-0.70 s at 2^12, 2^16 and 2^18.
_CHUNK_ENTRIES = 1 << 14


def _place(masks, p, shift, start):
    """Shift the ``p`` low bits of ``masks`` up by ``shift`` and move the bits
    above them to begin at bit ``start``; ``masks`` and the counts are ints or
    numpy arrays that broadcast together."""
    return (masks & ((1 << p) - 1)) << shift | (masks >> p) << start


def _read_back(masks, q, p, shift, start):
    """The ``p + q`` bits that ``_place(., p, shift, start)`` put into ``masks``, back in place."""
    return (masks >> shift & ((1 << p) - 1)) | (masks >> start & ((1 << q) - 1)) << p


def _placements(pa, qa, pb):
    """Where Cl(pa+pb, qa+qb) puts each side's blades, as A's and B's (positive
    count, their shift, start of the negatives): the combined algebra orders its
    generators A+, B+, A-, B-.  The counts are ints or numpy arrays."""
    return (pa, 0, pa + pb), (pb, pa, pa + pb + qa)


def _theta(na: int, nb: int, pa, qa, pb):
    """theta on every blade pair: ``(signs, masks)``, indexed ``[mask_a, mask_b]``.

    The sides have ``na`` and ``nb`` generators.  Int counts give one pair's
    (2^na, 2^nb) grids; (S, 1, 1) arrays of counts give S stacked grids.
    """
    import numpy as np

    a_place, b_place = _placements(pa, qa, pb)
    ea = _place(np.arange(1 << na)[:, None], *a_place)
    eb = _place(np.arange(1 << nb), *b_place)
    return 1 - 2 * _parity(eb & _sign_masks(ea, pa + pb)), ea ^ eb


def _psi(masks, pa, qa, pb, qb):
    """psi on combined blades: ``(signs, masks_a, masks_b)``.

    ``masks`` and the counts are ints or numpy arrays that broadcast
    together.  Each side's bits are its placement read back.  The generator
    images are multiplied in ascending combined order A+, B+, A-, B-, so
    only the A- generators pass a B-side factor, and that factor is all of
    B+: the Koszul sign is (-1)^{|A-| |B+|}.
    """
    a_place, b_place = _placements(pa, qa, pb)
    masks_a = _read_back(masks, qa, *a_place)
    masks_b = _read_back(masks, qb, *b_place)
    odd = _parity(masks_a >> pa) & _parity(masks_b & ((1 << pb) - 1))
    return 1 - 2 * odd, masks_a, masks_b


def _round_trips(theta, counts):
    """Per-row verdicts, a bool array, that psi . theta = id exactly.

    ``theta = (signs, masks)`` stacks (S, 2^na, 2^nb) grids and ``counts`` holds
    (pa, qa, pb, qb) as (S, 1, 1) arrays.  psi, read at each theta mask, must give
    back the pair's A-side and B-side masks, each compared on its own (a combined
    index could hide a B-side carry), with sign product +1; each theta mask must
    lie in 0..2^n - 1, the bits psi reads.  theta is then injective from the 2^n
    blade pairs into the 2^n combined blades, so a bijection whose inverse is psi:
    theta . psi = id follows, signs included.
    """
    import numpy as np

    t_sign, t_mask = theta
    size_a, size_b = t_mask.shape[1:]
    p_sign, p_a, p_b = _psi(t_mask, *counts)
    holds = (
        (0 <= t_mask) & (t_mask < size_a * size_b)
        & (p_a == np.arange(size_a)[:, None])
        & (p_b == np.arange(size_b))
        & (p_sign * t_sign == 1)
    )
    return holds.all(axis=(1, 2))


def _pair(a_sig, b_sig) -> tuple[Signature, Signature, Signature]:
    """``(a, b, Cl(pa+pb, qa+qb))`` of a pair; a combined algebra too large raises ``ValueError``."""
    a, b = as_signature(a_sig), as_signature(b_sig)
    return a, b, Signature(a.p + b.p, a.q + b.q)


class GradedTensorProduct:
    """The graded tensor product of Cl(a_sig) and Cl(b_sig)."""

    def __init__(self, a_sig, b_sig):
        self.a_sig, self.b_sig, self.combined = _pair(a_sig, b_sig)
        self._counts = (self.a_sig.p, self.a_sig.q, self.b_sig.p, self.b_sig.q)
        self._a_place, self._b_place = _placements(*self._counts[:3])

    def embed_a(self, mask: int) -> int:
        """Combined-algebra mask of an A-side blade (order preserving)."""
        _require_blades(self.a_sig, mask, mask)
        return _place(mask, *self._a_place)

    def embed_b(self, mask: int) -> int:
        _require_blades(self.b_sig, mask, mask)
        return _place(mask, *self._b_place)

    # -- the two homomorphisms ------------------------------------------

    def theta_blade(self, mask_a: int, mask_b: int) -> tuple[int, int]:
        """theta(e_A (x) e_B) as ``(sign, combined mask)``."""
        return blade_product(self.embed_a(mask_a), self.embed_b(mask_b), self.combined)

    def psi_blade(self, mask: int) -> tuple[int, int, int]:
        """psi(combined blade) as ``(sign, mask_a, mask_b)``."""
        _require_blades(self.combined, mask, mask)
        return _psi(mask, *self._counts)

    def tensor_blade_product(
        self, left: tuple[int, int], right: tuple[int, int]
    ) -> tuple[int, int, int]:
        """Koszul-signed product of pure tensor blades: ``(sign, mask_a, mask_b)``.

        The reference the tests hold psi to: psi of a combined blade is the
        ordered product of its generators' images under this rule.
        """
        ma, mb = left
        na, nb = right
        sign = -1 if (grade(mb) & 1) and (grade(na) & 1) else 1
        sa, ra = blade_product(ma, na, self.a_sig)
        sb, rb = blade_product(mb, nb, self.b_sig)
        return sign * sa * sb, ra, rb


def _batches(pairs):
    """Chunks of ``pairs`` whose sides have the same generator counts, as
    ``(indices into pairs, theta, counts)`` with one stacked row per pair.

    Sides of na and nb generators fix theta's (2^na, 2^nb) grid, so a chunk
    of up to ``_CHUNK_ENTRIES`` blades stacks along a leading axis, with the
    generator counts ``(pa, qa, pb, qb)`` as (S, 1, 1) arrays.
    """
    import numpy as np

    counts = [(a.p, a.q, b.p, b.q) for a, b, _ in (_pair(*pair) for pair in pairs)]
    groups: dict[tuple[int, int], list[int]] = {}
    for i, (pa, qa, pb, qb) in enumerate(counts):
        groups.setdefault((pa + qa, pb + qb), []).append(i)
    for (na, nb), rows in groups.items():
        step = max(1, _CHUNK_ENTRIES >> na + nb)
        for start in range(0, len(rows), step):
            chunk = rows[start : start + step]
            stacked = np.array([counts[i] for i in chunk]).T[:, :, None, None]
            yield chunk, _theta(na, nb, *stacked[:3]), tuple(stacked)


def theta_psi_checks(pairs) -> list[bool]:
    """For each ``(a_sig, b_sig)`` of a sequence, in order, whether the two
    canonical homomorphisms invert each other exactly: one set of array
    operations per chunk of :func:`_batches`."""
    verdicts = [False] * len(pairs)
    for chunk, theta, counts in _batches(pairs):
        for i, holds in zip(chunk, _round_trips(theta, counts).tolist()):
            verdicts[i] = holds
    return verdicts


def theta_psi_check(a_sig, b_sig) -> bool:
    """True iff the two canonical homomorphisms invert each other exactly:
    the one-row case of :func:`theta_psi_checks`."""
    return theta_psi_checks([(a_sig, b_sig)])[0]
