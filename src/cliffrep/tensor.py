"""Graded tensor products of Clifford algebras.

Cl(V, Q) graded-tensor Cl(V', Q') multiplies homogeneous pure tensors
with the Koszul sign:

    (a (x) b)(a' (x) b') = (-1)^{deg b * deg a'} (a a') (x) (b b')

and is naturally isomorphic to Cl(V + V', Q + Q').  The two mutually
inverse homomorphisms are

* ``theta``: a (x) b -> image(a) * image(b) inside the combined algebra,
* ``psi``: combined generators -> e_i (x) 1 or 1 (x) e_j.

On basis blades both maps are monomial -> signed monomial, so checking
that they invert each other is exact integer arithmetic, done on numpy
arrays over all blades at once (numpy is imported inside those methods).
"""

from __future__ import annotations

from .algebra import Multivector, Signature, _parity, as_signature, blade_product, blade_signs, grade


def _place(masks, p: int, shift: int, start: int):
    """Shift the ``p`` low bits of ``masks`` up by ``shift`` and move the bits
    above them to begin at bit ``start``; ``masks`` is an int or a numpy array."""
    return (masks & ((1 << p) - 1)) << shift | (masks >> p) << start


def _read_back(masks, q: int, p: int, shift: int, start: int):
    """The ``p + q`` bits that ``_place(., p, shift, start)`` put into ``masks``, back in place."""
    return (masks >> shift & ((1 << p) - 1)) | (masks >> start & ((1 << q) - 1)) << p


def _valid_mask(mask: int, sig: Signature) -> int:
    if mask >> sig.n or mask < 0:
        raise ValueError(f"blade {mask:#x} invalid for {sig}")
    return mask


class GradedTensorProduct:
    """The graded tensor product of Cl(a_sig) and Cl(b_sig)."""

    def __init__(self, a_sig, b_sig):
        self.a_sig = as_signature(a_sig)
        self.b_sig = as_signature(b_sig)
        self.combined = as_signature(
            Signature(self.a_sig.p + self.b_sig.p, self.a_sig.q + self.b_sig.q)
        )
        # Cl(pa+pb, qa+qb) orders its generators A+, B+, A-, B-; each side's
        # blades are placed as (positive count, their shift, start of the negatives)
        self._a_place = (self.a_sig.p, 0, self.combined.p)
        self._b_place = (self.b_sig.p, self.a_sig.p, self.combined.p + self.a_sig.q)

    def embed_a(self, mask: int) -> int:
        """Combined-algebra mask of an A-side blade (order preserving)."""
        return _place(_valid_mask(mask, self.a_sig), *self._a_place)

    def embed_b(self, mask: int) -> int:
        return _place(_valid_mask(mask, self.b_sig), *self._b_place)

    # -- generator index maps (1-based) ---------------------------------

    def embed_a_index(self, i: int) -> int:
        if not 1 <= i <= self.a_sig.n:
            raise ValueError(f"no generator {i} in {self.a_sig}")
        return _place(1 << (i - 1), *self._a_place).bit_length()

    def embed_b_index(self, j: int) -> int:
        if not 1 <= j <= self.b_sig.n:
            raise ValueError(f"no generator {j} in {self.b_sig}")
        return _place(1 << (j - 1), *self._b_place).bit_length()

    # -- the two homomorphisms ------------------------------------------

    def theta_blade(self, mask_a: int, mask_b: int) -> tuple[int, int]:
        """theta(e_A (x) e_B) as ``(sign, combined mask)``."""
        return blade_product(self.embed_a(mask_a), self.embed_b(mask_b), self.combined)

    def _psi(self, masks):
        """psi on combined blades, an int or a numpy array: ``(signs, masks_a, masks_b)``.

        Each side's bits are its placement read back.  The generator images
        are multiplied in ascending combined order A+, B+, A-, B-, so only
        the A- generators pass a B-side factor, and that factor is all of
        B+: the Koszul sign is (-1)^{|A-| |B+|}.
        """
        masks_a = _read_back(masks, self.a_sig.q, *self._a_place)
        masks_b = _read_back(masks, self.b_sig.q, *self._b_place)
        odd = _parity(masks_a >> self.a_sig.p) & _parity(masks_b & ((1 << self.b_sig.p) - 1))
        return 1 - 2 * odd, masks_a, masks_b

    def psi_blade(self, mask: int) -> tuple[int, int, int]:
        """psi(combined blade) as ``(sign, mask_a, mask_b)``."""
        return self._psi(_valid_mask(mask, self.combined))

    def theta_arrays(self):
        """theta on every blade pair: ``(signs, masks)``, both indexed ``[mask_a, mask_b]``."""
        import numpy as np

        ea = _place(np.arange(1 << self.a_sig.n), *self._a_place)[:, None]
        eb = _place(np.arange(1 << self.b_sig.n), *self._b_place)[None, :]
        return blade_signs(ea, eb, self.combined), ea ^ eb

    def psi_arrays(self):
        """psi on every combined blade: ``(signs, masks_a, masks_b)``, indexed by the blade."""
        import numpy as np

        signs, masks_a, masks_b = self._psi(np.arange(1 << self.combined.n))
        return signs.astype(np.int8), masks_a, masks_b

    def tensor_blade_product(
        self, left: tuple[int, int], right: tuple[int, int]
    ) -> tuple[int, int, int]:
        """Koszul-signed product of pure tensor blades: ``(sign, mask_a, mask_b)``."""
        ma, mb = left
        na, nb = right
        sign = -1 if (grade(mb) & 1) and (grade(na) & 1) else 1
        sa, ra = blade_product(ma, na, self.a_sig)
        sb, rb = blade_product(mb, nb, self.b_sig)
        return sign * sa * sb, ra, rb

    def theta(self, tensor_terms: dict[tuple[int, int], object]) -> Multivector:
        """theta on a sparse tensor element {(mask_a, mask_b): coeff}."""
        terms: dict[int, object] = {}
        for (ma, mb), coeff in tensor_terms.items():
            sign, mask = self.theta_blade(ma, mb)
            terms[mask] = terms.get(mask, 0) + sign * coeff
        return Multivector(self.combined, terms)

    def psi(self, x: Multivector) -> dict[tuple[int, int], object]:
        """psi on a combined-algebra element, as a sparse tensor element."""
        if x.sig != self.combined:
            raise ValueError(f"expected an element of {self.combined}")
        out: dict[tuple[int, int], object] = {}
        for mask, coeff in x.terms.items():
            sign, ma, mb = self.psi_blade(mask)
            key = (ma, mb)
            out[key] = out.get(key, 0) + sign * coeff
        return {k: c for k, c in out.items() if c != 0}

    def mutually_inverse(self) -> bool:
        """Exact check that psi . theta = id and theta . psi = id on all blades."""
        import numpy as np

        t_sign, t_mask = self.theta_arrays()
        p_sign, p_a, p_b = self.psi_arrays()
        pairs_a, pairs_b = np.indices(t_mask.shape)
        psi_theta = (
            (p_a[t_mask] == pairs_a) & (p_b[t_mask] == pairs_b) & (p_sign[t_mask] * t_sign == 1)
        ).all()
        theta_psi = ((t_mask[p_a, p_b] == np.arange(p_a.size)) & (t_sign[p_a, p_b] * p_sign == 1)).all()
        return bool(psi_theta and theta_psi)


def graded_tensor(a_sig, b_sig) -> GradedTensorProduct:
    """Combined algebra Cl(pa+pb, qa+qb) with its embedding maps."""
    return GradedTensorProduct(a_sig, b_sig)


def theta_psi_check(a_sig, b_sig) -> bool:
    """True iff the two canonical homomorphisms invert each other exactly."""
    return GradedTensorProduct(a_sig, b_sig).mutually_inverse()
