"""Graded tensor products: embeddings, Koszul signs, mutual inverses."""

import random

import numpy as np
import pytest

from cliffrep import checks, tensor
from cliffrep.algebra import Multivector, Signature, all_blades, blade_product, grade
from cliffrep.tensor import GradedTensorProduct, theta_psi_check, theta_psi_checks


class TestCombinedAlgebra:
    def test_signature_addition(self):
        t = GradedTensorProduct((1, 1), (0, 2))
        assert t.combined == Signature(1, 3)

    def test_unit_factor(self):
        t = GradedTensorProduct((0, 0), (2, 1))
        assert t.combined == Signature(2, 1)
        assert theta_psi_check((0, 0), (2, 1))

    def test_size_overflow(self):
        with pytest.raises(ValueError):
            GradedTensorProduct((5, 4), (4, 4))


def embedded_index(t, side, i):
    """The combined index of generator e_i of one side, read off that side's embedding of the blade e_i."""
    (mask,) = Multivector.generator(getattr(t, f"{side}_sig"), i).terms
    return getattr(t, f"embed_{side}")(mask).bit_length()


class TestEmbeddings:
    def test_index_maps_preserve_metric(self):
        t = GradedTensorProduct((1, 1), (2, 1))
        # combined is Cl(3,2): positives 1..3, negatives 4..5
        assert embedded_index(t, "a", 1) == 1      # A positive
        assert embedded_index(t, "a", 2) == 4      # A negative
        assert embedded_index(t, "b", 1) == 2      # B positives after A's
        assert embedded_index(t, "b", 2) == 3
        assert embedded_index(t, "b", 3) == 5      # B negative after A's negatives

    @pytest.mark.parametrize("side,i,n", [("a", 0, 2), ("a", -1, 2), ("a", 3, 2), ("b", 0, 3), ("b", -1, 3), ("b", 4, 3)])
    def test_index_out_of_range(self, side, i, n):
        """The generator-index error of metric_sign, for the side's own count n."""
        t = GradedTensorProduct((1, 1), (2, 1))
        with pytest.raises(ValueError) as err:
            embedded_index(t, side, i)
        assert str(err.value) == f"generator index {i} outside 1..{n}"

    @pytest.mark.parametrize(
        "embed,mask,message",
        [
            ("embed_a", 1.5, "blade mask must be an integer, got 1.5"),
            ("embed_b", None, "blade mask must be an integer, got None"),
            ("psi_blade", 2.0, "blade mask must be an integer, got 2.0"),
            ("psi_blade", "3", "blade mask must be an integer, got '3'"),
        ],
    )
    def test_non_integer_mask(self, embed, mask, message):
        """The constructor's blade-mask rule, which also names a mask out of range (test_algebra)."""
        t = GradedTensorProduct((1, 1), (2, 1))
        with pytest.raises(ValueError) as err:
            getattr(t, embed)(mask)
        assert str(err.value) == message

    def test_embedded_generators_anticommute(self):
        # the Koszul sign makes e'_1 and e''_1 anticommute inside Cl(2,0)
        t = GradedTensorProduct((1, 0), (1, 0))
        sig = t.combined
        a = Multivector.from_mask(sig, t.embed_a(0b1))
        b = Multivector.from_mask(sig, t.embed_b(0b1))
        assert a * b == -(b * a)
        assert (a * b).terms


class TestThetaPsi:
    def test_spacetime_factorization_case(self):
        assert theta_psi_check((1, 1), (0, 2))

    def test_two_line_case(self):
        assert theta_psi_check((1, 0), (1, 0))

    @pytest.mark.parametrize("na", range(0, 7))
    def test_exhaustive_small_pairs(self, na):
        for pa in range(na + 1):
            for nb in range(0, 7 - na):
                for pb in range(nb + 1):
                    assert theta_psi_check((pa, na - pa), (pb, nb - pb))

    def test_theta_is_algebra_homomorphism(self):
        # theta(x y) = theta(x) theta(y) on every pair of pure tensor blades
        t = GradedTensorProduct((1, 1), (0, 2))
        for ma in all_blades(t.a_sig):
            for mb in all_blades(t.b_sig):
                for na in all_blades(t.a_sig):
                    for nb in all_blades(t.b_sig):
                        s, ra, rb = t.tensor_blade_product((ma, mb), (na, nb))
                        s_xy, m_xy = t.theta_blade(ra, rb)
                        (s_x, m_x), (s_y, m_y) = t.theta_blade(ma, mb), t.theta_blade(na, nb)
                        s_prod, m_prod = blade_product(m_x, m_y, t.combined)
                        assert (s * s_xy, m_xy) == (s_x * s_y * s_prod, m_prod)

    def test_koszul_sign_rule(self):
        t = GradedTensorProduct((2, 0), (0, 2))
        # (1 (x) b)(a' (x) 1) = (-1)^{deg b deg a'} a' (x) b
        for mb in all_blades(t.b_sig):
            for na in all_blades(t.a_sig):
                s, ra, rb = t.tensor_blade_product((0, mb), (na, 0))
                expected = -1 if (grade(mb) & 1) and (grade(na) & 1) else 1
                assert (s, ra, rb) == (expected, na, mb)

    def test_psi_roundtrip_on_elements(self):
        """theta(psi(x)) = x, blade by blade, on every blade of the combined algebra and on a mixed element."""
        t = GradedTensorProduct((1, 1), (1, 0))
        for mask in all_blades(t.combined):
            sign, ma, mb = t.psi_blade(mask)
            assert t.theta_blade(ma, mb) == (sign, mask)
        x = Multivector(t.combined, {0b101: 2, 0b011: -1, 0: 7})
        back = Multivector(t.combined)
        for mask, c in x.terms.items():
            sign, ma, mb = t.psi_blade(mask)
            s, m = t.theta_blade(ma, mb)
            back = back + Multivector(t.combined, {m: sign * s * c})
        assert back == x


def _pairs(nmax):
    sigs = [Signature(p, n - p) for n in range(nmax + 1) for p in range(n + 1)]
    return [(a, b) for a in sigs for b in sigs if a.n + b.n <= nmax]


def written_out_index(t, side, i):
    """The generator index maps as written out: Cl(pa+pb, qa+qb) takes A's
    positive generators, then B's, then A's negative ones, then B's."""
    a, b, p = t.a_sig, t.b_sig, t.combined.p
    if side == "a":
        return i if i <= a.p else p + (i - a.p)
    return a.p + i if i <= b.p else p + a.q + (i - b.p)


def written_out_embedding(t, side, mask):
    return sum(1 << (written_out_index(t, side, i + 1) - 1) for i in range(mask.bit_length()) if mask >> i & 1)


def one_row(a, b):
    """The one-row chunk of :func:`tensor._batches` that ``theta_psi_check(a, b)`` checks: ``(theta, counts)``."""
    ((_chunk, theta, counts),) = tensor._batches([(a, b)])
    return theta, counts


class TestPlacementRule:
    """The closed-form placement against the written-out index maps."""

    @staticmethod
    def _assert_blades(t, masks_a, masks_b):
        assert [t.embed_a(m) for m in masks_a] == [written_out_embedding(t, "a", m) for m in masks_a]
        assert [t.embed_b(m) for m in masks_b] == [written_out_embedding(t, "b", m) for m in masks_b]
        for side, sig in (("a", t.a_sig), ("b", t.b_sig)):  # each generator e_i, a one-generator blade
            assert [embedded_index(t, side, i) for i in range(1, sig.n + 1)] == [
                written_out_index(t, side, i) for i in range(1, sig.n + 1)
            ]

    @pytest.mark.parametrize("a,b", _pairs(8), ids=str)
    def test_every_blade_up_to_eight_generators(self, a, b):
        t = GradedTensorProduct(a, b)
        self._assert_blades(t, all_blades(a), all_blades(b))
        (_signs, masks), _counts = one_row(a, b)
        assert masks[0].tolist() == [
            [written_out_embedding(t, "a", ma) ^ written_out_embedding(t, "b", mb) for mb in all_blades(b)]
            for ma in all_blades(a)
        ]

    @pytest.mark.parametrize("a,b", [((16, 0), (0, 0)), ((0, 0), (0, 16)), ((8, 0), (0, 8)), ((3, 5), (2, 6))])
    def test_sampled_blades_at_sixteen_generators(self, a, b):
        t = GradedTensorProduct(a, b)
        rng = random.Random(f"place{a}{b}")
        masks_a = [rng.randrange(1 << t.a_sig.n) for _ in range(500)]
        masks_b = [rng.randrange(1 << t.b_sig.n) for _ in range(500)]
        self._assert_blades(t, masks_a, masks_b)
        (_signs, masks), _counts = one_row(a, b)
        assert [masks[0, ma, mb] for ma, mb in zip(masks_a, masks_b)] == [
            written_out_embedding(t, "a", ma) ^ written_out_embedding(t, "b", mb) for ma, mb in zip(masks_a, masks_b)
        ]


def generator_images(t):
    """psi on each combined generator e_g, keyed by g: e_i (x) 1 or 1 (x) e_j, by the written-out index maps."""
    images = {written_out_index(t, "a", i): (1 << (i - 1), 0) for i in range(1, t.a_sig.n + 1)}
    return images | {written_out_index(t, "b", j): (0, 1 << (j - 1)) for j in range(1, t.b_sig.n + 1)}


def psi_by_definition(t, gens, rest, mask):
    """psi(e_mask) as the ordered product psi(e_rest) psi(e_g), where g is the top
    generator of ``mask`` and ``rest = (sign, mask_a, mask_b)`` is psi of mask without it."""
    sign, ma, mb = rest
    s, ra, rb = t.tensor_blade_product((ma, mb), gens[mask.bit_length()])
    return sign * s, ra, rb


def without_top(mask):
    return mask ^ 1 << mask.bit_length() - 1


class TestPsiDefinition:
    """psi_blade against the ordered product of generator images under the Koszul rule."""

    @pytest.mark.parametrize("a,b", _pairs(8), ids=str)
    def test_every_blade_up_to_eight_generators(self, a, b):
        t = GradedTensorProduct(a, b)
        gens = generator_images(t)
        images = [(1, 0, 0)]
        for m in range(1, 1 << t.combined.n):
            images.append(psi_by_definition(t, gens, images[without_top(m)], m))
        assert [t.psi_blade(m) for m in all_blades(t.combined)] == images

    @pytest.mark.parametrize("a,b", [((16, 0), (0, 0)), ((0, 0), (0, 16)), ((8, 0), (0, 8)), ((3, 5), (2, 6))])
    def test_sampled_blades_at_sixteen_generators(self, a, b):
        # one product per sampled blade: psi of the blade without its top
        # generator is taken from psi_blade itself
        t = GradedTensorProduct(a, b)
        gens = generator_images(t)
        rng = random.Random(f"psi{a}{b}")
        for m in rng.sample(range(1, 1 << t.combined.n), 500):
            assert t.psi_blade(m) == psi_by_definition(t, gens, t.psi_blade(without_top(m)), m)


class TestBladeArrays:
    """theta_psi_check's one-row chunk: its arrays, its verdict, and faults fed to the round trip."""

    # every pair `verify` sweeps at its default nmax of 8
    @pytest.mark.parametrize("a,b", _pairs(8), ids=str)
    def test_arrays_match_per_blade_maps(self, a, b):
        assert assert_rows_match_per_blade_maps([(a, b)]) == [[0]]

    @pytest.mark.parametrize("a,b", [((16, 0), (0, 0)), ((0, 0), (0, 16)), ((8, 0), (0, 8)), ((3, 5), (2, 6))])
    def test_sixteen_generators(self, a, b):
        # TestGroupedChecks holds these one-pair chunks to the per-blade maps on sampled blades
        assert theta_psi_check(a, b) is True

    def test_detects_wrong_generator_images(self, monkeypatch):
        theta, counts = one_row((1, 0), (1, 0))
        assert tensor._round_trips(theta, counts).tolist() == [True]
        # psi(e1) = 1 (x) e1 instead of e1 (x) 1
        monkeypatch.setattr(tensor, "_psi", psi_sides_swapped(tensor._psi))
        assert tensor._round_trips(theta, counts).tolist() == [False]

    def test_detects_wrong_sign(self):
        (signs, masks), counts = one_row((2, 1), (1, 1))
        flipped = signs.copy()
        flipped[0, 3, 1] *= -1
        assert tensor._round_trips((signs, masks), counts).tolist() == [True]
        assert tensor._round_trips((flipped, masks), counts).tolist() == [False]


def assert_rows_match_per_blade_maps(pairs, blades=None):
    """Every stacked row of ``tensor._batches(pairs)`` against its pair: theta's
    grid against theta_blade, and psi read with the row's stacked counts against
    psi_blade, on every blade or on ``blades(t)`` samples; returns the chunks'
    index lists."""
    chunks = []
    for chunk, (t_signs, t_masks), counts in tensor._batches(pairs):
        chunks.append(chunk)
        for row, i in enumerate(chunk):
            t = GradedTensorProduct(*pairs[i])
            a_b, combined = blades(t) if blades else (
                [(ma, mb) for ma in all_blades(t.a_sig) for mb in all_blades(t.b_sig)], all_blades(t.combined)
            )
            assert [(int(t_signs[row, ma, mb]), int(t_masks[row, ma, mb])) for ma, mb in a_b] == [
                t.theta_blade(ma, mb) for ma, mb in a_b
            ]
            row_counts = [c[row, 0, 0] for c in counts]
            assert row_counts == [t.a_sig.p, t.a_sig.q, t.b_sig.p, t.b_sig.q]
            psi = zip(*(x.tolist() for x in tensor._psi(np.array(combined), *row_counts)))
            assert list(psi) == [t.psi_blade(m) for m in combined]
    return chunks


def sampled_blades(t, k=200):
    rng = random.Random(f"rows{t.a_sig}{t.b_sig}")
    a_b = [(rng.randrange(1 << t.a_sig.n), rng.randrange(1 << t.b_sig.n)) for _ in range(k)]
    return a_b, [rng.randrange(1 << t.combined.n) for _ in range(k)]


def per_pair_sweep(nmax):
    """check_theta_psi's ``(passed, detail, covered)`` by one theta_psi_check per pair."""
    pairs = _pairs(nmax)  # the sweep's order: a over signatures, b over those that fit beside it
    first = next((f"({a.p},{a.q}) x ({b.p},{b.q})" for a, b in pairs if not theta_psi_check(a, b)), None)
    return first is None, f"combined n <= {nmax}" if first is None else first, len(pairs)


def psi_without_koszul_sign(psi):
    def wrapped(*args):
        signs, masks_a, masks_b = psi(*args)
        return signs * 0 + 1, masks_a, masks_b
    return wrapped


def psi_sides_swapped(psi):
    def wrapped(*args):
        signs, masks_a, masks_b = psi(*args)
        return signs, masks_b, masks_a
    return wrapped


def psi_with_a_b_side_carry(psi):
    """psi moving one unit of its A-side mask into a carry above the B side: the
    combined index ``mask_a * 2^nb + mask_b`` stays right, so only the side-by-side
    comparison sees it."""
    def wrapped(masks, pa, qa, pb, qb):
        signs, masks_a, masks_b = psi(masks, pa, qa, pb, qb)
        carry = masks_a > 0
        return signs, masks_a - carry, masks_b + (carry << pb + qb)
    return wrapped


def theta_with_a_stray_high_bit(theta):
    """theta with bit n set on every mask: psi reads only the low n bits, so only the range clause sees it."""
    def wrapped(na, nb, pa, qa, pb):
        signs, masks = theta(na, nb, pa, qa, pb)
        return signs, masks | 1 << na + nb
    return wrapped


def theta_with_bit_zero_cleared(theta):
    """theta with bit 0 of every mask cleared: the two blade pairs whose images differ in bit 0 share one mask."""
    def wrapped(na, nb, pa, qa, pb):
        signs, masks = theta(na, nb, pa, qa, pb)
        return signs, masks & ~1
    return wrapped


def b_side_shifted_up_one(placements):
    def wrapped(pa, qa, pb):
        a_place, (p, shift, start) = placements(pa, qa, pb)
        return a_place, (p, shift + 1, start)
    return wrapped


def one_theta_sign_flipped_for_21_x_11(theta):
    """theta with the sign of its last blade pair flipped in Cl(2,1) x Cl(1,1) only."""
    def wrapped(na, nb, pa, qa, pb):
        signs, masks = theta(na, nb, pa, qa, pb)
        corner = np.zeros(signs.shape[-2:], bool)
        corner[-1, -1] = True
        hit = (pa == 2) & (qa == 1) & (pb == 1) & (nb == 2) & corner
        return np.where(hit, -signs, signs), masks
    return wrapped


class TestGroupedChecks:
    def test_every_row_up_to_eight_generators(self):
        # the 495 pairs `verify` sweeps at its default nmax, every group one chunk
        pairs = _pairs(8)
        chunks = assert_rows_match_per_blade_maps(pairs)
        assert sorted(i for chunk in chunks for i in chunk) == list(range(len(pairs)))
        assert len(chunks) == len({(a.n, b.n) for a, b in pairs}) == 45

    def test_sampled_rows_at_sixteen_generators(self):
        pairs = [((16, 0), (0, 0)), ((0, 0), (0, 16)), ((8, 0), (0, 8)), ((3, 5), (2, 6)), ((5, 3), (2, 6))]
        pairs = [(Signature(*a), Signature(*b)) for a, b in pairs]
        chunks = assert_rows_match_per_blade_maps(pairs, sampled_blades)
        assert sorted(chunks) == [[0], [1], [2], [3], [4]]  # one pair per chunk at n = 16

    def test_group_split_across_chunks(self):
        # sides of 5 and 6 generators: 42 pairs, 8 to a chunk of 2^14 blades
        pairs = [(Signature(pa, 5 - pa), Signature(pb, 6 - pb)) for pa in range(6) for pb in range(7)]
        chunks = assert_rows_match_per_blade_maps(pairs, sampled_blades)
        assert [len(chunk) for chunk in chunks] == [8, 8, 8, 8, 8, 2]
        assert theta_psi_checks(pairs) == [theta_psi_check(a, b) for a, b in pairs] == [True] * 42

    def test_empty_and_oversized(self):
        assert theta_psi_checks([]) == []
        with pytest.raises(ValueError):
            theta_psi_checks([((1, 1), (0, 2)), ((5, 4), (4, 4))])

    @pytest.mark.parametrize("nmax", range(11))
    def test_same_verdict_as_the_per_pair_sweep(self, nmax):
        got = checks.check_theta_psi(nmax, 0)
        assert (got.passed, got.detail, got.covered) == per_pair_sweep(nmax) == (
            True, f"combined n <= {nmax}", len(_pairs(nmax))
        )

    @pytest.mark.parametrize(
        "target,fault,first",
        [
            ("_psi", psi_without_koszul_sign, "(0,1) x (1,0)"),
            ("_placements", b_side_shifted_up_one, "(0,0) x (1,0)"),
            ("_theta", one_theta_sign_flipped_for_21_x_11, "(2,1) x (1,1)"),
            ("_psi", psi_sides_swapped, "(0,0) x (0,1)"),
            ("_theta", theta_with_a_stray_high_bit, "(0,0) x (0,0)"),
            ("_theta", theta_with_bit_zero_cleared, "(0,0) x (0,1)"),
            ("_psi", psi_with_a_b_side_carry, "(0,1) x (0,0)"),
        ],
        ids=[
            "psi-koszul-sign", "b-placement-shift", "one-pair-theta-sign",
            "psi-sides-swapped", "theta-stray-high-bit", "theta-two-pairs-one-mask", "psi-b-side-carry",
        ],
    )
    def test_faults_name_the_per_pair_sweeps_first_pair(self, monkeypatch, target, fault, first):
        monkeypatch.setattr(tensor, target, fault(getattr(tensor, target)))
        got = checks.check_theta_psi(8, 0)
        assert (got.passed, got.detail, got.covered) == per_pair_sweep(8) == (False, first, 495)


class TestBladeRange:
    @pytest.mark.parametrize("mask_a,mask_b", [(-1, 0), (-2, 0), (4, 0), (0, -1), (0, 4), (1 << 20, 0)])
    def test_theta_rejects_foreign_blades(self, mask_a, mask_b):
        t = GradedTensorProduct((1, 1), (0, 2))
        with pytest.raises(ValueError):
            t.theta_blade(mask_a, mask_b)

    @pytest.mark.parametrize("mask", [-1, 4])
    def test_embeddings_reject_foreign_blades(self, mask):
        t = GradedTensorProduct((1, 1), (0, 2))
        with pytest.raises(ValueError):
            t.embed_a(mask)
        with pytest.raises(ValueError):
            t.embed_b(mask)

    @pytest.mark.parametrize("mask", [-1, 16])
    def test_psi_rejects_foreign_blades(self, mask):
        with pytest.raises(ValueError):
            GradedTensorProduct((1, 1), (0, 2)).psi_blade(mask)
